#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "ct/phantom.hpp"
#include "recon/os_sart.hpp"
#include "test_helpers.hpp"
#include "util/stats.hpp"

namespace cscv::recon {
namespace {

using cscv::testing::cached_ct_csr;

TEST(ViewSubsets, PartitionCoversAllRowsOnce) {
  const auto& csr = cached_ct_csr<double>(16, 12);
  const core::OperatorLayout layout{16, ct::standard_num_bins(16), 12};
  auto subsets = split_view_subsets(csr, layout, 4);
  ASSERT_EQ(subsets.size(), 4u);
  std::vector<int> seen(static_cast<std::size_t>(csr.rows()), 0);
  sparse::offset_t nnz = 0;
  for (const auto& s : subsets) {
    nnz += s.matrix.nnz();
    for (auto r : s.global_rows) seen[static_cast<std::size_t>(r)]++;
  }
  EXPECT_EQ(nnz, csr.nnz());
  for (int v : seen) EXPECT_EQ(v, 1);
}

TEST(ViewSubsets, InterleavedStrata) {
  const auto& csr = cached_ct_csr<double>(16, 12);
  const core::OperatorLayout layout{16, ct::standard_num_bins(16), 12};
  auto subsets = split_view_subsets(csr, layout, 3);
  // Subset 0 must own views 0, 3, 6, 9.
  const int bins = layout.num_bins;
  EXPECT_EQ(subsets[0].global_rows[0], layout.row_of(0, 0));
  EXPECT_EQ(subsets[0].global_rows[static_cast<std::size_t>(bins)], layout.row_of(3, 0));
}

TEST(ViewSubsets, SubsetSpmvMatchesSlicedFull) {
  const auto& csr = cached_ct_csr<double>(16, 12);
  const core::OperatorLayout layout{16, ct::standard_num_bins(16), 12};
  auto subsets = split_view_subsets(csr, layout, 4);
  auto x = sparse::random_vector<double>(static_cast<std::size_t>(csr.cols()), 3);
  util::AlignedVector<double> y_full(static_cast<std::size_t>(csr.rows()));
  csr.spmv(x, y_full);
  for (const auto& s : subsets) {
    util::AlignedVector<double> y_sub(s.global_rows.size());
    s.matrix.spmv(x, y_sub);
    for (std::size_t r = 0; r < y_sub.size(); ++r) {
      EXPECT_NEAR(y_sub[r], y_full[static_cast<std::size_t>(s.global_rows[r])], 1e-12);
    }
  }
}

TEST(ViewSubsets, OffsetStrataAreGlobalStrataRestrictedToTheRange) {
  // A contiguous view range [vb, ve) of a scan, split with first_view = vb,
  // must yield the scan's strata restricted to the range: the same rows in
  // the same order, with the same column ids and values.
  const int views = 12, num_subsets = 4;
  const auto& csr = cached_ct_csr<double>(16, views);
  const core::OperatorLayout layout{16, ct::standard_num_bins(16), views};
  const int bins = layout.num_bins;
  const auto global = split_view_subsets(csr, layout, num_subsets);
  const auto row_ptr = csr.row_ptr();
  for (const auto& [vb, ve] : {std::pair{0, 5}, std::pair{5, 7}, std::pair{7, views}}) {
    // The range's rows of `csr` as a standalone matrix (what a shard holds).
    const auto r0 = static_cast<std::size_t>(vb * bins);
    const auto r1 = static_cast<std::size_t>(ve * bins);
    util::AlignedVector<sparse::offset_t> ptr(r1 - r0 + 1);
    for (std::size_t r = r0; r <= r1; ++r) ptr[r - r0] = row_ptr[r] - row_ptr[r0];
    const auto n0 = static_cast<std::ptrdiff_t>(row_ptr[r0]);
    const auto n1 = static_cast<std::ptrdiff_t>(row_ptr[r1]);
    util::AlignedVector<sparse::index_t> cols(csr.col_idx().begin() + n0,
                                              csr.col_idx().begin() + n1);
    util::AlignedVector<double> vals(csr.values().begin() + n0, csr.values().begin() + n1);
    const sparse::CsrMatrix<double> range(static_cast<sparse::index_t>(r1 - r0), csr.cols(),
                                          std::move(ptr), std::move(cols), std::move(vals));
    const core::OperatorLayout local{16, bins, ve - vb};

    const auto strata = split_view_subsets(range, local, num_subsets, vb);
    ASSERT_EQ(strata.size(), global.size());
    for (std::size_t s = 0; s < strata.size(); ++s) {
      std::vector<std::size_t> want;  // positions in global[s] that fall in the range
      for (std::size_t i = 0; i < global[s].global_rows.size(); ++i) {
        const auto gr = static_cast<std::size_t>(global[s].global_rows[i]);
        if (gr >= r0 && gr < r1) want.push_back(i);
      }
      const auto& sub = strata[s];
      ASSERT_EQ(sub.global_rows.size(), want.size()) << "range " << vb << " stratum " << s;
      ASSERT_EQ(static_cast<std::size_t>(sub.matrix.rows()), want.size());
      const auto& g = global[s].matrix;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(static_cast<std::size_t>(sub.global_rows[i]) + r0,
                  static_cast<std::size_t>(global[s].global_rows[want[i]]));
        const auto lb = sub.matrix.row_ptr()[i], le = sub.matrix.row_ptr()[i + 1];
        const auto gb = g.row_ptr()[want[i]], ge = g.row_ptr()[want[i] + 1];
        ASSERT_EQ(le - lb, ge - gb);
        for (sparse::offset_t k = 0; k < le - lb; ++k) {
          EXPECT_EQ(sub.matrix.col_idx()[static_cast<std::size_t>(lb + k)],
                    g.col_idx()[static_cast<std::size_t>(gb + k)]);
          EXPECT_EQ(sub.matrix.values()[static_cast<std::size_t>(lb + k)],
                    g.values()[static_cast<std::size_t>(gb + k)]);
        }
      }
    }
  }
}

TEST(OsSart, ConvergesFasterThanSirtPerPass) {
  // The point of ordered subsets: more corrections per data pass.
  const int image = 16, views = 24;
  auto g = ct::standard_geometry(image, views);
  auto csr = sparse::CsrMatrix<double>::from_coo(
      ct::build_system_matrix_csc<double>(g).to_coo());
  const core::OperatorLayout layout = core::OperatorLayout::from_geometry(g);
  CsrOperator<double> op(csr);
  auto x_true = ct::rasterize<double>(ct::shepp_logan_modified(), image);
  util::AlignedVector<double> b(static_cast<std::size_t>(csr.rows()));
  op.forward(x_true, b);

  util::AlignedVector<double> x_os(static_cast<std::size_t>(csr.cols()), 0.0);
  util::AlignedVector<double> x_si(static_cast<std::size_t>(csr.cols()), 0.0);
  auto s_os = os_sart<double>(csr, layout, b, x_os, {.iterations = 5, .num_subsets = 8});
  auto s_si = sirt<double>(op, b, x_si, {.iterations = 5});
  EXPECT_LT(s_os.residual_norms.back(), s_si.residual_norms.back());
}

TEST(OsSart, SingleSubsetEqualsSirtUpdate) {
  // With one subset OS-SART degenerates to SIRT (same normalizers).
  const int image = 16, views = 12;
  const auto& csr = cached_ct_csr<double>(image, views);
  const core::OperatorLayout layout{image, ct::standard_num_bins(image), views};
  CsrOperator<double> op(csr);
  auto x_true = ct::rasterize<double>(ct::shepp_logan_modified(), image);
  util::AlignedVector<double> b(static_cast<std::size_t>(csr.rows()));
  op.forward(x_true, b);
  util::AlignedVector<double> x1(static_cast<std::size_t>(csr.cols()), 0.0);
  util::AlignedVector<double> x2(static_cast<std::size_t>(csr.cols()), 0.0);
  os_sart<double>(csr, layout, b, x1, {.iterations = 3, .num_subsets = 1});
  sirt<double>(op, b, x2, {.iterations = 3});
  EXPECT_LT(util::rel_l2_error<double>(x1, x2), 1e-10);
}

TEST(OsSart, ResidualTrendsDown) {
  const int image = 16, views = 24;
  auto g = ct::standard_geometry(image, views);
  auto csr = sparse::CsrMatrix<double>::from_coo(
      ct::build_system_matrix_csc<double>(g).to_coo());
  const core::OperatorLayout layout = core::OperatorLayout::from_geometry(g);
  auto x_true = ct::rasterize<double>(ct::shepp_logan_modified(), image);
  util::AlignedVector<double> b(static_cast<std::size_t>(csr.rows()));
  csr.spmv(x_true, b);
  util::AlignedVector<double> x(static_cast<std::size_t>(csr.cols()), 0.0);
  // Damped relaxation: undamped ordered subsets settle into a limit cycle
  // instead of converging; lambda < 1 is standard practice.
  auto stats = os_sart<double>(
      csr, layout, b, x, {.iterations = 8, .num_subsets = 6, .relaxation = 0.6});
  EXPECT_LT(stats.residual_norms.back(), 0.5 * stats.residual_norms.front());
}

TEST(OsSart, RejectsTooManySubsets) {
  const auto& csr = cached_ct_csr<double>(16, 12);
  const core::OperatorLayout layout{16, ct::standard_num_bins(16), 12};
  util::AlignedVector<double> b(static_cast<std::size_t>(csr.rows()), 0.0);
  util::AlignedVector<double> x(static_cast<std::size_t>(csr.cols()), 0.0);
  EXPECT_THROW(os_sart<double>(csr, layout, b, x, {.iterations = 1, .num_subsets = 13}),
               util::CheckError);
}

}  // namespace
}  // namespace cscv::recon
