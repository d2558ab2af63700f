#include "recon/os_sart.hpp"

#include <algorithm>
#include <cmath>

#include "recon/colmath.hpp"
#include "util/assertx.hpp"

namespace cscv::recon {

template <typename T>
std::vector<ViewSubset<T>> split_view_subsets(const sparse::CsrMatrix<T>& a,
                                              const core::OperatorLayout& layout,
                                              int num_subsets) {
  CSCV_CHECK(a.rows() == layout.num_rows());
  CSCV_CHECK(num_subsets >= 1 && num_subsets <= layout.num_views);
  auto row_ptr = a.row_ptr();
  auto col_idx = a.col_idx();
  auto vals = a.values();

  std::vector<ViewSubset<T>> subsets;
  subsets.reserve(static_cast<std::size_t>(num_subsets));
  for (int s = 0; s < num_subsets; ++s) {
    ViewSubset<T> subset;
    // Interleaved strata: views s, s+n, s+2n ... (maximal angular spread).
    for (int v = s; v < layout.num_views; v += num_subsets) {
      for (int bin = 0; bin < layout.num_bins; ++bin) {
        subset.global_rows.push_back(layout.row_of(v, bin));
      }
    }
    const auto sub_rows = subset.global_rows.size();
    util::AlignedVector<sparse::offset_t> sub_ptr(sub_rows + 1, 0);
    for (std::size_t r = 0; r < sub_rows; ++r) {
      const auto gr = static_cast<std::size_t>(subset.global_rows[r]);
      sub_ptr[r + 1] = sub_ptr[r] + (row_ptr[gr + 1] - row_ptr[gr]);
    }
    util::AlignedVector<sparse::index_t> sub_cols(static_cast<std::size_t>(sub_ptr[sub_rows]));
    util::AlignedVector<T> sub_vals(static_cast<std::size_t>(sub_ptr[sub_rows]));
    for (std::size_t r = 0; r < sub_rows; ++r) {
      const auto gr = static_cast<std::size_t>(subset.global_rows[r]);
      std::copy(col_idx.begin() + row_ptr[gr], col_idx.begin() + row_ptr[gr + 1],
                sub_cols.begin() + sub_ptr[r]);
      std::copy(vals.begin() + row_ptr[gr], vals.begin() + row_ptr[gr + 1],
                sub_vals.begin() + sub_ptr[r]);
    }
    subset.matrix = sparse::CsrMatrix<T>(static_cast<sparse::index_t>(sub_rows), a.cols(),
                                         std::move(sub_ptr), std::move(sub_cols),
                                         std::move(sub_vals));
    subsets.push_back(std::move(subset));
  }
  return subsets;
}

template <typename T>
RunStats os_sart(const sparse::CsrMatrix<T>& a, const core::OperatorLayout& layout,
                 std::span<const T> b, std::span<T> x, const OsSartOptions& options) {
  CSCV_CHECK(static_cast<sparse::index_t>(b.size()) == a.rows());
  CSCV_CHECK(static_cast<sparse::index_t>(x.size()) == a.cols());
  auto subsets = split_view_subsets(a, layout, options.num_subsets);

  // Per-subset normalizers: R_s = 1/rowsum, C_s = 1/colsum (SART weights).
  struct SubsetState {
    util::AlignedVector<T> b;        // sliced measurements
    util::AlignedVector<T> inv_row;
    util::AlignedVector<T> inv_col;
  };
  std::vector<SubsetState> state;
  state.reserve(subsets.size());
  for (const auto& s : subsets) {
    SubsetState st;
    st.b.resize(s.global_rows.size());
    for (std::size_t r = 0; r < s.global_rows.size(); ++r) {
      st.b[r] = b[static_cast<std::size_t>(s.global_rows[r])];
    }
    CsrOperator<T> op(s.matrix);
    st.inv_row = op.row_sums();
    st.inv_col = op.col_sums();
    for (auto& v : st.inv_row) v = v > T(0) ? T(1) / v : T(0);
    for (auto& v : st.inv_col) v = v > T(0) ? T(1) / v : T(0);
    state.push_back(std::move(st));
  }

  const T lambda = static_cast<T>(options.relaxation);
  util::AlignedVector<T> residual;
  util::AlignedVector<T> back(x.size());
  util::AlignedVector<T> full_residual(b.size());
  RunStats stats;

  for (int it = 0; it < options.iterations; ++it) {
    for (std::size_t si = 0; si < subsets.size(); ++si) {
      const auto& sub = subsets[si];
      const auto& st = state[si];
      residual.resize(st.b.size());
      sub.matrix.spmv(x, residual);
      // Per-element updates go through colmath so os_sart_batch can run
      // the identical helpers per column (bitwise contract).
      colmath::weighted_residual(st.b.data(), st.inv_row.data(), residual.data(),
                                 residual.size());
      sub.matrix.spmv_transpose(residual, back);
      colmath::sart_step(x.data(), st.inv_col.data(), back.data(), lambda,
                         options.enforce_nonneg, back.size());
    }
    a.spmv(x, full_residual);
    stats.residual_norms.push_back(
        colmath::diff_norm2(b.data(), full_residual.data(), full_residual.size()));
    ++stats.iterations_run;
  }
  return stats;
}

template <typename T>
std::vector<RunStats> os_sart_batch(const sparse::CsrMatrix<T>& a,
                                    const core::OperatorLayout& layout, std::span<const T> b,
                                    std::span<T> x, int num_rhs,
                                    std::span<const OsSartOptions> options) {
  CSCV_CHECK(num_rhs >= 1);
  CSCV_CHECK(options.size() == static_cast<std::size_t>(num_rhs));
  if (num_rhs == 1) return {os_sart(a, layout, b, x, options[0])};
  const std::size_t k = static_cast<std::size_t>(num_rhs);
  const std::size_t m = static_cast<std::size_t>(a.rows());
  const std::size_t n = static_cast<std::size_t>(a.cols());
  CSCV_CHECK(b.size() == m * k);
  CSCV_CHECK(x.size() == n * k);
  // The subset split is structural; fusable jobs must agree on it.
  for (const OsSartOptions& o : options) {
    CSCV_CHECK(o.num_subsets == options[0].num_subsets);
  }
  auto subsets = split_view_subsets(a, layout, options[0].num_subsets);

  // Normalizers are per-matrix (shared by every column); the b slices are
  // per-column contiguous so the weighted-residual update can run through
  // the exact colmath helper serial os_sart uses.
  struct SubsetState {
    std::vector<util::AlignedVector<T>> b;  // [k] columns, each sub_rows long
    util::AlignedVector<T> inv_row;
    util::AlignedVector<T> inv_col;
  };
  std::vector<SubsetState> state;
  state.reserve(subsets.size());
  for (const auto& s : subsets) {
    SubsetState st;
    st.b.resize(k);
    for (std::size_t c = 0; c < k; ++c) {
      st.b[c].resize(s.global_rows.size());
      for (std::size_t r = 0; r < s.global_rows.size(); ++r) {
        const auto gr = static_cast<std::size_t>(s.global_rows[r]);
        st.b[c][r] = b[gr * k + c];
      }
    }
    CsrOperator<T> op(s.matrix);
    st.inv_row = op.row_sums();
    st.inv_col = op.col_sums();
    for (auto& v : st.inv_row) v = v > T(0) ? T(1) / v : T(0);
    for (auto& v : st.inv_col) v = v > T(0) ? T(1) / v : T(0);
    state.push_back(std::move(st));
  }

  util::AlignedVector<T> residual;
  util::AlignedVector<T> back(n * k);
  util::AlignedVector<T> full_residual(m * k);
  util::AlignedVector<T> transpose_scratch;
  // Contiguous per-column scratch for the gathered update steps.
  util::AlignedVector<T> col_m(m);
  util::AlignedVector<T> col_back(n);
  util::AlignedVector<T> col_x(n);
  std::vector<util::AlignedVector<T>> b_cols(k);
  for (std::size_t c = 0; c < k; ++c) {
    b_cols[c].resize(m);
    colmath::gather_column(b.data(), m, k, c, b_cols[c].data());
  }
  std::vector<RunStats> stats(k);
  int max_iters = 0;
  for (const OsSartOptions& o : options) max_iters = std::max(max_iters, o.iterations);

  for (int it = 0; it < max_iters; ++it) {
    for (std::size_t si = 0; si < subsets.size(); ++si) {
      const auto& sub = subsets[si];
      const auto& st = state[si];
      const std::size_t sub_rows = sub.global_rows.size();
      residual.resize(sub_rows * k);
      sub.matrix.spmv_multi(x, residual, num_rhs);
      for (std::size_t c = 0; c < k; ++c) {
        if (it >= options[c].iterations) continue;  // finished column: x frozen
        colmath::gather_column(residual.data(), sub_rows, k, c, col_m.data());
        colmath::weighted_residual(st.b[c].data(), st.inv_row.data(), col_m.data(),
                                   sub_rows);
        colmath::scatter_column(col_m.data(), sub_rows, k, c, residual.data());
      }
      sub.matrix.spmv_transpose_multi(residual, back, num_rhs, transpose_scratch);
      for (std::size_t c = 0; c < k; ++c) {
        if (it >= options[c].iterations) continue;
        colmath::gather_column(back.data(), n, k, c, col_back.data());
        colmath::gather_column(x.data(), n, k, c, col_x.data());
        colmath::sart_step(col_x.data(), st.inv_col.data(), col_back.data(),
                           static_cast<T>(options[c].relaxation),
                           options[c].enforce_nonneg, n);
        colmath::scatter_column(col_x.data(), n, k, c, x.data());
      }
    }
    a.spmv_multi(x, full_residual, num_rhs);
    for (std::size_t c = 0; c < k; ++c) {
      if (it >= options[c].iterations) continue;
      colmath::gather_column(full_residual.data(), m, k, c, col_m.data());
      stats[c].residual_norms.push_back(colmath::diff_norm2(b_cols[c].data(), col_m.data(), m));
      ++stats[c].iterations_run;
    }
  }
  return stats;
}

template std::vector<ViewSubset<float>> split_view_subsets<float>(
    const sparse::CsrMatrix<float>&, const core::OperatorLayout&, int);
template std::vector<ViewSubset<double>> split_view_subsets<double>(
    const sparse::CsrMatrix<double>&, const core::OperatorLayout&, int);
template RunStats os_sart<float>(const sparse::CsrMatrix<float>&, const core::OperatorLayout&,
                                 std::span<const float>, std::span<float>,
                                 const OsSartOptions&);
template RunStats os_sart<double>(const sparse::CsrMatrix<double>&,
                                  const core::OperatorLayout&, std::span<const double>,
                                  std::span<double>, const OsSartOptions&);
template std::vector<RunStats> os_sart_batch<float>(const sparse::CsrMatrix<float>&,
                                                    const core::OperatorLayout&,
                                                    std::span<const float>, std::span<float>,
                                                    int, std::span<const OsSartOptions>);
template std::vector<RunStats> os_sart_batch<double>(const sparse::CsrMatrix<double>&,
                                                     const core::OperatorLayout&,
                                                     std::span<const double>,
                                                     std::span<double>, int,
                                                     std::span<const OsSartOptions>);

}  // namespace cscv::recon
