#include "recon/os_sart.hpp"

#include <algorithm>
#include <cmath>

#include "recon/colmath.hpp"
#include "util/assertx.hpp"

namespace cscv::recon {

util::AlignedVector<sparse::index_t> stratum_rows(const core::OperatorLayout& layout,
                                                  int num_subsets, int s, int first_view) {
  CSCV_CHECK(num_subsets >= 1 && s >= 0 && s < num_subsets && first_view >= 0);
  util::AlignedVector<sparse::index_t> rows;
  // Interleaved strata: views s, s+n, s+2n ... of the scan (maximal
  // angular spread); the first local view in stratum s is v0.
  const int v0 = ((s - first_view) % num_subsets + num_subsets) % num_subsets;
  for (int v = v0; v < layout.num_views; v += num_subsets) {
    for (int bin = 0; bin < layout.num_bins; ++bin) rows.push_back(layout.row_of(v, bin));
  }
  return rows;
}

template <typename T>
std::vector<ViewSubset<T>> split_view_subsets(const sparse::CsrMatrix<T>& a,
                                              const core::OperatorLayout& layout,
                                              int num_subsets, int first_view) {
  CSCV_CHECK(a.rows() == layout.num_rows());
  CSCV_CHECK(num_subsets >= 1);
  auto row_ptr = a.row_ptr();
  auto col_idx = a.col_idx();
  auto vals = a.values();

  std::vector<ViewSubset<T>> subsets;
  subsets.reserve(static_cast<std::size_t>(num_subsets));
  for (int s = 0; s < num_subsets; ++s) {
    ViewSubset<T> subset;
    subset.global_rows = stratum_rows(layout, num_subsets, s, first_view);
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

namespace {

/// Per-stratum solver state: the sliced measurements of each of k columns
/// (contiguous, so the weighted-residual update runs through the exact
/// colmath helper serial os_sart uses) and the SART weights
/// R_s = 1/rowsum, C_s = 1/colsum, shared by every column.
template <typename T>
struct StratumState {
  std::vector<util::AlignedVector<T>> b;  // [k] columns, each stratum-rows long
  util::AlignedVector<T> inv_row;
  util::AlignedVector<T> inv_col;
};

template <typename T>
std::vector<StratumState<T>> prepare_strata(const LinearOperator<T>& a,
                                            std::span<const OsSartStratum<T>> strata,
                                            std::span<const T> b, std::size_t k,
                                            int num_subsets) {
  CSCV_CHECK(strata.size() == static_cast<std::size_t>(num_subsets));
  std::vector<StratumState<T>> state;
  state.reserve(strata.size());
  for (const OsSartStratum<T>& s : strata) {
    CSCV_CHECK(s.op->rows() == static_cast<sparse::index_t>(s.rows.size()));
    CSCV_CHECK(s.op->cols() == a.cols());
    StratumState<T> st;
    st.b.resize(k);
    for (std::size_t c = 0; c < k; ++c) {
      st.b[c].resize(s.rows.size());
      for (std::size_t r = 0; r < s.rows.size(); ++r) {
        st.b[c][r] = b[static_cast<std::size_t>(s.rows[r]) * k + c];
      }
    }
    st.inv_row = s.op->row_sums();
    st.inv_col = s.op->col_sums();
    colmath::invert_positive(st.inv_row.data(), st.inv_row.size());
    colmath::invert_positive(st.inv_col.data(), st.inv_col.size());
    state.push_back(std::move(st));
  }
  return state;
}

/// The CsrMatrix overloads' strata: split_view_subsets blocks, each behind
/// a CsrOperator (which keeps the LinearOperator row/col sums).
template <typename T>
class CsrStrata {
 public:
  CsrStrata(const sparse::CsrMatrix<T>& a, const core::OperatorLayout& layout,
            int num_subsets)
      : subsets_(split_view_subsets(a, layout, num_subsets)) {
    CSCV_CHECK(num_subsets >= 1 && num_subsets <= layout.num_views);
    ops_.reserve(subsets_.size());  // strata_ points into ops_
    for (const ViewSubset<T>& s : subsets_) {
      ops_.emplace_back(s.matrix);
      strata_.push_back({&ops_.back(), s.global_rows});
    }
  }
  CsrStrata(const CsrStrata&) = delete;
  CsrStrata& operator=(const CsrStrata&) = delete;

  [[nodiscard]] std::span<const OsSartStratum<T>> strata() const { return strata_; }

 private:
  std::vector<ViewSubset<T>> subsets_;
  std::vector<CsrOperator<T>> ops_;
  std::vector<OsSartStratum<T>> strata_;
};

}  // namespace

template <typename T>
RunStats os_sart(const LinearOperator<T>& a, std::span<const OsSartStratum<T>> strata,
                 std::span<const T> b, std::span<T> x, const OsSartOptions& options) {
  CSCV_CHECK(static_cast<sparse::index_t>(b.size()) == a.rows());
  CSCV_CHECK(static_cast<sparse::index_t>(x.size()) == a.cols());
  const auto state = prepare_strata(a, strata, b, 1, options.num_subsets);

  const T lambda = static_cast<T>(options.relaxation);
  util::AlignedVector<T> residual;
  util::AlignedVector<T> back(x.size());
  util::AlignedVector<T> full_residual(b.size());
  RunStats stats;

  for (int it = 0; it < options.iterations; ++it) {
    for (std::size_t si = 0; si < strata.size(); ++si) {
      const auto& st = state[si];
      residual.resize(strata[si].rows.size());
      strata[si].op->forward(x, residual);
      // Per-element updates go through colmath so os_sart_batch can run
      // the identical helpers per column (bitwise contract).
      colmath::weighted_residual(st.b[0].data(), st.inv_row.data(), residual.data(),
                                 residual.size());
      strata[si].op->adjoint(residual, back);
      colmath::sart_step(x.data(), st.inv_col.data(), back.data(), lambda,
                         options.enforce_nonneg, back.size());
    }
    a.forward(x, full_residual);
    stats.residual_norms.push_back(
        colmath::diff_norm2(b.data(), full_residual.data(), full_residual.size()));
    ++stats.iterations_run;
  }
  return stats;
}

template <typename T>
std::vector<RunStats> os_sart_batch(const LinearOperator<T>& a,
                                    std::span<const OsSartStratum<T>> strata,
                                    std::span<const T> b, std::span<T> x, int num_rhs,
                                    std::span<const OsSartOptions> options) {
  CSCV_CHECK(num_rhs >= 1);
  CSCV_CHECK(options.size() == static_cast<std::size_t>(num_rhs));
  if (num_rhs == 1) return {os_sart<T>(a, strata, b, x, options[0])};
  const std::size_t k = static_cast<std::size_t>(num_rhs);
  const std::size_t m = static_cast<std::size_t>(a.rows());
  const std::size_t n = static_cast<std::size_t>(a.cols());
  CSCV_CHECK(b.size() == m * k);
  CSCV_CHECK(x.size() == n * k);
  // The subset split is structural; fusable jobs must agree on it.
  for (const OsSartOptions& o : options) {
    CSCV_CHECK(o.num_subsets == options[0].num_subsets);
  }
  const auto state = prepare_strata(a, strata, b, k, options[0].num_subsets);

  util::AlignedVector<T> residual;
  util::AlignedVector<T> back(n * k);
  util::AlignedVector<T> full_residual(m * k);
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
    for (std::size_t si = 0; si < strata.size(); ++si) {
      const auto& st = state[si];
      const std::size_t sub_rows = strata[si].rows.size();
      residual.resize(sub_rows * k);
      strata[si].op->forward_batch(x, residual, num_rhs);
      for (std::size_t c = 0; c < k; ++c) {
        if (it >= options[c].iterations) continue;  // finished column: x frozen
        colmath::gather_column(residual.data(), sub_rows, k, c, col_m.data());
        colmath::weighted_residual(st.b[c].data(), st.inv_row.data(), col_m.data(),
                                   sub_rows);
        colmath::scatter_column(col_m.data(), sub_rows, k, c, residual.data());
      }
      strata[si].op->adjoint_batch(residual, back, num_rhs);
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
    a.forward_batch(x, full_residual, num_rhs);
    for (std::size_t c = 0; c < k; ++c) {
      if (it >= options[c].iterations) continue;
      colmath::gather_column(full_residual.data(), m, k, c, col_m.data());
      stats[c].residual_norms.push_back(colmath::diff_norm2(b_cols[c].data(), col_m.data(), m));
      ++stats[c].iterations_run;
    }
  }
  return stats;
}

template <typename T>
RunStats os_sart(const sparse::CsrMatrix<T>& a, const core::OperatorLayout& layout,
                 std::span<const T> b, std::span<T> x, const OsSartOptions& options) {
  const CsrStrata<T> strata(a, layout, options.num_subsets);
  return os_sart<T>(CsrOperator<T>(a), strata.strata(), b, x, options);
}

template <typename T>
std::vector<RunStats> os_sart_batch(const sparse::CsrMatrix<T>& a,
                                    const core::OperatorLayout& layout, std::span<const T> b,
                                    std::span<T> x, int num_rhs,
                                    std::span<const OsSartOptions> options) {
  CSCV_CHECK(!options.empty());
  const CsrStrata<T> strata(a, layout, options[0].num_subsets);
  return os_sart_batch<T>(CsrOperator<T>(a), strata.strata(), b, x, num_rhs, options);
}

template std::vector<ViewSubset<float>> split_view_subsets<float>(
    const sparse::CsrMatrix<float>&, const core::OperatorLayout&, int, int);
template std::vector<ViewSubset<double>> split_view_subsets<double>(
    const sparse::CsrMatrix<double>&, const core::OperatorLayout&, int, int);
template RunStats os_sart<float>(const LinearOperator<float>&,
                                 std::span<const OsSartStratum<float>>,
                                 std::span<const float>, std::span<float>,
                                 const OsSartOptions&);
template RunStats os_sart<double>(const LinearOperator<double>&,
                                  std::span<const OsSartStratum<double>>,
                                  std::span<const double>, std::span<double>,
                                  const OsSartOptions&);
template std::vector<RunStats> os_sart_batch<float>(const LinearOperator<float>&,
                                                    std::span<const OsSartStratum<float>>,
                                                    std::span<const float>, std::span<float>,
                                                    int, std::span<const OsSartOptions>);
template std::vector<RunStats> os_sart_batch<double>(const LinearOperator<double>&,
                                                     std::span<const OsSartStratum<double>>,
                                                     std::span<const double>,
                                                     std::span<double>, int,
                                                     std::span<const OsSartOptions>);
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
