// OS-SART — ordered-subsets SART, the standard accelerated iterative CT
// reconstruction: each update uses only a subset of views (interleaved
// strata, maximizing angular spread per subset), so one pass over the data
// applies `num_subsets` corrections instead of one. Converges in far fewer
// data passes than SIRT on well-posed problems.
#pragma once

#include <span>
#include <vector>

#include "core/layout.hpp"
#include "recon/solvers.hpp"
#include "sparse/csr.hpp"

namespace cscv::recon {

/// One view-subset of the system: the rows of the selected views extracted
/// into a standalone CSR block plus their row ids in `a` (for slicing b).
template <typename T>
struct ViewSubset {
  sparse::CsrMatrix<T> matrix;
  util::AlignedVector<sparse::index_t> global_rows;  // subset row -> A row
};

/// Row ids of `layout` in stratum `s` of `num_subsets` interleaved view
/// strata: the views v with (first_view + v) % num_subsets == s, ascending,
/// bins inner. `first_view` is the scan index of the layout's view 0, so a
/// view range of a larger scan gets that scan's strata restricted to it.
[[nodiscard]] util::AlignedVector<sparse::index_t> stratum_rows(
    const core::OperatorLayout& layout, int num_subsets, int s, int first_view = 0);

/// Splits `a` (rows = view-major sinogram of `layout`) into `num_subsets`
/// interleaved view strata: subset k owns views {k, k+n, k+2n, ...} of the
/// scan, counted from `first_view` (see stratum_rows). A stratum with no
/// view in the layout is a 0-row matrix.
template <typename T>
std::vector<ViewSubset<T>> split_view_subsets(const sparse::CsrMatrix<T>& a,
                                              const core::OperatorLayout& layout,
                                              int num_subsets, int first_view = 0);

struct OsSartOptions {
  int iterations = 10;     // full passes over all subsets
  int num_subsets = 8;
  double relaxation = 1.0;
  bool enforce_nonneg = true;
};

/// One view stratum as the OS-SART loop sees it: an operator over the
/// stratum's rows and those rows' ids in the full system (for slicing b).
template <typename T>
struct OsSartStratum {
  const LinearOperator<T>* op;
  std::span<const sparse::index_t> rows;
};

/// OS-SART over operators: `a` is the full system (used only for the
/// per-pass residual), `strata` its num_subsets view strata in update
/// order. Normalizers come from each stratum operator's row_sums() and
/// col_sums(). Residual norms are recorded once per full pass.
template <typename T>
RunStats os_sart(const LinearOperator<T>& a, std::span<const OsSartStratum<T>> strata,
                 std::span<const T> b, std::span<T> x, const OsSartOptions& options = {});

/// Batched OS-SART over operators: num_rhs reconstructions advance in
/// lockstep, sharing one stratum traversal per update (b and x interleaved
/// as in sirt_batch, applies through forward_batch/adjoint_batch). All
/// options must agree on num_subsets (the subset split is structural);
/// iterations/relaxation/nonneg may differ per column, and a finished
/// column freezes without stalling the batch. Column k is bitwise identical
/// to os_sart() run alone on that column, given batch applies that keep
/// the per-column guarantee.
template <typename T>
std::vector<RunStats> os_sart_batch(const LinearOperator<T>& a,
                                    std::span<const OsSartStratum<T>> strata,
                                    std::span<const T> b, std::span<T> x, int num_rhs,
                                    std::span<const OsSartOptions> options);

/// OS-SART over the split_view_subsets strata of `a`, each wrapped in a
/// CsrOperator.
template <typename T>
RunStats os_sart(const sparse::CsrMatrix<T>& a, const core::OperatorLayout& layout,
                 std::span<const T> b, std::span<T> x, const OsSartOptions& options = {});

/// Batched OS-SART over the CsrOperator strata of `a`.
template <typename T>
std::vector<RunStats> os_sart_batch(const sparse::CsrMatrix<T>& a,
                                    const core::OperatorLayout& layout, std::span<const T> b,
                                    std::span<T> x, int num_rhs,
                                    std::span<const OsSartOptions> options);

extern template std::vector<ViewSubset<float>> split_view_subsets<float>(
    const sparse::CsrMatrix<float>&, const core::OperatorLayout&, int, int);
extern template std::vector<ViewSubset<double>> split_view_subsets<double>(
    const sparse::CsrMatrix<double>&, const core::OperatorLayout&, int, int);
extern template RunStats os_sart<float>(const LinearOperator<float>&,
                                        std::span<const OsSartStratum<float>>,
                                        std::span<const float>, std::span<float>,
                                        const OsSartOptions&);
extern template RunStats os_sart<double>(const LinearOperator<double>&,
                                         std::span<const OsSartStratum<double>>,
                                         std::span<const double>, std::span<double>,
                                         const OsSartOptions&);
extern template std::vector<RunStats> os_sart_batch<float>(
    const LinearOperator<float>&, std::span<const OsSartStratum<float>>,
    std::span<const float>, std::span<float>, int, std::span<const OsSartOptions>);
extern template std::vector<RunStats> os_sart_batch<double>(
    const LinearOperator<double>&, std::span<const OsSartStratum<double>>,
    std::span<const double>, std::span<double>, int, std::span<const OsSartOptions>);
extern template RunStats os_sart<float>(const sparse::CsrMatrix<float>&,
                                        const core::OperatorLayout&, std::span<const float>,
                                        std::span<float>, const OsSartOptions&);
extern template RunStats os_sart<double>(const sparse::CsrMatrix<double>&,
                                         const core::OperatorLayout&,
                                         std::span<const double>, std::span<double>,
                                         const OsSartOptions&);
extern template std::vector<RunStats> os_sart_batch<float>(const sparse::CsrMatrix<float>&,
                                                           const core::OperatorLayout&,
                                                           std::span<const float>,
                                                           std::span<float>, int,
                                                           std::span<const OsSartOptions>);
extern template std::vector<RunStats> os_sart_batch<double>(
    const sparse::CsrMatrix<double>&, const core::OperatorLayout&, std::span<const double>,
    std::span<double>, int, std::span<const OsSartOptions>);

}  // namespace cscv::recon
