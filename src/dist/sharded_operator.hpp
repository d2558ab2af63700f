// The solver-facing face of the dist subsystem.
//
// ShardedOperator adapts a ShardBackend to recon::LinearOperator<float>, so
// the existing SIRT, CGLS and OS-SART implementations iterate over a
// sharded operator without modification: forward scatters the image to
// every shard and concatenates the per-shard projections at their row
// offsets (pure data movement — no arithmetic is introduced); adjoint
// slices the sinogram by shard and reduces the per-shard backprojections in
// FIXED shard-id order (copy shard 0, then colmath::accumulate shards
// 1..N-1 — the determinism contract of docs/SHARDING.md).
//
// An operator built with a stratum index covers only that OS-SART view
// stratum: each shard contributes its rows of the stratum, concatenated in
// shard order, which lists the stratum's views ascending — the row order
// of recon::split_view_subsets over the whole scan.
#pragma once

#include <span>
#include <vector>

#include "dist/coordinator.hpp"
#include "pipeline/job.hpp"
#include "recon/solvers.hpp"
#include "util/aligned_vector.hpp"

namespace cscv::dist {

class ShardedOperator final : public recon::LinearOperator<float> {
 public:
  /// The backend's specs must be a partition: shard_id i at index i, view
  /// ranges contiguous from 0 to num_views, one shared geometry/algorithm.
  /// `stratum` >= 0 selects one OS-SART view stratum (the shards must be
  /// built for kOsSart with more subsets than that); -1 is the whole
  /// operator. CheckError otherwise.
  explicit ShardedOperator(ShardBackend& backend, int stratum = -1);

  [[nodiscard]] sparse::index_t rows() const override { return rows_; }
  [[nodiscard]] sparse::index_t cols() const override { return cols_; }
  void forward(std::span<const float> x, std::span<float> y) const override;
  void adjoint(std::span<const float> y, std::span<float> x) const override;
  // row_sums/col_sums stay the LinearOperator defaults (forward/adjoint of
  // ones) — the same route serial SIRT takes through PlanOperator at
  // num_rhs == 1 and serial OS-SART through CsrOperator, which is what
  // makes the N=1 bitwise contract hold.

 private:
  ShardBackend* backend_;
  int stratum_;
  sparse::index_t rows_ = 0;
  sparse::index_t cols_ = 0;
  // Shard i owns rows [row_offset_[i], row_offset_[i + 1]) of this operator.
  std::vector<sparse::index_t> row_offset_;
  // apply_all scratch, reused across iterations.
  mutable std::vector<std::span<const float>> in_;
  mutable std::vector<util::AlignedVector<float>> parts_;
};

/// Validates that `specs` partition the problem ShardedOperator expects.
/// CheckError on violations.
void check_partition(const std::vector<ShardSpec>& specs);

/// Splits `job`'s problem into `num_shards` specs along nnz-balanced view
/// boundaries (ct::count_view_nnz + partition_views). May return fewer
/// shards than requested when views run out.
[[nodiscard]] std::vector<ShardSpec> make_shard_specs(const pipeline::ReconJob& job,
                                                      int num_shards);

struct ShardedRunResult {
  util::AlignedVector<float> volume;
  recon::RunStats stats;
};

/// Runs `job` on the backend through ShardedOperator into the stock
/// solvers: kSirt/kCgls over the whole operator, kOsSart over one operator
/// per view stratum. x starts at zero.
/// ShardError for algorithms that do not shard (kFbp).
[[nodiscard]] ShardedRunResult run_sharded_job(ShardBackend& backend,
                                               const pipeline::ReconJob& job);

}  // namespace cscv::dist
