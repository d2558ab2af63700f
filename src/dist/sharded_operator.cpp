#include "dist/sharded_operator.hpp"

#include <algorithm>
#include <cstddef>

#include "ct/system_matrix.hpp"
#include "dist/partition.hpp"
#include "recon/colmath.hpp"
#include "recon/os_sart.hpp"

namespace cscv::dist {

void check_partition(const std::vector<ShardSpec>& specs) {
  CSCV_CHECK_MSG(!specs.empty(), "sharded run needs at least one shard");
  const auto& first = specs[0];
  int expect_begin = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& s = specs[i];
    CSCV_CHECK_MSG(s.shard_id == i, "spec at index " << i << " has shard_id " << s.shard_id);
    CSCV_CHECK_MSG(s.num_shards == specs.size(),
                   "shard " << i << " believes in " << s.num_shards << " shards, have "
                            << specs.size());
    CSCV_CHECK_MSG(s.geometry == first.geometry && s.cscv == first.cscv &&
                       s.variant == first.variant && s.algorithm == first.algorithm &&
                       s.os_sart_subsets == first.os_sart_subsets,
                   "shard " << i << " disagrees with shard 0 on the global problem");
    CSCV_CHECK_MSG(s.view_begin == expect_begin && s.view_end > s.view_begin,
                   "shard " << i << " views [" << s.view_begin << ", " << s.view_end
                            << ") break the contiguous partition at view " << expect_begin);
    expect_begin = s.view_end;
  }
  CSCV_CHECK_MSG(expect_begin == first.geometry.num_views,
                 "shards cover views [0, " << expect_begin << ") of "
                                           << first.geometry.num_views);
}

// ---- ShardedOperator -------------------------------------------------------

ShardedOperator::ShardedOperator(ShardBackend& backend, int stratum)
    : backend_(&backend), stratum_(stratum) {
  const auto& specs = backend.specs();
  check_partition(specs);
  CSCV_CHECK_MSG(stratum < 0 || (specs[0].algorithm == pipeline::Algorithm::kOsSart &&
                                 stratum < specs[0].os_sart_subsets),
                 "stratum " << stratum << " of shards built for "
                            << pipeline::algorithm_name(specs[0].algorithm) << " with "
                            << specs[0].os_sart_subsets << " subsets");
  cols_ = specs[0].geometry.num_cols();
  row_offset_.reserve(specs.size() + 1);
  row_offset_.push_back(0);
  for (const auto& s : specs) row_offset_.push_back(row_offset_.back() + s.stratum_rows(stratum));
  rows_ = row_offset_.back();
}

void ShardedOperator::forward(std::span<const float> x, std::span<float> y) const {
  CSCV_CHECK(static_cast<sparse::index_t>(x.size()) == cols_);
  CSCV_CHECK(static_cast<sparse::index_t>(y.size()) == rows_);
  const std::size_t num_shards = backend_->specs().size();
  in_.assign(num_shards, x);  // every shard projects the same image
  backend_->apply_all(ApplyOp::kForward, stratum_, in_, parts_);
  for (std::size_t i = 0; i < num_shards; ++i) {
    CSCV_CHECK(static_cast<sparse::index_t>(parts_[i].size()) ==
               row_offset_[i + 1] - row_offset_[i]);
    // Concatenation at the shard's row offset: pure placement, no FP ops —
    // the forward side of the determinism contract is free.
    std::copy(parts_[i].begin(), parts_[i].end(),
              y.begin() + static_cast<std::ptrdiff_t>(row_offset_[i]));
  }
}

void ShardedOperator::adjoint(std::span<const float> y, std::span<float> x) const {
  CSCV_CHECK(static_cast<sparse::index_t>(y.size()) == rows_);
  CSCV_CHECK(static_cast<sparse::index_t>(x.size()) == cols_);
  const std::size_t num_shards = backend_->specs().size();
  in_.resize(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    in_[i] = y.subspan(static_cast<std::size_t>(row_offset_[i]),
                       static_cast<std::size_t>(row_offset_[i + 1] - row_offset_[i]));
  }
  backend_->apply_all(ApplyOp::kAdjoint, stratum_, in_, parts_);
  // Fixed shard-ordered reduce: copy shard 0, accumulate 1..N-1 through the
  // shared colmath primitive. Run-to-run deterministic for every N; at N=1
  // the copy is the serial adjoint bit for bit.
  const auto cols = static_cast<std::size_t>(cols_);
  CSCV_CHECK(parts_[0].size() == cols);
  std::copy(parts_[0].begin(), parts_[0].end(), x.begin());
  for (std::size_t i = 1; i < num_shards; ++i) {
    CSCV_CHECK(parts_[i].size() == cols);
    recon::colmath::accumulate(x.data(), parts_[i].data(), cols);
  }
}

// ---- job-level entry points ------------------------------------------------

std::vector<ShardSpec> make_shard_specs(const pipeline::ReconJob& job, int num_shards) {
  CSCV_CHECK_MSG(num_shards >= 1, "num_shards must be positive");
  job.geometry.validate();
  const std::vector<std::uint64_t> nnz = ct::count_view_nnz(job.geometry);
  const std::vector<ViewRange> ranges = partition_views(nnz, num_shards);
  std::vector<ShardSpec> specs;
  specs.reserve(ranges.size());
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    specs.push_back(ShardSpec{.shard_id = static_cast<std::uint32_t>(i),
                              .num_shards = static_cast<std::uint32_t>(ranges.size()),
                              .view_begin = ranges[i].begin,
                              .view_end = ranges[i].end,
                              .geometry = job.geometry,
                              .cscv = job.cscv,
                              .variant = job.variant,
                              .algorithm = job.algorithm,
                              .os_sart_subsets = job.os_sart_subsets});
  }
  return specs;
}

ShardedRunResult run_sharded_job(ShardBackend& backend, const pipeline::ReconJob& job) {
  const auto& specs = backend.specs();
  check_partition(specs);
  CSCV_CHECK_MSG(specs[0].geometry == job.geometry &&
                     specs[0].algorithm == job.algorithm,
                 "backend shards were built for a different problem than the job");
  CSCV_CHECK_MSG(static_cast<sparse::index_t>(job.sinogram.size()) ==
                     job.geometry.num_rows(),
                 "sinogram has " << job.sinogram.size() << " elements, geometry wants "
                                 << job.geometry.num_rows());

  ShardedRunResult result;
  result.volume.assign(static_cast<std::size_t>(job.geometry.num_cols()), 0.0f);
  switch (job.algorithm) {
    case pipeline::Algorithm::kSirt: {
      ShardedOperator op(backend);
      result.stats = recon::sirt<float>(op, job.sinogram, result.volume, job.solve);
      break;
    }
    case pipeline::Algorithm::kCgls: {
      ShardedOperator op(backend);
      result.stats = recon::cgls<float>(op, job.sinogram, result.volume, job.solve);
      break;
    }
    case pipeline::Algorithm::kOsSart: {
      const int n = job.os_sart_subsets;
      CSCV_CHECK_MSG(n == specs[0].os_sart_subsets,
                     "job wants " << n << " subsets, shards were built for "
                                  << specs[0].os_sart_subsets);
      const auto layout = core::OperatorLayout::from_geometry(job.geometry);
      std::vector<ShardedOperator> ops;
      std::vector<util::AlignedVector<sparse::index_t>> rows;
      std::vector<recon::OsSartStratum<float>> strata;
      ops.reserve(static_cast<std::size_t>(n));  // strata point into ops and rows
      rows.reserve(static_cast<std::size_t>(n));
      for (int s = 0; s < n; ++s) {
        ops.emplace_back(backend, s);
        rows.push_back(recon::stratum_rows(layout, n, s));
        strata.push_back({&ops.back(), rows.back()});
      }
      const recon::OsSartOptions opts{.iterations = job.solve.iterations,
                                      .num_subsets = n,
                                      .relaxation = job.solve.relaxation,
                                      .enforce_nonneg = job.solve.enforce_nonneg};
      result.stats = recon::os_sart<float>(ShardedOperator(backend), strata, job.sinogram,
                                           result.volume, opts);
      break;
    }
    case pipeline::Algorithm::kFbp:
      throw ShardError("fbp does not shard: nothing to scatter/reduce per iteration");
  }
  return result;
}

}  // namespace cscv::dist
