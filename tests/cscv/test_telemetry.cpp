// Telemetry layer — the counters are always compiled in; PlanStats carries
// a structural half (matrix facts) and a dynamic half (live counters).
#include <gtest/gtest.h>

#include "core/format.hpp"
#include "core/plan.hpp"
#include "sparse/random.hpp"
#include "test_helpers.hpp"

namespace cscv::core {
namespace {

using testing::cached_ct_csc;

template <typename T>
CscvMatrix<T> build_cscv(typename CscvMatrix<T>::Variant variant, int image = 32,
                         int views = 24) {
  const auto& csc = cached_ct_csc<T>(image, views);
  const OperatorLayout layout{image, ct::standard_num_bins(image), views};
  return CscvMatrix<T>::build(csc, layout, {.s_vvec = 8, .s_imgb = 8, .s_vxg = 2},
                              variant);
}

// Structural stats are pure matrix facts, consistent with the paper's definitions: padding_fraction is
// the zero-slot share of nnz(A~) (fig5's padding view), r_nnze is
// nnz(A~)/nnz(A) - 1, occupancy the complement of padding.
TEST(PlanStats, StructuralFieldsMatchMatrix) {
  const auto m = build_cscv<float>(CscvMatrix<float>::Variant::kZ);
  const SpmvPlan<float> plan(m);
  const PlanStats s = plan.stats();

  EXPECT_EQ(s.nnz, m.nnz());
  EXPECT_EQ(s.padded_values, m.padded_values());
  EXPECT_EQ(s.stored_values, m.stored_values());
  EXPECT_GT(s.padded_values, s.nnz);  // CT matrices always pad some slots

  EXPECT_NEAR(s.r_nnze, m.r_nnze(), 1e-12);
  EXPECT_NEAR(s.padding_fraction, s.r_nnze / (1.0 + s.r_nnze), 1e-12);
  EXPECT_NEAR(s.vxg_occupancy, 1.0 - s.padding_fraction, 1e-12);
  EXPECT_GT(s.padding_fraction, 0.0);
  EXPECT_LT(s.padding_fraction, 1.0);

  EXPECT_EQ(s.flops_per_apply, 2 * s.nnz);  // num_rhs == 1
  EXPECT_EQ(s.padded_flops_per_apply, 2 * s.padded_values);
  EXPECT_EQ(s.matrix_bytes, m.matrix_bytes());
  EXPECT_EQ(s.num_blocks, m.blocks().size());
  EXPECT_GE(s.num_blocks, s.nonempty_blocks);
  EXPECT_GT(s.nonempty_blocks, 0u);
  EXPECT_GT(s.num_vxgs, 0u);
  EXPECT_EQ(s.threads, plan.threads());
  EXPECT_EQ(s.num_rhs, 1);
  EXPECT_EQ(s.scheme, plan.scheme());
  EXPECT_GE(s.load_imbalance, 1.0);  // max/mean of slot work
}

// kZ stores the padded array, kM compresses to nnz — stats must reflect
// the physical footprint difference while padding metrics agree.
TEST(PlanStats, VariantStorageDiffers) {
  const auto z = build_cscv<float>(CscvMatrix<float>::Variant::kZ);
  const auto m = build_cscv<float>(CscvMatrix<float>::Variant::kM);
  const PlanStats sz = SpmvPlan<float>(z).stats();
  const PlanStats sm = SpmvPlan<float>(m).stats();
  EXPECT_EQ(sz.stored_values, sz.padded_values);
  EXPECT_EQ(sm.stored_values, sm.nnz);
  EXPECT_EQ(sz.nnz, sm.nnz);
  EXPECT_NEAR(sz.padding_fraction, sm.padding_fraction, 1e-12);
}

TEST(PlanStats, MultiRhsScalesFlops) {
  const auto m = build_cscv<float>(CscvMatrix<float>::Variant::kZ);
  const SpmvPlan<float> plan(m, {.num_rhs = 3});
  const PlanStats s = plan.stats();
  EXPECT_EQ(s.num_rhs, 3);
  EXPECT_EQ(s.flops_per_apply, 2 * s.nnz * 3);
  EXPECT_EQ(s.vector_bytes_per_apply,
            (static_cast<std::uint64_t>(m.cols()) + static_cast<std::uint64_t>(m.rows())) *
                3 * sizeof(float));
}

// The dynamic half: exercises execute()/execute_transpose() and checks the
// live counters.
TEST(PlanStats, DynamicCountersFollowBuildConfig) {
  const auto m = build_cscv<double>(CscvMatrix<double>::Variant::kM);
  const SpmvPlan<double> plan(m);
  const auto x = sparse::random_vector<double>(static_cast<std::size_t>(m.cols()), 11);
  util::AlignedVector<double> y(static_cast<std::size_t>(m.rows()));
  util::AlignedVector<double> xt(x.size());

  for (int i = 0; i < 3; ++i) plan.execute(x, y);
  plan.execute_transpose(y, xt);
  const PlanStats s = plan.stats();

  EXPECT_EQ(s.applies, 3u);
  EXPECT_EQ(s.transpose_applies, 1u);
  EXPECT_GT(s.plan_build_seconds, 0.0);
  EXPECT_GT(s.apply_seconds_total, 0.0);
  EXPECT_GT(s.apply_seconds_min, 0.0);
  EXPECT_LE(s.apply_seconds_min, s.apply_seconds_total / 3.0);
  EXPECT_GT(s.transpose_seconds_total, 0.0);
  // Derived rates use the paper's useful-flops convention.
  EXPECT_NEAR(s.gflops_best,
              static_cast<double>(s.flops_per_apply) / s.apply_seconds_min / 1e9,
              1e-9 * s.gflops_best + 1e-15);
  EXPECT_GT(s.gbytes_per_second_best, 0.0);
  EXPECT_GE(s.gflops_best, s.gflops_avg);
}

// stats_between isolates the applies run between two snapshots.
TEST(PlanStats, StatsBetweenCountsOnlyTheWindow) {
  const auto m = build_cscv<float>(CscvMatrix<float>::Variant::kZ);
  const SpmvPlan<float> plan(m);
  const auto x = sparse::random_vector<float>(static_cast<std::size_t>(m.cols()), 13);
  util::AlignedVector<float> y(static_cast<std::size_t>(m.rows()));
  util::AlignedVector<float> xt(x.size());

  for (int i = 0; i < 4; ++i) plan.execute(x, y);
  const PlanStats before = plan.stats();
  plan.execute(x, y);
  plan.execute_transpose(y, xt);
  const PlanStats after = plan.stats();
  const PlanStats d = stats_between(before, after);

  EXPECT_EQ(after.applies, 5u);
  EXPECT_EQ(d.applies, 1u);
  EXPECT_EQ(d.transpose_applies, 1u);
  EXPECT_EQ(d.plan_build_seconds, 0.0);
  EXPECT_NEAR(d.apply_seconds_total, after.apply_seconds_total - before.apply_seconds_total,
              1e-15);
  EXPECT_GT(d.gflops_avg, 0.0);
  EXPECT_EQ(d.gflops_best, 0.0);
  EXPECT_EQ(d.nnz, after.nnz);  // structural half passes through
}

TEST(PlanStats, ResetTelemetryClearsDynamicHalf) {
  const auto m = build_cscv<float>(CscvMatrix<float>::Variant::kZ);
  SpmvPlan<float> plan(m);
  const auto x = sparse::random_vector<float>(static_cast<std::size_t>(m.cols()), 12);
  util::AlignedVector<float> y(static_cast<std::size_t>(m.rows()));
  plan.execute(x, y);
  plan.reset_telemetry();
  const PlanStats s = plan.stats();
  EXPECT_EQ(s.applies, 0u);
  EXPECT_EQ(s.apply_seconds_total, 0.0);
  // Structural half is untouched by reset.
  EXPECT_EQ(s.nnz, m.nnz());
}

}  // namespace
}  // namespace cscv::core
