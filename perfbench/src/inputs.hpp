// Seeded workload inputs. Everything the program under test receives is
// generated here from the run's --seed: geometries, noisy sinograms and
// arrival schedules. The same seed gives the same inputs.
#pragma once

#include <cstdint>
#include <vector>

#include "ct/geometry.hpp"
#include "util/aligned_vector.hpp"

namespace perfbench {

/// Independent sub-seed `stream` of `seed` (splitmix64 finalizer), so the
/// geometry sequence, noise and arrivals of one run are uncorrelated.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream);

/// Shepp–Logan (modified) analytic sinogram with transmission Poisson noise
/// at kDose photons per detector cell, drawn from `seed`.
cscv::util::AlignedVector<float> noisy_sinogram(const cscv::ct::ParallelGeometry& g,
                                                std::uint64_t seed);

/// The rasterized phantom the returned volumes are scored against.
cscv::util::AlignedVector<float> phantom_image(int image_size);

/// `count` distinct cold-serve geometries: image 80–128, views 120–240.
/// Sizes are stratified — every block of six steps visits each of six image
/// strata once, in a seeded order, each paired with a fixed view stratum,
/// with a seeded offset inside both — so two seeds ask for the same amount
/// of work while no geometry repeats within a run.
std::vector<cscv::ct::ParallelGeometry> cold_geometries(std::uint64_t seed, int count);

/// Open-loop arrival times (seconds from the start, ascending): exactly
/// round(rate * duration) arrivals, the k-th at (k + 0.5 + u) / rate with a
/// seeded u in [-0.05, 0.05]. Fully random (Poisson) arrivals, or a jitter
/// wide enough to let arrivals catch up with the previous one's service,
/// made a run's latency depend on which seed was drawn far more than on the
/// code under test, so the jitter is bounded and the offered load fixed.
std::vector<double> jittered_arrivals(std::uint64_t seed, double rate, double duration);

/// Seeded choice of `n` indices in [0, pool): which pooled input job i uses.
std::vector<int> pool_sequence(std::uint64_t seed, int n, int pool);

}  // namespace perfbench
