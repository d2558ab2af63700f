#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <set>
#include <span>
#include <utility>

#include "ct/noise.hpp"
#include "ct/phantom.hpp"
#include "util/assertx.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

// Photons per detector cell; line integrals are scaled to attenuation
// units (2 / image side) before the transmission noise is drawn.
constexpr double kDose = 5e4;

constexpr int kStrata = 6;

}  // namespace

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

cscv::util::AlignedVector<float> noisy_sinogram(const cscv::ct::ParallelGeometry& g,
                                                std::uint64_t seed) {
  auto sino = cscv::ct::analytic_sinogram<float>(cscv::ct::shepp_logan_modified(), g);
  const double scale = 2.0 / g.image_size;
  for (float& v : sino) v = static_cast<float>(v * scale);
  cscv::util::Rng rng(seed);
  cscv::ct::add_transmission_poisson_noise<float>(std::span<float>(sino), kDose, rng);
  for (float& v : sino) v = static_cast<float>(v / scale);
  return sino;
}

cscv::util::AlignedVector<float> phantom_image(int image_size) {
  return cscv::ct::rasterize<float>(cscv::ct::shepp_logan_modified(), image_size);
}

std::vector<cscv::ct::ParallelGeometry> cold_geometries(std::uint64_t seed, int count) {
  // Strata 0-4 hold 8 x 20 distinct sizes each; stay well below that.
  CSCV_CHECK_MSG(count <= kStrata * 80, "at most " << kStrata * 80 << " cold geometries");
  cscv::util::Rng rng(sub_seed(seed, 1));
  std::vector<cscv::ct::ParallelGeometry> out;
  std::set<std::pair<int, int>> seen;
  std::vector<int> order(kStrata);
  for (int i = 0; i < count; ++i) {
    if (i % kStrata == 0) {
      std::iota(order.begin(), order.end(), 0);
      std::shuffle(order.begin(), order.end(), rng.engine());
    }
    // Image stratum s always pairs with view stratum (s + 3) mod 6, so
    // every block of six steps asks for the same total work.
    const int si = order[static_cast<std::size_t>(i % kStrata)];
    const int sv = (si + kStrata / 2) % kStrata;
    // Image strata are 8 pixels wide over [80, 128], view strata 20 views
    // wide over [120, 240]; the top stratum of each includes its end point.
    int image = 0;
    int views = 0;
    do {
      image = 80 + 8 * si + static_cast<int>(rng.uniform_int(0, si == kStrata - 1 ? 8 : 7));
      views = 120 + 20 * sv + static_cast<int>(rng.uniform_int(0, sv == kStrata - 1 ? 20 : 19));
    } while (!seen.emplace(image, views).second);
    out.push_back(cscv::ct::standard_geometry(image, views));
  }
  return out;
}

std::vector<double> jittered_arrivals(std::uint64_t seed, double rate, double duration) {
  cscv::util::Rng rng(sub_seed(seed, 2));
  const auto n = static_cast<std::size_t>(std::max(1.0, std::round(rate * duration)));
  std::vector<double> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    out[k] = (static_cast<double>(k) + 0.5 + rng.uniform(-0.05, 0.05)) / rate;
  }
  return out;
}

std::vector<int> pool_sequence(std::uint64_t seed, int n, int pool) {
  cscv::util::Rng rng(sub_seed(seed, 3));
  std::vector<int> out(static_cast<std::size_t>(n));
  for (int& v : out) v = static_cast<int>(rng.uniform_int(0, pool - 1));
  return out;
}

}  // namespace perfbench
