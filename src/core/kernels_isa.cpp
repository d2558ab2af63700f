// One compiled kernel tier. The build compiles this TU once per ISA tier
// (on x86-64, src/core/CMakeLists.txt) with that tier's arch flags
// and -DCSCV_TIER_NS=tier_<name>; each instance exports the four entry
// points declared in core/kernel_tiers.hpp and dispatch.cpp assembles them
// into the runtime tier registry.
//
// Everything ISA-sensitive — the expand primitives, the block kernels, and
// the switch ladder that takes their addresses — is re-included below inside
// an anonymous namespace, NOT taken from the headers' cscv::simd /
// cscv::core::kernels instances. The headers' inline templates have vague
// linkage: if three differently-flagged TUs each emitted them, the linker
// would keep one arbitrary copy (a generic-tier binary could end up running
// AVX-512 code, or an "avx512 tier" could silently run generic code). The
// anonymous namespace gives every tier its own internal-linkage copy, so the
// per-TU arch flags actually stick to the code the tier hands out.
//
// Name resolution inside the shadows: kernels_body.inc calls simd::expand_*
// and dispatch_body.inc calls kernels::run_block_* unqualified; both resolve
// to the sibling shadow namespaces below (found before ::cscv::simd /
// ::cscv::core::kernels in the enclosing-scope walk), which is the point.
#include <bit>
#include <cstdint>
#include <type_traits>

#include "core/dispatch.hpp"
#include "core/kernel_tiers.hpp"
#include "core/kernels.hpp"  // CSCV_KERNEL_DCHECKS + the ambient-flags copy
#include "simd/expand.hpp"
#include "sparse/types.hpp"
#include "util/assertx.hpp"

#ifndef CSCV_TIER_NS
#error "core/kernels_isa.cpp must be compiled with -DCSCV_TIER_NS=tier_<name>"
#endif

namespace cscv::core::dispatch {
namespace {

namespace simd {
#include "simd/expand_body.inc"  // NOLINT(bugprone-suspicious-include)
}  // namespace simd

namespace kernels {
#include "core/kernels_body.inc"  // NOLINT(bugprone-suspicious-include)
}  // namespace kernels

#include "core/dispatch_body.inc"  // NOLINT(bugprone-suspicious-include)

}  // namespace

namespace CSCV_TIER_NS {

KernelSet<float> resolve_f(bool is_m, int s_vvec, int s_vxg, bool use_hw, int num_rhs,
                           ValueType value_type) {
  return resolve_impl<float>(is_m, s_vvec, s_vxg, use_hw, num_rhs, value_type);
}

KernelSet<double> resolve_d(bool is_m, int s_vvec, int s_vxg, bool use_hw, int num_rhs,
                            ValueType value_type) {
  return resolve_impl<double>(is_m, s_vvec, s_vxg, use_hw, num_rhs, value_type);
}

bool hw_expand(bool is_double, int s_vvec) {
  switch (s_vvec) {
    case 4:
      return is_double ? simd::has_chunked_hardware_expand<double, 4>()
                       : simd::has_chunked_hardware_expand<float, 4>();
    case 8:
      return is_double ? simd::has_chunked_hardware_expand<double, 8>()
                       : simd::has_chunked_hardware_expand<float, 8>();
    case 16:
      return is_double ? simd::has_chunked_hardware_expand<double, 16>()
                       : simd::has_chunked_hardware_expand<float, 16>();
    default: return false;
  }
}

int compiled_tier() {
#if defined(__AVX512F__) && defined(__AVX512VL__) && defined(__AVX512DQ__)
  return 2;  // simd::IsaTier::kAvx512
#elif defined(__AVX2__) && defined(__FMA__)
  return 1;  // simd::IsaTier::kAvx2
#else
  return 0;  // simd::IsaTier::kGeneric
#endif
}

}  // namespace CSCV_TIER_NS
}  // namespace cscv::core::dispatch
