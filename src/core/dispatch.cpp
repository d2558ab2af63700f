// Level-one kernel dispatch: the tier registry and its selection rules
// (docs/DISPATCH.md). The CSCV_MULTIVERSION compile definition (set by
// src/core/CMakeLists.txt on this library only) says whether the build
// linked all three kernels_isa.cpp instances or a single ambient-flags one.
#include <array>
#include <cstdlib>
#include <type_traits>

#include "core/dispatch.hpp"
#include "core/kernel_tiers.hpp"
#include "simd/isa.hpp"
#include "util/assertx.hpp"

#ifndef CSCV_MULTIVERSION
#define CSCV_MULTIVERSION 0
#endif

namespace cscv::core::dispatch {
namespace {

using TierTable = std::array<const TierOps*, simd::kNumIsaTiers>;

// Each linked kernels_isa.cpp instance lands at the slot of the tier its
// flags *actually* compiled (self-reported): in a CSCV_MULTIVERSION build
// the three instances fill slots 0..2; a single-object build (non-x86-64
// targets) registers its one instance wherever the ambient flags put it —
// possibly leaving lower slots empty, which select_tier's clamping handles.
const TierTable& tier_table() {
  static const TierTable table = [] {
    TierTable t{};
    const auto add = [&t](const TierOps* ops) {
      const int id = ops->compiled_tier;
      CSCV_CHECK_MSG(id >= 0 && id < simd::kNumIsaTiers, "bad kernel tier id " << id);
      CSCV_CHECK_MSG(t[static_cast<std::size_t>(id)] == nullptr,
                     "duplicate kernel tier registration for "
                         << simd::isa_tier_name(static_cast<simd::IsaTier>(id)));
      t[static_cast<std::size_t>(id)] = ops;
    };
    static const TierOps generic{&tier_generic::resolve_f, &tier_generic::resolve_d,
                                 &tier_generic::hw_expand, tier_generic::compiled_tier()};
    add(&generic);
#if CSCV_MULTIVERSION
    static const TierOps avx2{&tier_avx2::resolve_f, &tier_avx2::resolve_d,
                              &tier_avx2::hw_expand, tier_avx2::compiled_tier()};
    add(&avx2);
    static const TierOps avx512{&tier_avx512::resolve_f, &tier_avx512::resolve_d,
                                &tier_avx512::hw_expand, tier_avx512::compiled_tier()};
    add(&avx512);
#endif
    return t;
  }();
  return table;
}

simd::IsaTier lowest_registered() {
  const TierTable& t = tier_table();
  for (int i = 0; i < simd::kNumIsaTiers; ++i) {
    if (t[static_cast<std::size_t>(i)] != nullptr) return static_cast<simd::IsaTier>(i);
  }
  CSCV_CHECK_MSG(false, "no kernel tier registered");  // unreachable: generic always links
}

// "Once per process": the auto pick never changes, so cache it. Forced
// selections are not cached — tests flip CSCV_FORCE_ISA between plans.
simd::IsaTier best_registered_tier() {
  static const simd::IsaTier best = [] {
    const TierTable& t = tier_table();
    for (int i = simd::kNumIsaTiers - 1; i >= 0; --i) {
      const auto tier = static_cast<simd::IsaTier>(i);
      if (t[static_cast<std::size_t>(i)] != nullptr && simd::cpu_supports_tier(tier)) {
        return tier;
      }
    }
    return lowest_registered();
  }();
  return best;
}

}  // namespace

const TierOps* tier_ops(simd::IsaTier tier) {
  const int id = static_cast<int>(tier);
  if (id < 0 || id >= simd::kNumIsaTiers) return nullptr;
  return tier_table()[static_cast<std::size_t>(id)];
}

simd::IsaTier forced_tier_from_env() {
  const char* value = std::getenv("CSCV_FORCE_ISA");
  if (value == nullptr || *value == '\0') return simd::IsaTier::kAuto;
  return simd::parse_isa_tier(value);
}

TierChoice select_tier_for_dtype(simd::IsaTier requested, ValueType value_type) {
  TierChoice choice = select_tier(requested);
  // The avx2/avx512 tier objects are compiled with -mf16c and widen fp16
  // values with vcvtph2ps; a CPU without the f16c bit must run the generic
  // tier's soft-float widening instead. (Every avx512 CPU has f16c, so this
  // clamp only ever bites hand-forced or exotic configurations.) bf16
  // widening is an integer shift and never clamps.
  if (value_type == ValueType::kF16 && choice.tier != simd::IsaTier::kGeneric &&
      !simd::cpu_isa().f16c && tier_ops(simd::IsaTier::kGeneric) != nullptr) {
    choice.tier = simd::IsaTier::kGeneric;
    choice.clamped = true;
  }
  return choice;
}

TierChoice select_tier(simd::IsaTier requested) {
  if (requested == simd::IsaTier::kAuto) requested = forced_tier_from_env();
  TierChoice choice;
  if (requested == simd::IsaTier::kAuto) {
    choice.tier = best_registered_tier();
    return choice;
  }
  choice.forced = true;
  for (int i = static_cast<int>(requested); i >= 0; --i) {
    const auto tier = static_cast<simd::IsaTier>(i);
    if (tier_ops(tier) != nullptr && simd::cpu_supports_tier(tier)) {
      choice.tier = tier;
      choice.clamped = tier != requested;
      return choice;
    }
  }
  // Nothing at or below the request (a native single-tier binary asked for
  // a lower tier than it carries): run what we have.
  choice.tier = lowest_registered();
  choice.clamped = choice.tier != requested;
  return choice;
}

bool resolve_expand_path(simd::ExpandPath path, bool is_double, int s_vvec,
                         simd::IsaTier tier) {
  switch (path) {
    case simd::ExpandPath::kHardware: return true;
    case simd::ExpandPath::kSoftware: return false;
    case simd::ExpandPath::kAuto: break;
  }
  const TierOps* ops = tier_ops(tier);
  CSCV_CHECK_MSG(ops != nullptr,
                 "kernel tier '" << simd::isa_tier_name(tier) << "' not in this binary");
  if (!ops->hw_expand(is_double, s_vvec)) return false;  // tier codegen lacks it
  // CPU side: narrow widths need AVX-512VL; chunked double-16 needs only F.
  const simd::IsaInfo& isa = simd::cpu_isa();
  if (!isa.avx512f) return false;
  switch (s_vvec) {
    case 16: return true;
    case 8: return is_double || isa.avx512vl;
    case 4: return isa.avx512vl;
    default: return false;
  }
}

template <typename T>
KernelSet<T> resolve_kernels(typename CscvMatrix<T>::Variant variant, int s_vvec, int s_vxg,
                             bool use_hw, int num_rhs, simd::IsaTier tier,
                             ValueType value_type) {
  const TierOps* ops = tier_ops(tier);
  CSCV_CHECK_MSG(ops != nullptr,
                 "kernel tier '" << simd::isa_tier_name(tier) << "' not in this binary");
  const bool is_m = variant == CscvMatrix<T>::Variant::kM;
  if constexpr (std::is_same_v<T, float>) {
    return ops->resolve_f(is_m, s_vvec, s_vxg, use_hw, num_rhs, value_type);
  } else {
    return ops->resolve_d(is_m, s_vvec, s_vxg, use_hw, num_rhs, value_type);
  }
}

template KernelSet<float> resolve_kernels<float>(CscvMatrix<float>::Variant, int, int, bool,
                                                 int, simd::IsaTier, ValueType);
template KernelSet<double> resolve_kernels<double>(CscvMatrix<double>::Variant, int, int,
                                                   bool, int, simd::IsaTier, ValueType);

}  // namespace cscv::core::dispatch
