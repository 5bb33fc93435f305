// Scalar reference loops shared by the baseline kernel set and the tail /
// fallback paths of every SIMD tier. These ARE the semantics: a vector
// kernel is correct iff it is observationally identical to these loops
// (same ids, same fresh count, same exceptions), which is what the
// dispatch-tier fuzz suite asserts.
#pragma once

#include <stdexcept>

#include "query/kernels.h"
#include "relation/relation.h"

namespace fdevolve::query::kernels {

#if defined(FDEVOLVE_X86_KERNELS)
// Defined in kernels_<tier>.cpp (compiled with per-file -m flags); only
// the registry in kernels.cpp references them.
extern const KernelSet kAvx2Kernels;
extern const KernelSet kAvx512Kernels;
#endif

namespace detail {

/// The additive constant of HashCombine(kHashSeed, key) — everything in it
/// except Mix64(key) is fixed, so SIMD hash kernels fold it to one add.
constexpr uint64_t kHashSeed = util::FlatIdTable::kHashSeed;
constexpr uint64_t kHashAdd =
    0x9e3779b97f4a7c15ULL + (kHashSeed << 12) + (kHashSeed >> 4);

[[noreturn]] inline void ThrowBadId() {
  throw std::invalid_argument("RefinePass: group id out of range");
}

/// Packed mixed-radix key of tuple `t` (see kernels.h). Bounds-checks the
/// incoming id — callers skip dead rows before calling, which preserves
/// the scalar loop's "dead rows are never checked" behavior.
inline uint64_t PackedKey(const RefineArgs& a, size_t t) {
  uint64_t key = 0;
  if (a.base_ids != nullptr) {
    key = a.base_ids[t];
    if (key >= a.base_groups) ThrowBadId();
  }
  for (size_t j = 0; j < a.level_count; ++j) {
    const Level& lv = a.levels[j];
    uint64_t c = lv.codes[t];
    if (lv.has_nulls && c == relation::kNullCode) c = lv.null_slot;
    key = key * lv.stride + c;
  }
  return key;
}

/// Scalar dense pass over [lo, hi) — the sub-range form so SIMD kernels
/// can delegate their unaligned tails to the exact reference loop.
inline uint32_t DenseRefineRange(const RefineArgs& a, uint32_t* dense,
                                 uint32_t fresh, size_t lo, size_t hi) {
  for (size_t t = lo; t < hi; ++t) {
    if (a.live != nullptr && a.live[t] == 0) continue;
    const uint64_t key = PackedKey(a, t);
    uint32_t id = dense[key];
    if (id == util::FlatIdTable::kVacant) {
      id = fresh++;
      dense[key] = id;
    }
    if (a.out != nullptr) a.out[t] = id;
  }
  return fresh;
}

/// Scalar flat pass over [lo, hi).
inline uint32_t FlatRefineRange(const RefineArgs& a, util::FlatIdTable& table,
                                uint32_t fresh, size_t lo, size_t hi) {
  for (size_t t = lo; t < hi; ++t) {
    if (a.live != nullptr && a.live[t] == 0) continue;
    const uint64_t key = PackedKey(a, t);
    bool inserted = false;
    const uint32_t id = table.FindOrInsert(key, fresh, &inserted);
    if (inserted) ++fresh;
    if (a.out != nullptr) a.out[t] = id;
  }
  return fresh;
}

}  // namespace detail
}  // namespace fdevolve::query::kernels
