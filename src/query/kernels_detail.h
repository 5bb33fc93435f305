// The boundary between the per-ISA kernel files and the rest of the
// kernel layer. kernels_avx2.cpp and kernels_avx512.cpp hold vector code
// only; everything scalar they need is declared here and defined once in
// kernels.cpp, which is compiled for the baseline target. This header
// defines no function, so including it makes a per-ISA object emit no
// shared (weak) code: a baseline caller can never end up linked to a copy
// built with -mavx2 or -mavx512* (scripts/check_isa_objects.py checks).
//
// The scalar loops behind DenseRefineRange are the reference semantics: a
// vector kernel is correct iff it is observationally identical to them
// (same ids, same fresh count, same exceptions), which is what the
// dispatch-tier fuzz suite asserts.
#pragma once

#include <cstddef>
#include <cstdint>

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

/// Tuples per block of a flat pass: keys and hashes for a block are built
/// (vectorized) before the block is probed.
constexpr size_t kFlatBlock = 128;

/// Throws std::invalid_argument("RefinePass: group id out of range").
[[noreturn]] void ThrowBadId();

/// Scalar dense pass over [lo, hi) — the sub-range form so SIMD kernels
/// can delegate their unaligned tails to the exact reference loop.
uint32_t DenseRefineRange(const RefineArgs& a, uint32_t* dense,
                          uint32_t fresh, size_t lo, size_t hi);

/// Finishes one flat block [b, be) whose packed keys and hashes a vector
/// build phase wrote for [b, t): computes the scalar tail [t, be), then
/// probes the whole block through FindOrInsertHashed in tuple order,
/// prefetching a fixed distance ahead. `keys`/`hashes` are indexed from
/// `b`. Returns the updated fresh counter.
uint32_t FlatFinishBlock(const RefineArgs& a, util::FlatIdTable& table,
                         uint32_t fresh, size_t b, size_t t, size_t be,
                         uint64_t* keys, uint64_t* hashes);

}  // namespace detail
}  // namespace fdevolve::query::kernels
