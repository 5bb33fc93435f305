// Runtime-dispatched vectorized kernels for the partition-refinement hot
// paths (the DuckDB cpu_feature shape: one function-pointer set per ISA
// tier, resolved once at startup from util::DetectCpuFeatures()).
//
// Every kernel implements the same *fused multi-level* refinement pass: one
// sweep over the relation combines the incoming group ids with a whole
// chain of column levels at once via a packed mixed-radix key
//
//     key(t) = ((id * s_1 + c_1) * s_2 + c_2) ... * s_k + c_k
//
// where s_j = dict_size_j + has_nulls_j and c_j is the (NULL-remapped)
// dictionary code. The packing is injective, and its first-appearance
// order over tuples equals the final ids of the sequential per-level chain
// — so a fused segment is bit-identical to k single-level passes while
// touching the relation once instead of k times. Drivers split a chain
// into segments whose radix fits the dense array or a u64 flat key
// (query/group_ids.cpp does the planning; a kernel executes one segment
// as one sequential sweep).
//
// Each SIMD tier runs one dense loop, a template whose shape — tombstone
// mask, count-only, single level — is fixed at compile time and which
// copies the segment's level descriptors into locals before the sweep,
// plus one flat kernel. The per-ISA files (kernels_avx2.cpp,
// kernels_avx512.cpp) hold only that vector code; every scalar helper they
// share (sub-range tails, the flat probe phase, the bounds-check throw) is
// defined once in kernels.cpp, built for the baseline target, so no
// per-ISA object exports code a baseline caller could link to.
//
// Identity contract (enforced by tests/query/kernel_tier_fuzz_test.cpp):
// every tier — baseline scalar, AVX2, AVX-512 — assigns exactly the same
// first-appearance ids, returns the same fresh count, and throws the same
// exception on malformed bases. The SIMD variants may batch the bounds
// check (an exception fires before any tuple of the offending batch is
// processed, instead of mid-batch), which is only observable on the
// exception path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/cpu_features.h"
#include "util/flat_table.h"

// FDEVOLVE_X86_KERNELS is defined (by src/query/CMakeLists.txt, for the
// query module's TUs only) exactly when the ISA-specific kernel files are
// compiled with their per-file -m flags: x86-64 with GCC/Clang. Everywhere
// else the registry holds the baseline set alone. Keeping the macro and
// the flag condition in one place is what guarantees the registry never
// references a kernel set that was not built.

namespace fdevolve::query::kernels {

/// One column level of a fused refinement segment.
struct Level {
  const uint32_t* codes = nullptr;  ///< dictionary codes, one per tuple
  uint64_t stride = 0;              ///< dict_size + has_nulls (radix digit)
  uint32_t null_slot = 0;           ///< code kNullCode remaps to (== dict_size)
  bool has_nulls = false;           ///< whether kNullCode can appear at all
};

/// Inputs of one fused refinement pass over tuples [0, n).
///
/// Contracts shared by every kernel:
///   * `base_ids == nullptr` means the trivial one-group base (id 0).
///     Otherwise each live tuple's id is bounds-checked against
///     `base_groups` and a violation throws std::invalid_argument
///     ("RefinePass: group id out of range") — dead rows are exempt,
///     exactly like the scalar loop they replace.
///   * `out` may alias `base_ids`: every slot is read before written.
///   * `live != nullptr` (a row mask — the tombstone bitmap or a WHERE
///     filter; 0 = row skipped) implies `out == nullptr` — only
///     count-only passes filter.
///   * `level_count <= kMaxFusedLevels` — the segment planner never plans
///     more.
struct RefineArgs {
  const uint32_t* base_ids = nullptr;
  uint64_t base_groups = 1;
  const Level* levels = nullptr;
  size_t level_count = 0;
  size_t n = 0;
  uint32_t* out = nullptr;
  const uint8_t* live = nullptr;
};

/// Direct-indexed pass: `dense` has one cell per possible packed key,
/// pre-filled with util::FlatIdTable::kVacant. The caller guarantees the
/// segment radix (cell count) is <= kDenseCellLimit, which is what lets the
/// gather-based variants treat keys as signed 32-bit indices. Returns the
/// updated fresh-id counter.
using DenseRefineFn = uint32_t (*)(const RefineArgs& args, uint32_t* dense,
                                   uint32_t fresh);

/// Open-addressing pass through a util::FlatIdTable keyed on the packed
/// u64 key. Vector tiers batch the Mix64-based hash and feed
/// FindOrInsertHashed with prefetching. Returns the updated fresh counter.
using FlatRefineFn = uint32_t (*)(const RefineArgs& args,
                                  util::FlatIdTable& table, uint32_t fresh);

/// One dispatch tier's kernels. Instances are immutable statics; the
/// registry publishes a pointer to the active one.
struct KernelSet {
  util::CpuTier tier;
  DenseRefineFn dense_refine;
  FlatRefineFn flat_refine;
};

/// Largest dense array any driver may admit (cells). Bounded by 2^31 so
/// packed keys stay valid *signed* 32-bit gather indices on every tier.
constexpr size_t kDenseCellLimit = size_t{1} << 31;

/// Most levels one fused segment carries: the vector tiers copy a
/// segment's level descriptors into fixed local arrays of this size before
/// the sweep. Longer chains split into more segments, which never changes
/// ids (see group_ids.cpp).
constexpr size_t kMaxFusedLevels = 16;

/// \brief The active kernel set.
///
/// Resolved once on first use: the host's best tier, optionally lowered by
/// the FDEVOLVE_CPU_FEATURES environment variable (unknown names throw
/// std::invalid_argument; names above what the host supports clamp down).
/// Thread-safe; after the first call this is one atomic load.
const KernelSet& Active();

/// Best tier the host CPU + OS support (independent of any override).
util::CpuTier DetectedTier();

/// Tier of the currently active kernel set (after any override).
util::CpuTier SelectedTier();

/// \brief Forces the active kernel set to `tier`, clamped to what the host
/// supports; returns the tier actually installed. Used by the
/// tier-identity fuzz suite and bench_kernels; processes take their
/// override from FDEVOLVE_CPU_FEATURES. Not thread-safe against concurrent
/// refinement passes — call at startup or between passes.
util::CpuTier ForceTier(util::CpuTier tier);

/// Tiers this process can actually run (compiled in AND host-supported),
/// ascending. Always contains kBaseline.
std::vector<util::CpuTier> SupportedTiers();

}  // namespace fdevolve::query::kernels
