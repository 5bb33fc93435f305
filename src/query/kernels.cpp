// Kernel registry: resolves the active tier once, publishes it through an
// atomic pointer, and hosts the baseline scalar kernel set (which is the
// reference semantics every vector tier must reproduce bit-for-bit) plus
// the scalar helpers the vector tiers share (kernels_detail.h). Compiled
// for the baseline target like the rest of the library.
#include "query/kernels.h"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "query/kernels_detail.h"

namespace fdevolve::query::kernels {
namespace {

/// Packed mixed-radix key of tuple `t` (see kernels.h). Bounds-checks the
/// incoming id — callers skip dead rows before calling, which preserves
/// the scalar loop's "dead rows are never checked" behavior. `inline` is
/// a hint that matters: without it GCC keeps this per-tuple call out of
/// line in the scalar loops (measured ~30% slower on the baseline tier).
inline uint64_t PackedKey(const RefineArgs& a, size_t t) {
  uint64_t key = 0;
  if (a.base_ids != nullptr) {
    key = a.base_ids[t];
    if (key >= a.base_groups) detail::ThrowBadId();
  }
  for (size_t j = 0; j < a.level_count; ++j) {
    const Level& lv = a.levels[j];
    uint64_t c = lv.codes[t];
    if (lv.has_nulls && c == relation::kNullCode) c = lv.null_slot;
    key = key * lv.stride + c;
  }
  return key;
}

uint32_t BaselineDense(const RefineArgs& a, uint32_t* dense, uint32_t fresh) {
  return detail::DenseRefineRange(a, dense, fresh, 0, a.n);
}

/// The scalar flat pass: one FindOrInsert per live tuple.
uint32_t BaselineFlat(const RefineArgs& a, util::FlatIdTable& table,
                      uint32_t fresh) {
  for (size_t t = 0; t < a.n; ++t) {
    if (a.live != nullptr && a.live[t] == 0) continue;
    bool inserted = false;
    const uint32_t id = table.FindOrInsert(PackedKey(a, t), fresh, &inserted);
    if (inserted) ++fresh;
    if (a.out != nullptr) a.out[t] = id;
  }
  return fresh;
}

constexpr KernelSet kBaselineKernels{util::CpuTier::kBaseline, BaselineDense,
                                     BaselineFlat};

/// Tier -> kernel set, falling back to baseline when a tier is not
/// compiled into this binary (non-x86 builds).
const KernelSet* SetForTier(util::CpuTier tier) {
  switch (tier) {
#if defined(FDEVOLVE_X86_KERNELS)
    case util::CpuTier::kAvx512:
      return &kAvx512Kernels;
    case util::CpuTier::kAvx2:
      return &kAvx2Kernels;
#else
    case util::CpuTier::kAvx512:
    case util::CpuTier::kAvx2:
#endif
    case util::CpuTier::kBaseline:
      break;
  }
  return &kBaselineKernels;
}

util::CpuTier ClampToHost(util::CpuTier tier) {
  const util::CpuTier host = util::DetectCpuFeatures().max_tier();
  return static_cast<int>(tier) < static_cast<int>(host) ? tier : host;
}

std::atomic<const KernelSet*> g_active{nullptr};

/// Startup resolution: the host's best tier, lowered by the env override
/// if present. Throws on unknown override names — deliberately loud, a
/// typo silently running baseline would be a perf bug nobody notices.
const KernelSet* ResolveStartup() {
  util::CpuTier tier = util::DetectCpuFeatures().max_tier();
  const char* env = std::getenv("FDEVOLVE_CPU_FEATURES");
  if (env != nullptr && *env != '\0') {
    util::CpuTier want;
    if (!util::ParseCpuTier(env, &want)) {
      throw std::invalid_argument(
          std::string("FDEVOLVE_CPU_FEATURES: unknown tier '") + env +
          "' (expected baseline|avx2|avx512)");
    }
    tier = ClampToHost(want);
  }
  return SetForTier(tier);
}

}  // namespace

namespace detail {

void ThrowBadId() {
  throw std::invalid_argument("RefinePass: group id out of range");
}

uint32_t DenseRefineRange(const RefineArgs& a, uint32_t* dense,
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

uint32_t FlatFinishBlock(const RefineArgs& a, util::FlatIdTable& table,
                         uint32_t fresh, size_t b, size_t t, size_t be,
                         uint64_t* keys, uint64_t* hashes) {
  constexpr size_t kPrefetchAhead = 8;
  for (; t < be; ++t) {
    // Dead rows keep a placeholder (skipped below): PackedKey's bounds
    // check must not fire for them.
    if (a.live != nullptr && a.live[t] == 0) {
      keys[t - b] = 0;
      hashes[t - b] = 0;
      continue;
    }
    keys[t - b] = PackedKey(a, t);
    hashes[t - b] = util::FlatIdTable::HashOf(keys[t - b]);
  }
  for (t = b; t < be; ++t) {
    if (a.live != nullptr && a.live[t] == 0) continue;
    if (t + kPrefetchAhead < be) {
      table.PrefetchHash(hashes[t + kPrefetchAhead - b]);
    }
    bool inserted = false;
    const uint32_t id =
        table.FindOrInsertHashed(keys[t - b], hashes[t - b], fresh, &inserted);
    if (inserted) ++fresh;
    if (a.out != nullptr) a.out[t] = id;
  }
  return fresh;
}

}  // namespace detail

const KernelSet& Active() {
  const KernelSet* set = g_active.load(std::memory_order_acquire);
  if (set == nullptr) {
    const KernelSet* resolved = ResolveStartup();
    const KernelSet* expected = nullptr;
    if (!g_active.compare_exchange_strong(expected, resolved,
                                          std::memory_order_acq_rel)) {
      resolved = expected;  // another thread (or ForceTier) won the race
    }
    set = resolved;
  }
  return *set;
}

util::CpuTier DetectedTier() {
  return util::DetectCpuFeatures().max_tier();
}

util::CpuTier SelectedTier() { return Active().tier; }

util::CpuTier ForceTier(util::CpuTier tier) {
  const KernelSet* set = SetForTier(ClampToHost(tier));
  g_active.store(set, std::memory_order_release);
  return set->tier;
}

std::vector<util::CpuTier> SupportedTiers() {
  std::vector<util::CpuTier> tiers{util::CpuTier::kBaseline};
  for (int t = 1; t <= static_cast<int>(util::CpuTier::kAvx512); ++t) {
    const util::CpuTier tier = static_cast<util::CpuTier>(t);
    // Host-supported AND actually compiled in (SetForTier does not fall
    // back) — exactly the tiers ForceTier(tier) would install as-is.
    if (ClampToHost(tier) == tier && SetForTier(tier)->tier == tier) {
      tiers.push_back(tier);
    }
  }
  return tiers;
}

}  // namespace fdevolve::query::kernels
