// Kernel registry: resolves the active tier once, publishes it through an
// atomic pointer, and hosts the baseline scalar kernel set (which is the
// reference semantics every vector tier must reproduce bit-for-bit).
#include "query/kernels.h"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "query/kernels_detail.h"

namespace fdevolve::query::kernels {
namespace {

uint32_t BaselineDense(const RefineArgs& a, uint32_t* dense, uint32_t fresh) {
  return detail::DenseRefineRange(a, dense, fresh, 0, a.n);
}

uint32_t BaselineFlat(const RefineArgs& a, util::FlatIdTable& table,
                      uint32_t fresh) {
  return detail::FlatRefineRange(a, table, fresh, 0, a.n);
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
