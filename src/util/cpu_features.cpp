#include "util/cpu_features.h"

#if defined(__x86_64__) || defined(_M_X64)
#define FDEVOLVE_X86_64 1
#if defined(__GNUC__) || defined(__clang__)
#include <cpuid.h>
#endif
#endif

namespace fdevolve::util {
namespace {

#if defined(FDEVOLVE_X86_64) && (defined(__GNUC__) || defined(__clang__))

/// XGETBV(0): which register state the OS restores on context switch.
/// Emitted as raw bytes so the TU needs no -mxsave; only executed after
/// CPUID reported OSXSAVE, so the instruction is always valid when reached.
uint64_t ReadXcr0() {
  uint32_t eax, edx;
  __asm__ volatile(".byte 0x0f, 0x01, 0xd0" /* xgetbv */
                   : "=a"(eax), "=d"(edx)
                   : "c"(0));
  return (static_cast<uint64_t>(edx) << 32) | eax;
}

CpuFeatures Probe() {
  CpuFeatures f;
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return f;

  constexpr unsigned kOsxsaveBit = 1u << 27;  // CPUID.1:ECX.OSXSAVE
  constexpr unsigned kAvxBit = 1u << 28;      // CPUID.1:ECX.AVX
  const bool osxsave = (ecx & kOsxsaveBit) != 0;
  const bool avx = (ecx & kAvxBit) != 0;
  if (!osxsave || !avx) return f;

  const uint64_t xcr0 = ReadXcr0();
  constexpr uint64_t kYmmState = 0x6;    // XMM + YMM saved
  constexpr uint64_t kZmmState = 0xe6;   // + opmask, zmm_hi256, hi16_zmm
  const bool os_ymm = (xcr0 & kYmmState) == kYmmState;
  const bool os_zmm = (xcr0 & kZmmState) == kZmmState;
  if (!os_ymm) return f;

  unsigned int eax7 = 0, ebx7 = 0, ecx7 = 0, edx7 = 0;
  if (__get_cpuid_count(7, 0, &eax7, &ebx7, &ecx7, &edx7) == 0) return f;

  constexpr unsigned kAvx2Bit = 1u << 5;      // CPUID.7.0:EBX.AVX2
  constexpr unsigned kAvx512fBit = 1u << 16;  // CPUID.7.0:EBX.AVX512F
  constexpr unsigned kAvx512dqBit = 1u << 17; // CPUID.7.0:EBX.AVX512DQ
  constexpr unsigned kAvx512bwBit = 1u << 30; // CPUID.7.0:EBX.AVX512BW
  constexpr unsigned kAvx512vlBit = 1u << 31; // CPUID.7.0:EBX.AVX512VL
  f.avx2 = (ebx7 & kAvx2Bit) != 0;

  const unsigned kAvx512All =
      kAvx512fBit | kAvx512dqBit | kAvx512bwBit | kAvx512vlBit;
  f.avx512 = os_zmm && (ebx7 & kAvx512All) == kAvx512All;
  return f;
}

#else  // non-x86-64 (or an unsupported compiler): baseline only

CpuFeatures Probe() { return CpuFeatures{}; }

#endif

}  // namespace

const CpuFeatures& DetectCpuFeatures() {
  static const CpuFeatures features = Probe();
  return features;
}

const char* CpuTierName(CpuTier tier) {
  switch (tier) {
    case CpuTier::kBaseline:
      return "baseline";
    case CpuTier::kAvx2:
      return "avx2";
    case CpuTier::kAvx512:
      return "avx512";
  }
  return "baseline";
}

bool ParseCpuTier(const std::string& name, CpuTier* tier) {
  if (name == "baseline") {
    *tier = CpuTier::kBaseline;
  } else if (name == "avx2") {
    *tier = CpuTier::kAvx2;
  } else if (name == "avx512") {
    *tier = CpuTier::kAvx512;
  } else {
    return false;
  }
  return true;
}

}  // namespace fdevolve::util
