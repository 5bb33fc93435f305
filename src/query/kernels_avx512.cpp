// AVX-512 kernel tier (F+DQ+BW+VL): 16-lane dense refinement with masked
// gathers and opmask liveness, 8-lane packed-u64 keys + vpmullq splitmix64
// hashing for the flat path. Compiled with -mavx512{f,bw,dq,vl}; reached
// only after runtime detection confirms both the instruction sets and OS
// zmm state. Vector code only: the scalar tails and the flat probe phase
// live in kernels.cpp (see kernels_detail.h).
#include "query/kernels.h"

#if defined(FDEVOLVE_X86_KERNELS)

// GCC 12's avx512fintrin.h trips -Wmaybe-uninitialized ('__Y' in the
// masked-intrinsic fallbacks) once inlined at -O3. Silenced for the header
// only: an uninitialized read in this file's own code still fails -Werror.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#include <cassert>

#include "query/kernels_detail.h"

namespace fdevolve::query::kernels {
namespace {

constexpr uint32_t kVacant = util::FlatIdTable::kVacant;

/// Resolves the miss lanes of one 32-tuple step (two 16-lane batches). The
/// combined miss bitmask is ctz-walked in lane (= tuple) order and each
/// missed cell re-read, so duplicates within and across the two batches —
/// and batch 1's gathers that raced batch 0's inserts and read a stale
/// kVacant — still get first-appearance ids. The ctz walk replaces a
/// 16-way branch per lane: at high fresh-ratios nearly every batch has a
/// miss or three, and those unpredictable branches dominated the naive
/// loop. Count-only callers skip the id spill/reload.
template <bool kCountOnly>
inline uint32_t FixupMisses(uint32_t* dense, __m512i key0, __m512i key1,
                            __m512i* id0, __m512i* id1, uint32_t bits,
                            uint32_t fresh) {
  alignas(64) uint32_t kk[32];
  _mm512_store_si512(kk, key0);
  _mm512_store_si512(kk + 16, key1);
  if (kCountOnly) {
    while (bits != 0) {
      const int l = __builtin_ctz(bits);
      bits &= bits - 1;
      const uint32_t cell = kk[l];
      if (dense[cell] == kVacant) dense[cell] = fresh++;
    }
    return fresh;
  }
  alignas(64) uint32_t ii[32];
  _mm512_store_si512(ii, *id0);
  _mm512_store_si512(ii + 16, *id1);
  while (bits != 0) {
    const int l = __builtin_ctz(bits);
    bits &= bits - 1;
    const uint32_t cell = kk[l];
    uint32_t cur = dense[cell];
    if (cur == kVacant) {
      cur = fresh++;
      dense[cell] = cur;
    }
    ii[l] = cur;
  }
  *id0 = _mm512_load_si512(ii);
  *id1 = _mm512_load_si512(ii + 16);
  return fresh;
}

/// The dense pass, its shape fixed at compile time — the AVX-512 twin of
/// the AVX2 tier's DenseLoop: kMasked (a tombstone bitmap is present),
/// kCountOnly (no `out`), kOneLevel (exactly one level). Every batch
/// constant, level descriptors included, is copied into locals before the
/// sweep, so the steady-state body is loads + gather + opmask compare.
/// Dense segments keep the radix <= 2^31, so every key fits a 32-bit lane.
template <bool kMasked, bool kCountOnly, bool kOneLevel>
uint32_t DenseLoop(const RefineArgs& a, uint32_t* dense, uint32_t fresh) {
  const size_t n = a.n;
  const uint32_t* const base = a.base_ids;
  const uint8_t* const live = a.live;
  uint32_t* const out = a.out;
  const bool check = base != nullptr && a.base_groups <= 0xffffffffull;
  const __m512i vgroups = _mm512_set1_epi32(static_cast<int>(a.base_groups));
  const __m512i vnull =
      _mm512_set1_epi32(static_cast<int>(relation::kNullCode));
  const __m512i vvacant = _mm512_set1_epi32(-1);
  const size_t levels = kOneLevel ? 1 : a.level_count;
  const uint32_t* codes[kMaxFusedLevels] = {};
  bool has_nulls[kMaxFusedLevels] = {};
  __m512i vstride[kMaxFusedLevels];
  __m512i vslot[kMaxFusedLevels];
  for (size_t j = 0; j < levels; ++j) {
    const Level& lv = a.levels[j];
    codes[j] = lv.codes;
    has_nulls[j] = lv.has_nulls;
    vstride[j] = _mm512_set1_epi32(static_cast<int>(lv.stride));
    vslot[j] = _mm512_set1_epi32(static_cast<int>(lv.null_slot));
  }

  // One batch's key vector: base ids (bounds-checked on live lanes), then
  // per level * stride + NULL-remapped code.
  const auto keys_at = [&](size_t t, __mmask16 m) {
    __m512i key = _mm512_setzero_si512();
    if (base != nullptr) {
      key = _mm512_loadu_si512(base + t);
      if (check && _mm512_mask_cmpge_epu32_mask(m, key, vgroups) != 0) {
        detail::ThrowBadId();
      }
    }
    for (size_t j = 0; j < levels; ++j) {
      __m512i c = _mm512_loadu_si512(codes[j] + t);
      if (has_nulls[j]) {
        c = _mm512_mask_mov_epi32(c, _mm512_cmpeq_epi32_mask(c, vnull),
                                  vslot[j]);
      }
      key = _mm512_add_epi32(_mm512_mullo_epi32(key, vstride[j]), c);
    }
    return key;
  };
  // Dead lanes must not touch memory (their keys are unchecked); the
  // masked gather leaves them at kVacant, and the masked compare drops
  // them from `miss`.
  const auto gather = [&](__m512i key, __mmask16 m) {
    return kMasked ? _mm512_mask_i32gather_epi32(vvacant, m, key, dense, 4)
                   : _mm512_i32gather_epi32(key, dense, 4);
  };
  const auto misses = [&](__m512i id, __mmask16 m) {
    return kMasked ? _mm512_mask_cmpeq_epi32_mask(m, id, vvacant)
                   : _mm512_cmpeq_epi32_mask(id, vvacant);
  };

  size_t t = 0;
  // 2x unrolled: both gathers are in flight before the fixup runs, which
  // hides most of the gather latency. The unaligned tail runs the scalar
  // reference loop.
  for (; t + 32 <= n; t += 32) {
    __mmask16 m0 = 0xffff;
    __mmask16 m1 = 0xffff;
    if (kMasked) {
      const __m256i bytes =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(live + t));
      const __mmask32 lm =
          _mm256_cmpneq_epi8_mask(bytes, _mm256_setzero_si256());
      m0 = static_cast<__mmask16>(lm);
      m1 = static_cast<__mmask16>(lm >> 16);
    }
    const __m512i key0 = keys_at(t, m0);
    const __m512i key1 = keys_at(t + 16, m1);
    __m512i id0 = gather(key0, m0);
    __m512i id1 = gather(key1, m1);
    const uint32_t bits = static_cast<uint32_t>(misses(id0, m0)) |
                          (static_cast<uint32_t>(misses(id1, m1)) << 16);
    if (bits != 0) {
      fresh = FixupMisses<kCountOnly>(dense, key0, key1, &id0, &id1, bits,
                                      fresh);
    }
    if (!kCountOnly) {
      _mm512_storeu_si512(out + t, id0);
      _mm512_storeu_si512(out + t + 16, id1);
    }
  }
  return detail::DenseRefineRange(a, dense, fresh, t, n);
}

uint32_t Avx512Dense(const RefineArgs& a, uint32_t* dense, uint32_t fresh) {
  assert(a.level_count <= kMaxFusedLevels);
  // Indexed [masked][count_only][one_level].
  static constexpr DenseRefineFn kLoops[2][2][2] = {
      {{DenseLoop<false, false, false>, DenseLoop<false, false, true>},
       {DenseLoop<false, true, false>, DenseLoop<false, true, true>}},
      {{DenseLoop<true, false, false>, DenseLoop<true, false, true>},
       {DenseLoop<true, true, false>, DenseLoop<true, true, true>}}};
  return kLoops[a.live != nullptr][a.out == nullptr][a.level_count == 1](
      a, dense, fresh);
}

/// 8-lane splitmix64 — vpmullq (DQ) makes this three multiplies, no
/// cross-product emulation.
inline __m512i Mix64x8(__m512i x) {
  x = _mm512_add_epi64(
      x, _mm512_set1_epi64(static_cast<long long>(0x9e3779b97f4a7c15ULL)));
  x = _mm512_mullo_epi64(
      _mm512_xor_si512(x, _mm512_srli_epi64(x, 30)),
      _mm512_set1_epi64(static_cast<long long>(0xbf58476d1ce4e5b9ULL)));
  x = _mm512_mullo_epi64(
      _mm512_xor_si512(x, _mm512_srli_epi64(x, 27)),
      _mm512_set1_epi64(static_cast<long long>(0x94d049bb133111ebULL)));
  return _mm512_xor_si512(x, _mm512_srli_epi64(x, 31));
}

inline __m512i HashOf8(__m512i key) {
  return _mm512_xor_si512(
      _mm512_set1_epi64(static_cast<long long>(detail::kHashSeed)),
      _mm512_add_epi64(
          Mix64x8(key),
          _mm512_set1_epi64(static_cast<long long>(detail::kHashAdd))));
}

uint32_t Avx512Flat(const RefineArgs& a, util::FlatIdTable& table,
                    uint32_t fresh) {
  alignas(64) uint64_t keys[detail::kFlatBlock];
  alignas(64) uint64_t hashes[detail::kFlatBlock];

  for (size_t b = 0; b < a.n; b += detail::kFlatBlock) {
    const size_t be =
        a.n - b < detail::kFlatBlock ? a.n : b + detail::kFlatBlock;
    size_t t = b;
    for (; t + 8 <= be; t += 8) {
      __m512i key;
      if (a.base_ids != nullptr) {
        const __m256i id32 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.base_ids + t));
        if (a.base_groups <= 0xffffffffull) {
          __mmask8 m = 0xff;
          if (a.live != nullptr) {
            const __m128i bytes = _mm_loadl_epi64(
                reinterpret_cast<const __m128i*>(a.live + t));
            m = static_cast<__mmask8>(
                _mm_cmpneq_epi8_mask(bytes, _mm_setzero_si128()) & 0xff);
          }
          const __m256i vgroups =
              _mm256_set1_epi32(static_cast<int>(a.base_groups));
          if (_mm256_mask_cmpge_epu32_mask(m, id32, vgroups) != 0) {
            detail::ThrowBadId();
          }
        }
        key = _mm512_cvtepu32_epi64(id32);
      } else {
        key = _mm512_setzero_si512();
      }
      for (size_t j = 0; j < a.level_count; ++j) {
        const Level& lv = a.levels[j];
        __m256i c =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lv.codes + t));
        if (lv.has_nulls) {
          const __mmask8 isnull = _mm256_cmpeq_epi32_mask(
              c, _mm256_set1_epi32(static_cast<int>(relation::kNullCode)));
          c = _mm256_mask_mov_epi32(
              c, isnull, _mm256_set1_epi32(static_cast<int>(lv.null_slot)));
        }
        key = _mm512_add_epi64(
            _mm512_mullo_epi64(
                key, _mm512_set1_epi64(static_cast<long long>(lv.stride))),
            _mm512_cvtepu32_epi64(c));
      }
      _mm512_store_si512(keys + (t - b), key);
      _mm512_store_si512(hashes + (t - b), HashOf8(key));
    }
    fresh = detail::FlatFinishBlock(a, table, fresh, b, t, be, keys, hashes);
  }
  return fresh;
}

}  // namespace

const KernelSet kAvx512Kernels{util::CpuTier::kAvx512, Avx512Dense,
                               Avx512Flat};

}  // namespace fdevolve::query::kernels

#endif  // FDEVOLVE_X86_KERNELS
