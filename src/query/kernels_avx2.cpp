// AVX2 kernel tier: 8-lane dense refinement with vpgatherdd probes, 4-lane
// packed-u64 key + splitmix64 hashing for the flat path.
// Compiled with -mavx2 (per-file flag in src/query/CMakeLists.txt); only
// ever called after runtime detection, so the rest of the binary stays
// portable. Vector code only: the scalar tails and the flat probe phase
// live in kernels.cpp (see kernels_detail.h).
#include "query/kernels.h"

#if defined(FDEVOLVE_X86_KERNELS)

#include <immintrin.h>

#include <cassert>
#include <cstring>

#include "query/kernels_detail.h"

namespace fdevolve::query::kernels {
namespace {

constexpr uint32_t kVacant = util::FlatIdTable::kVacant;

/// Lane mask (32-bit lanes, all-ones = live) from 8 tombstone bytes.
inline __m256i LiveMask8(const uint8_t* live, size_t t) {
  const __m128i bytes =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(live + t));
  const __m256i lanes = _mm256_cvtepu8_epi32(bytes);
  return _mm256_cmpgt_epi32(lanes, _mm256_setzero_si256());
}

inline uint32_t MissBits8(__m256i miss) {
  return static_cast<uint32_t>(
      _mm256_movemask_ps(_mm256_castsi256_ps(miss)));
}

/// Resolves the miss lanes of one 16-tuple step (two 8-lane batches). The
/// combined miss bitmask is ctz-walked in lane (= tuple) order and each
/// missed cell re-read, so duplicates within and across the two batches —
/// and batch 1's gathers that raced batch 0's inserts and read a stale
/// kVacant — still get first-appearance ids. Count-only callers skip the
/// id spill/reload.
template <bool kCountOnly>
inline uint32_t FixupMisses(uint32_t* dense, __m256i key0, __m256i key1,
                            __m256i* id0, __m256i* id1, uint32_t bits,
                            uint32_t fresh) {
  alignas(32) uint32_t kk[16];
  _mm256_store_si256(reinterpret_cast<__m256i*>(kk), key0);
  _mm256_store_si256(reinterpret_cast<__m256i*>(kk + 8), key1);
  if (kCountOnly) {
    while (bits != 0) {
      const int l = __builtin_ctz(bits);
      bits &= bits - 1;
      const uint32_t cell = kk[l];
      if (dense[cell] == kVacant) dense[cell] = fresh++;
    }
    return fresh;
  }
  alignas(32) uint32_t ii[16];
  _mm256_store_si256(reinterpret_cast<__m256i*>(ii), *id0);
  _mm256_store_si256(reinterpret_cast<__m256i*>(ii + 8), *id1);
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
  *id0 = _mm256_load_si256(reinterpret_cast<const __m256i*>(ii));
  *id1 = _mm256_load_si256(reinterpret_cast<const __m256i*>(ii + 8));
  return fresh;
}

/// The dense pass, its shape fixed at compile time: kMasked (a tombstone
/// bitmap is present), kCountOnly (no `out`), kOneLevel (exactly one level
/// — refine-by-one-attribute, the repair search's hottest shape). Every
/// batch constant, level descriptors included, is copied into locals before
/// the sweep: read through RefineArgs/Level, GCC re-loads every field and
/// re-tests every flag per batch, which measured ~2.5x slower. Dense
/// segments keep the radix <= 2^31, so every key fits a 32-bit lane.
template <bool kMasked, bool kCountOnly, bool kOneLevel>
uint32_t DenseLoop(const RefineArgs& a, uint32_t* dense, uint32_t fresh) {
  const size_t n = a.n;
  const uint32_t* const base = a.base_ids;
  const uint8_t* const live = a.live;
  uint32_t* const out = a.out;
  // id >= groups  <=>  max_u32(id, groups) == id (the unsigned-compare
  // idiom AVX2 affords; groups is exact since it fits u32 here).
  const bool check = base != nullptr && a.base_groups <= 0xffffffffull;
  const __m256i vgroups = _mm256_set1_epi32(static_cast<int>(a.base_groups));
  const __m256i vnull =
      _mm256_set1_epi32(static_cast<int>(relation::kNullCode));
  const __m256i vvacant = _mm256_set1_epi32(-1);
  const size_t levels = kOneLevel ? 1 : a.level_count;
  const uint32_t* codes[kMaxFusedLevels] = {};
  bool has_nulls[kMaxFusedLevels] = {};
  __m256i vstride[kMaxFusedLevels];
  __m256i vslot[kMaxFusedLevels];
  for (size_t j = 0; j < levels; ++j) {
    const Level& lv = a.levels[j];
    codes[j] = lv.codes;
    has_nulls[j] = lv.has_nulls;
    vstride[j] = _mm256_set1_epi32(static_cast<int>(lv.stride));
    vslot[j] = _mm256_set1_epi32(static_cast<int>(lv.null_slot));
  }

  // One batch's key vector: base ids (bounds-checked on live lanes), then
  // per level * stride + NULL-remapped code.
  const auto keys_at = [&](size_t t, __m256i livemask) {
    __m256i key = _mm256_setzero_si256();
    if (base != nullptr) {
      key = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base + t));
      if (check) {
        __m256i bad = _mm256_cmpeq_epi32(_mm256_max_epu32(key, vgroups), key);
        if (kMasked) bad = _mm256_and_si256(bad, livemask);
        if (!_mm256_testz_si256(bad, bad)) detail::ThrowBadId();
      }
    }
    for (size_t j = 0; j < levels; ++j) {
      __m256i c =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes[j] + t));
      if (has_nulls[j]) {
        c = _mm256_blendv_epi8(c, vslot[j], _mm256_cmpeq_epi32(c, vnull));
      }
      key = _mm256_add_epi32(_mm256_mullo_epi32(key, vstride[j]), c);
    }
    return key;
  };
  // Dead lanes must not touch memory (their keys are unchecked); the
  // masked gather leaves them at kVacant, and `miss` filters them out.
  const auto gather = [&](__m256i key, __m256i livemask) {
    return kMasked ? _mm256_mask_i32gather_epi32(
                         vvacant, reinterpret_cast<const int*>(dense), key,
                         livemask, 4)
                   : _mm256_i32gather_epi32(
                         reinterpret_cast<const int*>(dense), key, 4);
  };

  size_t t = 0;
  // 2x unrolled: both gathers are in flight before the fixup runs (gather
  // latency hiding). The unaligned tail runs the scalar reference loop.
  for (; t + 16 <= n; t += 16) {
    __m256i live0 = _mm256_set1_epi32(-1);
    __m256i live1 = live0;
    if (kMasked) {
      live0 = LiveMask8(live, t);
      live1 = LiveMask8(live, t + 8);
    }
    const __m256i key0 = keys_at(t, live0);
    const __m256i key1 = keys_at(t + 8, live1);
    __m256i id0 = gather(key0, live0);
    __m256i id1 = gather(key1, live1);
    __m256i miss0 = _mm256_cmpeq_epi32(id0, vvacant);
    __m256i miss1 = _mm256_cmpeq_epi32(id1, vvacant);
    if (kMasked) {
      miss0 = _mm256_and_si256(miss0, live0);
      miss1 = _mm256_and_si256(miss1, live1);
    }
    const uint32_t bits = MissBits8(miss0) | (MissBits8(miss1) << 8);
    if (bits != 0) {
      fresh = FixupMisses<kCountOnly>(dense, key0, key1, &id0, &id1, bits,
                                      fresh);
    }
    if (!kCountOnly) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + t), id0);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + t + 8), id1);
    }
  }
  return detail::DenseRefineRange(a, dense, fresh, t, n);
}

uint32_t Avx2Dense(const RefineArgs& a, uint32_t* dense, uint32_t fresh) {
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

/// 64x64 -> low 64 multiply (AVX2 has no vpmullq): lo*lo plus the two
/// cross products shifted into the high half.
inline __m256i Mul64(__m256i x, __m256i y) {
  const __m256i lo = _mm256_mul_epu32(x, y);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(x, 32), y),
                       _mm256_mul_epu32(x, _mm256_srli_epi64(y, 32)));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

/// 4-lane splitmix64 finalizer — must match util::Mix64 bit-for-bit.
inline __m256i Mix64x4(__m256i x) {
  x = _mm256_add_epi64(
      x, _mm256_set1_epi64x(static_cast<long long>(0x9e3779b97f4a7c15ULL)));
  x = Mul64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 30)),
            _mm256_set1_epi64x(static_cast<long long>(0xbf58476d1ce4e5b9ULL)));
  x = Mul64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 27)),
            _mm256_set1_epi64x(static_cast<long long>(0x94d049bb133111ebULL)));
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
}

/// FlatIdTable::HashOf on 4 lanes: seed ^ (Mix64(key) + folded constant).
inline __m256i HashOf4(__m256i key) {
  const __m256i mixed = Mix64x4(key);
  return _mm256_xor_si256(
      _mm256_set1_epi64x(static_cast<long long>(detail::kHashSeed)),
      _mm256_add_epi64(
          mixed,
          _mm256_set1_epi64x(static_cast<long long>(detail::kHashAdd))));
}

uint32_t Avx2Flat(const RefineArgs& a, util::FlatIdTable& table,
                  uint32_t fresh) {
  alignas(32) uint64_t keys[detail::kFlatBlock];
  alignas(32) uint64_t hashes[detail::kFlatBlock];

  for (size_t b = 0; b < a.n; b += detail::kFlatBlock) {
    const size_t be =
        a.n - b < detail::kFlatBlock ? a.n : b + detail::kFlatBlock;
    // Build phase: packed u64 keys + hashes, 4 lanes at a time. Dead
    // lanes still get a (meaningless but safely computed) key — the probe
    // phase skips them, and their base ids are exempt from the check.
    size_t t = b;
    for (; t + 4 <= be; t += 4) {
      __m256i key;
      if (a.base_ids != nullptr) {
        const __m128i id32 =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(a.base_ids + t));
        if (a.base_groups <= 0xffffffffull) {
          const __m128i vgroups =
              _mm_set1_epi32(static_cast<int>(a.base_groups));
          __m128i bad = _mm_cmpeq_epi32(_mm_max_epu32(id32, vgroups), id32);
          if (a.live != nullptr) {
            int lbytes;
            std::memcpy(&lbytes, a.live + t, sizeof(lbytes));
            const __m128i lv32 =
                _mm_cvtepu8_epi32(_mm_cvtsi32_si128(lbytes));
            bad = _mm_and_si128(
                bad, _mm_cmpgt_epi32(lv32, _mm_setzero_si128()));
          }
          if (!_mm_testz_si128(bad, bad)) detail::ThrowBadId();
        }
        key = _mm256_cvtepu32_epi64(id32);
      } else {
        key = _mm256_setzero_si256();
      }
      for (size_t j = 0; j < a.level_count; ++j) {
        const Level& lv = a.levels[j];
        __m128i c =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(lv.codes + t));
        if (lv.has_nulls) {
          const __m128i isnull = _mm_cmpeq_epi32(
              c, _mm_set1_epi32(static_cast<int>(relation::kNullCode)));
          c = _mm_blendv_epi8(
              c, _mm_set1_epi32(static_cast<int>(lv.null_slot)), isnull);
        }
        key = _mm256_add_epi64(
            Mul64(key,
                  _mm256_set1_epi64x(static_cast<long long>(lv.stride))),
            _mm256_cvtepu32_epi64(c));
      }
      _mm256_store_si256(reinterpret_cast<__m256i*>(keys + (t - b)), key);
      _mm256_store_si256(reinterpret_cast<__m256i*>(hashes + (t - b)),
                         HashOf4(key));
    }
    fresh = detail::FlatFinishBlock(a, table, fresh, b, t, be, keys, hashes);
  }
  return fresh;
}

}  // namespace

const KernelSet kAvx2Kernels{util::CpuTier::kAvx2, Avx2Dense, Avx2Flat};

}  // namespace fdevolve::query::kernels

#endif  // FDEVOLVE_X86_KERNELS
