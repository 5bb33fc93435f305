// AVX-512 kernel tier (F+DQ+BW+VL): 16-lane dense refinement with masked
// gathers and opmask liveness, 8-lane packed-u64 keys + vpmullq splitmix64
// hashing for the flat path. Compiled with -mavx512{f,bw,dq,vl}; reached
// only after runtime detection confirms both the instruction sets and OS
// zmm state.
#include "query/kernels.h"

#if defined(FDEVOLVE_X86_KERNELS)

#include <immintrin.h>

#include <algorithm>

#include "query/kernels_detail.h"

namespace fdevolve::query::kernels {
namespace {

constexpr uint32_t kVacant = util::FlatIdTable::kVacant;

/// 16 packed u32 keys for tuples [t, t+16) with the bounds check masked to
/// live lanes. Dense segments keep the radix <= 2^31, so 32-bit lanes hold
/// every intermediate exactly.
inline __m512i PackedKeys16(const RefineArgs& a, size_t t, __mmask16 m) {
  __m512i key;
  if (a.base_ids != nullptr) {
    key = _mm512_loadu_si512(a.base_ids + t);
    if (a.base_groups <= 0xffffffffull) {
      const __m512i vgroups =
          _mm512_set1_epi32(static_cast<int>(a.base_groups));
      if (_mm512_mask_cmpge_epu32_mask(m, key, vgroups) != 0) {
        detail::ThrowBadId();
      }
    }
  } else {
    key = _mm512_setzero_si512();
  }
  for (size_t j = 0; j < a.level_count; ++j) {
    const Level& lv = a.levels[j];
    __m512i c = _mm512_loadu_si512(lv.codes + t);
    if (lv.has_nulls) {
      const __mmask16 isnull = _mm512_cmpeq_epi32_mask(
          c, _mm512_set1_epi32(static_cast<int>(relation::kNullCode)));
      c = _mm512_mask_mov_epi32(
          c, isnull, _mm512_set1_epi32(static_cast<int>(lv.null_slot)));
    }
    key = _mm512_add_epi32(
        _mm512_mullo_epi32(key,
                           _mm512_set1_epi32(static_cast<int>(lv.stride))),
        c);
  }
  return key;
}

/// Resolves one batch's miss lanes. Lane order = tuple order, and
/// dense[cell] is re-read per lane, so intra-batch (and, under the 2x
/// unroll, cross-batch) duplicates see the id an earlier lane inserted —
/// first-appearance assignment survives batching. The miss bitmask is
/// walked with ctz instead of a 16-way branch per lane: at high
/// fresh-ratios nearly every batch has a miss or three, and the
/// unpredictable per-lane branches were the dominant cost of the naive
/// loop. When materializing (`id != nullptr`), the corrected id vector is
/// rebuilt through a spill; count-only callers skip that entirely.
inline uint32_t FixupMisses16(uint32_t* dense, __m512i key, __m512i* id,
                              __mmask16 miss, uint32_t fresh) {
  alignas(64) uint32_t kk[16];
  _mm512_store_si512(kk, key);
  if (id == nullptr) {
    uint32_t mm = miss;
    while (mm != 0) {
      const int l = __builtin_ctz(mm);
      mm &= mm - 1;
      const uint32_t cell = kk[l];
      if (dense[cell] == kVacant) dense[cell] = fresh++;
    }
    return fresh;
  }
  alignas(64) uint32_t ii[16];
  _mm512_store_si512(ii, *id);
  uint32_t mm = miss;
  while (mm != 0) {
    const int l = __builtin_ctz(mm);
    mm &= mm - 1;
    const uint32_t cell = kk[l];
    uint32_t cur = dense[cell];
    if (cur == kVacant) {
      cur = fresh++;
      dense[cell] = cur;
    }
    ii[l] = cur;
  }
  *id = _mm512_load_si512(ii);
  return fresh;
}

/// Single-level specialization of the dense loop — the AVX-512 twin of
/// the AVX2 tier's Dense1Level8. Refine-by-one-attribute is the hottest
/// shape the repair search produces, and the generic loop's
/// RefineArgs/Level indirection makes GCC re-load every field and re-test
/// every runtime flag per 16-tuple batch. This version hoists all batch
/// constants into locals before the loop and resolves the masked/count-only
/// shape at compile time, so the steady-state body is load + gather +
/// opmask compare.
template <bool kMasked, bool kCountOnly>
uint32_t Dense1Level16(const RefineArgs& a, uint32_t* dense, uint32_t fresh) {
  const uint32_t* const base = a.base_ids;
  const uint8_t* const live = a.live;
  uint32_t* const out = a.out;
  const Level lv = a.levels[0];
  const uint32_t* const codes = lv.codes;
  const bool check = base != nullptr && a.base_groups <= 0xffffffffull;
  const bool has_nulls = lv.has_nulls;
  const __m512i vgroups = _mm512_set1_epi32(static_cast<int>(a.base_groups));
  const __m512i vstride = _mm512_set1_epi32(static_cast<int>(lv.stride));
  const __m512i vnull =
      _mm512_set1_epi32(static_cast<int>(relation::kNullCode));
  const __m512i vslot = _mm512_set1_epi32(static_cast<int>(lv.null_slot));
  const __m512i vvacant = _mm512_set1_epi32(-1);

  // One batch's key vector: base ids (bounds-checked on live lanes) *
  // stride + NULL-remapped codes. Everything it reads is a local.
  const auto keys_at = [&](size_t t, __mmask16 m) {
    __m512i key;
    if (base != nullptr) {
      key = _mm512_loadu_si512(base + t);
      if (check) {
        const __mmask16 liveness = kMasked ? m : static_cast<__mmask16>(0xffff);
        if (_mm512_mask_cmpge_epu32_mask(liveness, key, vgroups) != 0) {
          detail::ThrowBadId();
        }
      }
    } else {
      key = _mm512_setzero_si512();
    }
    __m512i c = _mm512_loadu_si512(codes + t);
    if (has_nulls) {
      const __mmask16 isnull = _mm512_cmpeq_epi32_mask(c, vnull);
      c = _mm512_mask_mov_epi32(c, isnull, vslot);
    }
    return _mm512_add_epi32(_mm512_mullo_epi32(key, vstride), c);
  };

  size_t t = 0;
  // 2x unrolled: both gathers in flight before either fixup (latency
  // hiding); batch 1's stale-vacant reads self-correct because the fixup
  // re-reads each missed cell, strictly in tuple order.
  for (; t + 32 <= a.n; t += 32) {
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
    __m512i id0 = kMasked
                      ? _mm512_mask_i32gather_epi32(vvacant, m0, key0, dense, 4)
                      : _mm512_i32gather_epi32(key0, dense, 4);
    __m512i id1 = kMasked
                      ? _mm512_mask_i32gather_epi32(vvacant, m1, key1, dense, 4)
                      : _mm512_i32gather_epi32(key1, dense, 4);
    const __mmask16 miss0 = kMasked
                                ? _mm512_mask_cmpeq_epi32_mask(m0, id0, vvacant)
                                : _mm512_cmpeq_epi32_mask(id0, vvacant);
    const __mmask16 miss1 = kMasked
                                ? _mm512_mask_cmpeq_epi32_mask(m1, id1, vvacant)
                                : _mm512_cmpeq_epi32_mask(id1, vvacant);
    if ((miss0 | miss1) != 0) {
      // Inline fixup over the combined 32-lane spill: ctz-walk in lane
      // (= tuple) order with a per-cell re-read, so duplicates within and
      // across the pair still get first-appearance ids.
      alignas(64) uint32_t kk[32];
      _mm512_store_si512(kk, key0);
      _mm512_store_si512(kk + 16, key1);
      uint32_t bits = static_cast<uint32_t>(miss0) |
                      (static_cast<uint32_t>(miss1) << 16);
      if (kCountOnly) {
        while (bits != 0) {
          const int l = __builtin_ctz(bits);
          bits &= bits - 1;
          const uint32_t cell = kk[l];
          if (dense[cell] == kVacant) dense[cell] = fresh++;
        }
      } else {
        alignas(64) uint32_t ii[32];
        _mm512_store_si512(ii, id0);
        _mm512_store_si512(ii + 16, id1);
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
        id0 = _mm512_load_si512(ii);
        id1 = _mm512_load_si512(ii + 16);
      }
    }
    if (!kCountOnly) {
      _mm512_storeu_si512(out + t, id0);
      _mm512_storeu_si512(out + t + 16, id1);
    }
  }
  for (; t + 16 <= a.n; t += 16) {
    __mmask16 m = 0xffff;
    if (kMasked) {
      const __m128i bytes =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(live + t));
      m = _mm_cmpneq_epi8_mask(bytes, _mm_setzero_si128());
      if (m == 0) continue;
    }
    const __m512i key = keys_at(t, m);
    __m512i id = kMasked
                     ? _mm512_mask_i32gather_epi32(vvacant, m, key, dense, 4)
                     : _mm512_i32gather_epi32(key, dense, 4);
    uint32_t bits = kMasked ? _mm512_mask_cmpeq_epi32_mask(m, id, vvacant)
                            : _mm512_cmpeq_epi32_mask(id, vvacant);
    if (bits != 0) {
      alignas(64) uint32_t kk[16];
      _mm512_store_si512(kk, key);
      if (kCountOnly) {
        while (bits != 0) {
          const int l = __builtin_ctz(bits);
          bits &= bits - 1;
          const uint32_t cell = kk[l];
          if (dense[cell] == kVacant) dense[cell] = fresh++;
        }
      } else {
        alignas(64) uint32_t ii[16];
        _mm512_store_si512(ii, id);
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
        id = _mm512_load_si512(ii);
      }
    }
    if (!kCountOnly) _mm512_storeu_si512(out + t, id);
  }
  return detail::DenseRefineRange(a, dense, fresh, t, a.n);
}

uint32_t Avx512Dense(const RefineArgs& a, uint32_t* dense, uint32_t fresh) {
  if (a.level_count == 1) {
    const bool masked = a.live != nullptr;
    const bool count_only = a.out == nullptr;
    if (masked) {
      return count_only ? Dense1Level16<true, true>(a, dense, fresh)
                        : Dense1Level16<true, false>(a, dense, fresh);
    }
    return count_only ? Dense1Level16<false, true>(a, dense, fresh)
                      : Dense1Level16<false, false>(a, dense, fresh);
  }
  const __m512i vvacant = _mm512_set1_epi32(-1);
  const bool count_only = a.out == nullptr;
  size_t t = 0;
  // 2x unrolled main loop: both gathers issue before either fixup, which
  // hides most of the gather latency (this is where the bulk of the
  // speedup over one-batch-at-a-time comes from). Batch 1's gather may
  // race batch 0's inserts and read a stale kVacant — harmless, the lane
  // just takes the fixup path, which re-reads the cell after batch 0's
  // fixup completed.
  for (; t + 32 <= a.n; t += 32) {
    __mmask16 m0 = 0xffff;
    __mmask16 m1 = 0xffff;
    if (a.live != nullptr) {
      const __m256i bytes =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.live + t));
      const __mmask32 lm =
          _mm256_cmpneq_epi8_mask(bytes, _mm256_setzero_si256());
      m0 = static_cast<__mmask16>(lm);
      m1 = static_cast<__mmask16>(lm >> 16);
    }
    const __m512i key0 = PackedKeys16(a, t, m0);
    const __m512i key1 = PackedKeys16(a, t + 16, m1);
    __m512i id0 = _mm512_mask_i32gather_epi32(vvacant, m0, key0, dense, 4);
    __m512i id1 = _mm512_mask_i32gather_epi32(vvacant, m1, key1, dense, 4);
    const __mmask16 miss0 = _mm512_mask_cmpeq_epi32_mask(m0, id0, vvacant);
    const __mmask16 miss1 = _mm512_mask_cmpeq_epi32_mask(m1, id1, vvacant);
    // Fixups strictly in tuple order: batch 0 before batch 1.
    if (miss0 != 0) {
      fresh = FixupMisses16(dense, key0, count_only ? nullptr : &id0, miss0,
                            fresh);
    }
    if (miss1 != 0) {
      fresh = FixupMisses16(dense, key1, count_only ? nullptr : &id1, miss1,
                            fresh);
    }
    if (!count_only) {
      _mm512_storeu_si512(a.out + t, id0);
      _mm512_storeu_si512(a.out + t + 16, id1);
    }
  }
  for (; t + 16 <= a.n; t += 16) {
    __mmask16 m = 0xffff;
    if (a.live != nullptr) {
      const __m128i bytes =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(a.live + t));
      m = _mm_cmpneq_epi8_mask(bytes, _mm_setzero_si128());
      if (m == 0) continue;
    }
    const __m512i key = PackedKeys16(a, t, m);
    __m512i id = _mm512_mask_i32gather_epi32(vvacant, m, key, dense, 4);
    const __mmask16 miss = _mm512_mask_cmpeq_epi32_mask(m, id, vvacant);
    if (miss != 0) {
      fresh = FixupMisses16(dense, key, count_only ? nullptr : &id, miss,
                            fresh);
    }
    if (!count_only) _mm512_storeu_si512(a.out + t, id);
  }
  return detail::DenseRefineRange(a, dense, fresh, t, a.n);
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
  constexpr size_t kBlock = 128;
  constexpr size_t kPrefetchAhead = 8;
  alignas(64) uint64_t keys[kBlock];
  alignas(64) uint64_t hashes[kBlock];

  for (size_t b = 0; b < a.n; b += kBlock) {
    const size_t be = std::min(a.n, b + kBlock);
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
    for (; t < be; ++t) {
      if (a.live != nullptr && a.live[t] == 0) {
        keys[t - b] = 0;
        hashes[t - b] = 0;
        continue;
      }
      keys[t - b] = detail::PackedKey(a, t);
      hashes[t - b] = util::FlatIdTable::HashOf(keys[t - b]);
    }
    for (t = b; t < be; ++t) {
      if (a.live != nullptr && a.live[t] == 0) continue;
      if (t + kPrefetchAhead < be) {
        table.PrefetchHash(hashes[t + kPrefetchAhead - b]);
      }
      bool inserted = false;
      const uint32_t id =
          table.FindOrInsertHashed(keys[t - b], hashes[t - b], fresh,
                                   &inserted);
      if (inserted) ++fresh;
      if (a.out != nullptr) a.out[t] = id;
    }
  }
  return fresh;
}

}  // namespace

const KernelSet kAvx512Kernels{util::CpuTier::kAvx512, Avx512Dense,
                               Avx512Flat};

}  // namespace fdevolve::query::kernels

#endif  // FDEVOLVE_X86_KERNELS
