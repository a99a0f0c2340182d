#ifndef CATDB_SIMCACHE_WAY_SCAN_H_
#define CATDB_SIMCACHE_WAY_SCAN_H_

#include <cstdint>

#include "common/bits.h"

#if defined(__x86_64__)
#include <immintrin.h>
#define CATDB_WAY_SCAN_X86 1
#else
#define CATDB_WAY_SCAN_X86 0
#endif

namespace catdb::simcache {

/// SIMD dispatch level for the simulator's way scans. The SoA layout keeps a
/// set's tags (and LRU stamps) in one dense run of uint64_t, so every probe
/// reduces to four primitives — first way whose tag equals x, the fused
/// hit + first-empty scan, the way of the lowest stamp, and victim
/// selection under a CAT allocation mask:
///   kScalar : plain loops. The oracle, the only level on non-x86 builds and
///             on hosts without AVX-512F, and the level CATDB_NO_SIMD=1 and
///             HierarchyConfig::simd=false select.
///   kAvx512 : masked AVX-512F kernels, one 64-bit lane per way: one compare
///             covers an 8-way set, three cover a 20-way set, and the
///             allocation mask is the lane mask. Detected at run time. The
///             kernels carry a per-function target attribute; the hierarchy
///             instantiates its point and run paths at this level only
///             inside target("avx512f") twins (hierarchy.cc), so the rest of
///             the binary stays baseline x86-64.
/// The level never changes simulated results (pinned by
/// tests/soa_cache_test.cc, the model-hierarchy tests and the nosimd fuzz
/// regime).
enum class SimdLevel : uint8_t { kScalar = 0, kAvx512 = 1 };

/// Highest level this host supports, ignoring the environment switch.
SimdLevel DetectSimdLevel();

/// Process-wide default level: DetectSimdLevel(), demoted to kScalar when
/// the CATDB_NO_SIMD environment variable is set to a non-empty value other
/// than "0". Evaluated once (first call) and cached.
SimdLevel DefaultSimdLevel();

namespace way_scan {

/// Index of the first element of tags[0..n) equal to `needle`, or -1. With
/// needle = the invalid-tag sentinel this finds the first empty way — the
/// same way a scalar first-empty walk picks.
inline int FindWayScalar(const uint64_t* tags, uint32_t n, uint64_t needle) {
  for (uint32_t w = 0; w < n; ++w) {
    if (tags[w] == needle) return static_cast<int>(w);
  }
  return -1;
}

/// The all-ones empty-way sentinel (SetAssocCache::kInvalidTag); spelled
/// here so the fused hit+empty scans can name it without a dependency on
/// the cache header.
inline constexpr uint64_t kEmptyTag = ~uint64_t{0};

/// Fused demand scan: index of the first way equal to `needle`, or -1. On a
/// miss *first_empty receives the authoritative first way holding kEmptyTag
/// (-1 if none) — exactly what full-mask victim selection wants first. On a
/// hit *first_empty is written but unspecified: callers discard it (a hit
/// needs no victim), and the vector kernel orders the hit check before the
/// step's empty check, so an empty way sharing a vector step with the hit
/// may go unreported there.
inline int FindWayOrEmptyScalar(const uint64_t* tags, uint32_t n,
                                uint64_t needle, int* first_empty) {
  int empty = -1;
  for (uint32_t w = 0; w < n; ++w) {
    if (tags[w] == needle) {
      *first_empty = empty;
      return static_cast<int>(w);
    }
    if (empty < 0 && tags[w] == kEmptyTag) empty = static_cast<int>(w);
  }
  *first_empty = empty;
  return -1;
}

/// LRU stamps are way-tagged: every stamp site of the cache and the
/// prefetcher writes TaggedStamp(++counter, way), and a slot never stamped
/// holds TaggedStamp(0, way). A run's minimum stamp therefore names its own
/// way (StampWay), so the minimum scans below need no second pass to locate
/// it. The counter is unique per stamp, so stamped slots never tie; equal
/// counters occur only in never-stamped slots, where the tag makes the
/// lowest such way the smallest stamp — the first-occurrence rule. Way
/// indices fit the tag because sets have at most 64 ways
/// (CacheGeometry::Valid) and the prefetcher at most 64 streams
/// (StreamPrefetcher::kMaxStreams); a counter fits the remaining 58 bits
/// for 2^58 stamps.
inline constexpr uint32_t kStampWayBits = 6;

inline uint64_t TaggedStamp(uint64_t counter, uint32_t way) {
  return (counter << kStampWayBits) | way;
}

inline int StampWay(uint64_t stamp) {
  return static_cast<int>(stamp & ((uint64_t{1} << kStampWayBits) - 1));
}

/// Way of the minimum of the way-tagged stamps[0..n) (see TaggedStamp).
/// n >= 1.
inline int MinStampWayScalar(const uint64_t* stamps, uint32_t n) {
  uint64_t oldest = stamps[0];
  for (uint32_t w = 1; w < n; ++w) {
    if (stamps[w] < oldest) oldest = stamps[w];
  }
  return StampWay(oldest);
}

/// Victim way for a fill under a CAT allocation mask, as a walk over the
/// mask's set bits that stops at the first empty way: the first empty
/// allowed way, else the way of the lowest allowed (way-tagged) stamp.
/// `alloc_mask` is nonzero and selects ways below the set's way count.
inline int VictimWayMaskedScalar(const uint64_t* tags, const uint64_t* stamps,
                                 uint64_t alloc_mask) {
  uint64_t oldest = ~uint64_t{0};
  for (uint64_t cand = alloc_mask; cand != 0; cand &= cand - 1) {
    const uint32_t w = static_cast<uint32_t>(__builtin_ctzll(cand));
    if (tags[w] == kEmptyTag) return static_cast<int>(w);
    if (stamps[w] < oldest) oldest = stamps[w];
  }
  return StampWay(oldest);
}

#if CATDB_WAY_SCAN_X86

// AVX-512F kernels. Each walks the run in steps of eight ways with masked
// loads, so it is valid at every way count from 1 to 64: lanes past `n` are
// neither read (a masked load does not touch, and cannot fault on, masked-off
// elements, so the scan never strays into the next set or off the array)
// nor compared. Only a target("avx512f") caller can inline them. The
// explicit-source intrinsic forms (mask_min, mask_permutexvar, mask_cmpeq,
// mask_extracti32x4) are deliberate: GCC 12 raises -Wmaybe-uninitialized
// inside avx512fintrin.h for their unmasked shorthands (and for
// castsi512_si128).
#define CATDB_AVX512_KERNEL __attribute__((target("avx512f"))) inline

/// Lanes of the eight-way step starting `left` ways before the run's end.
inline __mmask8 StepLanes(uint32_t left) {
  return left >= 8 ? __mmask8{0xFF} : static_cast<__mmask8>((1u << left) - 1);
}

CATDB_AVX512_KERNEL int FindWayAvx512(const uint64_t* tags, uint32_t n,
                                      uint64_t needle) {
  const __m512i nv = _mm512_set1_epi64(static_cast<long long>(needle));
  for (uint32_t w = 0; w < n; w += 8) {
    const __mmask8 k = StepLanes(n - w);
    const unsigned hit = _mm512_mask_cmpeq_epu64_mask(
        k, _mm512_maskz_loadu_epi64(k, tags + w), nv);
    if (hit != 0) return static_cast<int>(w) + __builtin_ctz(hit);
  }
  return -1;
}

CATDB_AVX512_KERNEL int FindWayOrEmptyAvx512(const uint64_t* tags,
                                             uint32_t n, uint64_t needle,
                                             int* first_empty) {
  const __m512i nv = _mm512_set1_epi64(static_cast<long long>(needle));
  const __m512i ev = _mm512_set1_epi64(-1);
  int empty = -1;
  for (uint32_t w = 0; w < n; w += 8) {
    const __mmask8 k = StepLanes(n - w);
    const __m512i t = _mm512_maskz_loadu_epi64(k, tags + w);
    const unsigned hit = _mm512_mask_cmpeq_epu64_mask(k, t, nv);
    if (hit != 0) {
      *first_empty = empty;
      return static_cast<int>(w) + __builtin_ctz(hit);
    }
    if (empty < 0) {
      const unsigned em = _mm512_mask_cmpeq_epu64_mask(k, t, ev);
      if (em != 0) empty = static_cast<int>(w) + __builtin_ctz(em);
    }
  }
  *first_empty = empty;
  return -1;
}

/// The minimum of the eight unsigned lanes: three rounds of min against the
/// lanes at distance 4, 2 and 1 leave it in lane 0, which the explicit-source
/// extract (one vmovq with the final cvtsi128) hands back.
CATDB_AVX512_KERNEL uint64_t MinLaneU64(__m512i m) {
  const __m512i swap4 = _mm512_set_epi64(3, 2, 1, 0, 7, 6, 5, 4);
  const __m512i swap2 = _mm512_set_epi64(5, 4, 7, 6, 1, 0, 3, 2);
  const __m512i swap1 = _mm512_set_epi64(6, 7, 4, 5, 2, 3, 0, 1);
  m = _mm512_mask_min_epu64(m, 0xFF, m,
                            _mm512_mask_permutexvar_epi64(m, 0xFF, swap4, m));
  m = _mm512_mask_min_epu64(m, 0xFF, m,
                            _mm512_mask_permutexvar_epi64(m, 0xFF, swap2, m));
  m = _mm512_mask_min_epu64(m, 0xFF, m,
                            _mm512_mask_permutexvar_epi64(m, 0xFF, swap1, m));
  return static_cast<uint64_t>(_mm_cvtsi128_si64(
      _mm512_mask_extracti32x4_epi32(_mm_setzero_si128(), 0xF, m, 0)));
}

/// Way of the minimum way-tagged stamp: the lane-wise minimum over all
/// steps, reduced across lanes (unsigned compares throughout, so any stamp
/// value orders correctly). n >= 1.
CATDB_AVX512_KERNEL int MinStampWayAvx512(const uint64_t* stamps, uint32_t n) {
  __m512i m = _mm512_set1_epi64(-1);
  for (uint32_t w = 0; w < n; w += 8) {
    const __mmask8 k = StepLanes(n - w);
    m = _mm512_mask_min_epu64(m, k, m, _mm512_maskz_loadu_epi64(k, stamps + w));
  }
  return StampWay(MinLaneU64(m));
}

/// VictimWayMaskedScalar with the allocation mask as the lane mask: full and
/// CAT-restricted fills share this one routine. The empty check and the
/// stamp minimum ride in one pass; an empty allowed way ends the scan, since
/// it beats every stamp.
CATDB_AVX512_KERNEL int VictimWayAvx512(const uint64_t* tags,
                                        const uint64_t* stamps, uint32_t n,
                                        uint64_t alloc_mask) {
  const __m512i ev = _mm512_set1_epi64(-1);
  __m512i m = ev;
  for (uint32_t w = 0; w < n; w += 8) {
    const __mmask8 k = static_cast<__mmask8>(alloc_mask >> w);
    const unsigned em = _mm512_mask_cmpeq_epu64_mask(
        k, _mm512_maskz_loadu_epi64(k, tags + w), ev);
    if (em != 0) return static_cast<int>(w) + __builtin_ctz(em);
    m = _mm512_mask_min_epu64(m, k, m, _mm512_maskz_loadu_epi64(k, stamps + w));
  }
  return StampWay(MinLaneU64(m));
}

#undef CATDB_AVX512_KERNEL

#endif  // CATDB_WAY_SCAN_X86

// Dispatched scans. The level is a template argument: the hierarchy's
// AVX-512 twins instantiate kAvx512 and everything else kScalar, so the
// scalar path holds no branch to, and no call of, a kernel.

/// Dispatched first-match scan.
template <SimdLevel L>
inline int FindWay(const uint64_t* tags, uint32_t n, uint64_t needle) {
#if CATDB_WAY_SCAN_X86
  if constexpr (L == SimdLevel::kAvx512) {
    return FindWayAvx512(tags, n, needle);
  }
#endif
  return FindWayScalar(tags, n, needle);
}

/// Dispatched fused hit + first-empty scan.
template <SimdLevel L>
inline int FindWayOrEmpty(const uint64_t* tags, uint32_t n, uint64_t needle,
                          int* first_empty) {
#if CATDB_WAY_SCAN_X86
  if constexpr (L == SimdLevel::kAvx512) {
    return FindWayOrEmptyAvx512(tags, n, needle, first_empty);
  }
#endif
  return FindWayOrEmptyScalar(tags, n, needle, first_empty);
}

/// Dispatched way of the minimum way-tagged stamp. n >= 1.
template <SimdLevel L>
inline int MinStampWay(const uint64_t* stamps, uint32_t n) {
#if CATDB_WAY_SCAN_X86
  if constexpr (L == SimdLevel::kAvx512) return MinStampWayAvx512(stamps, n);
#endif
  return MinStampWayScalar(stamps, n);
}

/// Dispatched victim selection: the first empty way allowed by
/// `alloc_mask`, else the way of the lowest allowed way-tagged stamp.
/// `alloc_mask` is nonzero and selects ways below n. The scalar level splits
/// the full mask (a first-empty scan, then a minimum scan) from a CAT
/// restriction (the bit walk); both pick the same victim.
template <SimdLevel L>
inline int VictimWay(const uint64_t* tags, const uint64_t* stamps, uint32_t n,
                     uint64_t alloc_mask) {
#if CATDB_WAY_SCAN_X86
  if constexpr (L == SimdLevel::kAvx512) {
    return VictimWayAvx512(tags, stamps, n, alloc_mask);
  }
#endif
  if (alloc_mask == MaskForWays(n)) {
    const int empty = FindWayScalar(tags, n, kEmptyTag);
    return empty >= 0 ? empty : MinStampWayScalar(stamps, n);
  }
  return VictimWayMaskedScalar(tags, stamps, alloc_mask);
}

}  // namespace way_scan
}  // namespace catdb::simcache

#endif  // CATDB_SIMCACHE_WAY_SCAN_H_
