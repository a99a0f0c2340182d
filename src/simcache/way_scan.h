#ifndef CATDB_SIMCACHE_WAY_SCAN_H_
#define CATDB_SIMCACHE_WAY_SCAN_H_

#include <cstdint>

#if defined(__x86_64__)
#include <emmintrin.h>
#define CATDB_WAY_SCAN_X86 1
#else
#define CATDB_WAY_SCAN_X86 0
#endif

namespace catdb::simcache {

/// SIMD dispatch level for the set-associative cache's way search. The SoA
/// layout keeps a set's tags (and LRU stamps) in one dense run of uint64_t,
/// so the two primitives every probe reduces to — "first way whose tag equals
/// x" and "way with the lowest stamp" — vectorize directly:
///   kScalar : plain loops, bit-identical oracle (CATDB_NO_SIMD=1 selects it
///             at runtime; also the only level on non-x86 builds).
///   kSse2   : 2 ways per step; SSE2 is the x86-64 baseline, always present.
///   kAvx2   : 4 ways per step; runtime-detected, compiled with a per-
///             function target attribute so the baseline binary still runs
///             on pre-AVX2 hosts.
/// The level never changes simulated results — only which instructions
/// perform the identical search (pinned by tests/soa_cache_test.cc and the
/// nosimd differential-fuzz regime).
enum class SimdLevel : uint8_t { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

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
/// needs no victim), and the vector kernels order the hit check before the
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

/// Index of the first occurrence of the minimum of stamps[0..n). n >= 1.
/// (LRU stamps are unique in practice — the stamp counter is monotone — so
/// "first occurrence" only matters for the all-invalid corner where stale
/// stamps may repeat; the scalar victim walk breaks ties the same way.)
inline int MinStampWayScalar(const uint64_t* stamps, uint32_t n) {
  int best = 0;
  uint64_t best_val = stamps[0];
  for (uint32_t w = 1; w < n; ++w) {
    if (stamps[w] < best_val) {
      best_val = stamps[w];
      best = static_cast<int>(w);
    }
  }
  return best;
}

#if CATDB_WAY_SCAN_X86

/// SSE2 tag compare, 2 ways per step. SSE2 has no 64-bit equality, so a
/// 32-bit lane compare is folded with its pair-swapped self: a 64-bit lane
/// matches iff both halves matched, and the lane's sign bit (read via
/// movemask_pd) then reflects the full-width match. The vector loop covers
/// whole pairs only — reading past `n` could touch the next set's ways, or
/// run off the arrays on the last set — and a scalar step takes the odd tail.
inline int FindWaySse2(const uint64_t* tags, uint32_t n, uint64_t needle) {
  const __m128i nv = _mm_set1_epi64x(static_cast<long long>(needle));
  uint32_t w = 0;
  for (; w + 2 <= n; w += 2) {
    const __m128i t =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(tags + w));
    const __m128i eq32 = _mm_cmpeq_epi32(t, nv);
    const __m128i eq64 = _mm_and_si128(
        eq32, _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1)));
    const int mask = _mm_movemask_pd(_mm_castsi128_pd(eq64));
    if (mask != 0) return static_cast<int>(w) + __builtin_ctz(mask);
  }
  if (w < n && tags[w] == needle) return static_cast<int>(w);
  return -1;
}

/// SSE2 fused hit + first-empty scan (see FindWayOrEmptyScalar for the
/// contract). The empty check per pair is skipped once an empty way was
/// found — on warm sets (no empties at all) it costs one predictable branch
/// per pair, and the whole probe is a single pass over the tag run instead
/// of the two passes separate hit and empty scans would make.
inline int FindWayOrEmptySse2(const uint64_t* tags, uint32_t n,
                              uint64_t needle, int* first_empty) {
  const __m128i nv = _mm_set1_epi64x(static_cast<long long>(needle));
  const __m128i iv = _mm_set1_epi64x(-1);
  int empty = -1;
  uint32_t w = 0;
  for (; w + 2 <= n; w += 2) {
    const __m128i t =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(tags + w));
    const __m128i eq32 = _mm_cmpeq_epi32(t, nv);
    const __m128i eq64 = _mm_and_si128(
        eq32, _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1)));
    const int hit = _mm_movemask_pd(_mm_castsi128_pd(eq64));
    if (hit != 0) {
      *first_empty = empty;
      return static_cast<int>(w) + __builtin_ctz(hit);
    }
    if (empty < 0) {
      // kEmptyTag is all-ones, so a 32-bit lane compare needs no pair fold:
      // both halves match iff the 64-bit lane is all-ones.
      const __m128i em32 = _mm_cmpeq_epi32(t, iv);
      const __m128i em64 = _mm_and_si128(
          em32, _mm_shuffle_epi32(em32, _MM_SHUFFLE(2, 3, 0, 1)));
      const int em = _mm_movemask_pd(_mm_castsi128_pd(em64));
      if (em != 0) empty = static_cast<int>(w) + __builtin_ctz(em);
    }
  }
  if (w < n) {
    if (tags[w] == needle) {
      *first_empty = empty;
      return static_cast<int>(w);
    }
    if (empty < 0 && tags[w] == kEmptyTag) empty = static_cast<int>(w);
  }
  *first_empty = empty;
  return -1;
}

/// SSE2 min-stamp scan, 2 ways per step, tracking a parallel index vector.
/// Stamps stay far below 2^63 (one increment per simulated cache touch), so
/// "a < b" equals the sign of the 64-bit difference; the sign bit is smeared
/// across its lane (shuffle + arithmetic shift) to form a blend mask. The
/// strict less-than keeps the earlier index on equal values within a lane,
/// and the final two-lane reduce prefers the lower index on ties, so the
/// result is the first occurrence of the minimum — the scalar semantics.
/// Requires n >= 2 (dispatcher guarantees it).
inline int MinStampWaySse2(const uint64_t* stamps, uint32_t n) {
  __m128i best =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(stamps));
  __m128i best_idx = _mm_set_epi64x(1, 0);
  __m128i idx = best_idx;
  const __m128i step = _mm_set1_epi64x(2);
  uint32_t w = 2;
  for (; w + 2 <= n; w += 2) {
    idx = _mm_add_epi64(idx, step);
    const __m128i cur =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(stamps + w));
    const __m128i diff = _mm_sub_epi64(cur, best);
    const __m128i lt = _mm_srai_epi32(
        _mm_shuffle_epi32(diff, _MM_SHUFFLE(3, 3, 1, 1)), 31);
    best = _mm_or_si128(_mm_and_si128(lt, cur), _mm_andnot_si128(lt, best));
    best_idx =
        _mm_or_si128(_mm_and_si128(lt, idx), _mm_andnot_si128(lt, best_idx));
  }
  alignas(16) uint64_t v[2];
  alignas(16) uint64_t ix[2];
  _mm_store_si128(reinterpret_cast<__m128i*>(v), best);
  _mm_store_si128(reinterpret_cast<__m128i*>(ix), best_idx);
  uint64_t best_val = v[0];
  uint64_t best_i = ix[0];
  if (v[1] < best_val || (v[1] == best_val && ix[1] < best_i)) {
    best_val = v[1];
    best_i = ix[1];
  }
  for (; w < n; ++w) {
    if (stamps[w] < best_val) {
      best_val = stamps[w];
      best_i = w;
    }
  }
  return static_cast<int>(best_i);
}

/// AVX2 variants, 4 ways per step; out of line (way_scan.cc) behind a
/// per-function target("avx2") attribute and only called after runtime
/// detection. Same first-match / first-minimum semantics.
int FindWayAvx2(const uint64_t* tags, uint32_t n, uint64_t needle);
int FindWayOrEmptyAvx2(const uint64_t* tags, uint32_t n, uint64_t needle,
                       int* first_empty);
int MinStampWayAvx2(const uint64_t* stamps, uint32_t n);  // requires n >= 4

#endif  // CATDB_WAY_SCAN_X86

/// Minimum way counts at which the dispatched scans use each vector width.
/// Measured, not derived (EXPERIMENTS.md, "SIMD dispatch policy"): on the
/// reference host the early-exit scalar loops won an interleaved A/B at
/// *every* configured scan width — the 8-way L1/L2 sets, the 16-slot
/// prefetcher stream table, and the 20-way LLC. SSE2 has no 64-bit
/// compare, so each SSE2 step pays a 32-bit-lane fold (compare + shuffle +
/// and + movemask) whose latency exceeds the handful of predictable scalar
/// compares it replaces; AVX2 compares 64-bit lanes natively, but its
/// out-of-line call adds call/vzeroupper overhead. 64 is the allocation-mask
/// width — no configurable geometry reaches it, so both vector tiers are
/// measured off. The kernels stay compiled, runtime-selectable, and pinned
/// by tests/soa_cache_test.cc plus the nosimd fuzz regime: a host where
/// vector integer compare is cheaper only needs these two constants
/// lowered. Levels below a threshold fall through to the narrower scan.
inline constexpr uint32_t kSse2MinWays = 64;
inline constexpr uint32_t kAvx2MinWays = 64;

/// Dispatched first-match scan. The level is loop-invariant per cache, so
/// the branches predict perfectly; narrow sets (below the thresholds above)
/// always take the scalar loop — the vector setup would cost more than it
/// saves.
inline int FindWay(const uint64_t* tags, uint32_t n, uint64_t needle,
                   SimdLevel level) {
#if CATDB_WAY_SCAN_X86
  if (level == SimdLevel::kAvx2 && n >= kAvx2MinWays) {
    return FindWayAvx2(tags, n, needle);
  }
  if (level != SimdLevel::kScalar && n >= kSse2MinWays) {
    return FindWaySse2(tags, n, needle);
  }
#else
  (void)level;
#endif
  return FindWayScalar(tags, n, needle);
}

/// Dispatched fused hit + first-empty scan; same thresholds as FindWay.
inline int FindWayOrEmpty(const uint64_t* tags, uint32_t n, uint64_t needle,
                          SimdLevel level, int* first_empty) {
#if CATDB_WAY_SCAN_X86
  if (level == SimdLevel::kAvx2 && n >= kAvx2MinWays) {
    return FindWayOrEmptyAvx2(tags, n, needle, first_empty);
  }
  if (level != SimdLevel::kScalar && n >= kSse2MinWays) {
    return FindWayOrEmptySse2(tags, n, needle, first_empty);
  }
#else
  (void)level;
#endif
  return FindWayOrEmptyScalar(tags, n, needle, first_empty);
}

/// Dispatched first-minimum scan. n >= 1.
inline int MinStampWay(const uint64_t* stamps, uint32_t n, SimdLevel level) {
#if CATDB_WAY_SCAN_X86
  if (level == SimdLevel::kAvx2 && n >= kAvx2MinWays) {
    return MinStampWayAvx2(stamps, n);
  }
  if (level != SimdLevel::kScalar && n >= kSse2MinWays) {
    return MinStampWaySse2(stamps, n);
  }
#else
  (void)level;
#endif
  return MinStampWayScalar(stamps, n);
}

}  // namespace way_scan
}  // namespace catdb::simcache

#endif  // CATDB_SIMCACHE_WAY_SCAN_H_
