#ifndef CATDB_SIMCACHE_SET_ASSOC_CACHE_H_
#define CATDB_SIMCACHE_SET_ASSOC_CACHE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bits.h"
#include "common/check.h"
#include "simcache/cache_geometry.h"
#include "simcache/way_scan.h"

namespace catdb::simcache {

/// A line evicted by an insert, with the owner tag it was filled under
/// (owner = class of service for the LLC; used by cache monitoring) and the
/// presence mask of cores that may still hold a private copy (see
/// MarkPresent; only maintained for the LLC).
struct EvictedLine {
  uint64_t line = 0;
  uint16_t owner = 0;
  uint32_t presence = 0;
};

/// A set-associative cache with true-LRU replacement and CAT-style
/// *allocation* way masks.
///
/// The allocation mask restricts only victim selection on insert (which ways
/// a requester may evict from); lookups hit in any way. This matches Intel
/// Cache Allocation Technology semantics: a core restricted to mask 0x3 can
/// still *read* lines another core placed anywhere in the cache, it just
/// cannot displace lines outside its two ways.
///
/// Storage layout is struct-of-arrays: the per-set run of `tags` (with
/// kInvalidTag marking empty ways) is the only data a lookup scan touches,
/// so a 20-way LLC set occupies 160 B of tags — two or three cache lines —
/// instead of the 640 B an array of per-way structs spreads a scan over, and
/// the way search is a branch-free tag-compare loop. `lru_stamps` ride in a
/// parallel hot array (read by victim selection, written on promotion);
/// `presence`/`owners` are cold and only touched on fills, evictions and
/// monitoring.
class SetAssocCache {
 public:
  /// Tag stored in an empty way. Real line addresses are byte addresses >> 6
  /// and can never reach the all-ones pattern; Insert DCHECKs this, so a
  /// scan needs no separate valid bit.
  static constexpr uint64_t kInvalidTag = ~uint64_t{0};

  /// Width of the presence masks (EvictedLine::presence and the per-way
  /// presence words): core indices passed to MarkPresent* must be below
  /// this, or the shift building the bit is undefined behaviour. Validated
  /// against the core count at hierarchy/machine construction.
  static constexpr uint32_t kMaxPresenceCores = 32;

  explicit SetAssocCache(CacheGeometry geometry);

  SetAssocCache(const SetAssocCache&) = delete;
  SetAssocCache& operator=(const SetAssocCache&) = delete;

  const CacheGeometry& geometry() const { return geometry_; }

  /// Looks up a line address. On hit, promotes the line to MRU and returns
  /// true.
  bool Lookup(uint64_t line);

  /// Lookup for the hierarchy's batched run loop: identical state evolution
  /// to Lookup(), but the one-compare way-hint check inlines into the caller
  /// and only the full set scan stays out of line.
  bool LookupHinted(uint64_t line) { return LookupSlotHinted(line) >= 0; }

  /// LookupHinted that reports *where* the line sits: the returned slot
  /// indexes this cache's SoA arrays (set base + way, see SetBaseIndex) and
  /// stays valid until the set next mutates, so the run loop can follow a
  /// hit with MarkPresentAt instead of paying MarkPresent's re-probe.
  /// Returns -1 on miss.
  ///
  /// This and the other methods that scan a set take the way-scan level as
  /// a template argument (kScalar by default); the hierarchy's AVX-512
  /// twins instantiate SimdLevel::kAvx512.
  template <SimdLevel L = SimdLevel::kScalar>
  int64_t LookupSlotHinted(uint64_t line) {
    const uint32_t set = geometry_.SetOf(line);
    const size_t hint = SetBase(set) + way_hint_[set];
    if (tags_[hint] == line) {
      lru_stamps_[hint] = ++stamp_counter_;
      return static_cast<int64_t>(hint);
    }
    return LookupScan<L>(set, line);
  }

  /// Fused demand probe for the run loop's private-cache (full-mask) path:
  /// behaves exactly like LookupHinted — hint compare, full scan, promote
  /// and re-aim on hit — but a miss additionally reports in `*victim_slot`
  /// the slot FillVictim would pick *right now* under the full allocation
  /// mask (first empty way, else the LRU way, ties to the lowest index), so
  /// a later fill on the same miss needs no second set scan. The victim
  /// slot is valid only until this cache next mutates; pair with FillAt.
  /// Defined inline: this is the per-line demand probe of the batched run
  /// loop, and a cross-TU call per line costs more than the scan itself on
  /// small private caches.
  template <SimdLevel L = SimdLevel::kScalar>
  bool LookupOrVictim(uint64_t line, size_t* victim_slot) {
    const uint32_t set = geometry_.SetOf(line);
    const size_t base = SetBase(set);
    const size_t hint = base + way_hint_[set];
    if (tags_[hint] == line) {
      lru_stamps_[hint] = ++stamp_counter_;
      return true;
    }
    // One hit + first-empty scan over the tag run, then a lowest-stamp scan
    // only when the set is full. Picks FillVictim's full-mask victim: the
    // first empty way if any, else the first occurrence of the minimum
    // stamp (all slots valid at that point, so the min over valid slots is
    // the min over all slots).
    const uint32_t n = geometry_.num_ways;
    int empty = -1;
    const int hit =
        way_scan::FindWayOrEmpty<L>(&tags_[base], n, line, &empty);
    if (hit >= 0) {
      lru_stamps_[base + static_cast<uint32_t>(hit)] = ++stamp_counter_;
      way_hint_[set] = static_cast<uint8_t>(hit);
      return true;
    }
    *victim_slot =
        base + static_cast<uint32_t>(
                   empty >= 0
                       ? empty
                       : way_scan::MinStampWay<L>(&lru_stamps_[base], n));
    return false;
  }

  /// Fills `line` into a victim slot previously returned by LookupOrVictim
  /// with no intervening mutation of this cache: victim selection is
  /// already done, so this is FillVictim's fill tail alone (same eviction
  /// record, stamp assignment and hint update). Inline for the same reason
  /// as LookupOrVictim.
  std::optional<EvictedLine> FillAt(size_t slot, uint64_t line,
                                    uint16_t owner = 0) {
    CATDB_DCHECK(slot < tags_.size());
    CATDB_DCHECK(line != kInvalidTag);
    const uint32_t set = geometry_.SetOf(line);
    const size_t base = SetBase(set);
    CATDB_DCHECK(slot >= base && slot < base + geometry_.num_ways);
    std::optional<EvictedLine> evicted;
    if (tags_[slot] != kInvalidTag) {
      evicted = EvictedLine{tags_[slot], owners_[slot], presence_[slot]};
    } else {
      valid_count_ += 1;
    }
    tags_[slot] = line;
    owners_[slot] = owner;
    presence_[slot] = 0;
    lru_stamps_[slot] = ++stamp_counter_;
    way_hint_[set] = static_cast<uint8_t>(slot - base);
    return evicted;
  }

  /// Returns true iff the line is present, without touching LRU state.
  bool Contains(uint64_t line) const;

  /// Contains() with an inline way-hint check first (the hint is advisory,
  /// so reading it does not perturb any state). For the batched run loop.
  bool ContainsHinted(uint64_t line) const {
    return FindSlotHinted(line) >= 0;
  }

  /// Slot-returning Contains (no promotion).
  template <SimdLevel L = SimdLevel::kScalar>
  int64_t FindSlotHinted(uint64_t line) const {
    const uint32_t set = geometry_.SetOf(line);
    const size_t hint = SetBase(set) + way_hint_[set];
    if (tags_[hint] == line) return static_cast<int64_t>(hint);
    return FindSlot<L>(set, line);
  }

  /// Inserts a line, evicting (if needed) the LRU line among the ways set in
  /// `alloc_mask`. If the line is already present it is only promoted to MRU
  /// (no second copy, no eviction). The line is tagged with `owner` (the
  /// filling CLOS, for cache-occupancy monitoring). Returns the evicted
  /// line, if any.
  ///
  /// `alloc_mask` must have at least one bit among the cache's ways; callers
  /// (the hierarchy) guarantee this via CAT mask validation.
  /// Defined inline (with the rest of the fill family below): inserts run
  /// once per simulated fill.
  template <SimdLevel L = SimdLevel::kScalar>
  std::optional<EvictedLine> Insert(uint64_t line, uint64_t alloc_mask,
                                    uint16_t owner = 0) {
    alloc_mask &= FullMask();
    CATDB_DCHECK(alloc_mask != 0);
    const uint32_t set = geometry_.SetOf(line);

    // Already present (in any way): just promote. CAT restricts allocation,
    // not residency. The original filler keeps monitoring ownership.
    CATDB_DCHECK(line != kInvalidTag);
    if (LookupSlotHinted<L>(line) >= 0) return std::nullopt;
    return FillVictim<L>(set, line, alloc_mask, owner, nullptr);
  }

  /// Convenience: insert with all ways allocatable.
  template <SimdLevel L = SimdLevel::kScalar>
  std::optional<EvictedLine> Insert(uint64_t line) {
    return Insert<L>(line, FullMask());
  }

  /// Insert for callers that have just established the line is absent (a
  /// failed Lookup/Contains on this cache with no intervening insert): skips
  /// the already-present scan and goes straight to victim selection. Picks
  /// the same victim as Insert.
  template <SimdLevel L = SimdLevel::kScalar>
  std::optional<EvictedLine> InsertNew(uint64_t line, uint64_t alloc_mask,
                                       uint16_t owner = 0) {
    CATDB_DCHECK(!Contains(line));
    alloc_mask &= FullMask();
    CATDB_DCHECK(alloc_mask != 0);
    return FillVictim<L>(geometry_.SetOf(line), line, alloc_mask, owner,
                         nullptr);
  }

  template <SimdLevel L = SimdLevel::kScalar>
  std::optional<EvictedLine> InsertNew(uint64_t line) {
    return InsertNew<L>(line, FullMask());
  }

  /// InsertNew that also reports the slot the line was filled into, so the
  /// run loop can mark presence without re-probing.
  template <SimdLevel L = SimdLevel::kScalar>
  std::optional<EvictedLine> InsertNewAt(uint64_t line, uint64_t alloc_mask,
                                         uint16_t owner, size_t* slot_out) {
    CATDB_DCHECK(!Contains(line));
    alloc_mask &= FullMask();
    CATDB_DCHECK(alloc_mask != 0);
    return FillVictim<L>(geometry_.SetOf(line), line, alloc_mask, owner,
                         slot_out);
  }

  /// Sets bit `core` in the presence mask of a resident line. The hierarchy
  /// marks which cores filled a private copy of an LLC line so that
  /// back-invalidation can visit only those cores instead of all of them.
  /// The mask is a conservative superset: silent private evictions leave
  /// bits stale, which only costs a no-op Invalidate later.
  void MarkPresent(uint64_t line, uint32_t core);

  /// MarkPresent through a slot previously returned by LookupSlotHinted /
  /// FindSlotHinted / InsertNewAt with no intervening mutation of this
  /// cache: a single store, no probe.
  void MarkPresentAt(size_t slot, uint32_t core) {
    CATDB_DCHECK(slot < tags_.size() && tags_[slot] != kInvalidTag);
    CATDB_DCHECK(core < kMaxPresenceCores);
    presence_[slot] |= uint32_t{1} << core;
  }

  /// Owner tag of a resident line (-1 if absent); for monitoring tests.
  int OwnerOf(uint64_t line) const;

  /// Removes the line if present. Returns true if it was present. Inline:
  /// inclusive back-invalidation calls this per present core on every LLC
  /// eviction.
  template <SimdLevel L = SimdLevel::kScalar>
  bool Invalidate(uint64_t line) {
    const int64_t slot = FindSlot<L>(geometry_.SetOf(line), line);
    if (slot < 0) return false;
    // Stamp/presence/owner go stale in the emptied slot; FillVictim resets
    // them on the next fill and nothing reads them while the tag is invalid.
    tags_[static_cast<size_t>(slot)] = kInvalidTag;
    CATDB_DCHECK(valid_count_ > 0);
    valid_count_ -= 1;
    return true;
  }

  /// Removes every line (used when resizing experiments re-start cleanly).
  void Clear();

  /// Mask with one bit per way, all set.
  uint64_t FullMask() const { return MaskForWays(geometry_.num_ways); }

  /// Number of valid lines currently cached (O(1), maintained
  /// incrementally).
  uint64_t ValidLineCount() const { return valid_count_; }

  /// Appends all valid line addresses to `out` (for inclusivity checks in
  /// tests).
  void CollectValidLines(std::vector<uint64_t>* out) const;

  /// Returns the way index holding `line`, or -1 (for tests asserting that
  /// allocation respects the way mask).
  int WayOf(uint64_t line) const;

  /// First index of `set`'s ways in the SoA arrays, computed in size_t so
  /// geometries with num_sets * num_ways > 2^32 index correctly (32-bit
  /// `set * num_ways` arithmetic wraps for such geometries); exposed so the
  /// regression test can pin the arithmetic without allocating a
  /// >4-billion-way cache.
  static size_t SetBaseIndex(const CacheGeometry& g, uint32_t set) {
    return static_cast<size_t>(set) * g.num_ways;
  }

 private:
  // Victim selection + fill for a line known to be absent from `set`.
  // Reports the filled slot through `slot_out` when non-null.
  template <SimdLevel L = SimdLevel::kScalar>
  std::optional<EvictedLine> FillVictim(uint32_t set, uint64_t line,
                                        uint64_t alloc_mask, uint16_t owner,
                                        size_t* slot_out) {
    const size_t base = SetBase(set);
    // Victim selection reads only the hot tag/stamp arrays: the first empty
    // way the allocation mask allows, else the allowed way with the lowest
    // stamp (ties to the lowest way index).
    const int victim = way_scan::VictimWay<L>(
        &tags_[base], &lru_stamps_[base], geometry_.num_ways, alloc_mask);
    CATDB_DCHECK(victim >= 0);

    const size_t slot = base + static_cast<uint32_t>(victim);
    std::optional<EvictedLine> evicted;
    if (tags_[slot] != kInvalidTag) {
      evicted = EvictedLine{tags_[slot], owners_[slot], presence_[slot]};
    } else {
      valid_count_ += 1;
    }
    CATDB_DCHECK(line != kInvalidTag);
    tags_[slot] = line;
    owners_[slot] = owner;
    presence_[slot] = 0;
    lru_stamps_[slot] = ++stamp_counter_;
    way_hint_[set] = static_cast<uint8_t>(victim);
    if (slot_out != nullptr) *slot_out = slot;
    return evicted;
  }
  // Full-set scan half of LookupSlotHinted (hint already missed). Promotes
  // and re-aims the hint on hit; returns the slot or -1.
  template <SimdLevel L = SimdLevel::kScalar>
  int64_t LookupScan(uint32_t set, uint64_t line) {
    const int64_t slot = FindSlot<L>(set, line);
    if (slot >= 0) {
      lru_stamps_[static_cast<size_t>(slot)] = ++stamp_counter_;
      way_hint_[set] =
          static_cast<uint8_t>(static_cast<size_t>(slot) - SetBase(set));
    }
    return slot;
  }
  // Full-set scan half of FindSlotHinted (no promotion). Empty ways hold
  // kInvalidTag, which never equals a real line address, so matching is one
  // tag compare per way over a dense array, dispatched through the way_scan
  // primitives (eight ways per compare at kAvx512).
  template <SimdLevel L = SimdLevel::kScalar>
  int64_t FindSlot(uint32_t set, uint64_t line) const {
    const size_t base = SetBase(set);
    const int w = way_scan::FindWay<L>(&tags_[base], geometry_.num_ways, line);
    return w < 0 ? -1 : static_cast<int64_t>(base + static_cast<uint32_t>(w));
  }

  size_t SetBase(uint32_t set) const { return SetBaseIndex(geometry_, set); }

  CacheGeometry geometry_;
  // SoA layout. Ways of set s occupy indices [SetBase(s),
  // SetBase(s) + num_ways) of each array. tags_/lru_stamps_ are the hot
  // scan/victim data; presence_/owners_ are cold fill/monitoring data.
  std::vector<uint64_t> tags_;
  std::vector<uint64_t> lru_stamps_;
  std::vector<uint32_t> presence_;
  std::vector<uint16_t> owners_;
  // Per-set index of the most recently hit/filled way: a one-compare fast
  // path for Lookup on re-accessed lines. Never authoritative — always
  // verified against the tag — so it may go stale on Invalidate/Clear.
  // uint8_t is wide enough because CacheGeometry::Valid() caps
  // associativity at 64 ways; the constructor CHECKs the bound so a future
  // geometry widening cannot silently truncate hints into wrong-way reads.
  std::vector<uint8_t> way_hint_;
  uint64_t stamp_counter_ = 0;
  uint64_t valid_count_ = 0;
};

}  // namespace catdb::simcache

#endif  // CATDB_SIMCACHE_SET_ASSOC_CACHE_H_
