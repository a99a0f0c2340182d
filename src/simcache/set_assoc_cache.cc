#include "simcache/set_assoc_cache.h"

#include "common/check.h"

namespace catdb::simcache {

SetAssocCache::SetAssocCache(CacheGeometry geometry) : geometry_(geometry) {
  CATDB_CHECK(geometry_.Valid());
  CATDB_CHECK(geometry_.num_ways <= 255);  // way_hint_ element width
  const size_t n = SetBaseIndex(geometry_, geometry_.num_sets);
  tags_.assign(n, kInvalidTag);
  lru_stamps_.resize(n);
  for (size_t base = 0; base < n; base += geometry_.num_ways) {
    for (uint32_t w = 0; w < geometry_.num_ways; ++w) {
      lru_stamps_[base + w] = way_scan::TaggedStamp(0, w);
    }
  }
  presence_.assign(n, 0);
  owners_.assign(n, 0);
  way_hint_.assign(geometry_.num_sets, 0);
}

bool SetAssocCache::Lookup(uint64_t line) {
  const uint32_t set = geometry_.SetOf(line);
  // Fast path: re-access of the set's most recently touched line resolves
  // with one tag compare instead of a scan over all ways (operators re-read
  // their hot lines constantly). A stale hint is harmless — it fails the
  // tag check and falls through to the scan.
  const size_t hint = SetBase(set) + way_hint_[set];
  if (tags_[hint] == line) {
    lru_stamps_[hint] = NextStamp(way_hint_[set]);
    return true;
  }
  return LookupScan(set, line) >= 0;
}

bool SetAssocCache::Contains(uint64_t line) const {
  return FindSlot(geometry_.SetOf(line), line) >= 0;
}

void SetAssocCache::MarkPresent(uint64_t line, uint32_t core) {
  CATDB_DCHECK(core < kMaxPresenceCores);
  const uint32_t set = geometry_.SetOf(line);
  // The hierarchy calls this right after touching the line (Lookup, Insert),
  // so the hint almost always resolves it with one compare.
  const size_t hint = SetBase(set) + way_hint_[set];
  if (tags_[hint] == line) {
    presence_[hint] |= uint32_t{1} << core;
    return;
  }
  const int64_t slot = FindSlot(set, line);
  CATDB_DCHECK(slot >= 0);  // caller guarantees residency
  if (slot >= 0) presence_[static_cast<size_t>(slot)] |= uint32_t{1} << core;
}

int SetAssocCache::OwnerOf(uint64_t line) const {
  const int64_t slot = FindSlot(geometry_.SetOf(line), line);
  return slot < 0 ? -1 : owners_[static_cast<size_t>(slot)];
}

void SetAssocCache::Clear() {
  for (uint64_t& t : tags_) t = kInvalidTag;
  valid_count_ = 0;
}

void SetAssocCache::CollectValidLines(std::vector<uint64_t>* out) const {
  for (const uint64_t t : tags_) {
    if (t != kInvalidTag) out->push_back(t);
  }
}

int SetAssocCache::WayOf(uint64_t line) const {
  const uint32_t set = geometry_.SetOf(line);
  const int64_t slot = FindSlot(set, line);
  return slot < 0 ? -1
                  : static_cast<int>(static_cast<size_t>(slot) - SetBase(set));
}

}  // namespace catdb::simcache
