#include "model_hierarchy.h"

#include "common/check.h"

namespace catdb::simcache {

// --- AosModel ----------------------------------------------------------------

AosModel::Way* AosModel::Find(uint64_t line) {
  Way* set = &ways_[static_cast<size_t>(g_.SetOf(line)) * g_.num_ways];
  for (uint32_t w = 0; w < g_.num_ways; ++w) {
    if (set[w].valid && set[w].tag == line) return &set[w];
  }
  return nullptr;
}

const AosModel::Way* AosModel::Find(uint64_t line) const {
  return const_cast<AosModel*>(this)->Find(line);
}

bool AosModel::Lookup(uint64_t line) {
  Way* w = Find(line);
  if (w == nullptr) return false;
  w->stamp = ++stamp_;
  return true;
}

bool AosModel::Contains(uint64_t line) const { return Find(line) != nullptr; }

std::optional<EvictedLine> AosModel::Insert(uint64_t line, uint64_t mask,
                                            uint16_t owner) {
  if (Way* w = Find(line)) {
    w->stamp = ++stamp_;
    return std::nullopt;
  }
  Way* set = &ways_[static_cast<size_t>(g_.SetOf(line)) * g_.num_ways];
  int victim = -1;
  uint64_t oldest = ~uint64_t{0};
  for (uint32_t w = 0; w < g_.num_ways; ++w) {
    if ((mask >> w & 1) == 0) continue;
    if (!set[w].valid) {
      victim = static_cast<int>(w);
      break;
    }
    if (set[w].stamp < oldest) {
      oldest = set[w].stamp;
      victim = static_cast<int>(w);
    }
  }
  CATDB_CHECK(victim >= 0);
  Way& v = set[victim];
  std::optional<EvictedLine> evicted;
  if (v.valid) {
    evicted = EvictedLine{v.tag, v.owner, v.presence};
  } else {
    count_ += 1;
  }
  v = Way{/*valid=*/true, line, ++stamp_, owner, /*presence=*/0};
  return evicted;
}

bool AosModel::Invalidate(uint64_t line) {
  Way* w = Find(line);
  if (w == nullptr) return false;
  w->valid = false;
  count_ -= 1;
  return true;
}

void AosModel::MarkPresent(uint64_t line, uint32_t core) {
  Way* w = Find(line);
  CATDB_CHECK(w != nullptr);
  w->presence |= uint32_t{1} << core;
}

void AosModel::Clear() {
  for (Way& w : ways_) w.valid = false;
  count_ = 0;
}

int AosModel::OwnerOf(uint64_t line) const {
  const Way* w = Find(line);
  return w == nullptr ? -1 : w->owner;
}

// --- ModelPrefetcher ---------------------------------------------------------

void ModelPrefetcher::OnDemandAccess(uint64_t line,
                                     std::vector<uint64_t>* out) {
  if (!config_.enabled) return;
  // Re-access of a stream head: refresh recency, nothing to prefetch.
  for (Stream& s : streams_) {
    if (s.live && s.head == line) {
      s.stamp = ++stamp_;
      return;
    }
  }
  // Extension of an ascending stream: prefetch up to `depth` lines ahead,
  // never past the end of the 4 KiB page.
  for (Stream& s : streams_) {
    if (s.live && line == s.head + 1) {
      s.head = line;
      s.run_length += 1;
      s.stamp = ++stamp_;
      if (s.run_length >= config_.trigger_run) {
        if (s.next_prefetch <= line) s.next_prefetch = line + 1;
        const uint64_t page_end = line | (kPageLines - 1);
        uint64_t horizon = line + config_.depth;
        if (horizon > page_end) horizon = page_end;
        while (s.next_prefetch <= horizon) out->push_back(s.next_prefetch++);
      }
      return;
    }
  }
  // New stream: the first free slot, else the least recently used one.
  Stream* victim = nullptr;
  for (Stream& s : streams_) {
    if (!s.live) {
      victim = &s;
      break;
    }
    if (victim == nullptr || s.stamp < victim->stamp) victim = &s;
  }
  *victim = Stream{/*live=*/true, line, line + 1, /*run_length=*/1, ++stamp_};
}

// --- ModelHierarchy ----------------------------------------------------------

ModelHierarchy::ModelHierarchy(const HierarchyConfig& config)
    : config_(config),
      llc_(config.llc),
      dram_(config.latency.dram, config.latency.dram_transfer),
      core_stats_(config.num_cores),
      clos_monitors_(MemoryHierarchy::kMaxClos) {
  for (uint32_t c = 0; c < config.num_cores; ++c) {
    l1_.emplace_back(config.l1);
    l2_.emplace_back(config.l2);
    prefetchers_.emplace_back(config.prefetcher);
  }
}

AccessResult ModelHierarchy::Access(uint32_t core, uint64_t addr,
                                    uint64_t now, uint64_t llc_alloc_mask,
                                    uint32_t clos) {
  const uint64_t line = LineOf(addr);
  const LatencyModel& lat = config_.latency;
  HierarchyStats& cs = core_stats_[core];
  ClosMonitor& mon = clos_monitors_[clos];

  // The streamer trains on every demand access, hit or miss, before the
  // lookup.
  IssuePrefetches(core, line, now, llc_alloc_mask, clos);

  if (l1_[core].Lookup(line)) {
    stats_.l1.hits += 1;
    cs.l1.hits += 1;
    return {lat.l1_hit, HitLevel::kL1};
  }
  stats_.l1.misses += 1;
  cs.l1.misses += 1;

  // An L1 miss on a line still in flight consumes the prefetch and waits
  // for the rest of its transfer.
  uint64_t pending_wait = 0;
  if (auto it = pending_.find(line); it != pending_.end()) {
    if (it->second > now) pending_wait = it->second - now;
    stats_.prefetch_hits += 1;
    cs.prefetch_hits += 1;
    pending_.erase(it);
  }

  const uint64_t full = ~uint64_t{0};
  if (l2_[core].Lookup(line)) {
    stats_.l2.hits += 1;
    cs.l2.hits += 1;
    l1_[core].Insert(line, full, 0);
    return {lat.l2_hit + pending_wait, HitLevel::kL2};
  }
  stats_.l2.misses += 1;
  cs.l2.misses += 1;

  if (llc_.Lookup(line)) {
    stats_.llc.hits += 1;
    cs.llc.hits += 1;
    mon.llc.hits += 1;
    l2_[core].Insert(line, full, 0);
    l1_[core].Insert(line, full, 0);
    return {lat.llc_hit + pending_wait, HitLevel::kLlc};
  }
  stats_.llc.misses += 1;
  cs.llc.misses += 1;
  mon.llc.misses += 1;

  uint64_t wait = 0;
  const uint64_t dram_latency = dram_.RequestLine(now, &wait);
  stats_.dram_accesses += 1;
  stats_.dram_wait_cycles += wait;
  cs.dram_accesses += 1;
  cs.dram_wait_cycles += wait;
  mon.mbm_lines += 1;
  InsertIntoLlc(line, llc_alloc_mask, clos);
  l2_[core].Insert(line, full, 0);
  l1_[core].Insert(line, full, 0);
  return {lat.llc_hit + dram_latency, HitLevel::kDram};
}

void ModelHierarchy::InsertIntoLlc(uint64_t line, uint64_t llc_alloc_mask,
                                   uint32_t clos) {
  const std::optional<EvictedLine> evicted =
      llc_.Insert(line, llc_alloc_mask, static_cast<uint16_t>(clos));
  clos_monitors_[clos].occupancy_lines += 1;
  if (!evicted.has_value()) return;
  clos_monitors_[evicted->owner].occupancy_lines -= 1;
  if (!config_.inclusive_llc) return;
  for (uint32_t c = 0; c < config_.num_cores; ++c) {
    const bool in_l1 = l1_[c].Invalidate(evicted->line);
    const bool in_l2 = l2_[c].Invalidate(evicted->line);
    if (in_l1 || in_l2) stats_.llc_back_invalidations += 1;
  }
  pending_.erase(evicted->line);
}

void ModelHierarchy::IssuePrefetches(uint32_t core, uint64_t line,
                                     uint64_t now, uint64_t llc_alloc_mask,
                                     uint32_t clos) {
  std::vector<uint64_t> lines;
  prefetchers_[core].OnDemandAccess(line, &lines);
  const uint64_t full = ~uint64_t{0};
  for (const uint64_t p : lines) {
    if (llc_.Contains(p)) {
      // LLC-resident: staged into the core's L2 without DRAM traffic.
      l2_[core].Insert(p, full, 0);
      continue;
    }
    uint64_t ready = 0;
    if (!dram_.RequestPrefetchLine(now, &ready)) {
      stats_.prefetches_dropped += 1;
      core_stats_[core].prefetches_dropped += 1;
      continue;
    }
    pending_[p] = ready;
    // Prefetch fills count as LLC misses and MBM traffic, like the hardware
    // counters the paper samples.
    stats_.prefetches_issued += 1;
    core_stats_[core].prefetches_issued += 1;
    stats_.llc.misses += 1;
    core_stats_[core].llc.misses += 1;
    clos_monitors_[clos].llc.misses += 1;
    clos_monitors_[clos].mbm_lines += 1;
    InsertIntoLlc(p, llc_alloc_mask, clos);
    l2_[core].Insert(p, full, 0);
  }
}

}  // namespace catdb::simcache
