#include "simcache/hierarchy.h"

#include "common/check.h"

namespace catdb::simcache {

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig& config)
    : config_(config),
      llc_(std::make_unique<SetAssocCache>(config.llc)),
      dram_(config.latency.dram, config.latency.dram_transfer) {
  CATDB_CHECK(config_.num_cores >= 1);
  // Presence masks (per-way uint32_t words and EvictedLine::presence) hold
  // one bit per core; a core index at or past the width would shift out of
  // range (UB). Machine::ValidateConfig surfaces this as a Status before
  // construction; this CHECK is the backstop for direct hierarchy users.
  CATDB_CHECK(config_.num_cores <= SetAssocCache::kMaxPresenceCores);
  CATDB_CHECK(config_.l1.Valid() && config_.l2.Valid() && config_.llc.Valid());
  for (uint32_t c = 0; c < config_.num_cores; ++c) {
    l1_.push_back(std::make_unique<SetAssocCache>(config_.l1));
    l2_.push_back(std::make_unique<SetAssocCache>(config_.l2));
    prefetchers_.push_back(
        std::make_unique<StreamPrefetcher>(config_.prefetcher));
  }
  // Per-machine SIMD resolution (rather than reading the process default at
  // every access): differential regimes build SIMD-on and SIMD-off machines
  // in one process, so the level must be instance state.
  simd_ = config_.simd ? DefaultSimdLevel() : SimdLevel::kScalar;
  core_stats_.resize(config_.num_cores);
  clos_monitors_.resize(kMaxClos);
  profile_tags_.assign(config_.num_cores, kProfileTagClos);
}

template <SimdLevel L>
AccessResult MemoryHierarchy::AccessPointMiss(uint32_t core, uint64_t line,
                                              uint64_t now,
                                              uint64_t llc_alloc_mask,
                                              uint32_t clos,
                                              size_t l1_victim) {
  SetAssocCache& l1 = *l1_[core];
  SetAssocCache& l2 = *l2_[core];
  HierarchyStats& cs = core_stats_[core];
  ClosMonitor& mon = clos_monitors_[clos];
  AccessResult result;
  stats_.l1.misses += 1;
  cs.l1.misses += 1;

  // If the line is an in-flight prefetch that has not arrived yet, the
  // demand access waits for the remainder of the transfer (partial latency
  // hiding — this is what couples a prefetch-covered scan to the DRAM
  // bandwidth). The pending table is probed only after an L1 miss; Take
  // consumes the entry in the same probe chain that found it.
  uint64_t pending_wait = 0;
  uint64_t ready = 0;
  if (prefetch_ready_.Take(line, &ready)) {
    if (ready > now) pending_wait = ready - now;
    stats_.prefetch_hits += 1;
    cs.prefetch_hits += 1;
  }

  // From here the point path follows the run loop's victim-reuse
  // discipline: each private probe precomputes the slot its later fill
  // would pick, so a fill is a single store burst (FillAt) instead of a
  // second set scan, and LLC presence marks reuse the probe's slot.
  size_t l2_victim = 0;
  if (l2.LookupOrVictim<L>(line, &l2_victim)) {
    stats_.l2.hits += 1;
    cs.l2.hits += 1;
    // The L2 lookup promoted the line and its LLC presence bit is already
    // set (see the run loop's L2-hit path); only the L1 fill remains.
    l1.FillAt(l1_victim, line);
    result.latency_cycles = config_.latency.l2_hit + pending_wait;
    result.level = HitLevel::kL2;
    return result;
  }
  stats_.l2.misses += 1;
  cs.l2.misses += 1;

  if (shadow_profiler_ != nullptr) {
    const uint32_t tag = profile_tags_[core];
    shadow_profiler_->Observe(tag == kProfileTagClos ? clos : tag, line);
  }

  const int64_t lslot = llc_->LookupSlotHinted<L>(line);
  if (lslot >= 0) {
    stats_.llc.hits += 1;
    cs.llc.hits += 1;
    mon.llc.hits += 1;
    // No LLC insert since the demand probes: both precomputed victims
    // stand.
    l2.FillAt(l2_victim, line);
    l1.FillAt(l1_victim, line);
    if (config_.inclusive_llc) {
      llc_->MarkPresentAt(static_cast<size_t>(lslot), core);
    }
    result.latency_cycles = config_.latency.llc_hit + pending_wait;
    result.level = HitLevel::kLlc;
    return result;
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
  uint64_t evicted_line = SetAssocCache::kInvalidTag;
  uint32_t evicted_presence = 0;
  const size_t slot =
      InsertIntoLlcAt<L>(line, llc_alloc_mask, clos, &evicted_line,
                         &evicted_presence);
  // The LLC insert back-invalidates private copies of the evicted line on
  // cores whose presence bit is set; only then could this core's
  // precomputed victims be stale (the invalidated slot may now be the
  // first-empty way the scalar re-scan would pick).
  if (config_.inclusive_llc && evicted_line != SetAssocCache::kInvalidTag &&
      ((evicted_presence >> core) & 1u) != 0) {
    l2.InsertNew<L>(line);
    l1.InsertNew<L>(line);
  } else {
    l2.FillAt(l2_victim, line);
    l1.FillAt(l1_victim, line);
  }
  if (config_.inclusive_llc) llc_->MarkPresentAt(slot, core);
  result.latency_cycles = config_.latency.llc_hit + dram_latency;
  result.level = HitLevel::kDram;
  return result;
}

uint64_t MemoryHierarchy::AccessRun(uint32_t core, uint64_t first_line,
                                    uint64_t n_lines, uint64_t now,
                                    uint64_t llc_alloc_mask, uint32_t clos) {
  // Dispatch once per run: the path first, then the profiling
  // instantiation, so a profiled pass times the code a measured pass runs.
  // The unprofiled instantiations contain no timer reads at all, so
  // measured legs are unaffected by the profiling support.
#if CATDB_WAY_SCAN_X86
  if (simd_ == SimdLevel::kAvx512) {
    if (host_profile_ != nullptr) {
      return AccessRunAvx512<true>(core, first_line, n_lines, now,
                                   llc_alloc_mask, clos);
    }
    return AccessRunAvx512<false>(core, first_line, n_lines, now,
                                  llc_alloc_mask, clos);
  }
#endif
  if (host_profile_ != nullptr) {
    return AccessRunImpl<SimdLevel::kScalar, true>(
        core, first_line, n_lines, now, llc_alloc_mask, clos);
  }
  return AccessRunImpl<SimdLevel::kScalar, false>(
      core, first_line, n_lines, now, llc_alloc_mask, clos);
}

template <SimdLevel L, bool kProfiled>
uint64_t MemoryHierarchy::AccessRunImpl(uint32_t core, uint64_t first_line,
                                        uint64_t n_lines, uint64_t now,
                                        uint64_t llc_alloc_mask,
                                        uint32_t clos) {
  CATDB_DCHECK(core < config_.num_cores);
  CATDB_DCHECK(clos < kMaxClos);
  CATDB_DCHECK(n_lines >= 1);

  // Per-run invariants, resolved once instead of per line: cache and stats
  // row references, latencies, the decoded (pre-clamped) allocation mask,
  // and the attached observers.
  SetAssocCache& l1 = *l1_[core];
  SetAssocCache& l2 = *l2_[core];
  SetAssocCache& llc = *llc_;
  StreamPrefetcher& pf = *prefetchers_[core];
  HierarchyStats& cs = core_stats_[core];
  ClosMonitor& mon = clos_monitors_[clos];
  ShadowTagProfiler* const shadow = shadow_profiler_;
  const uint32_t shadow_tag =
      profile_tags_[core] == kProfileTagClos ? clos : profile_tags_[core];
  const uint64_t lat_l1 = config_.latency.l1_hit;
  const uint64_t lat_l2 = config_.latency.l2_hit;
  const uint64_t lat_llc = config_.latency.llc_hit;
  const bool pf_enabled = config_.prefetcher.enabled;
  const bool inclusive = config_.inclusive_llc;
  const uint64_t run_mask = llc_alloc_mask & llc.FullMask();
  const uint64_t last_line = first_line + n_lines - 1;

  // Pure counters are batched in locals and flushed once after the loop.
  // Everything with ordering-sensitive side effects — LRU promotion, LLC
  // inserts with their occupancy/back-invalidation accounting, DRAM epoch
  // booking, the pending-prefetch table, shadow observation — stays exact
  // per event, at the cycle `now` has advanced to for that line.
  uint64_t n_l1_hits = 0, n_l1_misses = 0;
  uint64_t n_l2_hits = 0, n_l2_misses = 0;
  uint64_t n_llc_hits = 0, n_llc_misses = 0;
  uint64_t n_pf_hits = 0, n_pf_issued = 0, n_pf_dropped = 0;
  uint64_t n_dram = 0, n_dram_wait = 0;

  // Host-cycle attribution (profiled instantiation only): each timed
  // section brackets itself with prof_begin/prof_end into a local bucket;
  // locals merge into *host_profile_ once at the end.
  uint64_t c_l1 = 0, c_l2 = 0, c_llc = 0, c_fill = 0, c_pf = 0;
  uint64_t c_dram = 0, c_pend = 0, c_shadow = 0, c_flush = 0;
  uint64_t t_mark = 0;
  const uint64_t t_run0 = kProfiled ? HostTimerNow() : 0;
  const auto prof_begin = [&t_mark]() {
    if constexpr (kProfiled) t_mark = HostTimerNow();
  };
  const auto prof_end = [&t_mark](uint64_t& bucket) {
    if constexpr (kProfiled) bucket += HostTimerNow() - t_mark;
    (void)bucket;
  };

  // Run-local pending-prefetch FIFO: the streamer runs at most `depth`
  // lines ahead of the demand cursor, so a prefetch issued for a line
  // *inside* this run is consumed by this same loop a few iterations later.
  // Those entries ride in a tiny local array instead of round-tripping
  // through the pending-prefetch hash table; entries for lines beyond the
  // run (short runs, page-clamped horizons) go to the table as before, and
  // leftovers are flushed to it at the end of the run. An LLC eviction of a
  // locally pending line must scrub it (the table twin is erased inside
  // InsertIntoLlcAt), or a later demand would see a prefetch hit the scalar
  // path would not.
  constexpr size_t kRunPendingCap = 16;
  uint64_t rp_line[kRunPendingCap];
  uint64_t rp_ready[kRunPendingCap];
  size_t rp_n = 0;
  const auto rp_scrub = [&](uint64_t evicted_line) {
    for (size_t i = 0; i < rp_n; ++i) {
      if (rp_line[i] == evicted_line) {
        rp_line[i] = rp_line[rp_n - 1];
        rp_ready[i] = rp_ready[rp_n - 1];
        rp_n -= 1;
        return;
      }
    }
  };

  // Everything up to here — reference binding, mask decode, loop-state and
  // run-FIFO setup — is the per-run fixed cost; attribute it separately so
  // short runs' overhead is visible (run_setup), not folded into run_other.
  const uint64_t c_setup = kProfiled ? HostTimerNow() - t_run0 : 0;

  const uint64_t start = now;
  for (uint64_t line = first_line; line <= last_line; ++line) {
    if (pf_enabled) {
      scratch_prefetch_lines_.clear();
      prof_begin();
      if (line == first_line) {
        pf.BeginRun(first_line, last_line, &scratch_prefetch_lines_);
      } else {
        pf.OnRunAccess(line, &scratch_prefetch_lines_);
      }
      prof_end(c_pf);
      for (uint64_t p : scratch_prefetch_lines_) {
        prof_begin();
        const int64_t pslot = llc.FindSlotHinted<L>(p);
        prof_end(c_llc);
        if (pslot >= 0) {
          prof_begin();
          l2.Insert<L>(p);
          if (inclusive) llc.MarkPresentAt(static_cast<size_t>(pslot), core);
          prof_end(c_fill);
          continue;
        }
        prof_begin();
        uint64_t ready_time = 0;
        const bool issued = dram_.RequestPrefetchLine(now, &ready_time);
        prof_end(c_dram);
        if (!issued) {
          n_pf_dropped += 1;
          continue;
        }
        prof_begin();
        // With a non-inclusive LLC an eviction leaves the pending entry
        // alive, so a line can be re-issued while an older entry (ring or
        // table) still exists; the scalar path's Assign overwrites it, so
        // the newer ready time must win here too. Inclusive mode cannot
        // re-issue a pending line (entry alive implies the line is still
        // LLC-resident, which stages instead of issuing).
        if (!inclusive && rp_n != 0) rp_scrub(p);
        if (p > line && p <= last_line && rp_n < kRunPendingCap) {
          if (!inclusive) prefetch_ready_.Erase(p);
          rp_line[rp_n] = p;
          rp_ready[rp_n] = ready_time;
          rp_n += 1;
        } else {
          prefetch_ready_.Assign(p, ready_time);
        }
        prof_end(c_pend);
        n_pf_issued += 1;
        prof_begin();
        uint64_t evicted_line = SetAssocCache::kInvalidTag;
        const size_t slot =
            InsertIntoLlcAt<L>(p, run_mask, clos, &evicted_line);
        // Scrub only in inclusive mode, mirroring InsertIntoLlcAt: a
        // non-inclusive eviction leaves the pending entry alive.
        if (inclusive && evicted_line != SetAssocCache::kInvalidTag &&
            rp_n != 0) {
          rp_scrub(evicted_line);
        }
        if (inclusive) {
          l2.InsertNew<L>(p);
          llc.MarkPresentAt(slot, core);
        } else {
          l2.Insert<L>(p);
        }
        prof_end(c_fill);
      }
    }

    prof_begin();
    size_t l1_victim = 0;
    const bool l1_hit = l1.LookupOrVictim<L>(line, &l1_victim);
    prof_end(c_l1);
    if (l1_hit) {
      // L1-resident streak: the hit folds into the batched counters and one
      // latency add; nothing else in the hierarchy moves (an L1 hit leaves
      // pending prefetches untouched, see AccessPoint).
      n_l1_hits += 1;
      now += lat_l1;
      continue;
    }
    n_l1_misses += 1;

    uint64_t pending_wait = 0;
    prof_begin();
    uint64_t ready = 0;
    bool was_pending = false;
    for (size_t i = 0; i < rp_n; ++i) {
      if (rp_line[i] == line) {
        ready = rp_ready[i];
        rp_line[i] = rp_line[rp_n - 1];
        rp_ready[i] = rp_ready[rp_n - 1];
        rp_n -= 1;
        was_pending = true;
        break;
      }
    }
    if (!was_pending) was_pending = prefetch_ready_.Take(line, &ready);
    prof_end(c_pend);
    if (was_pending) {
      if (ready > now) pending_wait = ready - now;
      n_pf_hits += 1;
    }

    prof_begin();
    size_t l2_victim = 0;
    const bool l2_hit = l2.LookupOrVictim<L>(line, &l2_victim);
    prof_end(c_l2);
    if (l2_hit) {
      n_l2_hits += 1;
      prof_begin();
      // The L2 lookup promoted the line, and no LLC presence re-probe is
      // needed: every L2 fill is accompanied by an LLC presence mark for
      // this core, and inclusive eviction scrubs the L2 copy, so an L2 hit
      // implies the bit is already set. Only the L1 fill remains, and the
      // demand probe above already picked its victim.
      l1.FillAt(l1_victim, line);
      prof_end(c_fill);
      now += lat_l2 + pending_wait;
      continue;
    }
    n_l2_misses += 1;

    if (shadow != nullptr) {
      prof_begin();
      shadow->Observe(shadow_tag, line);
      prof_end(c_shadow);
    }

    prof_begin();
    const int64_t lslot = llc.LookupSlotHinted<L>(line);
    prof_end(c_llc);
    if (lslot >= 0) {
      n_llc_hits += 1;
      prof_begin();
      // No LLC insert happened since the demand probes, so both precomputed
      // victims are still the ones FillVictim would pick.
      l2.FillAt(l2_victim, line);
      l1.FillAt(l1_victim, line);
      if (inclusive) llc.MarkPresentAt(static_cast<size_t>(lslot), core);
      prof_end(c_fill);
      now += lat_llc + pending_wait;
      continue;
    }
    n_llc_misses += 1;

    prof_begin();
    uint64_t wait = 0;
    const uint64_t dram_latency = dram_.RequestLine(now, &wait);
    prof_end(c_dram);
    n_dram += 1;
    n_dram_wait += wait;
    prof_begin();
    uint64_t evicted_line = SetAssocCache::kInvalidTag;
    uint32_t evicted_presence = 0;
    const size_t slot = InsertIntoLlcAt<L>(line, run_mask, clos,
                                           &evicted_line, &evicted_presence);
    if (inclusive && evicted_line != SetAssocCache::kInvalidTag &&
        rp_n != 0) {
      rp_scrub(evicted_line);
    }
    // The LLC insert back-invalidates private copies of the evicted line on
    // cores whose presence bit is set; only then could this core's
    // precomputed victims be stale (the invalidated slot may now be the
    // first-empty way the scalar re-scan would pick) — re-run victim
    // selection in that case, reuse the demand probes' victims otherwise.
    if (inclusive && evicted_line != SetAssocCache::kInvalidTag &&
        ((evicted_presence >> core) & 1u) != 0) {
      l2.InsertNew<L>(line);
      l1.InsertNew<L>(line);
    } else {
      l2.FillAt(l2_victim, line);
      l1.FillAt(l1_victim, line);
    }
    if (inclusive) llc.MarkPresentAt(slot, core);
    prof_end(c_fill);
    now += lat_llc + dram_latency;
  }

  // Flush intra-run pending entries that were never consumed (lines past
  // the horizon the demand cursor reached, or lines whose demand access hit
  // L1) back to the shared table, where a later access can still claim the
  // prefetch.
  if (rp_n != 0) {
    prof_begin();
    for (size_t i = 0; i < rp_n; ++i) {
      prefetch_ready_.Assign(rp_line[i], rp_ready[i]);
    }
    prof_end(c_pend);
  }

  // Flush groups are gated on their headline counter: an all-L1-hit run (the
  // common case for warm operators) touches two counters instead of
  // twenty-five.
  prof_begin();
  stats_.l1.hits += n_l1_hits;
  cs.l1.hits += n_l1_hits;
  if (n_l1_misses != 0) {
    stats_.l1.misses += n_l1_misses;
    stats_.l2.hits += n_l2_hits;
    stats_.l2.misses += n_l2_misses;
    stats_.llc.hits += n_llc_hits;
    stats_.prefetch_hits += n_pf_hits;
    cs.l1.misses += n_l1_misses;
    cs.l2.hits += n_l2_hits;
    cs.l2.misses += n_l2_misses;
    cs.llc.hits += n_llc_hits;
    cs.prefetch_hits += n_pf_hits;
    mon.llc.hits += n_llc_hits;
  }
  if ((n_llc_misses | n_pf_issued | n_pf_dropped) != 0) {
    stats_.llc.misses += n_llc_misses + n_pf_issued;
    stats_.prefetches_issued += n_pf_issued;
    stats_.prefetches_dropped += n_pf_dropped;
    stats_.dram_accesses += n_dram;
    stats_.dram_wait_cycles += n_dram_wait;
    cs.llc.misses += n_llc_misses + n_pf_issued;
    cs.prefetches_issued += n_pf_issued;
    cs.prefetches_dropped += n_pf_dropped;
    cs.dram_accesses += n_dram;
    cs.dram_wait_cycles += n_dram_wait;
    mon.llc.misses += n_llc_misses + n_pf_issued;
    mon.mbm_lines += n_llc_misses + n_pf_issued;
  }
  prof_end(c_flush);

  if constexpr (kProfiled) {
    HostCycleBreakdown& hp = *host_profile_;
    hp.l1_lookup += c_l1;
    hp.l2_lookup += c_l2;
    hp.llc_lookup += c_llc;
    hp.victim_fill += c_fill;
    hp.prefetcher += c_pf;
    hp.dram += c_dram;
    hp.pending_table += c_pend;
    hp.shadow += c_shadow;
    hp.monitor_flush += c_flush;
    hp.run_setup += c_setup;
    hp.runs += 1;
    hp.run_lines += n_lines;
    const uint64_t total = HostTimerNow() - t_run0;
    hp.run_total += total;
    const uint64_t attributed = c_l1 + c_l2 + c_llc + c_fill + c_pf + c_dram +
                                c_pend + c_shadow + c_flush + c_setup;
    hp.run_other += total > attributed ? total - attributed : 0;
  }
  return now - start;
}

template <SimdLevel L>
size_t MemoryHierarchy::InsertIntoLlcAt(uint64_t line, uint64_t llc_alloc_mask,
                                        uint32_t clos,
                                        uint64_t* evicted_line_out,
                                        uint32_t* evicted_presence_out) {
  // The caller has just established the line misses the LLC, so the
  // already-present scan can be skipped; InsertNewAt always fills and
  // reports the slot.
  const uint64_t before = llc_->ValidLineCount();
  size_t slot = 0;
  std::optional<EvictedLine> evicted = llc_->InsertNewAt<L>(
      line, llc_alloc_mask, static_cast<uint16_t>(clos), &slot);
  if (evicted_line_out != nullptr) {
    *evicted_line_out =
        evicted.has_value() ? evicted->line : SetAssocCache::kInvalidTag;
  }
  if (evicted_presence_out != nullptr) {
    *evicted_presence_out = evicted.has_value() ? evicted->presence : 0;
  }
  // CMT occupancy accounting: a fill that was not a mere promotion adds a
  // line to the filler's class; the victim's class loses one.
  if (evicted.has_value()) {
    clos_monitors_[clos].occupancy_lines += 1;
    ClosMonitor& victim = clos_monitors_[evicted->owner];
    CATDB_DCHECK(victim.occupancy_lines > 0);
    victim.occupancy_lines -= 1;
  } else if (llc_->ValidLineCount() != before) {
    clos_monitors_[clos].occupancy_lines += 1;
  }

  if (evicted.has_value() && config_.inclusive_llc) {
    // Inclusive LLC: a victimized line must disappear from all private
    // caches. This is the mechanism that lets one core's streaming evict
    // another core's hot dictionary lines out of its L2 — the "cache
    // pollution" the paper is about. Only cores whose presence bit is set (a
    // conservative superset of actual private holders) are visited; cores
    // without a private copy would contribute nothing. The private
    // invalidations never touch the LLC, so `slot` stays valid for the
    // caller's MarkPresentAt.
    for (uint32_t bits = evicted->presence; bits != 0; bits &= bits - 1) {
      const uint32_t c = static_cast<uint32_t>(__builtin_ctz(bits));
      bool invalidated = l1_[c]->Invalidate<L>(evicted->line);
      invalidated |= l2_[c]->Invalidate<L>(evicted->line);
      if (invalidated) stats_.llc_back_invalidations += 1;
    }
    prefetch_ready_.Erase(evicted->line);
  }
  return slot;
}

template <SimdLevel L>
void MemoryHierarchy::EmitStagedPrefetches(uint32_t core, uint64_t now,
                                           uint64_t llc_alloc_mask,
                                           uint32_t clos) {
  for (uint64_t pf : scratch_prefetch_lines_) {
    // Keep the slot of the LLC probe / insert so the presence mark is a
    // single store instead of a re-probe (the run loop's prefetch-insert
    // discipline).
    const int64_t pslot = llc_->FindSlotHinted<L>(pf);
    if (pslot >= 0) {
      // LLC-resident: the L2 streamer still stages the line into the
      // requesting core's L2 (LLC -> L2 prefetch, no DRAM traffic), so a
      // fully cached stream is at least as fast as a DRAM-prefetched one.
      l2_[core]->Insert<L>(pf);
      if (config_.inclusive_llc) {
        llc_->MarkPresentAt(static_cast<size_t>(pslot), core);
      }
      continue;
    }
    uint64_t ready_time = 0;
    if (!dram_.RequestPrefetchLine(now, &ready_time)) {
      // Channel backed up: the prefetch is dropped; the demand access will
      // fetch the line itself later (at demand priority).
      stats_.prefetches_dropped += 1;
      core_stats_[core].prefetches_dropped += 1;
      continue;
    }
    prefetch_ready_.Assign(pf, ready_time);
    stats_.prefetches_issued += 1;
    core_stats_[core].prefetches_issued += 1;
    // Hardware LLC-miss counters (what the paper samples with Intel PCM)
    // include prefetch-triggered fills from DRAM; mirror that so reported
    // hit ratios / MPI are comparable. MBM likewise counts all DRAM
    // traffic of the class.
    stats_.llc.misses += 1;
    core_stats_[core].llc.misses += 1;
    clos_monitors_[clos].llc.misses += 1;
    clos_monitors_[clos].mbm_lines += 1;
    // Prefetches fill the LLC and the requesting core's L2 (Intel's L2
    // streamer behaviour) and honour the core's CAT allocation mask.
    const size_t slot = InsertIntoLlcAt<L>(pf, llc_alloc_mask, clos);
    if (config_.inclusive_llc) {
      // The line missed the LLC, so with an inclusive LLC it cannot be in
      // any L2 either.
      l2_[core]->InsertNew<L>(pf);
      llc_->MarkPresentAt(slot, core);
    } else {
      l2_[core]->Insert<L>(pf);
    }
  }
}

#if CATDB_WAY_SCAN_X86
// The AVX-512 path. Each twin is its scalar body with `flatten`, which makes
// GCC inline the whole call tree into the twin, the way_scan kernels
// included, and compile it for AVX-512F. GCC needs `flatten` for this: its
// ordinary inliner works bottom-up, cannot inline a target("avx512f")
// kernel into a baseline cache method, and so leaves every kernel as an
// out-of-line call (so does target_clones on an entry function). A per-file
// -mavx512f is not an option either: the linker could then keep the
// AVX-512 copy of an inline function shared with baseline code, which would
// crash a host without AVX-512F. Only the twins are AVX-512 code, and they
// run only when DetectSimdLevel() found AVX-512F.
__attribute__((target("avx512f"), flatten)) AccessResult
MemoryHierarchy::AccessPointAvx512(uint32_t core, uint64_t line, uint64_t now,
                                   uint64_t llc_alloc_mask, uint32_t clos) {
  return AccessPointImpl<SimdLevel::kAvx512>(core, line, now, llc_alloc_mask,
                                             clos);
}

template <bool kProfiled>
__attribute__((target("avx512f"), flatten)) uint64_t
MemoryHierarchy::AccessRunAvx512(uint32_t core, uint64_t first_line,
                                 uint64_t n_lines, uint64_t now,
                                 uint64_t llc_alloc_mask, uint32_t clos) {
  return AccessRunImpl<SimdLevel::kAvx512, kProfiled>(
      core, first_line, n_lines, now, llc_alloc_mask, clos);
}
#endif

// The scalar point path inlines into callers in other files (AccessPoint),
// which call these two out-of-line pieces of it.
template AccessResult MemoryHierarchy::AccessPointMiss<SimdLevel::kScalar>(
    uint32_t, uint64_t, uint64_t, uint64_t, uint32_t, size_t);
template void MemoryHierarchy::EmitStagedPrefetches<SimdLevel::kScalar>(
    uint32_t, uint64_t, uint64_t, uint32_t);

void MemoryHierarchy::ResetStats() {
  stats_ = HierarchyStats{};
  for (auto& cs : core_stats_) cs = HierarchyStats{};
  // Monitoring: bandwidth and hit counters reset; occupancy is cache state
  // and persists (like real CMT).
  for (auto& mon : clos_monitors_) {
    mon.mbm_lines = 0;
    mon.llc = LevelStats{};
  }
}

void MemoryHierarchy::ResetAll() {
  ResetStats();
  llc_->Clear();
  for (uint32_t c = 0; c < config_.num_cores; ++c) {
    l1_[c]->Clear();
    l2_[c]->Clear();
    prefetchers_[c]->Reset();
  }
  dram_.Reset();
  prefetch_ready_.Clear();
  for (auto& mon : clos_monitors_) mon.occupancy_lines = 0;
  profile_tags_.assign(config_.num_cores, kProfileTagClos);
}

bool MemoryHierarchy::CheckInclusion() const {
  if (!config_.inclusive_llc) return true;
  std::vector<uint64_t> lines;
  for (uint32_t c = 0; c < config_.num_cores; ++c) {
    lines.clear();
    l1_[c]->CollectValidLines(&lines);
    l2_[c]->CollectValidLines(&lines);
    for (uint64_t line : lines) {
      if (!llc_->Contains(line)) return false;
    }
  }
  return true;
}

}  // namespace catdb::simcache
