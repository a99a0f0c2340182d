#include "sim/machine.h"

#include <cstdio>

#include "common/bits.h"
#include "common/check.h"
#include "simcache/cache_geometry.h"

namespace catdb::sim {

namespace {

// Bijective scramble of page indices within a color class: odd multiplier
// modulo a power-of-two pool. 2^20 pages per color = 4 GiB per color class.
constexpr uint64_t kPagePoolBits = 20;
constexpr uint64_t kPagePoolMask = (uint64_t{1} << kPagePoolBits) - 1;
constexpr uint64_t kPageScramble = 0x9E375;  // odd

// Constructor backstop: runs ValidateConfig before any member that depends
// on the config (notably the hierarchy, whose presence masks assume the
// core count fits) is constructed.
const MachineConfig& CheckedConfig(const MachineConfig& config) {
  const Status st = Machine::ValidateConfig(config);
  if (!st.ok()) {
    std::fprintf(stderr, "invalid MachineConfig: %s\n", st.ToString().c_str());
  }
  CATDB_CHECK(st.ok());
  return config;
}

}  // namespace

Status Machine::ValidateConfig(const MachineConfig& config) {
  const simcache::HierarchyConfig& h = config.hierarchy;
  if (h.num_cores < 1) {
    return Status::InvalidArgument("num_cores must be at least 1");
  }
  if (h.num_cores > simcache::SetAssocCache::kMaxPresenceCores) {
    return Status::InvalidArgument(
        "num_cores (" + std::to_string(h.num_cores) +
        ") exceeds the presence-mask width (" +
        std::to_string(simcache::SetAssocCache::kMaxPresenceCores) +
        " cores): per-core presence bits would shift out of range");
  }
  if (!h.l1.Valid() || !h.l2.Valid() || !h.llc.Valid()) {
    return Status::InvalidArgument(
        "cache geometries must have power-of-two sets and 1..64 ways");
  }
  // StreamPrefetcher CHECKs both, enabled or not.
  if (h.prefetcher.num_streams < 1) {
    return Status::InvalidArgument("prefetcher.num_streams must be at least 1");
  }
  if (h.prefetcher.trigger_run < 1) {
    return Status::InvalidArgument("prefetcher.trigger_run must be at least 1");
  }
  // DramChannel books whole-line transfers into fixed epochs and needs room
  // for at least two per epoch.
  const uint64_t max_transfer = simcache::DramChannel::kEpochCycles / 2;
  if (h.latency.dram_transfer < 1 || h.latency.dram_transfer > max_transfer) {
    return Status::InvalidArgument(
        "latency.dram_transfer (" + std::to_string(h.latency.dram_transfer) +
        ") must be between 1 and " + std::to_string(max_transfer) + " cycles");
  }
  return Status::OK();
}

Machine::Machine(const MachineConfig& config)
    : config_(CheckedConfig(config)),
      hierarchy_(config.hierarchy),
      cat_(config.hierarchy.llc.num_ways, config.hierarchy.num_cores),
      resctrl_(&cat_),
      clocks_(config.hierarchy.num_cores, 0),
      next_vaddr_(1ull << 20) {
  const uint32_t llc_sets = config.hierarchy.llc.num_sets;
  num_colors_ = llc_sets > simcache::kPageLines
                    ? llc_sets / static_cast<uint32_t>(simcache::kPageLines)
                    : 1;
  color_page_counter_.assign(num_colors_, 0);
  access_ctx_.resize(config.hierarchy.num_cores);
  for (uint32_t c = 0; c < config.hierarchy.num_cores; ++c) {
    core_scratch_.push_back(
        AllocVirtual(kScratchLines * simcache::kLineSize));
  }
  // A resource group that reuses a CLOS must not inherit the cumulative
  // MBM/LLC counters of the previous owner (ResctrlFs cannot reach the
  // hierarchy itself — the machine bridges the layers).
  resctrl_.SetMonitorResetHook([this](cat::ClosId clos) {
    hierarchy_.ResetClosMonitorCounters(clos);
  });
}

void Machine::EnableTracing(size_t capacity) {
  trace_ = std::make_unique<obs::EventTrace>(capacity);
  resctrl_.BindTrace(trace_.get(), &clocks_);
}

void Machine::DisableTracing() {
  resctrl_.BindTrace(nullptr, nullptr);
  trace_.reset();
}

uint64_t Machine::AssignPhysicalPage(uint64_t color_mask) {
  uint32_t color;
  if (color_mask == 0) {
    color = color_rr_++ % num_colors_;
  } else {
    // Round-robin over the set bits of the mask.
    const uint64_t usable =
        color_mask & MaskForWays(num_colors_ < 64 ? num_colors_ : 64);
    CATDB_CHECK(usable != 0);
    uint32_t skip = color_rr_++ % PopCount(usable);
    color = 0;
    for (uint32_t bit = 0; bit < num_colors_; ++bit) {
      if ((usable >> bit & 1) == 0) continue;
      if (skip == 0) {
        color = bit;
        break;
      }
      --skip;
    }
  }
  const uint64_t index = color_page_counter_[color]++;
  CATDB_CHECK(index <= kPagePoolMask);  // 4 GiB per color class
  const uint64_t scrambled = (index * kPageScramble) & kPagePoolMask;
  return scrambled * num_colors_ + color;
}

void Machine::MapRange(uint64_t vaddr_begin, uint64_t vaddr_end,
                       uint64_t color_mask) {
  const uint64_t first_vpage = vaddr_begin >> simcache::kPageShift;
  const uint64_t last_vpage = (vaddr_end - 1) >> simcache::kPageShift;
  if (page_table_.size() <= last_vpage) {
    page_table_.resize(last_vpage + 1, 0);
  }
  for (uint64_t vpage = first_vpage; vpage <= last_vpage; ++vpage) {
    if (page_table_[vpage] == 0) {
      page_table_[vpage] = AssignPhysicalPage(color_mask) + 1;
    }
  }
}

uint64_t Machine::AllocVirtual(uint64_t bytes) {
  CATDB_CHECK(bytes > 0);
  if (alloc_color_mask_ != 0) {
    return AllocVirtualColored(bytes, alloc_color_mask_);
  }
  const uint64_t base = next_vaddr_;
  const uint64_t aligned =
      (bytes + simcache::kLineSize - 1) & ~(simcache::kLineSize - 1);
  next_vaddr_ += aligned + simcache::kLineSize;  // guard line between ranges
  MapRange(base, next_vaddr_, /*color_mask=*/0);
  return base;
}

uint64_t Machine::AllocVirtualColored(uint64_t bytes, uint64_t color_mask) {
  CATDB_CHECK(bytes > 0);
  CATDB_CHECK(color_mask != 0);
  // Page-align the range so the color restriction covers it exactly and no
  // neighbouring allocation shares its pages.
  next_vaddr_ =
      (next_vaddr_ + simcache::kPageBytes - 1) & ~(simcache::kPageBytes - 1);
  const uint64_t base = next_vaddr_;
  const uint64_t aligned =
      (bytes + simcache::kPageBytes - 1) & ~(simcache::kPageBytes - 1);
  next_vaddr_ += aligned;
  MapRange(base, next_vaddr_, color_mask);
  next_vaddr_ += simcache::kLineSize;  // guard line (maps with any color)
  return base;
}

uint64_t Machine::Translate(uint64_t vaddr) const {
  const uint64_t vpage = vaddr >> simcache::kPageShift;
  CATDB_DCHECK(vpage < page_table_.size() && page_table_[vpage] != 0);
  const uint64_t ppage = page_table_[vpage] - 1;
  return (ppage << simcache::kPageShift) |
         (vaddr & (simcache::kPageBytes - 1));
}

uint32_t Machine::PageColorOf(uint64_t vaddr) const {
  const uint64_t ppage = Translate(vaddr) >> simcache::kPageShift;
  return static_cast<uint32_t>(ppage % num_colors_);
}

void Machine::PointAccess(uint32_t core, uint64_t addr) {
  // Host profiling (profiled passes only): the whole point chain —
  // memo validation, translation, the hierarchy walk — books under one
  // bucket, like the scalar chain it replaces. Unprofiled runs pay a single
  // predictable branch.
  simcache::HostCycleBreakdown* const hp = hierarchy_.host_profile();
  const uint64_t t0 = hp != nullptr ? simcache::HostTimerNow() : 0;
  AccessContext& ctx = access_ctx_[core];
  if (ctx.cat_gen != cat_.generation()) {
    ctx.clos = cat_.CoreClos(core);
    ctx.mask = cat_.CoreMask(core);
    ctx.cat_gen = cat_.generation();
  }
  const uint64_t vpage = addr >> simcache::kPageShift;
  if (ctx.vpage != vpage) {
    // Page mappings are immutable once assigned (MapRange only fills empty
    // entries), so a translated page base never goes stale.
    ctx.pline_base =
        simcache::LineOf(Translate(vpage << simcache::kPageShift));
    ctx.vpage = vpage;
  }
  const uint64_t pline =
      ctx.pline_base +
      ((addr & (simcache::kPageBytes - 1)) >> simcache::kLineShift);
  const simcache::AccessResult r = hierarchy_.AccessPoint(
      core, pline, clocks_[core], ctx.mask, ctx.clos);
  clocks_[core] += r.latency_cycles;
  if (hp != nullptr) {
    hp->scalar_access += simcache::HostTimerNow() - t0;
    hp->scalar_accesses += 1;
  }
}

void Machine::Access(uint32_t core, uint64_t addr, bool is_write) {
  (void)is_write;  // writes are timed like reads (write-allocate)
  PointAccess(core, addr);
}

void Machine::AccessRun(uint32_t core, uint64_t addr, uint64_t n_lines,
                        bool is_write) {
  (void)is_write;  // writes are timed like reads (write-allocate)
  if (n_lines == 0) return;
  if (!config_.batched_runs) {
    // Scalar decomposition: same lines, same order, same per-access call
    // chain — the `scalar` regime the equivalence tests compare against.
    for (uint64_t i = 0; i < n_lines; ++i) {
      PointAccess(core, addr + i * simcache::kLineSize);
    }
    return;
  }
  if (n_lines == 1) {
    // Single-line runs (point reads, short tail chunks) gain nothing from
    // run batching but would pay its per-run setup and counter flush; the
    // point-access chain is both cheaper and trivially result-identical.
    PointAccess(core, addr);
    return;
  }
  simcache::HostCycleBreakdown* const hp = hierarchy_.host_profile();
  // The CLOS/mask decode is charged to run_setup: it is per-run fixed cost
  // paid before any line is simulated, same bucket as the hierarchy's own
  // run prologue.
  const uint64_t t_decode = hp != nullptr ? simcache::HostTimerNow() : 0;
  const cat::ClosId clos = cat_.CoreClos(core);
  const uint64_t mask = cat_.CoreMask(core);
  if (hp != nullptr) hp->run_setup += simcache::HostTimerNow() - t_decode;
  uint64_t now = clocks_[core];
  uint64_t vline = addr >> simcache::kLineShift;
  uint64_t remaining = n_lines;
  while (remaining > 0) {
    // Within one virtual page the physical lines are contiguous (Translate
    // is affine in the page offset), so one translation covers the segment.
    const uint64_t in_page =
        simcache::kPageLines - (vline & (simcache::kPageLines - 1));
    const uint64_t seg = remaining < in_page ? remaining : in_page;
    const uint64_t t0 = hp != nullptr ? simcache::HostTimerNow() : 0;
    const uint64_t pline =
        simcache::LineOf(Translate(vline << simcache::kLineShift));
    if (hp != nullptr) hp->translate += simcache::HostTimerNow() - t0;
    now += hierarchy_.AccessRun(core, pline, seg, now, mask, clos);
    vline += seg;
    remaining -= seg;
  }
  clocks_[core] = now;
}

Result<uint64_t> Machine::LlcOccupancyBytes(const std::string& group) const {
  Result<cat::ClosId> clos = resctrl_.ClosOfGroup(group);
  if (!clos.ok()) return clos.status();
  return hierarchy_.clos_monitor(clos.value()).occupancy_bytes();
}

Result<uint64_t> Machine::MbmTotalBytes(const std::string& group) const {
  Result<cat::ClosId> clos = resctrl_.ClosOfGroup(group);
  if (!clos.ok()) return clos.status();
  return hierarchy_.clos_monitor(clos.value()).mbm_bytes();
}

uint64_t Machine::MaxClock() const {
  uint64_t max = 0;
  for (uint64_t c : clocks_) max = max > c ? max : c;
  return max;
}

void Machine::ResetForRun() {
  for (auto& c : clocks_) c = 0;
  hierarchy_.ResetAll();
}

}  // namespace catdb::sim
