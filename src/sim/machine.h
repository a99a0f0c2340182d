#ifndef CATDB_SIM_MACHINE_H_
#define CATDB_SIM_MACHINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "cat/cat_controller.h"
#include "cat/resctrl.h"
#include "common/check.h"
#include "common/status.h"
#include "obs/trace.h"
#include "simcache/hierarchy.h"

namespace catdb::sim {

/// Configuration of the simulated machine.
struct MachineConfig {
  simcache::HierarchyConfig hierarchy;
  /// Cycle cost charged to a core when the kernel must re-associate it with
  /// a different CLOS on a context switch (an MSR write plus syscall path;
  /// a few microseconds at 2.2 GHz). Section V-C measures this overhead at
  /// well under 100 us per query; the scheduler skips it when the CLOS is
  /// unchanged.
  uint64_t reassociation_cycles = 7000;
  /// If true (default), ExecContext::ReadRun/WriteRun use the run-granular
  /// MemoryHierarchy::AccessRun fast path; if false, runs decompose into the
  /// scalar per-line Access chain. Both produce bit-identical simulated
  /// cycles, statistics and reports (pinned by tests/batched_access_test.cc
  /// and the determinism goldens); the flag exists so those tests and the
  /// plan fuzzer's `scalar` regime can pin the equivalence.
  bool batched_runs = true;
};

/// The simulated single-socket machine: virtual cores with cycle clocks, the
/// memory hierarchy, and the CAT/resctrl control plane.
///
/// Instrumented data structures allocate *virtual* address ranges from the
/// machine (deterministic bump allocator) and charge their memory accesses
/// against those addresses, so simulations are bit-reproducible regardless of
/// host heap layout.
class Machine {
 public:
  /// Validates a MachineConfig before construction: cache geometries must be
  /// valid, the core count must fit the hierarchy's presence-mask width
  /// (one bit per core; a wider machine would shift presence bits out of
  /// range — UB — during inclusive back-invalidation bookkeeping), and the
  /// prefetcher's stream count and trigger run and the DRAM transfer time
  /// must lie in the ranges their constructors CHECK. Callers
  /// that accept external configuration should consult this and surface the
  /// Status; the constructor CHECKs it as a backstop.
  static Status ValidateConfig(const MachineConfig& config);

  explicit Machine(const MachineConfig& config);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  uint32_t num_cores() const { return config_.hierarchy.num_cores; }
  const MachineConfig& config() const { return config_; }

  /// Allocates `bytes` of simulated virtual address space, aligned to a
  /// cache line, and eagerly backs it with simulated *physical* pages drawn
  /// round-robin from all page colors. Purely a namespace operation — no
  /// host memory is reserved.
  uint64_t AllocVirtual(uint64_t bytes);

  /// Like AllocVirtual, but backs the range only with physical pages of the
  /// colors set in `color_mask` (bit c = color c allowed; see
  /// num_page_colors()). This is OS page coloring — the software
  /// cache-partitioning alternative the paper contrasts CAT against
  /// (Section V-A / related work). The range is page-aligned so the
  /// restriction is exact. `color_mask` must select at least one valid
  /// color.
  uint64_t AllocVirtualColored(uint64_t bytes, uint64_t color_mask);

  /// Number of distinct page colors of the LLC: with identity set indexing
  /// a 4 KiB page maps to a fixed group of 64 consecutive sets, so an LLC
  /// with S sets has S/64 colors (1 if S <= 64).
  uint32_t num_page_colors() const { return num_colors_; }

  /// The page color a given *virtual* address is currently backed by.
  uint32_t PageColorOf(uint64_t vaddr) const;

  /// Sets a default color mask applied by AllocVirtual until cleared
  /// (0 = no restriction). Lets existing AttachSim code allocate its
  /// structures under a page-coloring regime without API changes; prefer
  /// the ScopedPageColors RAII guard.
  void SetAllocColorMask(uint64_t color_mask) {
    alloc_color_mask_ = color_mask;
  }
  uint64_t alloc_color_mask() const { return alloc_color_mask_; }

  /// Translates a simulated virtual address to its physical address.
  uint64_t Translate(uint64_t vaddr) const;

  /// Simulates a memory access by `core` to virtual address `addr`, charging
  /// the access latency to the core's clock.
  void Access(uint32_t core, uint64_t addr, bool is_write);

  /// Simulates `n_lines` accesses to the consecutive cache lines starting at
  /// the line holding virtual address `addr`, equivalent to (and
  /// bit-identical with) that many scalar Access calls in ascending order.
  /// The core's CLOS and CAT mask are resolved once, the run is segmented at
  /// 4 KiB page boundaries (physical lines are contiguous within a page, so
  /// translation happens once per segment), and each segment flows through
  /// MemoryHierarchy::AccessRun. Falls back to the scalar loop when
  /// `batched_runs` is off.
  void AccessRun(uint32_t core, uint64_t addr, uint64_t n_lines,
                 bool is_write);

  /// Charges `n` pure compute cycles to the core's clock.
  void Compute(uint32_t core, uint64_t n) { clocks_[core] += n; }

  /// Counts retired instructions (for the misses-per-instruction metric).
  void CountInstructions(uint64_t n) { hierarchy_.CountInstructions(n); }

  uint64_t clock(uint32_t core) const { return clocks_[core]; }

  /// Advances the core's clock to at least `t` (barrier synchronisation).
  void AdvanceClockTo(uint32_t core, uint64_t t) {
    if (clocks_[core] < t) clocks_[core] = t;
  }

  /// Maximum clock over all cores.
  uint64_t MaxClock() const;

  simcache::MemoryHierarchy& hierarchy() { return hierarchy_; }
  const simcache::MemoryHierarchy& hierarchy() const { return hierarchy_; }
  cat::CatController& cat() { return cat_; }
  cat::ResctrlFs& resctrl() { return resctrl_; }

  /// Turns on event tracing with a ring buffer of `capacity` events and
  /// binds it to the control plane. Recording is free of simulation side
  /// effects: a traced run is cycle-identical to an untraced one (pinned by
  /// the determinism tests). Calling again replaces the buffer.
  void EnableTracing(size_t capacity = 1 << 16);
  void DisableTracing();

  /// The bound event trace, or nullptr when tracing is off.
  obs::EventTrace* trace() { return trace_.get(); }

  /// Charges the CLOS re-association cost to a core (called by the job
  /// scheduler when a context switch actually required an MSR write).
  void ChargeReassociation(uint32_t core) {
    clocks_[core] += config_.reassociation_cycles;
  }

  /// Cache Monitoring Technology: current LLC occupancy of a resource
  /// group, in bytes (resctrl's mon_data/llc_occupancy).
  Result<uint64_t> LlcOccupancyBytes(const std::string& group) const;

  /// Memory Bandwidth Monitoring: cumulative DRAM bytes transferred on
  /// behalf of a resource group since the last statistics reset
  /// (resctrl's mon_data/mbm_total_bytes).
  Result<uint64_t> MbmTotalBytes(const std::string& group) const;

  /// Resets clocks, caches and statistics, but keeps CAT group setup and
  /// virtual allocations (datasets stay "in memory").
  void ResetForRun();

  /// Base virtual address of the per-core scratch region (16 lines). Models
  /// the job-worker thread's hot stack frames and operator metadata — the
  /// small re-used working set that suffers when a 1-way CAT mask lets
  /// streaming data thrash it (the paper's "0x1 degrades performance
  /// severely" observation, Section V-B).
  uint64_t CoreScratchVbase(uint32_t core) const {
    return core_scratch_[core];
  }
  static constexpr uint32_t kScratchLines = 16;

 private:
  // Per-core memo for the point-access path: the CLOS and CAT mask snapshot
  // (valid while the CAT generation is unchanged) and the physical line base
  // of the last-touched virtual page (valid forever: page mappings are
  // immutable once assigned). Re-validating is two compares, so the hot exit
  // of a point access needs neither the out-of-line CoreClos/CoreMask pair
  // nor a page-table walk.
  struct AccessContext {
    uint64_t vpage = ~uint64_t{0};
    uint64_t pline_base = 0;
    uint64_t cat_gen = ~uint64_t{0};
    uint64_t mask = 0;
    uint32_t clos = 0;
  };

  // The point-access chain behind Access and single-line AccessRun calls:
  // memoized CLOS/mask/translation feeding the hierarchy's inline
  // AccessPoint. Bit-identical to resolving CLOS, mask and translation on
  // every call.
  void PointAccess(uint32_t core, uint64_t addr);

  // Assigns a fresh physical page of one of the colors in `color_mask`
  // (0 = any color, round-robin). Physical page numbers within each color
  // class are dealt in a pseudo-random (but deterministic) order so equally
  // spaced virtual streams do not phase-lock onto the same cache sets.
  uint64_t AssignPhysicalPage(uint64_t color_mask);
  void MapRange(uint64_t vaddr_begin, uint64_t vaddr_end,
                uint64_t color_mask);

  MachineConfig config_;
  simcache::MemoryHierarchy hierarchy_;
  cat::CatController cat_;
  cat::ResctrlFs resctrl_;
  std::unique_ptr<obs::EventTrace> trace_;
  std::vector<uint64_t> clocks_;
  std::vector<uint64_t> core_scratch_;
  std::vector<AccessContext> access_ctx_;
  uint64_t next_vaddr_;
  uint32_t num_colors_ = 1;
  // page_table_[vpage] = physical page number (+1; 0 = unmapped).
  std::vector<uint64_t> page_table_;
  std::vector<uint64_t> color_page_counter_;
  uint32_t color_rr_ = 0;
  uint64_t alloc_color_mask_ = 0;
};

/// RAII guard: all AllocVirtual calls within the scope draw physical pages
/// only from the colors in `color_mask` (OS page coloring).
class ScopedPageColors {
 public:
  ScopedPageColors(Machine* machine, uint64_t color_mask)
      : machine_(machine), saved_(machine->alloc_color_mask()) {
    machine_->SetAllocColorMask(color_mask);
  }
  ~ScopedPageColors() { machine_->SetAllocColorMask(saved_); }

  ScopedPageColors(const ScopedPageColors&) = delete;
  ScopedPageColors& operator=(const ScopedPageColors&) = delete;

 private:
  Machine* machine_;
  uint64_t saved_;
};

/// Handle passed to jobs while they execute on a core: all simulated memory
/// traffic and compute cost flows through this object.
class ExecContext {
 public:
  ExecContext(Machine* machine, uint32_t core)
      : machine_(machine), core_(core) {}

  uint32_t core() const { return core_; }
  uint64_t now() const { return machine_->clock(core_); }
  Machine& machine() { return *machine_; }

  /// Simulated read of the cache line holding virtual address `addr`.
  void Read(uint64_t addr) { machine_->Access(core_, addr, false); }

  /// Simulated write (timed like a read; write-allocate).
  void Write(uint64_t addr) { machine_->Access(core_, addr, true); }

  /// Simulated read of `n_lines` consecutive cache lines starting at the
  /// line holding `addr` — the batched form of a per-line Read loop, for
  /// streaming operators (column scans, join key walks, posting lists).
  void ReadRun(uint64_t addr, uint64_t n_lines) {
    machine_->AccessRun(core_, addr, n_lines, false);
  }

  /// Simulated write of `n_lines` consecutive cache lines (timed like
  /// ReadRun; write-allocate).
  void WriteRun(uint64_t addr, uint64_t n_lines) {
    machine_->AccessRun(core_, addr, n_lines, true);
  }

  /// Charges pure compute cycles.
  void Compute(uint64_t cycles) { machine_->Compute(core_, cycles); }

  /// Counts retired instructions for the MPI metric.
  void Instructions(uint64_t n) { machine_->CountInstructions(n); }

  /// Credits `units` of completed work (rows) to the running task. The
  /// executor flushes the delta into the task after the Step returns.
  void AddWork(uint64_t units) { work_delta_ += units; }

  /// Returns and clears the accumulated work delta (executor-internal).
  uint64_t TakeWorkDelta() {
    const uint64_t d = work_delta_;
    work_delta_ = 0;
    return d;
  }

 private:
  Machine* machine_;
  uint32_t core_;
  uint64_t work_delta_ = 0;
};

}  // namespace catdb::sim

#endif  // CATDB_SIM_MACHINE_H_
