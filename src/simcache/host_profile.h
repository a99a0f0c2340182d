#ifndef CATDB_SIMCACHE_HOST_PROFILE_H_
#define CATDB_SIMCACHE_HOST_PROFILE_H_

#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

namespace catdb::simcache {

/// Architecture gate for the hardware timestamp counter. Defined (to 1)
/// exactly when the target has rdtsc; everything else — any non-x86 target,
/// or an exotic x86 toolchain without the builtin — takes the portable
/// steady_clock fallback below. Kept as an explicit macro (rather than an
/// inline defined() test) so other profiling code can agree with
/// HostTimerNow about the timer's nature, e.g. when converting cycle shares
/// to wall time.
#if !defined(CATDB_HAVE_RDTSC)
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define CATDB_HAVE_RDTSC 1
#endif
#endif

/// Reads the host's timestamp counter. With CATDB_HAVE_RDTSC this is rdtsc —
/// a few cycles, monotonic enough for aggregated attribution over millions
/// of events. Elsewhere it falls back to steady_clock, so "cycles" means
/// nanoseconds there; the breakdown is consumed as *shares*, which are
/// unit-agnostic, so the fallback changes resolution and overhead but not
/// the meaning of any derived metric.
inline uint64_t HostTimerNow() {
#if defined(CATDB_HAVE_RDTSC)
  return __builtin_ia32_rdtsc();
#else
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// Per-component attribution of *host* cycles spent inside the simulator's
/// hot paths — where the simulator itself burns time, not what it simulates.
/// Attach to a MemoryHierarchy (AttachHostProfiler) to have the batched run
/// loop time each component; the Machine adds page-translation and
/// whole-scalar-access buckets. Profiling is template-gated: with no
/// profiler attached the run loop compiles without any timer reads, so
/// measured (unprofiled) runs pay nothing. hostbench's traced run makes a
/// separate profiled pass and reports the breakdown as per-layer metrics, so
/// each optimization round starts from measurement instead of guesswork.
struct HostCycleBreakdown {
  uint64_t l1_lookup = 0;      // demand L1 probes (hit + miss)
  uint64_t l2_lookup = 0;      // demand L2 probes
  uint64_t llc_lookup = 0;     // demand + prefetch-check LLC probes
  uint64_t victim_fill = 0;    // victim selection + fills + back-invalidation
  uint64_t prefetcher = 0;     // stream-table training / run cursor
  uint64_t dram = 0;           // DRAM channel booking
  uint64_t pending_table = 0;  // in-flight prefetch table probes/updates
  uint64_t shadow = 0;         // shadow-tag profiler observation
  uint64_t monitor_flush = 0;  // batched counter flush at end of run
  uint64_t translate = 0;      // machine page translation (per run segment)
  uint64_t scalar_access = 0;  // whole scalar Access calls (point accesses)
  uint64_t run_setup = 0;      // AccessRun prologue: CLOS/mask decode,
                               //   reference binding, loop-state setup
  uint64_t run_other = 0;      // AccessRun time not attributed above
  uint64_t run_total = 0;      // wall total inside AccessRun
  uint64_t runs = 0;           // AccessRun invocations observed
  uint64_t run_lines = 0;      // lines simulated through AccessRun
  uint64_t scalar_accesses = 0;  // scalar Access invocations observed

  /// Stable name -> cycles view for report emission.
  std::vector<std::pair<const char*, uint64_t>> Components() const {
    return {{"l1_lookup", l1_lookup},
            {"l2_lookup", l2_lookup},
            {"llc_lookup", llc_lookup},
            {"victim_fill", victim_fill},
            {"prefetcher", prefetcher},
            {"dram", dram},
            {"pending_table", pending_table},
            {"shadow_profiler", shadow},
            {"monitor_flush", monitor_flush},
            {"translate", translate},
            {"scalar_access", scalar_access},
            {"run_setup", run_setup},
            {"run_other", run_other}};
  }

  uint64_t AttributedTotal() const {
    uint64_t sum = 0;
    for (const auto& [name, cycles] : Components()) {
      (void)name;
      sum += cycles;
    }
    return sum;
  }
};

}  // namespace catdb::simcache

#endif  // CATDB_SIMCACHE_HOST_PROFILE_H_
