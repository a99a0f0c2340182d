#include "policy/policy_engine.h"

#include <memory>
#include <optional>
#include <utility>

#include "cat/resctrl.h"
#include "common/bits.h"
#include "common/check.h"
#include "engine/job_scheduler.h"
#include "obs/trace.h"
#include "sim/executor.h"

namespace catdb::policy {

namespace {

std::string StreamGroupName(size_t index) {
  return "stream" + std::to_string(index);
}

}  // namespace

PolicyRunReport RunWorkloadWithAllocator(
    sim::Machine* machine, const std::vector<engine::StreamSpec>& specs,
    uint64_t horizon_cycles, WayAllocator* allocator,
    const PolicyEngineConfig& config) {
  CATDB_CHECK(machine != nullptr);
  CATDB_CHECK(allocator != nullptr);
  CATDB_CHECK(!specs.empty());
  CATDB_CHECK(config.interval_cycles >= 1);

  machine->ResetForRun();
  machine->resctrl().Reset();
  cat::ResctrlFs& fs = machine->resctrl();

  // No static annotations: the CUID policy stays disabled; every stream
  // lives in its own monitoring group, initially with the full mask.
  engine::JobScheduler scheduler(machine, engine::PolicyConfig{});
  CATDB_CHECK(scheduler.SetupGroups().ok());

  const uint32_t llc_ways = machine->config().hierarchy.llc.num_ways;
  const uint64_t full_mask = MaskForWays(llc_ways);

  obs::IntervalSampler sampler(
      &machine->hierarchy(),
      machine->config().hierarchy.latency.dram_transfer);

  // The shadow profiler observes every demand LLC lookup tagged with the
  // stream's CLOS; observation is side-effect free, so the simulated run is
  // cycle-identical whether the profiler is attached or not (pinned by the
  // policy tests). It is detached before this frame unwinds. Without it the
  // samples (and reports) carry no curves.
  std::optional<simcache::ShadowTagProfiler> profiler;
  if (allocator->uses_curves()) {
    profiler.emplace(machine->config().hierarchy.llc, config.profiler);
    machine->hierarchy().AttachShadowProfiler(&*profiler);
    sampler.AttachShadowProfiler(&*profiler);
  }

  PolicyRunReport result;
  result.allocator_name = allocator->name();
  std::vector<cat::ClosId> stream_clos;
  for (size_t i = 0; i < specs.size(); ++i) {
    const std::string group = StreamGroupName(i);
    CATDB_CHECK(fs.CreateGroup(group).ok());
    CATDB_CHECK(
        fs.WriteSchemata(group, cat::FormatSchemataLine(full_mask)).ok());
    for (uint32_t core : specs[i].cores) {
      scheduler.SetCoreGroupOverride(core, group);
    }
    auto clos = fs.ClosOfGroup(group);
    CATDB_CHECK(clos.ok());
    CATDB_CHECK(!profiler || clos.value() < profiler->max_clos());
    stream_clos.push_back(clos.value());
    sampler.Watch(clos.value(), group);
    result.group_names.push_back(group);
  }

  sim::Executor executor(machine);
  std::vector<std::unique_ptr<engine::QueryStream>> streams;
  for (const engine::StreamSpec& spec : specs) {
    CATDB_CHECK(spec.query != nullptr);
    streams.push_back(std::make_unique<engine::QueryStream>(
        spec.query, spec.cores, &scheduler, spec.max_iterations));
    for (uint32_t core : spec.cores) {
      executor.Attach(core, streams.back().get());
    }
  }

  std::vector<uint64_t> current_masks(specs.size(), full_mask);
  std::vector<uint32_t> widen_streak(specs.size(), 0);

  for (uint64_t t = config.interval_cycles;; t += config.interval_cycles) {
    const uint64_t stop = t < horizon_cycles ? t : horizon_cycles;
    executor.RunUntil(stop);
    result.intervals += 1;

    // One snapshot per interval; the final interval may be shorter than
    // interval_cycles and its bandwidth share is computed over the actual
    // length. The sample carries this interval's MRC snapshots (pre-aging),
    // so the allocator and the written report see the same curves.
    const obs::IntervalSample& sample = sampler.Sample(stop);

    std::vector<StreamProfile> profiles(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      const obs::ClosIntervalSample& cs = sample.clos[i];
      StreamProfile& p = profiles[i];
      p.mrc_hits_at_ways = cs.mrc_hits_at_ways;
      p.mrc_accesses = cs.mrc_accesses;
      p.bandwidth_share = cs.bandwidth_share;
      p.hit_ratio = cs.hit_ratio;
      p.llc_lookups = cs.llc_hits_delta + cs.llc_misses_delta;
    }

    const std::vector<uint64_t> proposed =
        allocator->Allocate(profiles, llc_ways);
    CATDB_CHECK(proposed.size() == specs.size());

    for (size_t i = 0; i < specs.size(); ++i) {
      const uint64_t mask = proposed[i];
      // Every allocator must produce CAT-valid masks within the LLC width.
      CATDB_DCHECK(IsContiguousMask(mask));
      CATDB_DCHECK((mask & ~full_mask) == 0);
      if (mask == current_masks[i]) {
        widen_streak[i] = 0;
        continue;
      }
      const bool widen = PopCount(mask) > PopCount(current_masks[i]);
      if (widen) {
        // Hysteresis on widening only: hand out more cache only after a
        // streak of intervals agreeing it is needed. Narrowing (and
        // same-width moves) applies immediately. During a deferred widen
        // the masks may transiently not tile the LLC — CAT allows any set
        // of contiguous masks, overlapping or not.
        widen_streak[i] += 1;
        if (widen_streak[i] < config.widen_intervals) continue;
      }
      widen_streak[i] = 0;
      CATDB_CHECK(fs.WriteSchemata(StreamGroupName(i),
                                   cat::FormatSchemataLine(mask))
                      .ok());
      result.schemata_writes += 1;
      if (obs::EventTrace* trace = machine->trace()) {
        obs::TraceEvent ev;
        ev.cycle = stop;
        ev.kind = obs::EventKind::kRestrictionFlip;
        ev.clos = stream_clos[i];
        ev.arg = widen ? 0 : 1;
        ev.arg2 = i;
        ev.label = StreamGroupName(i);
        trace->Record(std::move(ev));
      }
      current_masks[i] = mask;
    }

    // Age the shadow counters so the curves track phase changes instead of
    // averaging over the whole run.
    if (profiler) profiler->Age();

    if (stop >= horizon_cycles) break;
  }

  if (profiler) machine->hierarchy().AttachShadowProfiler(nullptr);

  result.interval_series = sampler.series();
  result.final_masks = current_masks;
  result.report =
      engine::CollectRunReport(machine, scheduler, streams, horizon_cycles);
  return result;
}

DynamicRunReport RunWorkloadDynamic(
    sim::Machine* machine, const std::vector<engine::StreamSpec>& specs,
    uint64_t horizon_cycles, const DynamicPolicyConfig& config) {
  CATDB_CHECK(machine != nullptr);
  CATDB_CHECK(!specs.empty());
  {
    const Status st = ValidateDynamicPolicyConfig(
        config, machine->config().hierarchy.llc.num_ways);
    CATDB_CHECK(st.ok());
  }
  ThresholdAllocator allocator(config, specs.size());
  PolicyEngineConfig loop;
  loop.interval_cycles = config.interval_cycles;
  // The classifier keeps its own widening hysteresis, which holds the clean
  // streak across an ambiguous interval; the loop's widen streak would
  // reset there instead.
  loop.widen_intervals = 0;
  PolicyRunReport run = RunWorkloadWithAllocator(machine, specs,
                                                 horizon_cycles, &allocator,
                                                 loop);
  DynamicRunReport result;
  result.report = std::move(run.report);
  result.restricted = allocator.restricted();
  result.restricted_at_interval = allocator.restricted_at_interval();
  result.intervals = run.intervals;
  result.schemata_writes = run.schemata_writes;
  result.group_names = std::move(run.group_names);
  result.interval_series = std::move(run.interval_series);
  return result;
}

}  // namespace catdb::policy
