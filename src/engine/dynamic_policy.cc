#include "engine/dynamic_policy.h"

#include <memory>

#include "cat/resctrl.h"
#include "common/bits.h"
#include "common/check.h"
#include "common/units.h"
#include "engine/job_scheduler.h"
#include "obs/trace.h"
#include "sim/executor.h"
#include "simcache/cache_geometry.h"

namespace catdb::engine {

namespace {

std::string StreamGroupName(size_t index) {
  return "stream" + std::to_string(index);
}

}  // namespace

Status ValidateDynamicPolicyConfig(const DynamicPolicyConfig& config,
                                   uint32_t llc_ways) {
  if (config.interval_cycles < 1) {
    return Status::InvalidArgument(
        "interval_cycles must be nonzero (a zero interval never advances "
        "the executor)");
  }
  if (config.polluting_ways < 1 || config.polluting_ways > llc_ways) {
    return Status::InvalidArgument(
        "polluting_ways must be in [1, llc_ways]: a zero-way CAT mask is "
        "invalid and an over-wide one exceeds the schemata width");
  }
  if (config.polluter_bandwidth_share < 0.0 ||
      config.polluter_bandwidth_share > 1.0 ||
      config.polluter_hit_ratio < 0.0 || config.polluter_hit_ratio > 1.0) {
    return Status::InvalidArgument(
        "polluter thresholds are ratios and must lie in [0, 1]");
  }
  return Status::OK();
}

DynamicClassifier::DynamicClassifier(const DynamicPolicyConfig& config,
                                     size_t num_streams)
    : config_(config),
      restricted_(num_streams, false),
      clean_streak_(num_streams, 0) {
  CATDB_CHECK(num_streams >= 1);
}

DynamicClassifier::Decision DynamicClassifier::OnInterval(
    size_t stream, double bandwidth_share, double hit_ratio,
    uint64_t lookups) {
  CATDB_CHECK(stream < restricted_.size());
  const bool polluter =
      bandwidth_share >= config_.polluter_bandwidth_share &&
      hit_ratio < config_.polluter_hit_ratio;

  Decision d;
  if (polluter) {
    // Restriction is immediate: one polluting interval tightens the mask.
    clean_streak_[stream] = 0;
    d.changed = !restricted_[stream];
    restricted_[stream] = true;
  } else if (restricted_[stream]) {
    if (lookups == 0 && bandwidth_share > 0.0) {
      // Ambiguous interval: the stream moved data but had no demand LLC
      // lookups to judge (pure prefetch fills, or it stalled behind the
      // DRAM queue and its idle hit_ratio defaults to 1.0). Not evidence
      // of polluting, but not evidence of a clean phase either — hold the
      // streak where it is.
    } else {
      // Widening requires a streak of clean intervals: one idle interval
      // must not flap the mask. unrestrict_intervals == 0 disables the
      // hysteresis (first clean interval widens, same as 1).
      clean_streak_[stream] += 1;
      const uint32_t needed =
          config_.unrestrict_intervals > 0 ? config_.unrestrict_intervals : 1;
      if (clean_streak_[stream] >= needed) {
        restricted_[stream] = false;
        clean_streak_[stream] = 0;
        d.changed = true;
      }
    }
  }
  d.restricted = restricted_[stream];
  return d;
}

DynamicRunReport RunWorkloadDynamic(sim::Machine* machine,
                                    const std::vector<StreamSpec>& specs,
                                    uint64_t horizon_cycles,
                                    const DynamicPolicyConfig& config) {
  CATDB_CHECK(machine != nullptr);
  CATDB_CHECK(!specs.empty());
  {
    const Status st = ValidateDynamicPolicyConfig(
        config, machine->config().hierarchy.llc.num_ways);
    CATDB_CHECK(st.ok());
  }

  machine->ResetForRun();
  machine->resctrl().Reset();
  cat::ResctrlFs& fs = machine->resctrl();

  // No static annotations: the CUID policy stays disabled; every stream
  // lives in its own full-mask monitoring group instead.
  JobScheduler scheduler(machine, PolicyConfig{});
  CATDB_CHECK(scheduler.SetupGroups().ok());

  // Both masks come from the policy's validated helper: the former
  // hand-rolled shifts were UB for a 64-way LLC and produced an all-zero
  // (CAT-invalid) schemata mask for polluting_ways == 0. The way counts
  // themselves were range-checked by ValidateDynamicPolicyConfig above.
  const uint32_t llc_ways = machine->config().hierarchy.llc.num_ways;
  const PartitioningPolicy& mask_policy = scheduler.policy();
  const uint64_t full_mask = mask_policy.MaskForWays(llc_ways);
  const uint64_t polluting_mask =
      mask_policy.MaskForWays(config.polluting_ways);
  CATDB_DCHECK(IsContiguousMask(full_mask));
  CATDB_DCHECK(IsContiguousMask(polluting_mask));

  DynamicRunReport result;
  std::vector<cat::ClosId> stream_clos;
  obs::IntervalSampler sampler(
      &machine->hierarchy(),
      machine->config().hierarchy.latency.dram_transfer);
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
    stream_clos.push_back(clos.value());
    sampler.Watch(clos.value(), group);
    result.group_names.push_back(group);
  }

  sim::Executor executor(machine);
  std::vector<std::unique_ptr<QueryStream>> streams;
  for (const StreamSpec& spec : specs) {
    CATDB_CHECK(spec.query != nullptr);
    streams.push_back(std::make_unique<QueryStream>(
        spec.query, spec.cores, &scheduler, spec.max_iterations));
    for (uint32_t core : spec.cores) {
      executor.Attach(core, streams.back().get());
    }
  }

  result.restricted.assign(specs.size(), false);
  result.restricted_at_interval.assign(specs.size(), 0);
  DynamicClassifier classifier(config, specs.size());

  for (uint64_t t = config.interval_cycles;; t += config.interval_cycles) {
    const uint64_t stop = t < horizon_cycles ? t : horizon_cycles;
    executor.RunUntil(stop);
    result.intervals += 1;

    // One snapshot per interval; the final interval may be shorter than
    // interval_cycles and its bandwidth share is computed over the actual
    // length (a full-interval denominator underestimated the share and let
    // polluters finish their last interval unrestricted).
    const obs::IntervalSample& sample = sampler.Sample(stop);

    for (size_t i = 0; i < specs.size(); ++i) {
      const obs::ClosIntervalSample& cs = sample.clos[i];
      const DynamicClassifier::Decision decision =
          classifier.OnInterval(i, cs.bandwidth_share, cs.hit_ratio,
                                cs.llc_hits_delta + cs.llc_misses_delta);
      if (decision.changed) {
        const uint64_t mask =
            decision.restricted ? polluting_mask : full_mask;
        CATDB_CHECK(fs.WriteSchemata(StreamGroupName(i),
                                     cat::FormatSchemataLine(mask))
                        .ok());
        result.schemata_writes += 1;
        result.restricted[i] = decision.restricted;
        if (decision.restricted && result.restricted_at_interval[i] == 0) {
          result.restricted_at_interval[i] = result.intervals;
        }
        if (obs::EventTrace* trace = machine->trace()) {
          obs::TraceEvent ev;
          ev.cycle = stop;
          ev.kind = obs::EventKind::kRestrictionFlip;
          ev.clos = stream_clos[i];
          ev.arg = decision.restricted ? 1 : 0;
          ev.arg2 = i;
          ev.label = StreamGroupName(i);
          trace->Record(std::move(ev));
        }
      }
    }
    if (stop >= horizon_cycles) break;
  }

  result.interval_series = sampler.series();
  result.report =
      CollectRunReport(machine, scheduler, streams, horizon_cycles);
  return result;
}

}  // namespace catdb::engine
