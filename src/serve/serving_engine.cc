#include "serve/serving_engine.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <utility>

#include "cat/resctrl.h"
#include "common/bits.h"
#include "common/check.h"
#include "engine/job_scheduler.h"
#include "engine/partitioning_policy.h"
#include "policy/way_allocator.h"
#include "sim/executor.h"
#include "simcache/cache_geometry.h"

namespace catdb::serve {

namespace {

uint64_t SplitMix64(uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string ClusterGroupName(uint32_t cluster) {
  return "cluster" + std::to_string(cluster);
}

/// The open-arrival admission/queueing stage in front of the JobScheduler.
///
/// The discrete-event executor re-polls idle cores only when a task finishes
/// (and at the start of each RunUntil), so a time-triggered source must
/// never answer "nothing yet, ask me later" while arrivals remain — that
/// request would be lost. Instead the source *eager-arms*: when the waiting
/// queue is empty it hands the idle core the earliest pending arrival with
/// `ready_time` set to its arrival instant, and the executor parks the core
/// until then. Armed arrivals always satisfy admission (the waiting room
/// was empty at their instant, and a server was free: straight to service).
///
/// All other arrivals are folded into the waiting queue by
/// ProcessArrivalsUpTo(frontier): between task-finish events no dispatch or
/// departure can alter the queue, so admitting the interval's arrivals in
/// time order against the capacity bound at the next event reproduces
/// continuous-time bounded-FCFS admission exactly (up to the executor's
/// chunk-granularity finish jitter, which is deterministic).
class ServingSource : public sim::TaskSource {
 public:
  ServingSource(sim::Machine* machine, engine::JobScheduler* scheduler,
                const ServeConfig& config, std::vector<Arrival> arrivals,
                LatencyRecorder* recorder,
                std::vector<uint64_t> tenant_private_vbase,
                uint64_t shared_vbase)
      : machine_(machine),
        scheduler_(scheduler),
        config_(config),
        arrivals_(std::move(arrivals)),
        recorder_(recorder),
        tenant_private_vbase_(std::move(tenant_private_vbase)),
        shared_vbase_(shared_vbase) {}

  sim::Task* NextTask(uint32_t core) override {
    frontier_ = std::max(frontier_, machine_->clock(core));
    ProcessArrivalsUpTo(frontier_);
    if (!waiting_.empty()) {
      RequestJob* job = waiting_.front();
      waiting_.pop_front();
      // Re-stamp readiness: the polling core's clock may trail the frontier
      // another core's finish advanced, and a dispatch must never precede
      // the query's own arrival.
      job->set_ready_time(job->arrival_cycle());
      return job;
    }
    if (next_arrival_ < arrivals_.size()) {
      const Arrival a = arrivals_[next_arrival_++];
      RequestJob* job = CreateJob(a);
      job->set_ready_time(a.cycle);
      admitted_ += 1;
      return job;
    }
    return nullptr;
  }

  void TaskDispatched(sim::Task* task, uint32_t core) override {
    auto* job = static_cast<RequestJob*>(task);
    job->set_dispatch_cycle(machine_->clock(core));
    // Tag the core's shadow observations with the tenant, not the CLOS:
    // clustered tenants share a CLOS, but the allocator needs per-tenant
    // curves.
    machine_->hierarchy().SetShadowProfileTag(core, job->tenant());
    scheduler_->OnDispatch(job, core);
  }

  void TaskFinished(sim::Task* task, uint32_t /*core*/,
                    uint64_t clock) override {
    auto* job = static_cast<RequestJob*>(task);
    job->set_finish_cycle(clock);
    frontier_ = std::max(frontier_, clock);
    recorder_->RecordCompletion(job->tenant(), job->class_id(),
                                job->dispatch_cycle() - job->arrival_cycle(),
                                clock - job->arrival_cycle());
    completed_ += 1;
  }

  uint64_t arrivals_total() const { return arrivals_.size(); }
  uint64_t admitted() const { return admitted_; }
  uint64_t completed() const { return completed_; }
  uint64_t max_queue_depth() const { return max_queue_depth_; }

 private:
  void ProcessArrivalsUpTo(uint64_t t) {
    while (next_arrival_ < arrivals_.size() &&
           arrivals_[next_arrival_].cycle <= t) {
      const Arrival a = arrivals_[next_arrival_++];
      if (waiting_.size() >= config_.queue_capacity) {
        const TenantSpec& ts = config_.tenants[a.tenant];
        recorder_->RecordRejection(a.tenant, ts.class_id);
        continue;
      }
      RequestJob* job = CreateJob(a);
      waiting_.push_back(job);
      admitted_ += 1;
      max_queue_depth_ =
          std::max<uint64_t>(max_queue_depth_, waiting_.size());
    }
  }

  RequestJob* CreateJob(const Arrival& a) {
    const TenantSpec& ts = config_.tenants[a.tenant];
    const RequestClass& klass = config_.classes[ts.class_id];
    const uint64_t offset =
        config_.shared_region_lines == 0
            ? 0
            : SplitMix64(config_.seed ^
                         (0xA5A5A5A55A5A5A5AULL + ordinal_)) %
                  config_.shared_region_lines;
    ordinal_ += 1;
    jobs_.push_back(std::make_unique<RequestJob>(
        klass, a.tenant, ts.class_id, tenant_private_vbase_[a.tenant],
        shared_vbase_, config_.shared_region_lines, offset));
    RequestJob* job = jobs_.back().get();
    job->set_arrival_cycle(a.cycle);
    return job;
  }

  sim::Machine* machine_;
  engine::JobScheduler* scheduler_;
  const ServeConfig& config_;
  std::vector<Arrival> arrivals_;
  LatencyRecorder* recorder_;
  std::vector<uint64_t> tenant_private_vbase_;
  uint64_t shared_vbase_;

  std::vector<std::unique_ptr<RequestJob>> jobs_;
  std::deque<RequestJob*> waiting_;
  size_t next_arrival_ = 0;
  uint64_t frontier_ = 0;  // latest event clock seen (admission clock)
  uint64_t ordinal_ = 0;   // admitted-request counter (stream offsets)
  uint64_t admitted_ = 0;
  uint64_t completed_ = 0;
  uint64_t max_queue_depth_ = 0;
};

}  // namespace

const char* ServePolicyName(ServePolicyKind policy) {
  switch (policy) {
    case ServePolicyKind::kShared:
      return "shared";
    case ServePolicyKind::kStatic:
      return "static";
    case ServePolicyKind::kLookahead:
      return "lookahead";
    case ServePolicyKind::kMrcCluster:
      return "mrc_cluster";
  }
  return "unknown";
}

ServingRunReport ServeWorkload(sim::Machine* machine,
                               const ServeConfig& config,
                               ServePolicyKind policy) {
  CATDB_CHECK(machine != nullptr);
  CATDB_CHECK(!config.classes.empty());
  CATDB_CHECK(!config.tenants.empty());
  CATDB_CHECK(!config.cores.empty());
  CATDB_CHECK(config.horizon_cycles >= 1);
  CATDB_CHECK(config.interval_cycles >= 1);
  CATDB_CHECK(config.max_clusters >= 1);
  for (const TenantSpec& t : config.tenants) {
    CATDB_CHECK(t.class_id < config.classes.size());
  }
  for (const RequestClass& klass : config.classes) {
    // RequestJob counts a request's lines in uint64, and a tenant's private
    // region is private_lines * kLineSize bytes (plan::ValidateScenario
    // rejects scenario classes where either overflows).
    uint64_t lines = 0;
    CATDB_CHECK(!__builtin_mul_overflow(klass.private_lines,
                                        uint64_t{klass.passes}, &lines) &&
                !__builtin_add_overflow(lines, klass.stream_lines, &lines) &&
                klass.private_lines <= ~uint64_t{0} / simcache::kLineSize);
  }
  for (uint32_t core : config.cores) {
    CATDB_CHECK(core < machine->num_cores());
  }

  const size_t num_tenants = config.tenants.size();
  const size_t num_classes = config.classes.size();
  const bool measured = policy == ServePolicyKind::kLookahead ||
                        policy == ServePolicyKind::kMrcCluster;

  machine->ResetForRun();
  machine->resctrl().Reset();
  cat::ResctrlFs& fs = machine->resctrl();
  const uint32_t llc_ways = machine->config().hierarchy.llc.num_ways;
  const uint64_t full_mask = MaskForWays(llc_ways);

  // Simulated data: one private working-set region per tenant (sized by its
  // class) and one shared streaming region. Allocation is idempotent across
  // runs only through fresh Machine instances — sweep cells construct their
  // own machine, so regions never accumulate.
  std::vector<uint64_t> tenant_private_vbase(num_tenants, 0);
  for (size_t t = 0; t < num_tenants; ++t) {
    const RequestClass& klass = config.classes[config.tenants[t].class_id];
    if (klass.private_lines > 0) {
      tenant_private_vbase[t] =
          machine->AllocVirtual(klass.private_lines * simcache::kLineSize);
    }
  }
  uint64_t shared_vbase = 0;
  if (config.shared_region_lines > 0) {
    shared_vbase =
        machine->AllocVirtual(config.shared_region_lines * simcache::kLineSize);
  }

  engine::JobScheduler scheduler(machine, engine::PolicyConfig{});
  CATDB_CHECK(scheduler.SetupGroups().ok());

  // group_of_tenant is the routing table the dispatch-time resolver reads;
  // the interval loop rewrites it as the clustering evolves.
  std::vector<std::string> group_of_tenant(num_tenants, "");
  if (policy == ServePolicyKind::kStatic) {
    engine::PolicyConfig static_cfg;  // paper defaults: 2 of 20 ways
    const uint32_t polluting_ways =
        std::min(std::max<uint32_t>(static_cfg.polluting_ways, 1), llc_ways);
    CATDB_CHECK(fs.CreateGroup(engine::kPollutingGroup).ok());
    CATDB_CHECK(fs.WriteSchemata(
                      engine::kPollutingGroup,
                      cat::FormatSchemataLine(MaskForWays(polluting_ways)))
                    .ok());
    for (size_t t = 0; t < num_tenants; ++t) {
      const RequestClass& klass = config.classes[config.tenants[t].class_id];
      if (klass.cuid == engine::CacheUsage::kPolluting) {
        group_of_tenant[t] = engine::kPollutingGroup;
      }
    }
  }
  if (measured) {
    for (uint32_t c = 0; c < config.max_clusters; ++c) {
      CATDB_CHECK(fs.CreateGroup(ClusterGroupName(c)).ok());
      CATDB_CHECK(fs.WriteSchemata(ClusterGroupName(c),
                                   cat::FormatSchemataLine(full_mask))
                      .ok());
    }
  }
  scheduler.SetJobGroupResolver(
      [&group_of_tenant](const engine::Job& job, uint32_t /*core*/) {
        return group_of_tenant[static_cast<const RequestJob&>(job).tenant()];
      });

  // Per-tenant shadow profiling (measured policies): the profiler is sized
  // by tenant count, not CLOS count — dispatch retags each core with the
  // running tenant, so 64 tenants profile independently through 16 CLOS.
  simcache::ShadowProfilerConfig prof_cfg = config.profiler;
  prof_cfg.max_clos = static_cast<uint32_t>(num_tenants);
  simcache::ShadowTagProfiler profiler(machine->config().hierarchy.llc,
                                       prof_cfg);
  if (measured) machine->hierarchy().AttachShadowProfiler(&profiler);

  // Arrival trace: per-tenant generators with derived seeds, merged in time
  // order. A pure function of (config), independent of execution.
  std::vector<std::vector<uint64_t>> per_tenant(num_tenants);
  for (size_t t = 0; t < num_tenants; ++t) {
    per_tenant[t] = GenerateArrivalCycles(
        config.tenants[t].arrival, config.horizon_cycles,
        SplitMix64(config.seed ^ (0xC2B2AE3D27D4EB4FULL * (t + 1))));
  }

  LatencyRecorder recorder(num_tenants, num_classes);
  ServingSource source(machine, &scheduler, config,
                       MergeArrivals(per_tenant), &recorder,
                       std::move(tenant_private_vbase), shared_vbase);

  sim::Executor executor(machine);
  for (uint32_t core : config.cores) executor.Attach(core, &source);

  ServingRunReport report;
  report.policy = ServePolicyName(policy);
  report.horizon_cycles = config.horizon_cycles;

  if (measured) {
    policy::ClusterConfig cluster_cfg;
    cluster_cfg.max_clusters = config.max_clusters;
    cluster_cfg.grouping = policy == ServePolicyKind::kLookahead
                               ? policy::ClusterGrouping::kRoundRobin
                               : policy::ClusterGrouping::kMrcSimilarity;
    // Open system: only ~|cores| of the tenants run at once, so cluster
    // partitions are shared by a cluster's *active* members, not all of
    // them.
    cluster_cfg.active_fraction = std::min(
        1.0, static_cast<double>(config.cores.size()) / num_tenants);
    policy::ClusteredWayAllocator allocator(cluster_cfg);
    std::vector<uint64_t> current_masks;

    for (uint64_t t = config.interval_cycles;; t += config.interval_cycles) {
      const uint64_t stop = std::min(t, config.horizon_cycles);
      executor.RunUntil(stop);
      report.intervals += 1;

      std::vector<policy::StreamProfile> profiles(num_tenants);
      for (size_t i = 0; i < num_tenants; ++i) {
        const simcache::MissRateCurve curve =
            profiler.Curve(static_cast<uint32_t>(i));
        profiles[i].mrc_hits_at_ways = curve.hits_at_ways;
        profiles[i].mrc_accesses = curve.accesses;
      }
      allocator.Allocate(profiles, llc_ways);

      const std::vector<uint64_t>& cluster_masks = allocator.cluster_masks();
      for (size_t c = 0; c < cluster_masks.size(); ++c) {
        if (c < current_masks.size() && current_masks[c] == cluster_masks[c]) {
          continue;
        }
        CATDB_CHECK(
            fs.WriteSchemata(ClusterGroupName(static_cast<uint32_t>(c)),
                             cat::FormatSchemataLine(cluster_masks[c]))
                .ok());
        report.schemata_writes += 1;
      }
      current_masks = cluster_masks;

      const std::vector<uint32_t>& cluster_of = allocator.cluster_of_stream();
      for (size_t i = 0; i < num_tenants; ++i) {
        group_of_tenant[i] = ClusterGroupName(cluster_of[i]);
      }
      report.num_clusters = static_cast<uint32_t>(allocator.num_clusters());
      report.cluster_of_tenant = cluster_of;
      report.cluster_masks = cluster_masks;

      profiler.Age();
      if (stop >= config.horizon_cycles) break;
    }
  } else {
    executor.RunUntil(config.horizon_cycles);
  }

  machine->hierarchy().AttachShadowProfiler(nullptr);

  report.arrivals = source.arrivals_total();
  report.admitted = source.admitted();
  report.completed = source.completed();
  report.rejected = recorder.rejected();
  report.in_flight_at_horizon = report.admitted - report.completed;
  report.max_queue_depth = source.max_queue_depth();
  report.group_moves = scheduler.group_moves();

  report.latency = recorder.OverallLatency();
  report.queue_wait = recorder.OverallQueueWait();
  for (size_t c = 0; c < num_classes; ++c) {
    report.class_names.push_back(config.classes[c].name);
    report.class_latency.push_back(
        recorder.ClassLatency(static_cast<uint32_t>(c)));
    report.class_completed.push_back(
        recorder.class_completed(static_cast<uint32_t>(c)));
    report.class_rejected.push_back(
        recorder.class_rejected(static_cast<uint32_t>(c)));
    report.class_histogram.push_back(
        recorder.ClassHistogram(static_cast<uint32_t>(c)));
  }
  for (size_t t = 0; t < num_tenants; ++t) {
    report.tenant_latency.push_back(
        recorder.TenantLatency(static_cast<uint32_t>(t)));
    report.tenant_rejected.push_back(
        recorder.tenant_rejected(static_cast<uint32_t>(t)));
  }
  report.llc_hit_ratio = machine->hierarchy().stats().llc_hit_ratio();
  return report;
}

}  // namespace catdb::serve
