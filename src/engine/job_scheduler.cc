#include "engine/job_scheduler.h"

#include "cat/resctrl.h"
#include "common/check.h"
#include "obs/trace.h"

namespace catdb::engine {

namespace {

/// Cycle cost of the in-kernel IA32_PQR_ASSOC update when a context switch
/// lands a thread with a different CLOS on a core (cheap: one MSR write).
constexpr uint64_t kPqrWriteCycles = 120;

}  // namespace

JobScheduler::JobScheduler(sim::Machine* machine,
                           const PolicyConfig& policy_config)
    : machine_(machine),
      policy_(policy_config,
              machine->config().hierarchy.llc.CapacityBytes(),
              machine->config().hierarchy.llc.num_ways,
              machine->config().hierarchy.l2.CapacityBytes()) {
  CATDB_CHECK(machine_ != nullptr);
  core_group_override_.resize(machine_->num_cores());
  core_has_override_.resize(machine_->num_cores(), false);
}

void JobScheduler::SetCoreGroupOverride(uint32_t core, std::string group) {
  CATDB_CHECK(core < core_group_override_.size());
  core_group_override_[core] = std::move(group);
  core_has_override_[core] = true;
}

Status JobScheduler::SetupGroups() {
  cat::ResctrlFs& fs = machine_->resctrl();
  const PolicyConfig& cfg = policy_.config();

  if (cfg.instance_ways != 0) {
    // Experiment mode (Figures 4-6): restrict the whole instance by limiting
    // the default CLOS every thread belongs to.
    CATDB_RETURN_IF_ERROR(machine_->cat().SetClosMask(
        0, policy_.MaskForWays(cfg.instance_ways)));
  }

  if (!cfg.enabled) return Status::OK();

  CATDB_RETURN_IF_ERROR(fs.CreateGroup(kPollutingGroup));
  CATDB_RETURN_IF_ERROR(fs.WriteSchemata(
      kPollutingGroup, cat::FormatSchemataLine(policy_.polluting_mask())));
  CATDB_RETURN_IF_ERROR(fs.CreateGroup(kSharedGroup));
  CATDB_RETURN_IF_ERROR(fs.WriteSchemata(
      kSharedGroup, cat::FormatSchemataLine(policy_.shared_mask())));
  return Status::OK();
}

void JobScheduler::OnDispatch(Job* job, uint32_t core) {
  cat::ResctrlFs& fs = machine_->resctrl();
  const cat::ThreadId tid = core;  // one job-worker thread per core
  const std::string target =
      job_group_resolver_ ? job_group_resolver_(*job, core)
      : core_has_override_[core] ? core_group_override_[core]
                                 : policy_.GroupFor(*job);

  const bool same_group = fs.GroupOfTask(tid) == target;
  if (!same_group || !policy_.config().skip_redundant_assign) {
    // Kernel interaction: write the TID into the group's tasks file.
    const Status st = fs.AssignTask(tid, target);
    CATDB_CHECK(st.ok());
    machine_->ChargeReassociation(core);
    group_moves_ += 1;
    if (obs::EventTrace* trace = machine_->trace()) {
      obs::TraceEvent ev;
      ev.cycle = machine_->clock(core);
      ev.kind = obs::EventKind::kGroupMove;
      ev.core = core;
      ev.arg = tid;
      ev.label = target;
      trace->Record(std::move(ev));
    }
  } else {
    skipped_moves_ += 1;
  }

  // Kernel context-switch path: update the core's CLOS if needed.
  if (fs.OnContextSwitch(tid, core)) {
    machine_->Compute(core, kPqrWriteCycles);
  }
}

}  // namespace catdb::engine
