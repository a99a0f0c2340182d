#include "plan/scenario.h"

#include <algorithm>
#include <fstream>
#include <numeric>
#include <set>
#include <sstream>
#include <utility>

#include "cat/cat_controller.h"
#include "common/check.h"
#include "sim/machine.h"

namespace catdb::plan {

namespace {

constexpr const char* kKindNames[] = {"latency_sweep", "pair_sweep",
                                      "serving_sweep"};

constexpr const char* kServePolicyNames[] = {"shared", "static", "lookahead",
                                             "mrc_cluster"};

Status GetFractionArray(const obs::JsonValue& obj, const std::string& path,
                        const char* key, std::vector<Fraction>* out) {
  const obs::JsonValue* v = nullptr;
  CATDB_RETURN_IF_ERROR(RequireField(obj, path, key, &v));
  const std::string p = JoinPath(path, key);
  if (!v->is_array()) {
    return Status::InvalidArgument(
        p + ": expected an array of [num, den] pairs");
  }
  out->clear();
  for (size_t i = 0; i < v->array().size(); ++i) {
    const obs::JsonValue& item = v->array()[i];
    const std::string ip = IndexPath(p, i);
    if (!item.is_array() || item.array().size() != 2 ||
        !item.array()[0].is_uint64() || !item.array()[1].is_uint64()) {
      return Status::InvalidArgument(
          ip + ": expected a [numerator, denominator] integer pair");
    }
    Fraction f;
    f.num = item.array()[0].uint64_value();
    f.den = item.array()[1].uint64_value();
    if (f.den == 0) {
      return Status::InvalidArgument(ip + ": denominator must be nonzero");
    }
    out->push_back(f);
  }
  return Status::OK();
}

obs::JsonValue FractionToJson(const Fraction& f) {
  return obs::JsonValue::Array(
      {obs::JsonValue::Int(f.num), obs::JsonValue::Int(f.den)});
}

obs::JsonValue FractionArrayToJson(const std::vector<Fraction>& fs) {
  std::vector<obs::JsonValue> items;
  for (const Fraction& f : fs) items.push_back(FractionToJson(f));
  return obs::JsonValue::Array(std::move(items));
}

obs::JsonValue U32ArrayToJson(const std::vector<uint32_t>& xs) {
  std::vector<obs::JsonValue> items;
  for (uint32_t x : xs) {
    items.push_back(obs::JsonValue::Int(static_cast<uint64_t>(x)));
  }
  return obs::JsonValue::Array(std::move(items));
}

obs::JsonValue StringArrayToJson(const std::vector<std::string>& xs) {
  std::vector<obs::JsonValue> items;
  for (const std::string& x : xs) items.push_back(obs::JsonValue::Str(x));
  return obs::JsonValue::Array(std::move(items));
}

/// The dataset type a plan node's op requires.
DatasetType RequiredDatasetType(OpKind op) {
  switch (op) {
    case OpKind::kScan:
    case OpKind::kFilter:
    case OpKind::kProject:
      return DatasetType::kScan;
    case OpKind::kAggregate:
      return DatasetType::kAgg;
    case OpKind::kHashJoin:
      return DatasetType::kJoin;
    case OpKind::kIndexProbe:
    case OpKind::kScratchTouch:
      break;
  }
  return DatasetType::kAcdoca;
}

}  // namespace

const char* SweepKindName(SweepKind kind) {
  return kKindNames[static_cast<size_t>(kind)];
}

engine::PolicyConfig PairPolicyConfig(const PairPolicySpec& spec) {
  engine::PolicyConfig policy;
  if (spec.has_polluting_ways) policy.polluting_ways = spec.polluting_ways;
  if (spec.has_shared_ways) policy.shared_ways = spec.shared_ways;
  if (spec.has_adaptive_heuristic) {
    policy.adaptive_heuristic = spec.adaptive_heuristic;
  }
  if (spec.has_adaptive_force_polluting) {
    policy.adaptive_force_polluting = spec.adaptive_force_polluting;
  }
  return policy;
}

const DatasetSpec* FindDataset(const Scenario& scenario,
                               const std::string& name) {
  for (const DatasetSpec& spec : scenario.datasets) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

namespace {

// A request's service time on an idle machine; arrival rates scale with it.
uint64_t EstimatedServiceCycles(const ServeClassSpec& c) {
  const uint64_t lines =
      static_cast<uint64_t>(c.passes) * c.private_lines + c.stream_lines;
  return lines * (c.compute_per_line + c.mem_cycles_per_line);
}

}  // namespace

uint32_t TenantClass(const ServingSweepSpec& spec, uint64_t t) {
  return spec.class_deal[t % spec.class_deal.size()] %
         static_cast<uint32_t>(spec.classes.size());
}

serve::ArrivalConfig TenantArrival(const ServingSweepSpec& spec, uint64_t t,
                                   uint64_t num_tenants, double load) {
  const uint64_t est =
      EstimatedServiceCycles(spec.classes[TenantClass(spec, t)]);
  const size_t cores = spec.cores;
  const uint64_t interarrival = static_cast<uint64_t>(
      static_cast<double>(est) * num_tenants / (cores * load));
  serve::ArrivalConfig arrival;
  if ((t / spec.classes.size()) % 2 == 0) {
    arrival.kind = serve::ArrivalKind::kPoisson;
    arrival.mean_interarrival_cycles = interarrival;
  } else {
    // Same average rate at 50% duty cycle: double the in-burst rate,
    // absolute burst periods (see ext_serving_tail for the rationale).
    arrival.kind = serve::ArrivalKind::kOnOff;
    arrival.mean_interarrival_cycles = interarrival / 2;
    arrival.mean_on_cycles = spec.burst_on_cycles;
    arrival.mean_off_cycles = spec.burst_off_cycles;
  }
  return arrival;
}

Status ValidateScenario(const Scenario& scenario) {
  if (scenario.benchmark.empty()) {
    return Status::InvalidArgument("$.benchmark: must be nonempty");
  }
  // The machine every sweep cell builds (SweepCell::MakeMachine).
  const sim::MachineConfig machine;
  const uint32_t llc_ways = machine.hierarchy.llc.num_ways;

  std::set<std::string> dataset_names;
  for (size_t i = 0; i < scenario.datasets.size(); ++i) {
    const std::string path = IndexPath("$.datasets", i);
    CATDB_RETURN_IF_ERROR(ValidateDatasetSpec(scenario.datasets[i], path));
    if (!dataset_names.insert(scenario.datasets[i].name).second) {
      return Status::InvalidArgument(JoinPath(path, "name") +
                                     ": duplicate dataset name '" +
                                     scenario.datasets[i].name + "'");
    }
  }

  std::set<std::string> plan_names;
  for (size_t i = 0; i < scenario.plans.size(); ++i) {
    const Plan& plan = scenario.plans[i];
    const std::string path = IndexPath("$.plans", i);
    CATDB_RETURN_IF_ERROR(ValidatePlan(plan, path));
    if (!plan_names.insert(plan.name).second) {
      return Status::InvalidArgument(JoinPath(path, "name") +
                                     ": duplicate plan name '" + plan.name +
                                     "'");
    }
    for (size_t n = 0; n < plan.nodes.size(); ++n) {
      const PlanNode& node = plan.nodes[n];
      if (node.op == OpKind::kScratchTouch) continue;
      const std::string np =
          JoinPath(IndexPath(JoinPath(path, "nodes"), n), "dataset");
      const DatasetSpec* dataset = FindDataset(scenario, node.dataset);
      if (dataset == nullptr) {
        return Status::InvalidArgument(np + ": references unknown dataset '" +
                                       node.dataset + "'");
      }
      const DatasetType want = RequiredDatasetType(node.op);
      if (dataset->type != want) {
        return Status::InvalidArgument(
            np + ": op " + OpKindName(node.op) + " needs a dataset of type " +
            DatasetTypeName(want) + ", but '" + node.dataset + "' has type " +
            DatasetTypeName(dataset->type));
      }
    }
  }

  auto has_plan = [&](const std::string& name) {
    return plan_names.count(name) != 0;
  };

  switch (scenario.kind) {
    case SweepKind::kLatency: {
      const LatencySweepSpec& s = scenario.latency;
      if (s.cells.empty()) {
        // Single-plan mode.
        if (!has_plan(s.plan)) {
          return Status::InvalidArgument(
              "$.latency_sweep.plan: references unknown plan '" + s.plan +
              "'");
        }
        if (s.iterations < 2) {
          return Status::InvalidArgument(
              "$.latency_sweep.iterations: need at least 2 (warm latency is "
              "the delta of the last two iteration end clocks)");
        }
      } else {
        if (!s.plan.empty()) {
          return Status::InvalidArgument(
              "$.latency_sweep: 'plan' and 'cells' are mutually exclusive");
        }
        if (s.smoke_cells == 0 || s.smoke_cells > s.cells.size()) {
          return Status::InvalidArgument(
              "$.latency_sweep.smoke_cells: must be in [1, number of "
              "cells]");
        }
        std::set<std::string> cell_names;
        for (size_t i = 0; i < s.cells.size(); ++i) {
          const LatencyCellSpec& cell = s.cells[i];
          const std::string path = IndexPath("$.latency_sweep.cells", i);
          if (cell.name.empty()) {
            return Status::InvalidArgument(JoinPath(path, "name") +
                                           ": must be nonempty");
          }
          if (!cell_names.insert(cell.name).second) {
            return Status::InvalidArgument(JoinPath(path, "name") +
                                           ": duplicate cell name '" +
                                           cell.name + "'");
          }
          for (size_t d = 0; d < cell.datasets.size(); ++d) {
            if (dataset_names.count(cell.datasets[d]) == 0) {
              return Status::InvalidArgument(
                  IndexPath(JoinPath(path, "datasets"), d) +
                  ": references unknown dataset '" + cell.datasets[d] + "'");
            }
          }
          if (!has_plan(cell.plan)) {
            return Status::InvalidArgument(JoinPath(path, "plan") +
                                           ": references unknown plan '" +
                                           cell.plan + "'");
          }
          // Every dataset the plan touches must be built by this cell.
          for (const Plan& plan : scenario.plans) {
            if (plan.name != cell.plan) continue;
            for (const PlanNode& node : plan.nodes) {
              if (node.op == OpKind::kScratchTouch) continue;
              bool in_cell = false;
              for (const std::string& d : cell.datasets) {
                if (d == node.dataset) {
                  in_cell = true;
                  break;
                }
              }
              if (!in_cell) {
                return Status::InvalidArgument(
                    JoinPath(path, "datasets") + ": plan '" + cell.plan +
                    "' needs dataset '" + node.dataset +
                    "', which the cell does not build");
              }
            }
          }
        }
      }
      if (s.ways.empty() || s.smoke_ways.empty()) {
        return Status::InvalidArgument(
            "$.latency_sweep: ways and smoke_ways must be nonempty");
      }
      for (const char* key : {"ways", "smoke_ways"}) {
        const std::vector<uint32_t>& ways =
            key[0] == 'w' ? s.ways : s.smoke_ways;
        for (size_t i = 0; i < ways.size(); ++i) {
          if (ways[i] == 0 || ways[i] > llc_ways) {
            return Status::InvalidArgument(
                IndexPath(JoinPath("$.latency_sweep", key), i) +
                ": must be in [1, " + std::to_string(llc_ways) +
                "] (the LLC ways)");
          }
        }
      }
      break;
    }
    case SweepKind::kPair: {
      const PairSweepSpec& s = scenario.pair;
      if (s.horizon == 0 || s.smoke_horizon == 0) {
        return Status::InvalidArgument(
            "$.pair_sweep: horizon and smoke_horizon must be positive");
      }
      if (s.cells.empty()) {
        return Status::InvalidArgument(
            "$.pair_sweep.cells: need at least one cell");
      }
      if (s.smoke_cells == 0 || s.smoke_cells > s.cells.size()) {
        return Status::InvalidArgument(
            "$.pair_sweep.smoke_cells: must be in [1, number of cells]");
      }
      if (s.has_policy) {
        // RunPair forces the scheme on for the partitioned leg.
        engine::PolicyConfig policy = PairPolicyConfig(s.policy);
        policy.enabled = true;
        const Status st = engine::ValidatePolicyConfig(policy, llc_ways);
        if (!st.ok()) {
          return Status::InvalidArgument("$.pair_sweep.policy: " +
                                         st.message());
        }
      }
      std::set<std::string> cell_names;
      for (size_t i = 0; i < s.cells.size(); ++i) {
        const PairCellSpec& cell = s.cells[i];
        const std::string path = IndexPath("$.pair_sweep.cells", i);
        if (cell.name.empty()) {
          return Status::InvalidArgument(JoinPath(path, "name") +
                                         ": must be nonempty");
        }
        if (!cell_names.insert(cell.name).second) {
          return Status::InvalidArgument(JoinPath(path, "name") +
                                         ": duplicate cell name '" +
                                         cell.name + "'");
        }
        for (size_t d = 0; d < cell.datasets.size(); ++d) {
          if (dataset_names.count(cell.datasets[d]) == 0) {
            return Status::InvalidArgument(
                IndexPath(JoinPath(path, "datasets"), d) +
                ": references unknown dataset '" + cell.datasets[d] + "'");
          }
        }
        for (const char* which : {"a", "b"}) {
          const std::string& plan_name = which[0] == 'a' ? cell.a : cell.b;
          if (!has_plan(plan_name)) {
            return Status::InvalidArgument(JoinPath(path, which) +
                                           ": references unknown plan '" +
                                           plan_name + "'");
          }
          // Every dataset the plan touches must be built by this cell.
          for (const Plan& plan : scenario.plans) {
            if (plan.name != plan_name) continue;
            for (const PlanNode& node : plan.nodes) {
              if (node.op == OpKind::kScratchTouch) continue;
              bool in_cell = false;
              for (const std::string& d : cell.datasets) {
                if (d == node.dataset) {
                  in_cell = true;
                  break;
                }
              }
              if (!in_cell) {
                return Status::InvalidArgument(
                    JoinPath(path, "datasets") + ": plan '" + plan_name +
                    "' needs dataset '" + node.dataset +
                    "', which the cell does not build");
              }
            }
          }
        }
      }
      break;
    }
    case SweepKind::kServing: {
      const ServingSweepSpec& s = scenario.serving;
      if (s.classes.empty()) {
        return Status::InvalidArgument(
            "$.serving_sweep.classes: need at least one class");
      }
      std::set<std::string> class_names;
      for (size_t i = 0; i < s.classes.size(); ++i) {
        const ServeClassSpec& c = s.classes[i];
        const std::string path = IndexPath("$.serving_sweep.classes", i);
        if (c.name.empty()) {
          return Status::InvalidArgument(JoinPath(path, "name") +
                                         ": must be nonempty");
        }
        if (!class_names.insert(c.name).second) {
          return Status::InvalidArgument(JoinPath(path, "name") +
                                         ": duplicate class name '" + c.name +
                                         "'");
        }
        if (c.cuid == CuidAnnotation::kDefault) {
          return Status::InvalidArgument(
              JoinPath(path, "cuid") +
              ": a request class needs a concrete annotation "
              "(polluting|sensitive|adaptive)");
        }
        if (static_cast<uint64_t>(c.passes) * c.private_lines +
                c.stream_lines ==
            0) {
          return Status::InvalidArgument(
              path + ": class touches no lines (passes * private_lines + "
                     "stream_lines is 0)");
        }
      }
      if (s.class_deal.empty()) {
        return Status::InvalidArgument(
            "$.serving_sweep.class_deal: must be nonempty");
      }
      if (s.cores == 0 || s.cores > machine.hierarchy.num_cores) {
        return Status::InvalidArgument(
            "$.serving_sweep.cores: must be in [1, " +
            std::to_string(machine.hierarchy.num_cores) +
            "] (the machine's cores)");
      }
      if (s.max_clusters == 0 || s.max_clusters >= cat::kDefaultMaxClos) {
        return Status::InvalidArgument(
            "$.serving_sweep.max_clusters: must be in [1, " +
            std::to_string(cat::kDefaultMaxClos - 1) +
            "] (one CLOS stays with the default group)");
      }
      if (s.tenants == 0 || s.smoke_tenants == 0) {
        return Status::InvalidArgument(
            "$.serving_sweep: tenants and smoke_tenants must be positive");
      }
      if (s.horizon == 0 || s.smoke_horizon == 0) {
        return Status::InvalidArgument(
            "$.serving_sweep: horizon and smoke_horizon must be positive");
      }
      if (s.loads.empty() || s.smoke_loads.empty()) {
        return Status::InvalidArgument(
            "$.serving_sweep: loads and smoke_loads must be nonempty");
      }
      for (const std::vector<Fraction>* loads : {&s.loads, &s.smoke_loads}) {
        for (const Fraction& f : *loads) {
          if (f.num == 0) {
            return Status::InvalidArgument(
                "$.serving_sweep: load levels must be positive");
          }
        }
      }
      // The arrival generator needs a gap of at least one cycle for every
      // dealt tenant, at both tenant counts and every load. Gaps shrink as
      // the load grows, so each list's highest load is the one to check,
      // and the tenant -> (class, arrival kind) pattern repeats every
      // lcm(|class_deal|, 2 * |classes|) tenants.
      const struct {
        const char* key;
        const std::vector<Fraction>& loads;
        uint64_t tenants;
      } sweeps[] = {{"loads", s.loads, s.tenants},
                    {"smoke_loads", s.smoke_loads, s.smoke_tenants}};
      for (const auto& sweep : sweeps) {
        size_t top = 0;
        for (size_t li = 1; li < sweep.loads.size(); ++li) {
          if (sweep.loads[li].value() > sweep.loads[top].value()) top = li;
        }
        const double load = sweep.loads[top].value();
        const uint64_t distinct = std::min<uint64_t>(
            sweep.tenants,
            std::lcm(s.class_deal.size(), 2 * s.classes.size()));
        for (uint64_t t = 0; t < distinct; ++t) {
          if (TenantArrival(s, t, sweep.tenants, load)
                  .mean_interarrival_cycles > 0) {
            continue;
          }
          const ServeClassSpec& c = s.classes[TenantClass(s, t)];
          return Status::InvalidArgument(
              IndexPath(JoinPath("$.serving_sweep", sweep.key), top) +
              ": with " + std::to_string(sweep.tenants) + " tenants, tenant " +
              std::to_string(t) + " (class '" + c.name + "', " +
              std::to_string(EstimatedServiceCycles(c)) +
              " estimated service cycles) gets a mean interarrival gap of 0 "
              "cycles; lower the load or raise the class's per-line cycles");
        }
      }
      if (s.policies.empty()) {
        return Status::InvalidArgument(
            "$.serving_sweep.policies: must be nonempty");
      }
      for (size_t i = 0; i < s.policies.size(); ++i) {
        bool known = false;
        for (const char* name : kServePolicyNames) {
          if (s.policies[i] == name) {
            known = true;
            break;
          }
        }
        if (!known) {
          return Status::InvalidArgument(
              IndexPath("$.serving_sweep.policies", i) +
              ": unknown policy '" + s.policies[i] +
              "' (expected shared|static|lookahead|mrc_cluster)");
        }
      }
      if (s.burst_on_cycles == 0 || s.burst_off_cycles == 0) {
        return Status::InvalidArgument(
            "$.serving_sweep: burst_on_cycles and burst_off_cycles must be "
            "positive");
      }
      if (s.slo_p99_cycles == 0) {
        return Status::InvalidArgument(
            "$.serving_sweep.slo_p99_cycles: must be positive");
      }
      break;
    }
  }
  return Status::OK();
}

namespace {

Status LatencyFromJson(const obs::JsonValue& v, const std::string& path,
                       LatencySweepSpec* out) {
  // Cell mode and single-plan mode have disjoint key sets, so a mixed file
  // fails key checking with the offending key named.
  if (v.Find("cells") != nullptr) {
    CATDB_RETURN_IF_ERROR(CheckKeys(
        v, path, {"ways", "smoke_ways", "smoke_cells", "cells"}));
    CATDB_RETURN_IF_ERROR(GetU64(v, path, "smoke_cells", &out->smoke_cells));
    const obs::JsonValue* cells = nullptr;
    CATDB_RETURN_IF_ERROR(RequireField(v, path, "cells", &cells));
    const std::string cells_path = JoinPath(path, "cells");
    if (!cells->is_array()) {
      return Status::InvalidArgument(cells_path + ": expected an array");
    }
    for (size_t i = 0; i < cells->array().size(); ++i) {
      const obs::JsonValue& cv = cells->array()[i];
      const std::string cp = IndexPath(cells_path, i);
      LatencyCellSpec cell;
      CATDB_RETURN_IF_ERROR(CheckKeys(cv, cp, {"name", "datasets", "plan"}));
      CATDB_RETURN_IF_ERROR(GetString(cv, cp, "name", &cell.name));
      CATDB_RETURN_IF_ERROR(
          GetStringArray(cv, cp, "datasets", &cell.datasets));
      CATDB_RETURN_IF_ERROR(GetString(cv, cp, "plan", &cell.plan));
      out->cells.push_back(std::move(cell));
    }
  } else {
    CATDB_RETURN_IF_ERROR(
        CheckKeys(v, path, {"plan", "iterations", "ways", "smoke_ways"}));
    CATDB_RETURN_IF_ERROR(GetString(v, path, "plan", &out->plan));
    CATDB_RETURN_IF_ERROR(GetU64(v, path, "iterations", &out->iterations));
  }
  CATDB_RETURN_IF_ERROR(GetU32Array(v, path, "ways", &out->ways));
  CATDB_RETURN_IF_ERROR(GetU32Array(v, path, "smoke_ways", &out->smoke_ways));
  return Status::OK();
}

Status PairFromJson(const obs::JsonValue& v, const std::string& path,
                    PairSweepSpec* out) {
  CATDB_RETURN_IF_ERROR(CheckKeys(
      v, path, {"horizon", "smoke_horizon", "smoke_cells", "policy", "cells"}));
  CATDB_RETURN_IF_ERROR(GetU64(v, path, "horizon", &out->horizon));
  CATDB_RETURN_IF_ERROR(GetU64(v, path, "smoke_horizon", &out->smoke_horizon));
  CATDB_RETURN_IF_ERROR(GetU64(v, path, "smoke_cells", &out->smoke_cells));
  if (const obs::JsonValue* p = v.Find("policy")) {
    out->has_policy = true;
    const std::string pp = JoinPath(path, "policy");
    CATDB_RETURN_IF_ERROR(CheckKeys(
        *p, pp, {"polluting_ways", "shared_ways", "adaptive_heuristic",
                 "adaptive_force_polluting"}));
    if (p->Find("polluting_ways") != nullptr) {
      CATDB_RETURN_IF_ERROR(
          GetU32(*p, pp, "polluting_ways", &out->policy.polluting_ways));
      out->policy.has_polluting_ways = true;
    }
    if (p->Find("shared_ways") != nullptr) {
      CATDB_RETURN_IF_ERROR(
          GetU32(*p, pp, "shared_ways", &out->policy.shared_ways));
      out->policy.has_shared_ways = true;
    }
    if (p->Find("adaptive_heuristic") != nullptr) {
      CATDB_RETURN_IF_ERROR(GetBool(*p, pp, "adaptive_heuristic",
                                    &out->policy.adaptive_heuristic));
      out->policy.has_adaptive_heuristic = true;
    }
    if (p->Find("adaptive_force_polluting") != nullptr) {
      CATDB_RETURN_IF_ERROR(GetBool(*p, pp, "adaptive_force_polluting",
                                    &out->policy.adaptive_force_polluting));
      out->policy.has_adaptive_force_polluting = true;
    }
  }
  const obs::JsonValue* cells = nullptr;
  CATDB_RETURN_IF_ERROR(RequireField(v, path, "cells", &cells));
  const std::string cells_path = JoinPath(path, "cells");
  if (!cells->is_array()) {
    return Status::InvalidArgument(cells_path + ": expected an array");
  }
  for (size_t i = 0; i < cells->array().size(); ++i) {
    const obs::JsonValue& cv = cells->array()[i];
    const std::string cp = IndexPath(cells_path, i);
    PairCellSpec cell;
    CATDB_RETURN_IF_ERROR(CheckKeys(cv, cp, {"name", "datasets", "a", "b"}));
    CATDB_RETURN_IF_ERROR(GetString(cv, cp, "name", &cell.name));
    CATDB_RETURN_IF_ERROR(GetStringArray(cv, cp, "datasets", &cell.datasets));
    CATDB_RETURN_IF_ERROR(GetString(cv, cp, "a", &cell.a));
    CATDB_RETURN_IF_ERROR(GetString(cv, cp, "b", &cell.b));
    out->cells.push_back(std::move(cell));
  }
  return Status::OK();
}

Status ServingFromJson(const obs::JsonValue& v, const std::string& path,
                       ServingSweepSpec* out) {
  CATDB_RETURN_IF_ERROR(CheckKeys(
      v, path,
      {"classes", "class_deal", "cores", "tenants", "smoke_tenants",
       "horizon", "smoke_horizon", "loads", "smoke_loads", "policies",
       "seed_base", "max_clusters", "shared_region_lines", "burst_on_cycles",
       "burst_off_cycles", "slo_p99_cycles", "max_rejected_ratio"}));
  const obs::JsonValue* classes = nullptr;
  CATDB_RETURN_IF_ERROR(RequireField(v, path, "classes", &classes));
  const std::string classes_path = JoinPath(path, "classes");
  if (!classes->is_array()) {
    return Status::InvalidArgument(classes_path + ": expected an array");
  }
  for (size_t i = 0; i < classes->array().size(); ++i) {
    const obs::JsonValue& cv = classes->array()[i];
    const std::string cp = IndexPath(classes_path, i);
    ServeClassSpec c;
    CATDB_RETURN_IF_ERROR(CheckKeys(
        cv, cp, {"name", "cuid", "private_lines", "passes", "stream_lines",
                 "compute_per_line", "mem_cycles_per_line"}));
    CATDB_RETURN_IF_ERROR(GetString(cv, cp, "name", &c.name));
    std::string cuid_name;
    CATDB_RETURN_IF_ERROR(GetString(cv, cp, "cuid", &cuid_name));
    CATDB_RETURN_IF_ERROR(
        CuidAnnotationFromName(cuid_name, JoinPath(cp, "cuid"), &c.cuid));
    CATDB_RETURN_IF_ERROR(GetU64(cv, cp, "private_lines", &c.private_lines));
    CATDB_RETURN_IF_ERROR(GetU32(cv, cp, "passes", &c.passes));
    CATDB_RETURN_IF_ERROR(GetU64(cv, cp, "stream_lines", &c.stream_lines));
    CATDB_RETURN_IF_ERROR(
        GetU32(cv, cp, "compute_per_line", &c.compute_per_line));
    CATDB_RETURN_IF_ERROR(
        GetU32(cv, cp, "mem_cycles_per_line", &c.mem_cycles_per_line));
    out->classes.push_back(std::move(c));
  }
  CATDB_RETURN_IF_ERROR(GetU32Array(v, path, "class_deal", &out->class_deal));
  CATDB_RETURN_IF_ERROR(GetU32(v, path, "cores", &out->cores));
  CATDB_RETURN_IF_ERROR(GetU64(v, path, "tenants", &out->tenants));
  CATDB_RETURN_IF_ERROR(GetU64(v, path, "smoke_tenants", &out->smoke_tenants));
  CATDB_RETURN_IF_ERROR(GetU64(v, path, "horizon", &out->horizon));
  CATDB_RETURN_IF_ERROR(GetU64(v, path, "smoke_horizon", &out->smoke_horizon));
  CATDB_RETURN_IF_ERROR(GetFractionArray(v, path, "loads", &out->loads));
  CATDB_RETURN_IF_ERROR(
      GetFractionArray(v, path, "smoke_loads", &out->smoke_loads));
  CATDB_RETURN_IF_ERROR(GetStringArray(v, path, "policies", &out->policies));
  CATDB_RETURN_IF_ERROR(GetU64(v, path, "seed_base", &out->seed_base));
  CATDB_RETURN_IF_ERROR(GetU32(v, path, "max_clusters", &out->max_clusters));
  CATDB_RETURN_IF_ERROR(
      GetU64(v, path, "shared_region_lines", &out->shared_region_lines));
  CATDB_RETURN_IF_ERROR(
      GetU64(v, path, "burst_on_cycles", &out->burst_on_cycles));
  CATDB_RETURN_IF_ERROR(
      GetU64(v, path, "burst_off_cycles", &out->burst_off_cycles));
  CATDB_RETURN_IF_ERROR(
      GetU64(v, path, "slo_p99_cycles", &out->slo_p99_cycles));
  CATDB_RETURN_IF_ERROR(
      GetFraction(v, path, "max_rejected_ratio", &out->max_rejected_ratio));
  return Status::OK();
}

}  // namespace

Status ScenarioFromJson(const obs::JsonValue& v, Scenario* out) {
  *out = Scenario{};
  std::string kind_name;
  CATDB_RETURN_IF_ERROR(GetString(v, "$", "kind", &kind_name));
  bool kind_known = false;
  for (size_t i = 0; i < 3; ++i) {
    if (kind_name == kKindNames[i]) {
      out->kind = static_cast<SweepKind>(i);
      kind_known = true;
      break;
    }
  }
  if (!kind_known) {
    return Status::InvalidArgument(
        "$.kind: unknown sweep kind '" + kind_name +
        "' (expected latency_sweep|pair_sweep|serving_sweep)");
  }
  const char* section = SweepKindName(out->kind);
  CATDB_RETURN_IF_ERROR(CheckKeys(
      v, "$", {"schema", "benchmark", "kind", "datasets", "plans", section}));

  std::string schema;
  CATDB_RETURN_IF_ERROR(GetString(v, "$", "schema", &schema));
  if (schema != kScenarioSchema) {
    return Status::InvalidArgument("$.schema: expected \"" +
                                   std::string(kScenarioSchema) + "\", got \"" +
                                   schema + "\"");
  }
  CATDB_RETURN_IF_ERROR(GetString(v, "$", "benchmark", &out->benchmark));

  const obs::JsonValue* datasets = nullptr;
  CATDB_RETURN_IF_ERROR(RequireField(v, "$", "datasets", &datasets));
  if (!datasets->is_array()) {
    return Status::InvalidArgument("$.datasets: expected an array");
  }
  for (size_t i = 0; i < datasets->array().size(); ++i) {
    DatasetSpec spec;
    CATDB_RETURN_IF_ERROR(DatasetFromJson(datasets->array()[i],
                                          IndexPath("$.datasets", i), &spec));
    out->datasets.push_back(std::move(spec));
  }

  const obs::JsonValue* plans = nullptr;
  CATDB_RETURN_IF_ERROR(RequireField(v, "$", "plans", &plans));
  if (!plans->is_array()) {
    return Status::InvalidArgument("$.plans: expected an array");
  }
  for (size_t i = 0; i < plans->array().size(); ++i) {
    Plan plan;
    CATDB_RETURN_IF_ERROR(
        PlanFromJson(plans->array()[i], IndexPath("$.plans", i), &plan));
    out->plans.push_back(std::move(plan));
  }

  const obs::JsonValue* sec = nullptr;
  CATDB_RETURN_IF_ERROR(RequireField(v, "$", section, &sec));
  const std::string sec_path = JoinPath("$", section);
  switch (out->kind) {
    case SweepKind::kLatency:
      CATDB_RETURN_IF_ERROR(LatencyFromJson(*sec, sec_path, &out->latency));
      break;
    case SweepKind::kPair:
      CATDB_RETURN_IF_ERROR(PairFromJson(*sec, sec_path, &out->pair));
      break;
    case SweepKind::kServing:
      CATDB_RETURN_IF_ERROR(ServingFromJson(*sec, sec_path, &out->serving));
      break;
  }
  return ValidateScenario(*out);
}

namespace {

obs::JsonValue LatencyToJson(const LatencySweepSpec& s) {
  std::vector<std::pair<std::string, obs::JsonValue>> m;
  if (s.cells.empty()) {
    m.emplace_back("plan", obs::JsonValue::Str(s.plan));
    m.emplace_back("iterations", obs::JsonValue::Int(s.iterations));
  }
  m.emplace_back("ways", U32ArrayToJson(s.ways));
  m.emplace_back("smoke_ways", U32ArrayToJson(s.smoke_ways));
  if (!s.cells.empty()) {
    m.emplace_back("smoke_cells", obs::JsonValue::Int(s.smoke_cells));
    std::vector<obs::JsonValue> cells;
    for (const LatencyCellSpec& cell : s.cells) {
      std::vector<std::pair<std::string, obs::JsonValue>> cm;
      cm.emplace_back("name", obs::JsonValue::Str(cell.name));
      cm.emplace_back("datasets", StringArrayToJson(cell.datasets));
      cm.emplace_back("plan", obs::JsonValue::Str(cell.plan));
      cells.push_back(obs::JsonValue::Object(std::move(cm)));
    }
    m.emplace_back("cells", obs::JsonValue::Array(std::move(cells)));
  }
  return obs::JsonValue::Object(std::move(m));
}

obs::JsonValue PairToJson(const PairSweepSpec& s) {
  std::vector<std::pair<std::string, obs::JsonValue>> m;
  m.emplace_back("horizon", obs::JsonValue::Int(s.horizon));
  m.emplace_back("smoke_horizon", obs::JsonValue::Int(s.smoke_horizon));
  m.emplace_back("smoke_cells", obs::JsonValue::Int(s.smoke_cells));
  if (s.has_policy) {
    std::vector<std::pair<std::string, obs::JsonValue>> pm;
    if (s.policy.has_polluting_ways) {
      pm.emplace_back("polluting_ways",
                      obs::JsonValue::Int(
                          static_cast<uint64_t>(s.policy.polluting_ways)));
    }
    if (s.policy.has_shared_ways) {
      pm.emplace_back("shared_ways",
                      obs::JsonValue::Int(
                          static_cast<uint64_t>(s.policy.shared_ways)));
    }
    if (s.policy.has_adaptive_heuristic) {
      pm.emplace_back("adaptive_heuristic",
                      obs::JsonValue::Bool(s.policy.adaptive_heuristic));
    }
    if (s.policy.has_adaptive_force_polluting) {
      pm.emplace_back("adaptive_force_polluting",
                      obs::JsonValue::Bool(s.policy.adaptive_force_polluting));
    }
    m.emplace_back("policy", obs::JsonValue::Object(std::move(pm)));
  }
  std::vector<obs::JsonValue> cells;
  for (const PairCellSpec& cell : s.cells) {
    std::vector<std::pair<std::string, obs::JsonValue>> cm;
    cm.emplace_back("name", obs::JsonValue::Str(cell.name));
    cm.emplace_back("datasets", StringArrayToJson(cell.datasets));
    cm.emplace_back("a", obs::JsonValue::Str(cell.a));
    cm.emplace_back("b", obs::JsonValue::Str(cell.b));
    cells.push_back(obs::JsonValue::Object(std::move(cm)));
  }
  m.emplace_back("cells", obs::JsonValue::Array(std::move(cells)));
  return obs::JsonValue::Object(std::move(m));
}

obs::JsonValue ServingToJson(const ServingSweepSpec& s) {
  std::vector<std::pair<std::string, obs::JsonValue>> m;
  std::vector<obs::JsonValue> classes;
  for (const ServeClassSpec& c : s.classes) {
    std::vector<std::pair<std::string, obs::JsonValue>> cm;
    cm.emplace_back("name", obs::JsonValue::Str(c.name));
    cm.emplace_back("cuid",
                    obs::JsonValue::Str(CuidAnnotationName(c.cuid)));
    cm.emplace_back("private_lines", obs::JsonValue::Int(c.private_lines));
    cm.emplace_back("passes",
                    obs::JsonValue::Int(static_cast<uint64_t>(c.passes)));
    cm.emplace_back("stream_lines", obs::JsonValue::Int(c.stream_lines));
    cm.emplace_back("compute_per_line",
                    obs::JsonValue::Int(
                        static_cast<uint64_t>(c.compute_per_line)));
    cm.emplace_back("mem_cycles_per_line",
                    obs::JsonValue::Int(
                        static_cast<uint64_t>(c.mem_cycles_per_line)));
    classes.push_back(obs::JsonValue::Object(std::move(cm)));
  }
  m.emplace_back("classes", obs::JsonValue::Array(std::move(classes)));
  m.emplace_back("class_deal", U32ArrayToJson(s.class_deal));
  m.emplace_back("cores",
                 obs::JsonValue::Int(static_cast<uint64_t>(s.cores)));
  m.emplace_back("tenants", obs::JsonValue::Int(s.tenants));
  m.emplace_back("smoke_tenants", obs::JsonValue::Int(s.smoke_tenants));
  m.emplace_back("horizon", obs::JsonValue::Int(s.horizon));
  m.emplace_back("smoke_horizon", obs::JsonValue::Int(s.smoke_horizon));
  m.emplace_back("loads", FractionArrayToJson(s.loads));
  m.emplace_back("smoke_loads", FractionArrayToJson(s.smoke_loads));
  m.emplace_back("policies", StringArrayToJson(s.policies));
  m.emplace_back("seed_base", obs::JsonValue::Int(s.seed_base));
  m.emplace_back("max_clusters",
                 obs::JsonValue::Int(static_cast<uint64_t>(s.max_clusters)));
  m.emplace_back("shared_region_lines",
                 obs::JsonValue::Int(s.shared_region_lines));
  m.emplace_back("burst_on_cycles", obs::JsonValue::Int(s.burst_on_cycles));
  m.emplace_back("burst_off_cycles", obs::JsonValue::Int(s.burst_off_cycles));
  m.emplace_back("slo_p99_cycles", obs::JsonValue::Int(s.slo_p99_cycles));
  m.emplace_back("max_rejected_ratio", FractionToJson(s.max_rejected_ratio));
  return obs::JsonValue::Object(std::move(m));
}

}  // namespace

obs::JsonValue ScenarioToJson(const Scenario& scenario) {
  std::vector<std::pair<std::string, obs::JsonValue>> m;
  m.emplace_back("schema", obs::JsonValue::Str(kScenarioSchema));
  m.emplace_back("benchmark", obs::JsonValue::Str(scenario.benchmark));
  m.emplace_back("kind", obs::JsonValue::Str(SweepKindName(scenario.kind)));
  std::vector<obs::JsonValue> datasets;
  for (const DatasetSpec& spec : scenario.datasets) {
    datasets.push_back(DatasetToJson(spec));
  }
  m.emplace_back("datasets", obs::JsonValue::Array(std::move(datasets)));
  std::vector<obs::JsonValue> plans;
  for (const Plan& plan : scenario.plans) plans.push_back(PlanToJson(plan));
  m.emplace_back("plans", obs::JsonValue::Array(std::move(plans)));
  switch (scenario.kind) {
    case SweepKind::kLatency:
      m.emplace_back(SweepKindName(scenario.kind),
                     LatencyToJson(scenario.latency));
      break;
    case SweepKind::kPair:
      m.emplace_back(SweepKindName(scenario.kind), PairToJson(scenario.pair));
      break;
    case SweepKind::kServing:
      m.emplace_back(SweepKindName(scenario.kind),
                     ServingToJson(scenario.serving));
      break;
  }
  return obs::JsonValue::Object(std::move(m));
}

Status ScenarioFromText(const std::string& text, Scenario* out) {
  obs::JsonValue v;
  CATDB_RETURN_IF_ERROR(obs::JsonParse(text, &v));
  return ScenarioFromJson(v, out);
}

std::string ScenarioToText(const Scenario& scenario) {
  return obs::JsonPretty(ScenarioToJson(scenario));
}

Status ReadTextFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open file: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    return Status::InvalidArgument("read failed: " + path);
  }
  *out = buf.str();
  return Status::OK();
}

}  // namespace catdb::plan
