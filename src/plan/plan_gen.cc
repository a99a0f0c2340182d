#include "plan/plan_gen.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"

namespace catdb::plan {

namespace {

constexpr OpKind kGenOps[] = {
    OpKind::kScan,      OpKind::kFilter,     OpKind::kProject,
    OpKind::kAggregate, OpKind::kHashJoin,   OpKind::kIndexProbe,
    OpKind::kScratchTouch,
};

constexpr const char* kAggFuncs[] = {"max", "min", "sum", "count"};

/// Chunking axis: 0 = operator default, plus three explicit sizes.
constexpr uint64_t kRowsPerChunkChoices[] = {0, 256, 1024, 8192};

/// Biased CUID draw: mostly "default" (exercises the operators' intrinsic
/// annotations), sometimes an explicit override (exercises the plan layer's
/// set_cache_usage path).
CuidAnnotation DrawCuid(Rng* rng) {
  switch (rng->Uniform(8)) {
    case 5:
      return CuidAnnotation::kPolluting;
    case 6:
      return CuidAnnotation::kSensitive;
    case 7:
      return CuidAnnotation::kAdaptive;
    default:
      return CuidAnnotation::kDefault;
  }
}

/// A dataset the node's op can run against, with explicit (machine-
/// independent) sizes small enough that every regime x 2 iterations stays
/// fast.
DatasetSpec DrawDataset(Rng* rng, OpKind op, const std::string& name) {
  DatasetSpec spec;
  spec.name = name;
  spec.seed = 1 + rng->Uniform(1u << 20);
  switch (op) {
    case OpKind::kScan:
    case OpKind::kFilter:
    case OpKind::kProject:
      spec.type = DatasetType::kScan;
      spec.rows = 16384 * (1 + rng->Uniform(3));  // 16k / 32k / 48k
      spec.distinct = 1 + rng->Uniform(4096);
      break;
    case OpKind::kAggregate:
      spec.type = DatasetType::kAgg;
      spec.rows = 16384;
      spec.distinct = 1 + rng->Uniform(1024);
      spec.groups = 1 + rng->Uniform(256);
      break;
    case OpKind::kHashJoin:
      spec.type = DatasetType::kJoin;
      spec.rows = 16384;  // FK rows
      spec.keys = 4096 + rng->Uniform(28672);
      break;
    case OpKind::kIndexProbe:
      spec.type = DatasetType::kAcdoca;
      spec.rows = 2048;
      spec.has_small_dict_entries = true;
      spec.small_dict_entries = 512 + rng->Uniform(1024);
      break;
    case OpKind::kScratchTouch:
      CATDB_CHECK(false);  // scratch_touch takes no dataset
  }
  return spec;
}

}  // namespace

GeneratedCase GeneratePlanCase(Rng* rng, size_t index) {
  GeneratedCase c;
  c.plan.name = "fuzz" + std::to_string(index);
  c.plan.query = "fuzz/plan" + std::to_string(index);

  const size_t num_nodes = 1 + rng->Uniform(3);
  for (size_t n = 0; n < num_nodes; ++n) {
    PlanNode node;
    node.id = "n" + std::to_string(n);
    node.op = kGenOps[rng->Uniform(std::size(kGenOps))];
    node.cuid = DrawCuid(rng);
    // Chain: node n depends on node n-1. Inputs express stage ordering;
    // the driver runs stages as consecutive phases in topological order.
    if (n > 0) node.inputs.push_back("n" + std::to_string(n - 1));

    if (node.op != OpKind::kScratchTouch) {
      const std::string ds_name =
          "ds" + std::to_string(index) + "_" + std::to_string(n);
      c.datasets.push_back(DrawDataset(rng, node.op, ds_name));
      node.dataset = ds_name;
    }

    switch (node.op) {
      case OpKind::kScan:
        node.seed = rng->Uniform(1u << 20);
        node.rows_per_chunk =
            kRowsPerChunkChoices[rng->Uniform(std::size(kRowsPerChunkChoices))];
        break;
      case OpKind::kFilter: {
        uint64_t lo = rng->Uniform(1000);
        uint64_t hi = rng->Uniform(1000);
        if (lo > hi) std::swap(lo, hi);
        node.lo_fraction = {lo, 1000};
        node.hi_fraction = {hi, 1000};
        node.rows_per_chunk =
            kRowsPerChunkChoices[rng->Uniform(std::size(kRowsPerChunkChoices))];
        break;
      }
      case OpKind::kProject:
        node.rows_per_chunk =
            kRowsPerChunkChoices[rng->Uniform(std::size(kRowsPerChunkChoices))];
        break;
      case OpKind::kAggregate:
        node.agg_func = kAggFuncs[rng->Uniform(std::size(kAggFuncs))];
        break;
      case OpKind::kHashJoin:
        break;
      case OpKind::kIndexProbe:
        // num_columns bounded by the projection pool (13 big / 6 small).
        node.big_projection = rng->Uniform(2) == 1;
        node.num_columns =
            1 + static_cast<uint32_t>(rng->Uniform(
                    node.big_projection ? 13 : 6));
        node.seed = rng->Uniform(1u << 20);
        break;
      case OpKind::kScratchTouch:
        node.lines_per_chunk = 64 + rng->Uniform(1024);
        node.chunks = 1 + rng->Uniform(8);
        node.compute_per_line = rng->Uniform(4);
        break;
    }
    c.plan.nodes.push_back(std::move(node));
  }

  // Partitioning-policy variant the case runs under (identical across
  // regimes; the differential axis is the executor, never the physics).
  switch (rng->Uniform(3)) {
    case 0:
      c.policy_label = "off";
      break;
    case 1: {
      const uint32_t ways = 2 + static_cast<uint32_t>(rng->Uniform(19));
      c.policy.instance_ways = ways;
      c.policy_label = "ways" + std::to_string(ways);
      break;
    }
    default:
      c.policy.enabled = true;
      c.policy_label = "partitioned";
      break;
  }
  c.iterations = 2;

  const Status st = ValidatePlan(c.plan, "$");
  CATDB_CHECK(st.ok());
  return c;
}

}  // namespace catdb::plan
