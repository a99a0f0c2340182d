#include "plan/fuzz.h"

#include <cstdio>
#include <map>
#include <memory>
#include <utility>

#include "common/check.h"
#include "engine/runner.h"
#include "obs/report.h"
#include "plan/plan_query.h"
#include "plan/scenario.h"

namespace catdb::plan {

namespace {

constexpr const char* kRegimeNames[kNumFuzzRegimes] = {"default", "scalar",
                                                       "nosimd"};

/// Digest of one regime's outcome: the serialized run report of the
/// completed iterations. Identical digests across regimes mean identical
/// physics — clocks, cache stats, per-stream iteration boundaries.
uint64_t DigestOf(const std::string& plan_name,
                  const engine::RunReport& rep) {
  obs::RunReportWriter w("plan_fuzz");
  w.AddRun(plan_name, rep);
  return Fnv1a64(w.Json());
}

std::string DigestHex(uint64_t digest) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "fnv1a:%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

}  // namespace

const char* FuzzRegimeName(size_t regime) {
  CATDB_CHECK(regime < kNumFuzzRegimes);
  return kRegimeNames[regime];
}

sim::MachineConfig FuzzRegimeConfig(size_t regime) {
  sim::MachineConfig cfg;
  switch (regime) {
    case 0:
      break;
    case 1:
      cfg.batched_runs = false;
      break;
    case 2:
      cfg.hierarchy.simd = false;
      break;
    default:
      CATDB_CHECK(false);
  }
  return cfg;
}

Status RunPlanFuzz(const FuzzOptions& opts, FuzzResult* result) {
  if (opts.plans == 0) {
    return Status::InvalidArgument("--plans must be at least 1");
  }
  // All cases are drawn up front from one generator stream: case i is a
  // function of (seed, i) alone, independent of jobs or scheduling.
  Rng rng(opts.seed);
  std::vector<GeneratedCase> cases;
  cases.reserve(opts.plans);
  for (size_t i = 0; i < opts.plans; ++i) {
    cases.push_back(GeneratePlanCase(&rng, i));
  }

  harness::SweepRunner::Options o;
  o.jobs = opts.jobs;
  result->runner.emplace("plan_fuzz", o);
  result->digests.resize(opts.plans);
  result->plan_labels.resize(opts.plans);

  const std::vector<uint32_t> cores = {0, 1, 2, 3};
  for (size_t i = 0; i < opts.plans; ++i) {
    const GeneratedCase* c = &cases[i];
    const std::string label =
        "plan" + std::to_string(i) + "/" + c->policy_label;
    result->plan_labels[i] = label;
    auto* digests = &result->digests[i];
    result->runner->AddCell(
        label, [c, i, digests, &cores](harness::SweepCell& cell) {
          engine::RunReport regime0;
          for (size_t r = 0; r < kNumFuzzRegimes; ++r) {
            // A fresh machine, datasets and lowered plan per regime: the
            // only difference between regimes is the executor config.
            sim::Machine& machine = cell.MakeMachine(FuzzRegimeConfig(r));
            std::vector<BuiltDataset> built;
            built.reserve(c->datasets.size());
            std::map<std::string, const BuiltDataset*> catalog;
            for (const DatasetSpec& spec : c->datasets) {
              built.push_back(BuildDataset(&machine, spec));
              catalog[spec.name] = &built.back();
            }
            std::unique_ptr<PlanQuery> q;
            const Status st = PlanQuery::Create(c->plan, catalog, &q);
            CATDB_CHECK(st.ok());
            q->AttachSim(&machine);
            engine::RunReport rep = engine::RunQueryIterations(
                &machine, q.get(), cores, c->iterations, c->policy);
            (*digests)[r] = DigestOf(c->plan.name, rep);
            cell.report().AddParam(
                "plan" + std::to_string(i) + "/" + FuzzRegimeName(r),
                DigestHex((*digests)[r]));
            if (r == 0) regime0 = std::move(rep);
          }
          cell.report().AddRun("plan" + std::to_string(i),
                               std::move(regime0));
        });
  }
  result->runner->Run();

  std::string mismatches;
  for (size_t i = 0; i < opts.plans; ++i) {
    const auto& d = result->digests[i];
    bool equal = true;
    for (size_t r = 1; r < kNumFuzzRegimes; ++r) {
      if (d[r] != d[0]) equal = false;
    }
    if (equal) continue;
    mismatches += "\n  plan" + std::to_string(i) + " (" +
                  result->plan_labels[i] + "):";
    for (size_t r = 0; r < kNumFuzzRegimes; ++r) {
      mismatches += std::string(" ") + FuzzRegimeName(r) + "=" +
                    DigestHex(d[r]);
    }
  }
  if (!mismatches.empty()) {
    return Status::FailedPrecondition(
        "differential fuzz: executor regimes diverged on " +
        std::to_string(opts.plans) + " plans:" + mismatches);
  }
  return Status::OK();
}

}  // namespace catdb::plan
