// Extension bench: open-system serving tier with SLO tail latency.
//
// The paper's evaluation is closed-system: a fixed set of queries reruns
// back to back and throughput is the metric. Real serving tiers are open
// systems — queries arrive on their own schedule, queue when the machine is
// busy, and the operational question is tail latency at a given offered
// load. This bench sweeps offered load (utilization of the serving cores)
// against four partitioning policies:
//   1. shared      : no partitioning (every query gets the full LLC)
//   2. static      : the paper's a-priori annotations (polluting classes
//                    confined to the low-ways mask)
//   3. lookahead   : UCP lookahead sizing over *round-robin* tenant
//                    clusters — measurement on, similarity grouping off
//   4. mrc_cluster : k-means MRC-similarity clustering of tenants over
//                    their shadow-tag curves, pooled cluster MRCs sized
//                    with UCP lookahead
// and reports per-policy p50/p95/p99 latency plus the maximum offered load
// each policy sustains under a fixed p99 SLO. The tenant count (64) is 4x
// the hardware CLOS limit (16): the clustered policies serve them through
// max_clusters resource groups, which is the point of clustering.
//
// The experiment itself is scenarios/ext_serving_tail.json: this main runs
// that file through the generic scenario executor — the same code path
// bench/scenario_runner takes — and keeps only the paper-style stdout
// tables. Every (load, policy) pair is one independent sweep cell — own
// machine, own arrival trace (same seed across policies at equal load, so
// policies face the identical workload) — and the report is byte-identical
// for any --jobs value.

#include <cstdio>

#include "bench_util.h"

using namespace catdb;

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::ParseBenchArgs(argc, argv);

  const plan::Scenario scenario =
      bench::LoadScenarioFile(CATDB_SCENARIO_DIR "/ext_serving_tail.json");
  plan::ScenarioRunResult result =
      bench::RunScenarioWithFlags(scenario, opts);
  const plan::ServingOutcome& out = result.serving;
  const plan::ServingSweepSpec& spec = scenario.serving;
  const size_t num_policies = spec.policies.size();
  const double slo = static_cast<double>(spec.slo_p99_cycles);
  const double max_rejected = spec.max_rejected_ratio.value();

  std::printf("\nOpen-system serving: %zu tenants, %zu classes, p99 SLO %.2f "
              "Mcycles\n",
              static_cast<size_t>(out.tenants), spec.classes.size(),
              slo / 1e6);
  for (size_t li = 0; li < out.loads.size(); ++li) {
    std::printf("\noffered load %.2f\n", out.loads[li].value());
    bench::PrintRule(86);
    std::printf("%-12s %8s %8s %7s %9s %9s %9s %5s %5s\n", "policy", "arrive",
                "done", "rej%", "p50(Kc)", "p95(Kc)", "p99(Kc)", "clus",
                "slo");
    bench::PrintRule(86);
    for (size_t pi = 0; pi < num_policies; ++pi) {
      const size_t ci = li * num_policies + pi;
      const plan::ServingOutcome::Cell& r = out.cells[ci];
      std::printf("%-12s %8llu %8llu %6.2f%% %9.1f %9.1f %9.1f %5u %5s\n",
                  spec.policies[pi].c_str(),
                  static_cast<unsigned long long>(r.arrivals),
                  static_cast<unsigned long long>(r.completed),
                  r.rejected_ratio() * 100.0, r.p50 / 1e3, r.p95 / 1e3,
                  r.p99 / 1e3, r.num_clusters,
                  out.meets_slo[ci] ? "ok" : "MISS");
    }
    bench::PrintRule(86);
  }

  // Sustained load: the highest offered load whose run met the SLO. The
  // summary scalar feeds plotting; 0 means the policy met it nowhere.
  std::printf("\nsustained load at p99 <= %.2f Mcycles (rejections < %.0f%%)\n",
              slo / 1e6, max_rejected * 100.0);
  bench::PrintRule(52);
  for (size_t pi = 0; pi < num_policies; ++pi) {
    std::printf("%-12s %.2f\n", spec.policies[pi].c_str(),
                out.sustained[pi]);
  }
  bench::PrintRule(52);

  std::printf(
      "\nThe clustered policies serve %zu tenants through %u resource groups\n"
      "(the hardware stops at 16 CLOS): per-tenant shadow-tag curves are\n"
      "pooled by MRC similarity, so look-alike tenants share a partition\n"
      "sized for their active members' combined benefit. The round-robin\n"
      "'lookahead' row isolates what similarity grouping adds over blind\n"
      "clustering: same measurement loop, same sizer, class-mixed clusters.\n",
      static_cast<size_t>(out.tenants), spec.max_clusters);
  bench::FinishSweepBench(&*result.runner, opts);
  return 0;
}
