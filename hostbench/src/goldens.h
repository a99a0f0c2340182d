#ifndef HOSTBENCH_GOLDENS_H_
#define HOSTBENCH_GOLDENS_H_

// Simulated outputs of a workload run and the recorded goldens they are
// checked against. The simulator is deterministic, so every output must
// match its golden exactly; host time is the only thing a run may change.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "simcache/cache_stats.h"

namespace hostbench {

/// Outputs of one simulation: name -> exact value (counts are exact as
/// doubles below 2^53, far above any count the workloads produce).
using SimValues = std::map<std::string, double>;
/// Outputs of a workload run: simulation name -> its outputs.
using SimOutputs = std::map<std::string, SimValues>;

/// Every HierarchyStats counter, keyed by field name.
void AddHierarchyStats(const catdb::simcache::HierarchyStats& s,
                       SimValues* out);

/// Sum of L1 lookups (simulated accesses) over the simulations.
double TotalAccesses(const SimOutputs& outputs);

/// One recorded input variant of a workload: the seeds it runs with and its
/// outputs.
struct GoldenVariant {
  std::map<std::string, uint64_t> inputs;
  SimOutputs sims;
};

/// workload name -> variants, indexed by variant number.
using Goldens = std::map<std::string, std::vector<GoldenVariant>>;

catdb::Status LoadGoldens(const std::string& path, Goldens* out);
catdb::Status ParseGoldens(const std::string& text, Goldens* out);
std::string GoldensToJson(const Goldens& goldens);

struct CheckResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> mismatches;  // one line per differing output
};

/// Compares a run's outputs with the golden simulation by simulation. Each
/// simulation of either side is one attempted operation; it fails when the
/// other side lacks it or when an output it reports differs from (or is
/// missing in) the golden. Golden outputs the run does not report are not
/// checked: harness::RunPair and plan::RunScenario return only a subset.
CheckResult CheckOutputs(const SimOutputs& golden, const SimOutputs& observed);

/// CheckOutputs for a pass that observes every golden output: a golden
/// output the run does not report fails its simulation too.
CheckResult CheckAllOutputs(const SimOutputs& golden,
                            const SimOutputs& observed);

/// Accumulates `r` into `*total`.
void Accumulate(const CheckResult& r, CheckResult* total);

}  // namespace hostbench

#endif  // HOSTBENCH_GOLDENS_H_
