#ifndef CATDB_PLAN_FUZZ_H_
#define CATDB_PLAN_FUZZ_H_

// Differential plan fuzzing: every seeded random plan (plan_gen.h) executes
// under three executor regimes that must not change simulated physics —
//   default        : batched AccessRun path
//   scalar         : batched_runs disabled (scalar access loop)
//   nosimd         : the hierarchy's scalar path (hierarchy simd=false — the
//                    CATDB_NO_SIMD semantics, per machine); on a host with
//                    AVX-512F the other two regimes run the AVX-512 twins
// — and the FNV-1a digest of each regime's run report must be identical.
// A digest mismatch means a host-side optimization diverged from the
// default semantics; the harness fails with a Status naming every diverging
// (plan, regime) pair.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "harness/sweep_runner.h"
#include "plan/plan_gen.h"

namespace catdb::plan {

inline constexpr size_t kNumFuzzRegimes = 3;

/// Report-key spelling of each regime, in execution order.
const char* FuzzRegimeName(size_t regime);

/// Machine configuration of regime `regime` (0 = default).
sim::MachineConfig FuzzRegimeConfig(size_t regime);

struct FuzzOptions {
  uint64_t seed = 0xC47DB;
  size_t plans = 25;
  unsigned jobs = 1;
};

struct FuzzResult {
  /// One cell per plan; the merged report carries, per plan, the regime
  /// digests as params ("plan<i>/<regime>") and the default regime's run.
  std::optional<harness::SweepRunner> runner;
  std::vector<std::string> plan_labels;  // "plan<i>/<policy_label>"
  std::vector<std::array<uint64_t, kNumFuzzRegimes>> digests;  // per plan
};

/// Generates `opts.plans` cases from `opts.seed`, executes each under all
/// three regimes, and verifies digest equality. Returns an error Status
/// listing every mismatch (the report is still complete in that case).
Status RunPlanFuzz(const FuzzOptions& opts, FuzzResult* result);

}  // namespace catdb::plan

#endif  // CATDB_PLAN_FUZZ_H_
