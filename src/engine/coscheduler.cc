#include "engine/coscheduler.h"

#include <array>
#include <utility>

#include "common/check.h"
#include "engine/runner.h"
#include "sim/executor.h"

namespace catdb::engine {

std::vector<Round> PlanCacheAwareRounds(const std::vector<BatchItem>& batch) {
  std::vector<size_t> polluters;
  std::vector<size_t> sensitives;
  for (size_t i = 0; i < batch.size(); ++i) {
    // Adaptive queries are treated as polluting for pairing purposes: under
    // CAT they are safe partners either way (the policy resolves their mask
    // from the working-set hint at dispatch).
    if (batch[i].usage == CacheUsage::kSensitive) {
      sensitives.push_back(i);
    } else {
      polluters.push_back(i);
    }
  }

  std::vector<Round> rounds;
  // Pair polluters with each other.
  size_t p = 0;
  for (; p + 1 < polluters.size(); p += 2) {
    rounds.push_back(Round{{polluters[p], polluters[p + 1]}});
  }
  // A leftover polluter joins the first sensitive query, protected by CAT.
  size_t s = 0;
  if (p < polluters.size()) {
    if (s < sensitives.size()) {
      rounds.push_back(Round{{sensitives[s], polluters[p]}});
      ++s;
    } else {
      rounds.push_back(Round{{polluters[p]}});
    }
  }
  // Remaining sensitive queries run alone.
  for (; s < sensitives.size(); ++s) {
    rounds.push_back(Round{{sensitives[s]}});
  }
  return rounds;
}

std::vector<Round> PlanFifoRounds(const std::vector<BatchItem>& batch) {
  std::vector<Round> rounds;
  for (size_t i = 0; i < batch.size(); i += 2) {
    Round round;
    round.items.push_back(i);
    if (i + 1 < batch.size()) round.items.push_back(i + 1);
    rounds.push_back(round);
  }
  return rounds;
}

uint32_t RoundCoreSplit(uint32_t num_cores, size_t round_index) {
  CATDB_CHECK(num_cores >= 2);
  // Even counts split evenly. For odd counts the old `k * cores / 2`
  // arithmetic always handed the extra core to the second stream; alternate
  // it by round parity instead so neither batch position is favoured.
  if (num_cores % 2 == 0) return num_cores / 2;
  return round_index % 2 == 0 ? (num_cores + 1) / 2 : num_cores / 2;
}

RoundsReport ExecuteRoundsReport(sim::Machine* machine,
                                 const std::vector<BatchItem>& batch,
                                 const std::vector<Round>& rounds,
                                 const PolicyConfig& policy) {
  CATDB_CHECK(machine != nullptr);
  const uint32_t cores = machine->num_cores();
  CATDB_CHECK(cores >= 2);

  RoundsReport out;
  for (size_t round_index = 0; round_index < rounds.size(); ++round_index) {
    const Round& round = rounds[round_index];
    CATDB_CHECK(round.items.size() == 1 || round.items.size() == 2);
    std::vector<StreamSpec> specs;
    if (round.items.size() == 1) {
      const BatchItem& item = batch[round.items[0]];
      std::vector<uint32_t> all;
      for (uint32_t c = 0; c < cores; ++c) all.push_back(c);
      specs.push_back(StreamSpec{item.query, all, item.iterations});
    } else {
      const uint32_t first = RoundCoreSplit(cores, round_index);
      const std::array<std::pair<uint32_t, uint32_t>, 2> ranges = {
          std::pair<uint32_t, uint32_t>{0, first},
          std::pair<uint32_t, uint32_t>{first, cores}};
      uint32_t covered = 0;
      for (size_t k = 0; k < 2; ++k) {
        const BatchItem& item = batch[round.items[k]];
        std::vector<uint32_t> part;
        for (uint32_t c = ranges[k].first; c < ranges[k].second; ++c) {
          part.push_back(c);
        }
        CATDB_CHECK(!part.empty());
        covered += static_cast<uint32_t>(part.size());
        specs.push_back(StreamSpec{item.query, part, item.iterations});
      }
      // Every core is used exactly once per round.
      CATDB_CHECK(covered == cores);
    }
    // Run the round to completion (every stream reaches its iteration
    // budget) and add its duration to the makespan.
    machine->ResetForRun();
    machine->resctrl().Reset();
    JobScheduler scheduler(machine, policy);
    CATDB_CHECK(scheduler.SetupGroups().ok());
    sim::Executor executor(machine);
    std::vector<std::unique_ptr<QueryStream>> streams;
    for (const StreamSpec& spec : specs) {
      streams.push_back(std::make_unique<QueryStream>(
          spec.query, spec.cores, &scheduler, spec.max_iterations));
      for (uint32_t core : spec.cores) {
        executor.Attach(core, streams.back().get());
      }
    }
    const uint64_t duration = executor.RunUntilIdle();
    out.makespan_cycles += duration;
    out.round_cycles.push_back(duration);
    out.round_reports.push_back(
        CollectRunReport(machine, scheduler, streams, duration));
  }
  return out;
}

uint64_t ExecuteRounds(sim::Machine* machine,
                       const std::vector<BatchItem>& batch,
                       const std::vector<Round>& rounds,
                       const PolicyConfig& policy) {
  return ExecuteRoundsReport(machine, batch, rounds, policy).makespan_cycles;
}

}  // namespace catdb::engine
