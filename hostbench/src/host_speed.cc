#include "host_speed.h"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "timing.h"

namespace hostbench {

namespace {

constexpr uint32_t kSets = 2048;
constexpr uint32_t kWays = 20;
constexpr uint32_t kAccesses = 200'000;
constexpr uint32_t kPointLines = 1u << 17;  // 8 MiB of 64-byte lines
constexpr uint32_t kRunLines = 16;
constexpr size_t kMaxRunsPerSection = 1 << 14;

double ThreadCpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

void PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  CATDB_CHECK(sched_setaffinity(0, sizeof(set), &set) == 0);
}

}  // namespace

uint64_t RunProbe(ProbeModel* model) {
  model->tags.assign(kSets * kWays, ~0u);
  model->stamps.assign(kSets * kWays, 0);
  uint64_t x = 0x9E3779B97F4A7C15ull;  // xorshift64 state
  uint64_t hits = 0;
  uint32_t run_next = 0;
  uint32_t run_left = 0;
  for (uint32_t clock = 1; clock <= kAccesses; ++clock) {
    uint32_t line;
    if (run_left > 0) {
      line = run_next++;
      --run_left;
    } else {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      if ((x & 15) == 0) {  // about half the accesses are sequential runs
        run_next = static_cast<uint32_t>(x >> 40);
        run_left = kRunLines - 1;
        line = run_next++;
      } else {
        line = static_cast<uint32_t>(x >> 20) & (kPointLines - 1);
      }
    }
    uint32_t* tags = model->tags.data() + (line % kSets) * kWays;
    uint32_t* stamps = model->stamps.data() + (line % kSets) * kWays;
    uint32_t way = 0;
    while (way < kWays && tags[way] != line) ++way;
    if (way < kWays) {
      ++hits;
    } else {
      way = static_cast<uint32_t>(std::min_element(stamps, stamps + kWays) -
                                  stamps);
      tags[way] = line;
    }
    stamps[way] = clock;
  }
  return hits;
}

double RelativeSpeed(const std::vector<double>& probe_s) {
  CATDB_CHECK(!probe_s.empty());
  double sum = 0;
  for (double s : probe_s) sum += kProbeReferenceSeconds / s;
  return sum / static_cast<double>(probe_s.size());
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  CATDB_CHECK(sched_getaffinity(0, sizeof(set), &set) == 0);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

int PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  CATDB_CHECK(cpu >= 0);
  PinTo(cpu);
  return cpu;
}

HostSpeedSampler::HostSpeedSampler(const std::vector<int>& cpus)
    : lanes_(cpus.size()) {
  CATDB_CHECK(!cpus.empty());
  for (size_t i = 0; i < cpus.size(); ++i) {
    lanes_[i].cpu = cpus[i];
    RunProbe(&lanes_[i].model);  // allocate and fault in
    // A probe thread that allocates takes a malloc arena of its own, which
    // pushes the workload's next threads into fresh arenas and its peak
    // memory up, so the run times are recorded into reserved space.
    lanes_[i].run_s.reserve(kMaxRunsPerSection);
  }
}

HostSpeedSampler::~HostSpeedSampler() {
  if (!threads_.empty()) End();
}

void HostSpeedSampler::Probe(Lane* lane) {
  PinTo(lane->cpu);
  const double start = ThreadCpuNow();
  auto next = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    lock.unlock();
    const double c0 = ThreadCpuNow();
    RunProbe(&lane->model);
    lane->run_s.push_back(ThreadCpuNow() - c0);
    lock.lock();
    next += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(kProbePeriodSeconds));
    wake_.wait_until(lock, next, [this] { return stop_; });
  }
  lane->cpu_s = ThreadCpuNow() - start;
}

void HostSpeedSampler::Begin() {
  CATDB_CHECK(threads_.empty());
  stop_ = false;
  for (Lane& lane : lanes_) {
    lane.run_s.clear();
    threads_.emplace_back([this, &lane] { Probe(&lane); });
  }
}

HostSpeedSection HostSpeedSampler::End() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  HostSpeedSection s;
  std::vector<double> all;
  for (const Lane& lane : lanes_) {
    all.insert(all.end(), lane.run_s.begin(), lane.run_s.end());
    s.probe_cpu_s += lane.cpu_s;
  }
  s.speed = RelativeSpeed(all);
  s.cpus = lanes_.size();
  s.runs = all.size();
  return s;
}

}  // namespace hostbench
