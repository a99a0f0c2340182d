#ifndef HOSTBENCH_TIMING_H_
#define HOSTBENCH_TIMING_H_

// Host clocks of the benchmark: wall time, process CPU time, peak memory and
// the tick counter the simulator's own host profiler uses.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "simcache/host_profile.h"

namespace hostbench {

/// Seconds on the steady clock.
inline double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds consumed so far by all threads of this process.
inline double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident set size of this process so far, in MiB.
inline double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

inline double Median(std::vector<double> v) {
  CATDB_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Converts simcache::HostTimerNow ticks to seconds. The tick rate is
/// measured against the steady clock between construction and the call, so
/// a calibration spanning a whole traced pass is accurate to well under 1 %.
class TickCalibration {
 public:
  TickCalibration()
      : wall0_(WallNow()), tick0_(catdb::simcache::HostTimerNow()) {}

  double TicksPerSecond() const {
    const double wall = WallNow() - wall0_;
    const double ticks =
        static_cast<double>(catdb::simcache::HostTimerNow() - tick0_);
    return wall > 0 && ticks > 0 ? ticks / wall : 1e9;
  }

 private:
  double wall0_;
  uint64_t tick0_;
};

}  // namespace hostbench

#endif  // HOSTBENCH_TIMING_H_
