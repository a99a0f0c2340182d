#ifndef HOSTBENCH_HOST_SPEED_H_
#define HOSTBENCH_HOST_SPEED_H_

// How fast the host runs while a timed section runs, measured with a fixed
// reference workload, so that host time can be reported at a constant host
// speed.
//
// The host is a few cores of a shared machine. The speed of each of its CPUs
// drifts by up to a quarter, independently of the others, in episodes of
// seconds to minutes (neighbours on the same physical core), and a
// repetition of several seconds catches them unevenly, so no run length or
// median removes the drift. While a section is timed, one probe thread per
// CPU the workload uses, pinned to that CPU, runs the probe every
// kProbePeriodSeconds; the section's time, less the time the probes took
// from it, is scaled by the probes' speed relative to the reference.
//
// The probe is an LRU set-associative cache model with the simulated LLC's
// geometry (2048 sets x 20 ways), fed a seeded mix of random point reads and
// sequential line runs: the shape of the simulator's hot path, so a busy
// neighbour slows both alike. It is this benchmark's code, not catdb's, so a
// change to the simulator never moves it.

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace hostbench {

/// Seconds one probe run takes on the reference host (the 4-core Xeon the
/// benchmark was defined on) at its usual speed. Scaled times read as
/// seconds on that host.
inline constexpr double kProbeReferenceSeconds = 0.009;
inline constexpr double kProbePeriodSeconds = 0.25;

/// The reference cache model's state.
struct ProbeModel {
  std::vector<uint32_t> tags;
  std::vector<uint32_t> stamps;
};

/// Runs the reference cache model once from empty; returns its hit count,
/// which is the same on every call.
uint64_t RunProbe(ProbeModel* model);

/// Host speed relative to the reference host from probe run times: the
/// mean of reference / measured, so that, with the runs evenly spaced in
/// time, it is the mean speed over the section. A probe run is timed in its
/// thread's CPU time, which a workload thread sharing its CPU does not add
/// to but a slower host does.
double RelativeSpeed(const std::vector<double>& probe_s);

/// A section's time at the reference host speed: its measured time less the
/// time the probes took from it, times the host's relative speed.
inline double AtReferenceSpeed(double measured_s, double probe_s,
                               double speed) {
  return (measured_s - probe_s) * speed;
}

/// What the probes saw during one section.
struct HostSpeedSection {
  double speed = 1;        // relative to the reference host
  double probe_cpu_s = 0;  // CPU time of all probe threads
  size_t cpus = 0;         // one probe thread each
  size_t runs = 0;
};

/// The CPUs this process may run on.
std::vector<int> AllowedCpus();

/// Restricts the calling thread to the CPU it is running on; returns it.
int PinToCurrentCpu();

/// One probe thread per CPU, pinned to it, probing between Begin and End.
/// The models are allocated once, up front, so probing adds a constant to
/// the process's peak memory.
class HostSpeedSampler {
 public:
  explicit HostSpeedSampler(const std::vector<int>& cpus);
  ~HostSpeedSampler();
  HostSpeedSampler(const HostSpeedSampler&) = delete;
  HostSpeedSampler& operator=(const HostSpeedSampler&) = delete;

  /// Starts probing: every thread runs the probe at once, then once per
  /// kProbePeriodSeconds.
  void Begin();
  /// Stops probing and waits for the threads to end.
  HostSpeedSection End();

 private:
  struct Lane {
    int cpu = 0;
    ProbeModel model;
    std::vector<double> run_s;  // CPU time of each probe run
    double cpu_s = 0;           // of the whole thread
  };
  void Probe(Lane* lane);

  std::vector<Lane> lanes_;
  std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;  // guarded by mu_
  std::vector<std::thread> threads_;
};

}  // namespace hostbench

#endif  // HOSTBENCH_HOST_SPEED_H_
