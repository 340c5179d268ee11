//===- perfbench/src/Host.h - Host facts recorded with results --*- C++ -*-===//
///
/// \file
/// Facts about the machine a result was measured on, reported beside
/// every result and never gated: the number of cores the process may
/// really use, how far a CPU-bound kernel actually scales across them,
/// and the pace log, whose fixed calibration kernel is timed throughout
/// the run.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HOST_H
#define PERFBENCH_HOST_H

#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// CPUs in the scheduler affinity mask, capped by the cgroup CPU quota
/// (cgroup v2 cpu.max or v1 cfs_quota_us/cfs_period_us) when one is set.
int effectiveCores();

/// Measured parallelism: \p Threads concurrent copies of a fixed spin
/// kernel against one copy alone, as Threads * t(1) / t(Threads).
double measuredParallelism(int Threads);

/// CPU seconds (user + system) of this process and its waited-for
/// children, such as the native-code compiler.
double cpuSeconds();

/// The pace of the host right now, sampled through the run: a fixed
/// kernel shaped like slin's work (streamed multiply-adds like the emitted
/// kernels, a sort for branchy dispatch, a std::map for the compiler's
/// allocation and pointer chasing) is timed at many points. Work measured over an interval is scaled by
/// kReferenceSeconds / (the median kernel time sampled within four
/// seconds of it), which reports every time at one fixed host speed and
/// cancels the slow and fast stretches a shared host goes through.
class PaceLog {
public:
  /// The kernel's time on an idle run of the reference host.
  static constexpr double kReferenceSeconds = 0.0015;
  /// How far from a measured interval its pace samples may lie.
  static constexpr int64_t kWindowNs = 4000000000;

  /// Times the kernel three times and records the samples.
  void sample();

  /// kReferenceSeconds over the median sample taken within kWindowNs of
  /// [StartNs, EndNs] (the nearest samples when none is that close); 1
  /// when nothing has been sampled.
  double factor(int64_t StartNs, int64_t EndNs) const;

  /// Median of every sample, in seconds.
  double medianSeconds() const;

private:
  void sampleOnce();

  std::vector<std::pair<int64_t, double>> Samples; ///< (mid ns, seconds)
};

} // namespace perfbench

#endif // PERFBENCH_HOST_H
