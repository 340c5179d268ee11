//===- perfbench/src/Host.cpp - Host facts recorded with results ----------===//

#include "Host.h"
#include "Stats.h"
#include "Trace.h"

#include <cmath>
#include <fstream>
#include <map>
#include <sched.h>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <vector>

using namespace perfbench;

namespace {

/// CPU quota in cores from the cgroup files, or 0 when unlimited/absent.
double cgroupQuotaCores() {
  {
    std::ifstream In("/sys/fs/cgroup/cpu.max");
    std::string Quota;
    double Period = 0.0;
    if (In >> Quota >> Period && Quota != "max" && Period > 0.0)
      return std::stod(Quota) / Period;
  }
  std::ifstream Q("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
  std::ifstream P("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
  double Quota = 0.0, Period = 0.0;
  if (Q >> Quota && P >> Period && Quota > 0.0 && Period > 0.0)
    return Quota / Period;
  return 0.0;
}

/// A dependent chain of floating-point operations the compiler cannot
/// fold; returns its result so the work stays observable.
double spinKernel(long Iters) {
  volatile double Seed = 1.0000001;
  double X = Seed, Acc = 0.0;
  for (long I = 0; I != Iters; ++I) {
    X = X * 1.0000001 + 1e-9;
    Acc += X;
  }
  return Acc;
}

double timeSpin(int Threads, long Iters) {
  std::vector<std::thread> Pool;
  std::vector<double> Sink(static_cast<size_t>(Threads));
  int64_t Start = nowNs();
  for (int T = 0; T != Threads; ++T)
    Pool.emplace_back(
        [&Sink, T, Iters] { Sink[static_cast<size_t>(T)] = spinKernel(Iters); });
  for (std::thread &Th : Pool)
    Th.join();
  return static_cast<double>(nowNs() - Start) * 1e-9;
}

} // namespace

int perfbench::effectiveCores() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  int Affinity = sched_getaffinity(0, sizeof(Set), &Set) == 0 ? CPU_COUNT(&Set)
                                                              : 1;
  double Quota = cgroupQuotaCores();
  int Cores = Affinity;
  if (Quota > 0.0)
    Cores = std::min(Cores, std::max(1, static_cast<int>(std::ceil(Quota))));
  return std::max(Cores, 1);
}

double perfbench::measuredParallelism(int Threads) {
  const long Iters = 20000000;
  std::vector<double> One, Many;
  for (int Rep = 0; Rep != 2; ++Rep) {
    One.push_back(timeSpin(1, Iters));
    Many.push_back(timeSpin(Threads, Iters));
  }
  return Threads * median(One) / median(Many);
}

double perfbench::cpuSeconds() {
  double Sum = 0.0;
  for (int Who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage U{};
    if (getrusage(Who, &U) == 0)
      Sum += static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
             static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec) *
                 1e-6;
  }
  return Sum;
}

void PaceLog::sample() {
  for (int Rep = 0; Rep != 3; ++Rep)
    sampleOnce();
}

void PaceLog::sampleOnce() {
  static std::vector<double> X(1 << 14), H(64), Y(1 << 14);
  static std::vector<uint32_t> Keys(1 << 13);
  static bool Init = [] {
    for (size_t I = 0; I != X.size(); ++I)
      X[I] = std::sin(0.001 * static_cast<double>(I));
    for (size_t I = 0; I != H.size(); ++I)
      H[I] = 1.0 / static_cast<double>(I + 1);
    return true;
  }();
  (void)Init;
  int64_t Start = nowNs();
  // Streamed multiply-adds, vectorizable like slin's emitted kernels.
  size_t N = X.size() - H.size();
  std::fill(Y.begin(), Y.end(), 0.0);
  for (size_t K = 0; K != H.size(); ++K)
    for (size_t I = 0; I != N; ++I)
      Y[I] += H[K] * X[I + K];
  // Branchy comparisons, like the tape interpreter's dispatch.
  uint32_t Seed = static_cast<uint32_t>(Y[N / 2] * 1e3) | 1u;
  for (uint32_t &K : Keys) {
    Seed ^= Seed << 13;
    Seed ^= Seed >> 17;
    Seed ^= Seed << 5;
    K = Seed;
  }
  std::sort(Keys.begin(), Keys.end());
  // Allocation and pointer chasing, like the compiler's graph passes.
  std::map<uint32_t, uint32_t> Tree;
  for (size_t I = 0; I < Keys.size(); I += 4)
    Tree.emplace(Keys[I] ^ 0x9e3779b9u, static_cast<uint32_t>(I));
  uint64_t Sum = 0;
  for (const auto &KV : Tree)
    Sum += KV.second;
  int64_t End = nowNs();
  Keys[0] = static_cast<uint32_t>(Sum);
  Samples.emplace_back((Start + End) / 2,
                       static_cast<double>(End - Start) * 1e-9);
}

double PaceLog::factor(int64_t StartNs, int64_t EndNs) const {
  if (Samples.empty())
    return 1.0;
  std::vector<double> Near;
  for (const auto &[At, Secs] : Samples)
    if (At >= StartNs - kWindowNs && At <= EndNs + kWindowNs)
      Near.push_back(Secs);
  if (Near.empty()) {
    // The closest sample on either side.
    const std::pair<int64_t, double> *Before = nullptr, *After = nullptr;
    for (const auto &S : Samples) {
      if (S.first < StartNs)
        Before = &S;
      else if (!After)
        After = &S;
    }
    if (Before)
      Near.push_back(Before->second);
    if (After)
      Near.push_back(After->second);
  }
  return kReferenceSeconds / median(Near);
}

double PaceLog::medianSeconds() const {
  std::vector<double> V;
  for (const auto &S : Samples)
    V.push_back(S.second);
  return median(V);
}
