//===- perfbench/src/Stats.h - Benchmark arithmetic -------------*- C++ -*-===//
///
/// \file
/// The few statistics the benchmark reports, kept in one place so the
/// self-test (selftest.cpp) checks exactly the code the benchmark runs:
///
///  * nearest-rank percentiles, reported only when at least ten samples
///    lie beyond the percentile (a p99 needs 1000 samples);
///  * medians and geometric means;
///  * the self time of a span: its duration minus the part of it that
///    its child spans cover.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Samples that lie strictly beyond the nearest-rank \p P percentile
/// (0 < P < 1) of \p N samples.
inline size_t samplesBeyond(size_t N, double P) {
  size_t Rank = static_cast<size_t>(std::ceil(P * static_cast<double>(N)));
  return Rank >= N ? 0 : N - Rank;
}

/// True when a \p P percentile of \p N samples has at least ten samples
/// beyond it, the rule for reporting a tail percentile.
inline bool percentileSupported(size_t N, double P) {
  return N > 0 && samplesBeyond(N, P) >= 10;
}

/// Nearest-rank \p P percentile of \p Sorted (ascending, non-empty).
inline double percentileSorted(const std::vector<double> &Sorted, double P) {
  size_t Rank = static_cast<size_t>(std::ceil(P * Sorted.size()));
  Rank = std::max<size_t>(Rank, 1);
  return Sorted[std::min(Rank, Sorted.size()) - 1];
}

inline double percentile(std::vector<double> V, double P) {
  std::sort(V.begin(), V.end());
  return V.empty() ? 0.0 : percentileSorted(V, P);
}

/// Middle value (mean of the two middle values for an even count).
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Geometric mean of positive values; 0 when any value is not positive.
inline double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V) {
    if (!(X > 0.0))
      return 0.0;
    LogSum += std::log(X);
  }
  return std::exp(LogSum / static_cast<double>(V.size()));
}

/// Length of [Start, End) covered by the union of \p Children, each
/// clipped to that interval.
inline int64_t coveredLength(int64_t Start, int64_t End,
                             std::vector<std::pair<int64_t, int64_t>> Children) {
  std::sort(Children.begin(), Children.end());
  int64_t Covered = 0;
  int64_t Cursor = Start;
  for (const auto &[S, E] : Children) {
    int64_t Lo = std::max(S, Cursor);
    int64_t Hi = std::min(E, End);
    if (Hi > Lo) {
      Covered += Hi - Lo;
      Cursor = Hi;
    }
  }
  return Covered;
}

/// Self time of a span [Start, End) whose children cover \p Children.
inline int64_t selfLength(int64_t Start, int64_t End,
                          std::vector<std::pair<int64_t, int64_t>> Children) {
  return (End - Start) - coveredLength(Start, End, std::move(Children));
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
