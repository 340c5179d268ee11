//===- perfbench/src/selftest.cpp - Checks of the benchmark's arithmetic --===//
///
/// \file
/// A self-test of the arithmetic the benchmark reports with: percentile
/// selection and its ten-samples-beyond rule, medians, geometric means,
/// and span self time. Exits non-zero on the first wrong answer.
///
//===----------------------------------------------------------------------===//

#include "Stats.h"
#include "Trace.h"

#include <cmath>
#include <cstdio>
#include <vector>

using namespace perfbench;

namespace {

int Failures = 0;

void expect(bool Ok, const char *What) {
  if (!Ok) {
    std::fprintf(stderr, "perfbench_selftest: FAILED: %s\n", What);
    ++Failures;
  }
}

bool near(double A, double B) { return std::fabs(A - B) <= 1e-12 * (1 + std::fabs(B)); }

} // namespace

int main() {
  // Nearest rank: p50 of 1..100 is 50, p99 is 99, p100 is 100.
  std::vector<double> V;
  for (int I = 1; I <= 100; ++I)
    V.push_back(I);
  expect(percentileSorted(V, 0.50) == 50, "p50 of 1..100");
  expect(percentileSorted(V, 0.99) == 99, "p99 of 1..100");
  expect(percentileSorted(V, 1.0) == 100, "p100 of 1..100");
  expect(percentile({3, 1, 2}, 0.5) == 2, "percentile sorts its input");
  expect(percentileSorted({7}, 0.99) == 7, "percentile of one sample");

  // Ten samples beyond: p99 needs 1000 samples, p50 needs 20.
  expect(samplesBeyond(1000, 0.99) == 10, "samples beyond p99 of 1000");
  expect(percentileSupported(1000, 0.99), "p99 of 1000 is supported");
  expect(!percentileSupported(999, 0.99), "p99 of 999 is not supported");
  expect(percentileSupported(20, 0.50), "p50 of 20 is supported");
  expect(!percentileSupported(19, 0.50), "p50 of 19 is not supported");
  expect(!percentileSupported(0, 0.50), "no samples support nothing");

  expect(median({5, 1, 3}) == 3, "odd median");
  expect(median({4, 1, 3, 2}) == 2.5, "even median");

  expect(near(geomean({1, 100}), 10), "geomean of 1 and 100");
  expect(near(geomean({2, 8, 4}), 4), "geomean of 2, 4, 8");
  expect(geomean({1, 0}) == 0, "geomean with a zero is 0");
  expect(geomean({}) == 0, "geomean of nothing is 0");

  // Self time: [0,100) with children [10,30), [20,40) and [90,120)
  // covers 30 + 10 = 40, so self is 60.
  expect(selfLength(0, 100, {{10, 30}, {20, 40}, {90, 120}}) == 60,
         "self time with overlapping and overhanging children");
  expect(selfLength(0, 100, {}) == 100, "self time without children");
  expect(selfLength(0, 100, {{0, 100}, {50, 60}}) == 0,
         "self time of a fully covered span");

  // The tracer computes the same from recorded spans.
  Tracer T(true);
  int Root = T.record("root", 0, 100, -1);
  int Child = T.record("child", 10, 30, Root);
  T.record("grandchild", 20, 80, Child);
  T.record("other", 20, 40, Root);
  expect(T.selfNs(Root) == 70, "tracer self time of the root");
  expect(T.selfNs(Child) == 10, "tracer self time of a child");
  expect(near(T.coveredShare(Root, "phase."), 0.7),
         "covered share counts grandchildren");
  expect(near(T.totalSeconds("child"), 20e-9), "total seconds by name");

  if (Failures == 0)
    std::fprintf(stderr, "perfbench_selftest: all checks passed\n");
  return Failures ? 1 : 0;
}
