//===- perfbench/src/Trace.h - In-memory span recorder ----------*- C++ -*-===//
///
/// \file
/// Spans recorded by the benchmark's own code around its calls into each
/// slin layer. Each span has a name, a start and end on the steady clock,
/// the span that caused it and, for service requests, a request id. Spans
/// stay in memory until the run ends, then writeJson() stores them with
/// their self times. A disabled tracer still times every scope (the
/// benchmark's metrics come from the same clock reads) but keeps nothing.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock.
inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string Name;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int Parent = -1;       ///< index of the causing span, -1 for a root
  int64_t Request = -1;  ///< service request id, -1 elsewhere
};

class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }
  /// Switches recording on or off; call before the first span.
  void setEnabled(bool E) { Enabled = E; }

  /// Records a finished span and returns its index (-1 when disabled).
  int record(std::string Name, int64_t StartNs, int64_t EndNs, int Parent,
             int64_t Request = -1);

  /// Opens a span ending at close(); returns its index (-1 when disabled).
  int open(std::string Name, int Parent, int64_t Request = -1);
  void close(int Id);

  /// A copy of every span recorded so far.
  std::vector<Span> spans() const;

  /// Sum of the durations of spans named \p Name, in seconds.
  double totalSeconds(const std::string &Name) const;

  /// Self time of span \p Id: duration minus the union of its children.
  int64_t selfNs(int Id) const;

  /// Share of span \p Id covered by the union of every span below it
  /// whose name does not start with \p ExcludePrefix.
  double coveredShare(int Id, const std::string &ExcludePrefix) const;

  /// Writes {"spans": [...]} with each span's self time to \p Path.
  bool writeJson(const std::string &Path, const std::string &Header) const;

private:
  bool Enabled;
  mutable std::mutex Mutex; ///< guards Spans
  std::vector<Span> Spans;
};

/// The span the calling thread is inside (for nesting ScopedSpans).
int &currentSpan();

/// Times one scope and records it as a child of the calling thread's
/// current span; nested ScopedSpans become its children.
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, std::string Name, int64_t Request = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  /// Seconds since the span opened.
  double elapsed() const;
  int id() const { return Id; }
  int64_t startNs() const { return StartNs; }

private:
  Tracer &T;
  int Id;
  int SavedParent;
  int64_t StartNs;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
