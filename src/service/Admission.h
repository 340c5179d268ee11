//===- service/Admission.h - Serving set and request admission --*- C++ -*-===//
///
/// \file
/// The service's brain: a serving set of warm CompiledPrograms (one
/// ExecutorPool per graph) and the admission/execution path every Run
/// request takes. Startup warms the set in two steps — a bulk
/// `ProgramCache::prefetchFrom` over every artifact the global store
/// holds (`ArtifactStore::listArtifacts`), then a pipeline compile per
/// serving-set graph that resolves through the warm cache (a restart
/// against a populated store is *zero* compile passes). Per request:
///
///  * **Admission**: unknown graphs are refused with Internal; a pool
///    whose queue depth reached the configured cap refuses with
///    Overloaded. Refusal is a reply, not a crash or a hang.
///  * **Engine selection + degradation**: Compiled runs the op tapes;
///    Native resolves the program's dlopen'd module once (lazily) and
///    degrades to Compiled — reported, not fatal — when codegen is
///    unavailable (the PR 6 ladder); Parallel runs the sharded backend
///    (which degrades internally to a sequential run on shard
///    anomalies); Dynamic is served as Compiled.
///  * **Deadline**: the request's DeadlineMillis (else the server
///    default, seeded from RuntimeConfig's SLIN_RUN_DEADLINE_MS) bounds
///    the run; expiry returns a Timeout *response* and frees the
///    worker.
///  * **Latency vs throughput**: both modes run the fewest steady
///    iterations whose outputs cover the request and return every
///    output of those iterations. Throughput requests run a fused batch
///    program while a whole batch is still needed; latency-mode requests
///    fire single steady iterations only, for a bounded
///    time-to-first-output. Same outputs, bit for bit, length included.
///
/// Counters for every step are published under the "service." prefix
/// of the unified StatsRegistry, alongside aggregated per-pool
/// ExecutorPool stats — the daemon's stats request is one snapshot()
/// call.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_SERVICE_ADMISSION_H
#define SLIN_SERVICE_ADMISSION_H

#include "compiler/Pipeline.h"
#include "exec/Parallel.h"
#include "service/Protocol.h"
#include "support/StatsRegistry.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace slin {
namespace service {

struct ServiceConfig {
  /// Serving-set graph names (apps registry); empty = every benchmark.
  std::vector<std::string> Graphs;
  /// Optimization mode the serving set is compiled with.
  OptMode Mode = OptMode::AutoSel;
  /// Worker threads per graph pool (0: the hardware default).
  int Workers = 0;
  /// Queued-request cap per graph; a deeper queue refuses (Overloaded).
  size_t MaxQueueDepth = 64;
  /// Bulk-load every stored artifact into the program cache at startup.
  bool Prefetch = true;
  /// Applied when a request carries no deadline (0: none).
  int64_t DefaultDeadlineMillis = 0;
  /// Applied when a request asks for 0 outputs.
  uint32_t DefaultOutputs = 256;
  /// Hard per-request output cap (memory bound; larger asks are
  /// clamped, not refused).
  uint32_t MaxOutputs = 1u << 20;
};

class Admission {
public:
  explicit Admission(ServiceConfig Cfg);
  ~Admission();

  Admission(const Admission &) = delete;
  Admission &operator=(const Admission &) = delete;

  /// Warms the serving set (prefetch + compile-or-load) and starts the
  /// pools. Non-Ok when a serving-set graph is unknown or fails even
  /// the Base-mode compile; individual degradations are recorded, not
  /// fatal.
  Status start();

  /// Admits and executes one Run request (blocking; called from
  /// session threads concurrently). Every failure mode is reported in
  /// the response's Status.
  RunResponse run(const RunRequest &R);

  /// Serving-set names, in configuration order.
  std::vector<std::string> graphs() const;

  /// Aggregate admission counters (also published as "service.*").
  struct Counters {
    uint64_t Requests = 0;
    uint64_t Served = 0;        ///< completed Ok
    uint64_t Rejected = 0;      ///< refused at admission (unknown/overload)
    uint64_t Timeouts = 0;      ///< Timeout/Cancelled results
    uint64_t Failures = 0;      ///< other non-Ok results
    uint64_t Degraded = 0;      ///< served on a lower rung than asked
    uint64_t PrefetchedArtifacts = 0; ///< store artifacts bulk-loaded
    uint64_t WarmStarts = 0;    ///< serving-set programs needing no passes
    uint64_t StartupCompiles = 0; ///< serving-set programs compiled cold
  };
  Counters counters() const;

private:
  struct Entry {
    std::string Name;
    CompiledProgramRef Prog;
    std::unique_ptr<ExecutorPool> Pool;
    /// Engine::Native module, resolved once on first use (null after a
    /// degradation; Reason records why).
    std::mutex NativeMutex;
    bool NativeResolved = false;
    codegen::NativeModuleRef Native;
    std::string NativeDegradeReason;
  };

  Entry *findEntry(const std::string &Name);

  ServiceConfig Cfg;
  std::vector<std::unique_ptr<Entry>> Entries;
  mutable std::mutex Mutex; ///< guards Counts
  Counters Counts;
  StatsRegistry::Registration StatsReg;
};

} // namespace service
} // namespace slin

#endif // SLIN_SERVICE_ADMISSION_H
