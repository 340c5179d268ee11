//===- exec/CompiledExecutor.h - Batched compiled executor ------*- C++ -*-===//
///
/// \file
/// The compiled, batched steady-state execution engine — the runtime
/// counterpart of the paper's performance model, where linear replacement
/// collapses a pipeline into one matrix multiply whose cost is then
/// driven down by a tuned kernel (Sections 5.2-5.4). Where the dynamic
/// Executor re-discovers a schedule every sweep and tree-walks each work
/// function, this engine precomputes everything it can:
///
///  * the flattened graph's steady-state schedule (sched/Schedule.h)
///    becomes a fixed firing program — a short list of (node, count)
///    steps covering B steady-state iterations per batch;
///  * channels become flat ring buffers sized from the schedule's exact
///    high-water marks, compacted once per program run, so every peek
///    window and push cursor is a raw pointer;
///  * each work function is flattened once into an op tape
///    (wir/OpTape.h) executed by a tight dispatch loop;
///  * a linear node fired K times in a row executes one cache-blocked,
///    register-tiled K x e by e x u matrix multiply (matrix/Kernels.h
///    applyBatched) instead of K matrix-vector products.
///
/// Outputs are bit-identical to the dynamic Executor's: op tapes replay
/// the interpreter's evaluation order exactly, and batched kernels
/// replay the sequential kernels' per-firing accumulation order.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_EXEC_COMPILEDEXECUTOR_H
#define SLIN_EXEC_COMPILEDEXECUTOR_H

#include "codegen/NativeModule.h"
#include "compiler/Program.h"
#include "exec/ExecOptions.h"
#include "exec/FlatGraph.h"
#include "sched/Schedule.h"
#include "support/Error.h"
#include "support/FaultInjection.h"
#include "wir/OpTape.h"

namespace slin {

/// An executor *instance* over an immutable CompiledProgram artifact
/// (compiler/Program.h): the artifact holds the flat graph, the static
/// schedule and the compiled op tapes; this class holds only runtime
/// state (channel buffers, register frames, field stores, native filter
/// clones), so one program instantiates any number of independent
/// executors — the "compile once, serve many runs" split.
class CompiledExecutor {
public:
  /// Knobs live in exec/ExecOptions.h (shared with the unified
  /// ExecOptions struct); the alias keeps `CompiledExecutor::Options`.
  using Options = CompiledOptions;

  /// Convenience constructors compiling a fresh private program (not
  /// routed through the ProgramCache; see exec/Measure.h for the cached
  /// path).
  explicit CompiledExecutor(const Stream &Root)
      : CompiledExecutor(Root, Options()) {}
  CompiledExecutor(const Stream &Root, Options Opts);

  /// Instantiates runtime state over a shared artifact.
  explicit CompiledExecutor(CompiledProgramRef Program);

  /// Same, with a native module pre-attached (the Engine::Native serving
  /// path; null \p Native is the plain op-tape executor).
  CompiledExecutor(CompiledProgramRef Program, codegen::NativeModuleRef Native)
      : CompiledExecutor(std::move(Program)) {
    NativeMod = std::move(Native);
  }

  ~CompiledExecutor();

  CompiledExecutor(const CompiledExecutor &) = delete;
  CompiledExecutor &operator=(const CompiledExecutor &) = delete;

  /// Appends items to the graph's external input channel.
  void provideInput(const std::vector<double> &Items);

  /// Runs the init program (if not yet run) plus the fewest steady
  /// iterations whose outputs cover \p NOutputs: batch programs while a
  /// whole batch is still needed and the external input covers one,
  /// single steady iterations for the rest. The iterations still needed
  /// come from the root's pushes per iteration or, for a printing graph,
  /// from this executor's last steady program (no yield seen yet: one
  /// probe iteration). Every output of the iterations run is kept, so
  /// the count lands in [NOutputs, NOutputs + one iteration's worth),
  /// and the outputs are a prefix of any longer run's. Reports a fatal
  /// error when the graph deadlocks (insufficient input / invalid graph).
  void run(size_t NOutputs);

  /// Runs the init program (if not yet run) plus exactly \p Iters steady
  /// iterations, batch-granular where input allows. The iteration-driven
  /// counterpart of run() used by the parallel backend, whose shards and
  /// reference runs must execute identical firing sequences.
  void runIterations(int64_t Iters);

  /// Serving-path front doors behind run()/runIterations(): a deadlock
  /// (insufficient input, or a batch's worth of steady iterations with
  /// no observable output) comes back as ErrorCode::Deadlock instead of
  /// aborting, and an optional \p DL is polled between firing programs
  /// so a runaway (or injected-hang) run returns Timeout/Cancelled. On
  /// any non-Ok Status the executor's state is indeterminate mid-stream
  /// — recover by rerunning on a fresh executor, never by continuing
  /// this one.
  Status tryRun(size_t NOutputs,
                const faults::RunDeadline *DL = nullptr);
  Status tryRunIterations(int64_t Iters,
                          const faults::RunDeadline *DL = nullptr);

  /// Latency-mode tryRun: the same loop with the fused B-iteration batch
  /// program never chosen, so the first observable output lands after
  /// one iteration's work instead of a whole batch's. Runs the same
  /// iterations as tryRun and returns the same outputs, bit for bit;
  /// only the time-to-first-output changes. \p FirstOutputSeconds
  /// (optional) receives the wall-clock seconds from this call's entry
  /// to the first new observable output. The service daemon's latency
  /// serving mode.
  Status tryRunLatency(size_t NOutputs,
                       const faults::RunDeadline *DL = nullptr,
                       double *FirstOutputSeconds = nullptr);

  /// Places this (freshly instantiated) executor at the state boundary of
  /// steady iteration \p StartIteration without executing iterations
  /// 0..StartIteration-1: channels are filled to their post-init live
  /// counts with placeholder zeros, init firings are marked done, and
  /// closed-form filter state is seeded exactly per the program's
  /// ShardInfo. The caller must then replay shardInfo().WashoutIterations
  /// steady iterations (discarding their outputs) before the state — and
  /// everything after it — is bit-identical to a sequential run. Only
  /// valid on shardable programs.
  void seedSteadyState(int64_t StartIteration);

  /// seedSteadyState with the preconditions *checked*: a non-shardable
  /// program, a stale executor, or an out-of-range seed recipe (and the
  /// shard-seed-corrupt fault point) return ErrorCode::ShardAnomaly
  /// instead of asserting — the parallel backend's cue to fall back to
  /// its sequential path.
  Status trySeedSteadyState(int64_t StartIteration);

  /// Items on the external output channel (never consumed).
  std::vector<double> outputSnapshot() const { return ExtOut; }

  /// Values produced by print statements, in order.
  const std::vector<double> &printed() const { return Printed; }

  /// Count of observable outputs produced so far.
  size_t outputsProduced() const;

  /// Items on the external output channel (cheap; no snapshot copy).
  size_t externalOutputCount() const { return ExtOut.size(); }

  /// Total node firings so far (diagnostics).
  uint64_t firings() const { return Firings; }

  /// The static schedule driving this engine (for tests/diagnostics).
  const StaticSchedule &schedule() const { return Sched; }

  /// The shared artifact this instance runs.
  const CompiledProgram &program() const { return *Prog; }

  /// Attaches a dlopen'd native module (codegen/NativeModule.h): filters
  /// with an emitted entry point then run machine code instead of the
  /// op-tape dispatch loop (bit-identical by construction). Counting
  /// runs still take the tapes — emitted code does no accounting, and
  /// FLOP numbers must keep their interpreter meaning. Null detaches.
  void attachNativeModule(codegen::NativeModuleRef M) {
    NativeMod = std::move(M);
  }

  /// The attached native module (null when running pure op tapes).
  const codegen::NativeModuleRef &nativeModule() const { return NativeMod; }

private:
  /// A flat channel buffer; live items occupy [Head, Tail). Compacted
  /// (live items moved to the front) after every program run, so within
  /// one program positions never exceed the scheduled buffer size.
  struct ChannelBuf {
    std::vector<double> Buf;
    size_t Head = 0;
    size_t Tail = 0;
    size_t live() const { return Tail - Head; }
  };

  /// Per-filter *runtime* state; the op tapes themselves live in the
  /// shared CompiledProgram artifact.
  struct FilterState {
    const wir::OpProgram *Work = nullptr;
    const wir::OpProgram *InitWork = nullptr; ///< null when none
    wir::WorkFrame Frame;
    wir::FieldStore Fields;
    std::unique_ptr<NativeFilter> Native;
    bool FiredOnce = false;
  };

  class PtrTape;

  /// What the stepping loop drives toward: an observable-output count,
  /// or an exact number of steady iterations.
  enum class RunGoal { Outputs, Iterations };

  /// The one stepping loop behind tryRun, tryRunLatency and
  /// tryRunIterations: init if pending, then batch or single steady
  /// programs until \p Target is met, polling \p DL before each and
  /// reporting deadlocks. \p Batches false never picks a batch.
  Status step(RunGoal Goal, uint64_t Target, bool Batches,
              const faults::RunDeadline *DL, double *FirstOutputSeconds);
  uint64_t iterationsFor(uint64_t Deficit) const;

  size_t extInAvailable() const { return ExtIn.size() - ExtInPos; }
  const double *readBase(int Chan) const;
  void advanceRead(int Chan, size_t N);
  double *writePtr(int Chan, size_t N);
  void runProgram(const FiringProgram &Prog);
  void fireFilterStep(size_t NodeIdx, int64_t K);
  void fireSplitJoinStep(size_t NodeIdx, int64_t K);
  void compact();

  CompiledProgramRef Prog;
  codegen::NativeModuleRef NativeMod; ///< null: op-tape dispatch only
  const flat::FlatGraph &Graph; ///< = Prog->graph()
  const StaticSchedule &Sched;  ///< = Prog->schedule()
  std::vector<ChannelBuf> Channels; ///< indexed by channel; external unused
  std::vector<FilterState> States;  ///< indexed by node; filters only
  std::vector<double> ExtIn;
  size_t ExtInPos = 0;
  std::vector<double> ExtOut;
  std::vector<double> Printed;
  /// Reusable splitter/joiner cursor scratch (no steady-state allocation).
  std::vector<double *> WriteCursors;
  std::vector<const double *> ReadCursors;
  bool InitDone = false;
  uint64_t Firings = 0;
  /// Observable outputs of the last steady program run, and the steady
  /// iterations it covered: a printing graph's output rate.
  uint64_t LastYieldOutputs = 0;
  uint64_t LastYieldIterations = 0;
};

} // namespace slin

#endif // SLIN_EXEC_COMPILEDEXECUTOR_H
