//===- perfbench/src/main.cpp - The slin benchmark ------------------------===//
///
/// \file
/// One benchmark for the three paths a user takes through slin, driven
/// only through libslin's public API:
///
///   graph -> compiled program   (compiler, linear, opt, sched, codegen,
///                                verify, the artifact store)
///   program -> outputs          (exec, wir op tapes, matrix, fft, the
///                                emitted native code)
///   request bytes -> response   (service)
///
/// Every run walks the whole journey — cold compile, lint, warm restart,
/// Base compile, an in-process service under open-loop load and at
/// saturation, steady-state runs, more cold compiles — so every end-to-end
/// metric is measured on every workload. A workload decides how long the
/// steady state runs and what counts as set-up (see kWorkloads).
///
/// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
///
/// The last line of standard output is one JSON object: {"correct",
/// "attempted", "failed", "metrics"}. With --trace 0 the metrics are the
/// end-to-end metrics; with --trace 1 they are the per-layer metrics,
/// derived from spans recorded around each call into a layer and from
/// slin's public counters, and the spans are written to
/// .bench_build/traces/. Any wrong output makes the run exit 1.
///
//===----------------------------------------------------------------------===//

#include "Host.h"
#include "Stats.h"
#include "Trace.h"

#include "apps/Benchmarks.h"
#include "codegen/CxxBackend.h"
#include "codegen/NativeModule.h"
#include "compiler/AnalysisManager.h"
#include "compiler/ArtifactStore.h"
#include "compiler/Pipeline.h"
#include "compiler/StructuralHash.h"
#include "exec/CompiledExecutor.h"
#include "exec/Executor.h"
#include "exec/Parallel.h"
#include "linear/Analysis.h"
#include "service/Client.h"
#include "service/Server.h"
#include "support/OpCounters.h"
#include "support/StatsRegistry.h"
#include "verify/Lint.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sched.h>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <unistd.h>
#include <vector>

using namespace slin;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// How one workload spends a run. The benchmark's contract has every
/// workload report every end-to-end metric, so every workload runs every
/// phase; what differs is how much of the run the steady state gets, how
/// the service's requests are sized, and what counts as set-up. After the
/// first cold compile, the run alternates kSlices times between a slice of
/// the service load, a round of steady-state runs and (while any remain)
/// another cold compile round, so that each metric samples the whole run
/// rather than one stretch of it: on a shared host, interference comes in
/// episodes of seconds that would otherwise land on one phase only.
struct Workload {
  const char *Name;
  /// Total steady-state time, as a share of --seconds.
  double SteadyShare;
  /// Every request asks for exactly its graph's whole first batch
  /// (kWholeBatch), so no request computes outputs it does not return.
  /// Otherwise requests are short (kRequestSizes) and most of what a
  /// fresh executor computes for them is thrown away.
  bool WholeBatches;
  /// The set-up time is the warm server start (the median of three)
  /// rather than the first cold compile.
  bool WarmSetup;
};

const Workload kWorkloads[] = {
    // paper-steady: the paper's own measurement gets most of the run. All
    // nine apps run warm and single-threaded for a fixed per-app output
    // count, in AutoSel on native code, AutoSel on the op tapes and Base
    // on native code. Long runs amortise init and batch granularity, so
    // exec/codegen kernel speed dominates. Its service requests are
    // whole batches, so a change to request sizing should not move it.
    // Its set-up time is the first cold compile (AutoSel and Base, with
    // native builds).
    {"paper-steady", 0.8, true, false},
    // service-mixed: a shorter steady state, and short requests that pay
    // executor construction, init and one whole fused batch each, so a
    // request-sizing change shows here. Its set-up time is the warm server
    // start from the artifact store, which the compiler does not touch.
    {"service-mixed", 0.5, false, true},
};
const int kSlices = 4;
/// Cold compile rounds (compile times are the median round per app).
const int kCompileRounds = 3;
/// Requests at the reference rate, spread over the slices: at least 1000,
/// so the per-layer p99 has ten samples beyond it, and whole mix blocks
/// per slice (see schedule()).
const int kRefRequests = 1536;
/// Requests per saturation step, two per slice, sent back to back over
/// every connection to measure the service's capacity: two mix blocks.
const int kSaturationRequests = 128;

/// The service's traffic. Only part of it has a source in the repository:
/// 128 outputs and the throughput/latency modes come from bench_service,
/// and kWholeBatch is what a fresh executor computes on its first run
/// (the output_yield of a 128-output request shows it).
/// The rest is a synthetic assumption, not measured traffic: the serving
/// set, the 1024-output size, the even size and engine splits, the
/// uniform choice of graph, the 25% latency-mode share and the 100 req/s
/// reference rate (bench_service offers 60 req/s, "well under
/// saturation"; 100 is about half of what one CPU serves here). Later
/// changes should not tune to them as if they were measured.
const char *const kServingSet[] = {"FIR", "FilterBank", "TargetDetect",
                                   "Radar"};
const uint32_t kRequestSizes[] = {128, 1024};
const uint32_t kWholeBatch[] = {4096, 34752, 46336, 128};
const double kReferenceRate = 100.0;
/// One request in kLatencyEvery is in latency mode.
const int kLatencyEvery = 4;
const int64_t kRequestDeadlineMs = 5000;

/// Outputs compared against the reference interpreter, per app.
const size_t kCheckOutputs = 512;

/// Per-app constants. NominalNs (AutoSel native, AutoSel tapes, Base
/// native) only sizes the fixed steady-state output counts; both sides
/// of a comparison run the same counts. CountWindow is the fixed window
/// the exact counts (FLOPs, firings) are taken over.
struct AppConst {
  const char *Name;
  double NominalNs[3];
  size_t CountWindow;
};
const AppConst kApps[] = {
    {"FIR", {190, 233, 460}, 2048},
    {"RateConvert", {325, 378, 1634}, 2048},
    {"TargetDetect", {106, 154, 564}, 4096},
    {"FMRadio", {196, 847, 1567}, 1536},
    {"Radar", {3262, 22062, 4470}, 1024},
    {"FilterBank", {234, 351, 2288}, 2048},
    {"Vocoder", {5908, 26578, 17321}, 256},
    {"Oversampler", {93, 98, 228}, 4096},
    {"DToA", {368, 452, 839}, 3072},
};
const char *const kConfigs[] = {"autosel-native", "autosel-tape",
                                "base-native"};

//===----------------------------------------------------------------------===//
// Run state
//===----------------------------------------------------------------------===//

struct AppState {
  std::string Name;
  const AppConst *Const = nullptr;
  StreamPtr Graph;                ///< the program as written
  std::vector<double> Reference;  ///< dynamic interpreter, unoptimised
  CompiledProgramRef Auto;        ///< AutoSel, native-engine compile
  codegen::NativeModuleRef AutoNative;
  HashDigest AutoStructure, AutoOptions;
  std::vector<double> AutoFresh;  ///< freshly compiled native outputs
  CompiledProgramRef Base;
  codegen::NativeModuleRef BaseNative;
};

struct Metric {
  double Value;
  std::string Unit;
};

/// A time (or time per output) and the interval it was measured over.
struct Timed {
  double Value;
  int64_t StartNs, EndNs;
};

/// Times measured repeatedly, by key. A key's figure is the median of its
/// samples, each first scaled to the reference host speed when a pace log
/// is given. Over ten runs this read steadier than the fastest sample: the
/// fastest is often one that the pace log scaled wrongly.
struct TimedSet {
  std::map<std::string, std::vector<Timed>> Items;
  void add(const std::string &Key, double V, int64_t StartNs, int64_t EndNs) {
    Items[Key].push_back({V, StartNs, EndNs});
  }
  double typical(const std::string &Key, const PaceLog *P) const {
    auto It = Items.find(Key);
    if (It == Items.end())
      return 0;
    std::vector<double> V;
    for (const Timed &T : It->second)
      V.push_back(T.Value * (P ? P->factor(T.StartNs, T.EndNs) : 1));
    return median(V);
  }
  /// Sum of typical() over every key starting with \p Prefix.
  double sum(const std::string &Prefix, const PaceLog *P) const {
    double S = 0;
    for (const auto &KV : Items)
      if (KV.first.compare(0, Prefix.size(), Prefix) == 0)
        S += typical(KV.first, P);
    return S;
  }
};

struct Run {
  const Workload *W = nullptr;
  uint64_t Seed = 1;
  double Seconds = 10;
  Tracer T{false};
  std::string RunDir;  ///< relative to the checkout root
  std::string StoreDir; ///< the store the latest compile round filled
  std::vector<AppState> Apps;
  std::map<std::string, Metric> E2E, Layer;
  uint64_t Attempted = 0, Failed = 0, Mismatches = 0;
  /// Every repeated time: per app over the compile rounds
  /// ("compile/<app>", "native/<app>", "pass/<pass>/<app>",
  /// "lint/<pass>/<app>"), per configuration over the steady rounds
  /// ("steady/<app>.<config>", ns per output), the set-up parts
  /// ("setup/compile/<app>", "setup/base/<app>"), traced runs' native
  /// build split ("emit/<app>", "cc/<app>"), seconds per request with the
  /// service saturated ("capacity"), and "warm", "store-load" and "start".
  TimedSet Times;
  PaceLog Pace;
  double LoadFailures = 0;
  double SourceBytes = 0; ///< emitted source of the first round (traced)

  void attempt(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      std::fprintf(stderr, "perfbench: FAILED: %s\n", What.c_str());
    }
  }
  void check(bool Same, const std::string &What) {
    ++Attempted;
    if (!Same) {
      ++Failed;
      ++Mismatches;
      std::fprintf(stderr, "perfbench: WRONG OUTPUT: %s\n", What.c_str());
    }
  }
  void layer(const std::string &N, double V, const char *U) {
    Layer[N] = {V, U};
  }
};

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

/// Deterministic generator for the seeded inputs (splitmix64), so the
/// same seed gives the same schedule on every standard library.
struct Rng {
  uint64_t S;
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

/// Observable outputs the way slin's own collectOutputs reports them:
/// printed values for void->void graphs, external channel items otherwise.
template <class ExecT> std::vector<double> observed(const ExecT &E) {
  return E.printed().empty() ? E.outputSnapshot() : E.printed();
}

std::vector<double> prefix(std::vector<double> V, size_t N) {
  if (V.size() > N)
    V.resize(N);
  return V;
}

bool bitEqual(const std::vector<double> &A, const std::vector<double> &B) {
  return A.size() == B.size() &&
         (A.empty() ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0);
}

/// Within the absolute tolerance slin's equivalence tests use.
bool nearEqual(const std::vector<double> &Got, const std::vector<double> &Ref,
               double Tol) {
  if (Got.size() < Ref.size())
    return false;
  for (size_t I = 0; I != Ref.size(); ++I)
    if (!(std::fabs(Got[I] - Ref[I]) <= Tol))
      return false;
  return true;
}

std::vector<double> runCompiled(const CompiledProgramRef &P,
                                const codegen::NativeModuleRef &M, size_t N) {
  CompiledExecutor E(P, M);
  E.run(N);
  return prefix(observed(E), N);
}

double passSeconds(const CompileResult &R, const std::string &Name) {
  double S = 0.0;
  for (const PassInfo &P : R.Passes)
    if (P.Name == Name)
      S += P.Seconds;
  return S;
}

uint64_t counter(const StatsRegistry::Counters &C, const std::string &Name) {
  for (const auto &[N, V] : C)
    if (N == Name)
      return V;
  return 0;
}

/// Cold caches: the next compile runs every pass and every native build.
void dropCaches() {
  ProgramCache::global().clear();
  codegen::NativeModuleCache::global().clear();
}

//===----------------------------------------------------------------------===//
// Set-up: graphs, reference outputs
//===----------------------------------------------------------------------===//

std::vector<AppState> buildApps() {
  std::vector<AppState> Apps;
  for (const AppConst &C : kApps) {
    for (const apps::BenchmarkEntry &B : apps::allBenchmarks())
      if (B.Name == C.Name) {
        AppState A;
        A.Name = C.Name;
        A.Const = &C;
        A.Graph = B.Build();
        Apps.push_back(std::move(A));
      }
  }
  return Apps;
}

/// The reference every engine is checked against: slin's dynamic tree
/// interpreter on the unoptimised graph, never an engine under test.
void computeReferences(Run &R) {
  ScopedSpan Phase(R.T, "phase.reference");
  for (AppState &A : R.Apps) {
    ScopedSpan S(R.T, "exec.reference/" + A.Name);
    Executor E(*A.Graph);
    E.run(kCheckOutputs);
    A.Reference = prefix(observed(E), kCheckOutputs);
    R.attempt(A.Reference.size() == kCheckOutputs,
              "reference run of " + A.Name);
  }
}

//===----------------------------------------------------------------------===//
// Cold compile, lint, warm restart
//===----------------------------------------------------------------------===//

const char *const kPassNames[] = {"linear-analysis", "selection",
                                  "linear-const-fold", "dead-channel-elim",
                                  "flatten", "schedule", "tape-compile",
                                  "native-codegen"};

/// Trace-run extras that time layer functions the pipeline calls
/// internally, by calling them directly once more: the linear analysis
/// (AutoSel's selection runs its own, so the pass list has none) and an
/// artifact publish.
void traceCompileExtras(Run &R) {
  ScopedSpan Phase(R.T, "phase.compile-extras");
  AnalysisManager PassThrough;
  PassThrough.setEnabled(false);
  std::string Scratch = R.RunDir + "/publish";
  fs::create_directories(Scratch);
  ArtifactStore Store(fs::absolute(Scratch).string());
  double PublishFailures = 0;
  for (AppState &A : R.Apps) {
    if (!A.Auto)
      continue;
    {
      ScopedSpan S(R.T, "compiler.linear-analysis");
      LinearAnalysis::Options LO;
      LO.AM = &PassThrough;
      LinearAnalysis LA(*A.Graph, LO);
      R.Times.add("pass/linear-analysis/" + A.Name, S.elapsed(), S.startNs(),
                  nowNs());
    }
    {
      ScopedSpan S(R.T, "store.publish");
      Status St = Store.tryStore({A.AutoStructure, A.AutoOptions}, *A.Auto);
      PublishFailures += St.isOk() ? 0 : 1;
    }
  }
  uint64_t ArtifactBytes = 0;
  for (const fs::directory_entry &E : fs::directory_iterator(Scratch))
    if (E.is_regular_file())
      ArtifactBytes += E.file_size();
  R.layer("store.artifact_bytes", static_cast<double>(ArtifactBytes), "bytes");
  R.layer("store.publish_failures",
          PublishFailures + static_cast<double>(Store.stats().PublishFailures),
          "count");
}

/// Analysis-cache outcomes of one cold round.
struct AnalysisCounts {
  uint64_t ExtractionHits = 0, ExtractionMisses = 0;
  uint64_t CombineHits = 0, CombineMisses = 0;
};

/// One cold compile of the nine apps (AutoSel, native engine) into a
/// fresh store directory, with empty analysis, program and native caches,
/// then three lints of every program.
void compileRound(Run &R, int Round, AnalysisCounts &AC) {
  ScopedSpan Phase(R.T, "phase.compile");
  R.StoreDir =
      fs::absolute(R.RunDir + "/store" + std::to_string(Round)).string();
  fs::create_directories(R.StoreDir);
  ArtifactStore::setGlobalDir(R.StoreDir);
  for (AppState &A : R.Apps)
    A.AutoNative.reset();
  dropCaches();
  AnalysisManager::global().invalidate();
  AnalysisManager::Stats AM0 = AnalysisManager::global().stats();

  for (AppState &A : R.Apps) {
    PipelineOptions O;
    O.Mode = OptMode::AutoSel;
    O.Exec.Eng = Engine::Native;
    double Wall = 0;
    int64_t T0 = 0;
    R.Pace.sample();
    Expected<CompileResult> ER = [&]() -> Expected<CompileResult> {
      ScopedSpan S(R.T, "compiler.compile/" + A.Name);
      Expected<CompileResult> Res = CompilerPipeline(O).tryCompile(*A.Graph);
      Wall = S.elapsed();
      T0 = S.startNs();
      // native-codegen is the pipeline's last pass; record it as the
      // compile span's child ending now.
      if (Res.hasValue()) {
        int64_t End = nowNs();
        R.T.record("codegen.build",
                   End - static_cast<int64_t>(
                             passSeconds(*Res, "native-codegen") * 1e9),
                   End, S.id());
      }
      return Res;
    }();
    bool Ok = ER.hasValue() && ER->Program && !ER->Degraded;
    R.attempt(Ok, "AutoSel native compile of " + A.Name + ": " +
                      (ER.hasValue() ? ER->DegradeReason
                                     : ER.status().message()));
    if (!Ok)
      continue;
    CompileResult Res = ER.take();
    double Native = passSeconds(Res, "native-codegen");
    int64_t T1 = T0 + static_cast<int64_t>(Wall * 1e9);
    R.Times.add("compile/" + A.Name, Wall - Native, T0, T1);
    R.Times.add("native/" + A.Name, Native, T0, T1);
    if (R.T.enabled()) {
      // The pass's source emission, timed again in this round so that the
      // rest of the build (cc, dlopen, publish) is this round's figure.
      std::string Src;
      ScopedSpan S(R.T, "codegen.emit");
      codegen::emitProgramSource(*Res.Program, Src);
      double Emit = S.elapsed();
      R.Times.add("emit/" + A.Name, Emit, S.startNs(), nowNs());
      R.Times.add("cc/" + A.Name, Native - Emit, T0, T1);
      if (Round == 0)
        R.SourceBytes += static_cast<double>(Src.size());
    }
    if (Round == 0)
      R.Times.add("setup/compile/" + A.Name, Wall, T0, T1);
    for (const char *P : kPassNames)
      if (std::strcmp(P, "linear-analysis") != 0)
        R.Times.add(std::string("pass/") + P + "/" + A.Name,
                    passSeconds(Res, P), T0, T1);
    A.Auto = Res.Program;
    A.AutoStructure = structuralHash(A.Auto->root());
    A.AutoOptions = hashOptions(A.Auto->options());
    A.AutoNative = codegen::NativeModuleCache::global().get(*A.Auto);
  }
  R.Pace.sample();
  AnalysisManager::Stats AM1 = AnalysisManager::global().stats();
  AC.ExtractionHits = AM1.ExtractionHits - AM0.ExtractionHits;
  AC.ExtractionMisses = AM1.ExtractionMisses - AM0.ExtractionMisses;
  AC.CombineHits = AM1.CombineHits - AM0.CombineHits;
  AC.CombineMisses = AM1.CombineMisses - AM0.CombineMisses;

  // Lint every program three times: the three verify analyses, timed
  // one by one.
  struct LintPass {
    const char *Name;
    std::string (*Fn)(const CompiledProgram &, verify::LintReport &);
  };
  const LintPass Passes[] = {{"linear", verify::verifyLinear},
                             {"bounds", verify::verifyBounds},
                             {"state", verify::verifyState}};
  for (int Rep = 0; Rep != 3; ++Rep)
    for (AppState &A : R.Apps) {
      if (!A.Auto)
        continue;
      verify::LintReport Report;
      for (const LintPass &P : Passes) {
        ScopedSpan S(R.T, std::string("verify.") + P.Name);
        std::string Err = P.Fn(*A.Auto, Report);
        R.Times.add(std::string("lint/") + P.Name + "/" + A.Name, S.elapsed(),
                    S.startNs(), nowNs());
        R.attempt(Err.empty(), std::string("verify-") + P.Name + " of " +
                                   A.Name + ": " + Err);
      }
    }
  R.Pace.sample();
}

/// Checks run once per run on freshly compiled programs: native equals
/// the op tapes bit for bit, and both match the reference interpreter.
void checkFresh(Run &R, bool BaseMode) {
  ScopedSpan Phase(R.T, "phase.check");
  for (AppState &A : R.Apps) {
    const CompiledProgramRef &P = BaseMode ? A.Base : A.Auto;
    const codegen::NativeModuleRef &M = BaseMode ? A.BaseNative : A.AutoNative;
    if (!P)
      continue;
    ScopedSpan S(R.T, "exec.check/" + A.Name);
    std::vector<double> Native = runCompiled(P, M, kCheckOutputs);
    std::vector<double> Tape = runCompiled(P, nullptr, kCheckOutputs);
    const char *Mode = BaseMode ? "Base" : "AutoSel";
    R.check(bitEqual(Native, Tape),
            std::string(Mode) + " native vs op tapes on " + A.Name);
    R.check(nearEqual(Native, A.Reference, BaseMode ? 1e-8 : 1e-5),
            std::string(Mode) + " vs reference interpreter on " + A.Name);
    if (!BaseMode)
      A.AutoFresh = std::move(Native);
  }
}

/// Restarts warm from the store: fresh program and native caches, every
/// program prefetched from disk, every native object loaded, and an
/// executor constructed over each.
void warmRestart(Run &R, bool Check) {
  for (AppState &A : R.Apps)
    A.AutoNative.reset();
  dropCaches();
  R.Pace.sample();
  ScopedSpan Total(R.T, "phase.warm-start");
  {
    ScopedSpan S(R.T, "store.load");
    ArtifactStore Store(R.StoreDir);
    size_t Loaded = ProgramCache::global().prefetchFrom(Store);
    R.LoadFailures += static_cast<double>(Store.stats().LoadFailures);
    R.attempt(Loaded >= R.Apps.size(), "prefetch from the artifact store");
    R.Times.add("store-load", S.elapsed(), S.startNs(), nowNs());
  }
  for (AppState &A : R.Apps) {
    CompiledProgramRef P =
        ProgramCache::global().lookup(A.AutoStructure, A.AutoOptions);
    R.attempt(P != nullptr, "warm lookup of " + A.Name);
    if (!P)
      continue;
    codegen::NativeModuleRef M;
    {
      ScopedSpan S(R.T, "codegen.load");
      M = codegen::NativeModuleCache::global().get(*P);
    }
    R.attempt(M != nullptr, "warm native load of " + A.Name);
    {
      ScopedSpan S(R.T, "exec.construct");
      CompiledExecutor E(P, M);
    }
    A.Auto = P;
    A.AutoNative = M;
  }
  R.Times.add("warm", Total.elapsed(), Total.startNs(), nowNs());
  R.Pace.sample();
  if (Check)
    for (AppState &A : R.Apps)
      if (A.Auto && !A.AutoFresh.empty())
        R.check(bitEqual(runCompiled(A.Auto, A.AutoNative, kCheckOutputs),
                         A.AutoFresh),
                "warm-loaded vs freshly compiled " + A.Name);
}

/// A cold compile round followed by four warm restarts from its store.
void compileAndRestart(Run &R, int Round, AnalysisCounts &AC) {
  compileRound(R, Round, AC);
  if (Round == 0)
    checkFresh(R, /*BaseMode=*/false);
  if (Round == 0 && R.T.enabled())
    traceCompileExtras(R);
  for (int W = 0; W != 4; ++W)
    warmRestart(R, /*Check=*/Round == 0 && W == 1);
}

void compileBase(Run &R) {
  ScopedSpan Phase(R.T, "phase.compile-base");
  for (AppState &A : R.Apps) {
    PipelineOptions O;
    O.Mode = OptMode::Base;
    O.Exec.Eng = Engine::Native;
    R.Pace.sample();
    ScopedSpan S(R.T, "compiler.compile-base/" + A.Name);
    Expected<CompileResult> ER = CompilerPipeline(O).tryCompile(*A.Graph);
    bool Ok = ER.hasValue() && ER->Program && !ER->Degraded;
    R.attempt(Ok, "Base native compile of " + A.Name);
    if (Ok) {
      A.Base = ER->Program;
      A.BaseNative = codegen::NativeModuleCache::global().get(*A.Base);
    }
    R.Times.add("setup/base/" + A.Name, S.elapsed(), S.startNs(), nowNs());
  }
  R.Pace.sample();
}

//===----------------------------------------------------------------------===//
// Steady state and exact counts
//===----------------------------------------------------------------------===//

/// Records the ns per output of five fixed-count chunks, after init and
/// the first batch, as "steady/<Label>" samples. A chunk that a batch
/// overshoot already covered merges into the next.
void steadyChunks(Run &R, const CompiledProgramRef &P,
                  const codegen::NativeModuleRef &M, size_t Count,
                  const std::string &Label) {
  ScopedSpan S(R.T, "exec.steady/" + Label);
  CompiledExecutor E(P, M);
  ops::CountingScope NoCount(false);
  E.run(1); // init and the first batch
  const int Chunks = 5;
  size_t Chunk = std::max<size_t>(1, Count / Chunks);
  int64_t PendingNs = 0, PendingStart = nowNs();
  size_t PendingOut = 0;
  for (int C = 0; C != Chunks; ++C) {
    size_t Before = E.outputsProduced();
    int64_t T0 = nowNs();
    E.run(Before + Chunk);
    int64_t T1 = nowNs();
    PendingNs += T1 - T0;
    PendingOut += E.outputsProduced() - Before;
    if (E.outputsProduced() > Before) {
      R.Times.add("steady/" + Label,
                  static_cast<double>(PendingNs) /
                      static_cast<double>(PendingOut),
                  PendingStart, T1);
      PendingNs = 0;
      PendingOut = 0;
      PendingStart = T1;
    }
  }
}

/// Firings and outputs over the app's fixed count window after a warm-up
/// of half that window; with \p Flops set, the op counters are on.
struct Counts {
  double FiringsPerOutput = 0, FlopsPerOutput = 0;
};
Counts countWindow(Run &R, const CompiledProgramRef &P,
                   const codegen::NativeModuleRef &M, size_t Window,
                   bool Flops, const std::string &Label) {
  ScopedSpan S(R.T, "exec.count/" + Label);
  CompiledExecutor E(P, M);
  ops::CountingScope Scope(Flops);
  ops::reset();
  E.run(Window / 2);
  OpCounts Ops0 = ops::counts();
  uint64_t F0 = E.firings();
  size_t O0 = E.outputsProduced();
  E.run(O0 + Window);
  double Outs = static_cast<double>(E.outputsProduced() - O0);
  Counts C;
  C.FiringsPerOutput = static_cast<double>(E.firings() - F0) / Outs;
  C.FlopsPerOutput =
      static_cast<double>((ops::counts() - Ops0).flops()) / Outs;
  return C;
}

/// One round over every (app, configuration); round 0 also takes the
/// exact counts.
void steadyRound(Run &R, int Round) {
  ScopedSpan Phase(R.T, "phase.steady");
  double PerConfigS =
      R.Seconds * R.W->SteadyShare / (std::size(kApps) * 3 * kSlices);
  for (AppState &A : R.Apps) {
    if (!A.Auto || !A.Base)
      continue;
    R.Pace.sample();
    const CompiledProgramRef *Progs[3] = {&A.Auto, &A.Auto, &A.Base};
    const codegen::NativeModuleRef Mods[3] = {A.AutoNative, nullptr,
                                              A.BaseNative};
    for (int C = 0; C != 3; ++C) {
      std::string Label = A.Name + "." + kConfigs[C];
      size_t Count = static_cast<size_t>(
          std::max(1.0, PerConfigS * 1e9 / A.Const->NominalNs[C]));
      steadyChunks(R, *Progs[C], Mods[C], Count, Label);
      if (Round != 0)
        continue;
      Counts K = countWindow(R, *Progs[C], Mods[C], A.Const->CountWindow,
                             /*Flops=*/C == 1, Label);
      R.layer("exec." + Label + ".firings_per_output", K.FiringsPerOutput,
              "count");
      if (C == 1)
        R.layer("exec." + A.Name + ".flops_per_output", K.FlopsPerOutput,
                "FLOP");
    }
  }
  R.Pace.sample();
}

/// ParallelExecutor at min(effective cores, 4) workers against one
/// worker, on FIR and FilterBank (trace runs only; gates nothing).
void parallelPhase(Run &R, int Workers) {
  ScopedSpan Phase(R.T, "phase.parallel");
  double Fallbacks = 0;
  for (AppState &A : R.Apps) {
    if (A.Name != "FIR" && A.Name != "FilterBank")
      continue;
    const size_t N = 1 << 20;
    double Secs[2];
    for (int I = 0; I != 2; ++I) {
      ParallelOptions PO;
      PO.Workers = I == 0 ? 1 : Workers;
      ScopedSpan S(R.T, "exec.parallel/" + A.Name);
      ParallelExecutor E(A.Auto, PO);
      E.run(N);
      Secs[I] = S.elapsed();
      Fallbacks += E.lastRunStats().Sequential ? 1 : 0;
    }
    R.layer("exec.parallel." + A.Name + ".speedup", Secs[0] / Secs[1], "x");
  }
  R.layer("exec.parallel.fallbacks", Fallbacks, "count");
}

//===----------------------------------------------------------------------===//
// The service under open-loop load
//===----------------------------------------------------------------------===//

struct Request {
  double DueS = 0;
  int Graph = 0;
  uint32_t NOutputs = 0;
  bool Latency = false;
  Engine Eng = Engine::Compiled;
};

struct Outcome {
  int64_t DueNs = 0, SentNs = 0, GotNs = 0;
  double RunMs = 0, FirstMs = 0;
  bool Ok = false;
};

/// The arrival schedule and request mix for one offered rate, computed
/// in advance from the seed. The mix comes in blocks that each hold every
/// (graph, size, engine) once per mode slot, one slot in kLatencyEvery in
/// latency mode; the seed shuffles each block. So every block, and every
/// slice of whole blocks, asks for the same work whatever the seed, and a
/// seed changes only the order. Request I is due at a uniformly jittered
/// point of its 1/Rate slot, so the offered rate is exact while arrivals
/// stay irregular. With \p WholeBatches, every size is the graph's whole
/// batch.
std::vector<Request> schedule(uint64_t Seed, int Step, double Rate, int N,
                              bool WholeBatches) {
  std::vector<Request> Block;
  for (int Graph = 0; Graph != static_cast<int>(std::size(kServingSet));
       ++Graph)
    for (uint32_t Size : kRequestSizes)
      for (Engine Eng : {Engine::Compiled, Engine::Native})
        for (int Slot = 0; Slot != kLatencyEvery; ++Slot) {
          Request Q;
          Q.Graph = Graph;
          Q.NOutputs = WholeBatches ? kWholeBatch[Graph] : Size;
          Q.Eng = Eng;
          Q.Latency = Slot == 0;
          Block.push_back(Q);
        }
  Rng G{Seed * 1000003ULL + static_cast<uint64_t>(Step)};
  std::vector<Request> Reqs(static_cast<size_t>(N));
  for (size_t I = 0; I != Reqs.size(); ++I) {
    size_t J = I % Block.size();
    if (J == 0)
      for (size_t K = Block.size() - 1; K > 0; --K)
        std::swap(Block[K], Block[G.next() % (K + 1)]);
    Reqs[I] = Block[J];
    Reqs[I].DueS = (static_cast<double>(I) + G.uniform()) / Rate;
  }
  return Reqs;
}

using RefKey = std::tuple<int, uint32_t, bool>;

/// What one stretch of requests produced.
struct Step {
  std::vector<Outcome> Out;  ///< requests actually sent
  double SpanS = 0;          ///< first due time to last reply
  size_t Served = 0;
};

struct Service {
  std::unique_ptr<service::Server> Srv;
  std::string Sock;
  int Clients = 1;
  std::map<RefKey, std::vector<double>> Refs;
  std::vector<Request> RefSchedule;
  Step Ref; ///< the reference rate, pooled over the slices
  int64_t NextId = 0;
  StatsRegistry::Counters Before;
};

/// Sends \p Reqs from at most Clients connections. In open loop, each
/// request is timed from its due time, so a stall that delays later sends
/// counts against them; lateness (due -> sent) is reported on its own. With
/// \p Saturate, every connection sends its next request as soon as its
/// reply arrives and a request is due when it is sent, so the server is
/// never idle and the step measures its capacity.
Step loadStep(Run &R, Service &Svc, const std::vector<Request> &Reqs,
              int Parent, bool Saturate) {
  std::vector<Outcome> Out(Reqs.size());
  std::atomic<size_t> Next{0};
  std::atomic<uint64_t> Wrong{0};
  int64_t StartNs = nowNs() + 50000000; // 50 ms to connect the clients
  auto ClientLoop = [&] {
    Expected<service::Client> EC = service::Client::connectUnix(Svc.Sock);
    if (!EC.hasValue())
      return;
    service::Client C = EC.take();
    int64_t Now = nowNs();
    if (Now < StartNs)
      std::this_thread::sleep_for(std::chrono::nanoseconds(StartNs - Now));
    for (;;) {
      size_t I = Next.fetch_add(1);
      if (I >= Reqs.size())
        return;
      const Request &Q = Reqs[I];
      Outcome &O = Out[I];
      O.DueNs = Saturate ? nowNs()
                         : StartNs + static_cast<int64_t>(Q.DueS * 1e9);
      Now = nowNs();
      if (Now < O.DueNs)
        std::this_thread::sleep_for(std::chrono::nanoseconds(O.DueNs - Now));
      service::RunRequest RR;
      RR.Graph = kServingSet[Q.Graph];
      RR.Eng = Q.Eng;
      RR.Latency = Q.Latency;
      RR.NOutputs = Q.NOutputs;
      RR.DeadlineMillis = kRequestDeadlineMs;
      O.SentNs = nowNs();
      Expected<service::RunResponse> ER = C.run(RR);
      O.GotNs = nowNs();
      if (!ER.hasValue())
        continue;
      service::RunResponse Resp = ER.take();
      O.Ok = Resp.St.isOk() && !Resp.Degraded;
      O.RunMs = Resp.ServerSeconds * 1e3;
      O.FirstMs = Resp.FirstOutputSeconds * 1e3;
      if (O.Ok && !bitEqual(Resp.Outputs,
                            Svc.Refs.at({Q.Graph, Q.NOutputs, Q.Latency})))
        Wrong.fetch_add(1);
    }
  };
  std::vector<std::thread> Threads;
  for (int I = 0; I != Svc.Clients; ++I)
    Threads.emplace_back(ClientLoop);
  for (std::thread &T : Threads)
    T.join();

  Step S;
  int64_t FirstNs = INT64_MAX, LastNs = 0;
  for (size_t I = 0; I != Out.size(); ++I) {
    const Outcome &O = Out[I];
    if (!O.SentNs)
      continue; // no connection could be made
    R.attempt(O.Ok, std::string("request to ") + kServingSet[Reqs[I].Graph]);
    FirstNs = std::min(FirstNs, O.DueNs);
    LastNs = std::max(LastNs, O.GotNs);
    S.Served += O.Ok;
    S.Out.push_back(O);
    if (R.T.enabled()) {
      int64_t Id = Svc.NextId++;
      int Req = R.T.record("service.request", O.DueNs, O.GotNs, Parent, Id);
      R.T.record("service.gen_wait", O.DueNs, O.SentNs, Req, Id);
      R.T.record("service.roundtrip", O.SentNs, O.GotNs, Req, Id);
    }
  }
  R.attempt(S.Out.size() == Reqs.size(), "every request of a load step sent");
  for (uint64_t I = 0; I != Wrong.load(); ++I)
    R.check(false, "service response differs from a local run");
  S.SpanS = S.Out.empty() ? 0 : (LastNs - FirstNs) * 1e-9;
  return S;
}

/// Latency from due time per sent request, ascending, scaled to the
/// reference host speed when \p P is given; a failed, refused or
/// timed-out request counts as infinitely late.
std::vector<double> latenciesMs(const Step &S, const PaceLog *P = nullptr) {
  std::vector<double> Lat;
  for (const Outcome &O : S.Out)
    Lat.push_back(O.Ok ? (O.GotNs - O.DueNs) * 1e-6 *
                             (P ? P->factor(O.DueNs, O.GotNs) : 1)
                       : HUGE_VAL);
  std::sort(Lat.begin(), Lat.end());
  return Lat;
}

void logStep(const char *What, const Step &S) {
  std::vector<double> Lat = latenciesMs(S);
  std::fprintf(stderr,
               "perfbench: %s: %zu sent, p50 %.3f ms, p99 %.3f ms, %.1f req/s "
               "completed\n",
               What, S.Out.size(),
               Lat.empty() ? 0.0 : percentileSorted(Lat, 0.5),
               Lat.empty() ? 0.0 : percentileSorted(Lat, 0.99),
               S.SpanS > 0 ? S.Served / S.SpanS : 0.0);
}

/// Local references: each (graph, size, mode) run on a local executor
/// over the same program; every response must equal its reference.
void serviceReferences(Run &R, Service &Svc) {
  ScopedSpan S(R.T, "exec.service-reference");
  for (int G = 0; G != static_cast<int>(std::size(kServingSet)); ++G) {
    const AppState *A = nullptr;
    for (const AppState &X : R.Apps)
      if (X.Name == kServingSet[G])
        A = &X;
    if (!A || !A->Auto)
      continue;
    for (uint32_t N : {kRequestSizes[0], kRequestSizes[1], kWholeBatch[G]})
      for (bool Lat : {false, true}) {
        CompiledExecutor E(A->Auto, nullptr);
        Status St = Lat ? E.tryRunLatency(N) : E.tryRun(N);
        R.attempt(St.isOk(), "local service reference run");
        Svc.Refs[{G, N, Lat}] = A->Auto->graph().RootProducesOutput
                                    ? E.outputSnapshot()
                                    : E.printed();
        if (!Lat)
          R.layer("exec." + A->Name + ".n" + std::to_string(N) +
                      ".output_yield",
                  static_cast<double>(N) /
                      static_cast<double>(E.outputsProduced()),
                  "ratio");
      }
  }
}

/// Starts the server warm from the store: fresh program and native
/// caches, then start, first ping, and one warm-up request per graph and
/// engine, timed as a "start" sample.
void startServer(Run &R, Service &Svc, int Workers) {
  dropCaches();
  R.Pace.sample();
  ScopedSpan S(R.T, "service.start");
  service::ServerConfig Cfg;
  Cfg.UnixPath = Svc.Sock;
  for (const char *G : kServingSet)
    Cfg.Service.Graphs.push_back(G);
  Cfg.Service.Workers = Workers;
  Svc.Srv = std::make_unique<service::Server>(Cfg);
  Status St = Svc.Srv->start();
  R.attempt(St.isOk(), "server start: " + St.message());
  if (!St.isOk())
    return;
  Expected<service::Client> EC = service::Client::connectUnix(Svc.Sock);
  R.attempt(EC.hasValue(), "connect to the server");
  if (!EC.hasValue())
    return;
  service::Client C = EC.take();
  R.attempt(C.ping().isOk(), "first ping");
  for (const char *G : kServingSet)
    for (Engine E : {Engine::Compiled, Engine::Native}) {
      service::RunRequest RR;
      RR.Graph = G;
      RR.Eng = E;
      RR.NOutputs = kRequestSizes[0];
      Expected<service::RunResponse> ER = C.run(RR);
      R.attempt(ER.hasValue() && ER->St.isOk() && !ER->Degraded,
                std::string("warm-up request to ") + G);
    }
  R.Times.add("start", S.elapsed(), S.startNs(), nowNs());
  R.Pace.sample();
}

StatsRegistry::Counters serverStats(Run &R, const Service &Svc) {
  Expected<service::Client> C = service::Client::connectUnix(Svc.Sock);
  Expected<StatsRegistry::Counters> S =
      C.hasValue() ? C->stats() : Expected<StatsRegistry::Counters>(C.status());
  R.attempt(S.hasValue(), "stats request");
  return S.hasValue() ? *S : StatsRegistry::Counters();
}

/// Starts the service (three times when that is the set-up time) with
/// nothing in this process keeping its native objects mapped, so each
/// start really opens them.
void startService(Run &R, Service &Svc, int Workers) {
  serviceReferences(R, Svc);
  for (AppState &A : R.Apps)
    A.AutoNative.reset();
  Svc.Sock = R.RunDir + "/s.sock";
  for (int I = 0; I != (R.W->WarmSetup ? 3 : 1); ++I) {
    if (Svc.Srv)
      Svc.Srv->stop();
    startServer(R, Svc, Workers);
  }
  for (AppState &A : R.Apps)
    A.AutoNative = codegen::NativeModuleCache::global().get(*A.Auto);
  Svc.RefSchedule = schedule(R.Seed, 0, kReferenceRate, kRefRequests,
                             R.W->WholeBatches);
  Svc.Before = serverStats(R, Svc);
}

/// Slice \p K of the reference-rate schedule, pooled into Svc.Ref.
void loadSlice(Run &R, Service &Svc, int K) {
  R.Pace.sample();
  ScopedSpan S(R.T, "service.load-reference");
  size_t N = Svc.RefSchedule.size();
  size_t Lo = N * K / kSlices, Hi = N * (K + 1) / kSlices;
  std::vector<Request> Part(Svc.RefSchedule.begin() + Lo,
                            Svc.RefSchedule.begin() + Hi);
  double Shift = Lo * 1.0 / kReferenceRate;
  for (Request &Q : Part)
    Q.DueS -= Shift;
  Step Slice = loadStep(R, Svc, Part, S.id(), /*Saturate=*/false);
  logStep("reference slice", Slice);
  Svc.Ref.Out.insert(Svc.Ref.Out.end(), Slice.Out.begin(), Slice.Out.end());
  Svc.Ref.SpanS += Slice.SpanS;
  Svc.Ref.Served += Slice.Served;
  R.Pace.sample();
}

/// Slice \p K of the capacity measurement: two steps of the same mix, each
/// from its own seeded schedule, sent back to back over every connection.
/// Each step's seconds per served request is a "capacity" sample.
void saturationSlice(Run &R, Service &Svc, int K) {
  for (int Half = 0; Half != 2; ++Half) {
    R.Pace.sample();
    ScopedSpan S(R.T, "service.load-saturation");
    Step Part = loadStep(R, Svc,
                         schedule(R.Seed, 2 * K + Half + 1, kReferenceRate,
                                  kSaturationRequests, R.W->WholeBatches),
                         S.id(), /*Saturate=*/true);
    logStep("saturation step", Part);
    if (Part.Served)
      R.Times.add("capacity", Part.SpanS / static_cast<double>(Part.Served),
                  S.startNs(), nowNs());
  }
  R.Pace.sample();
}

/// Quantiles of one per-request stage over the reference rate.
void stage(Run &R, const std::string &Name, std::vector<double> V) {
  if (V.empty())
    V.push_back(0);
  R.layer("service." + Name + ".p50", percentile(V, 0.50), "ms");
  R.layer("service." + Name + ".p99", percentile(V, 0.99), "ms");
}

/// Stops the service and records its per-layer metrics.
void finishService(Run &R, Service &Svc) {
  StatsRegistry::Counters After = serverStats(R, Svc);
  Svc.Srv->stop();
  Svc.Srv.reset();

  R.attempt(percentileSupported(Svc.Ref.Out.size(), 0.99),
            "enough reference requests for a p99");

  std::vector<double> Late, RunMs, Wait, First;
  for (const Outcome &O : Svc.Ref.Out) {
    if (!O.Ok)
      continue;
    Late.push_back((O.SentNs - O.DueNs) * 1e-6);
    RunMs.push_back(O.RunMs);
    Wait.push_back((O.GotNs - O.SentNs) * 1e-6 - O.RunMs);
    if (O.FirstMs > 0)
      First.push_back(O.FirstMs);
  }
  stage(R, "gen_late_ms", Late);
  stage(R, "run_ms", RunMs);
  stage(R, "wait_ms", Wait);
  stage(R, "first_output_ms", First);
  for (const char *N :
       {"service.requests", "service.served", "service.rejected",
        "service.timeouts", "service.degraded", "native-cache.mem_hits",
        "native-cache.compiles"})
    R.layer(N, static_cast<double>(counter(After, N) - counter(Svc.Before, N)),
            "count");
}

//===----------------------------------------------------------------------===//
// Main
//===----------------------------------------------------------------------===//

void printJson(const Run &R) {
  const std::map<std::string, Metric> &M = R.T.enabled() ? R.Layer : R.E2E;
  std::string Out = "{\"correct\": ";
  Out += R.Mismatches == 0 ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(R.Attempted);
  Out += ", \"failed\": " + std::to_string(R.Failed);
  Out += ", \"metrics\": {";
  char Buf[64];
  bool First = true;
  for (const auto &[Name, V] : M) {
    std::snprintf(Buf, sizeof(Buf), "%.17g", V.Value);
    Out += (First ? "\"" : ", \"") + Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + V.Unit + "\"}";
    First = false;
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
}

/// Pins the calling thread (and so everything it later starts) to the
/// highest-numbered CPU of \p Mask.
void pinToOneCpu(const cpu_set_t &Mask) {
  for (int Cpu = CPU_SETSIZE - 1; Cpu >= 0; --Cpu)
    if (CPU_ISSET(Cpu, &Mask)) {
      cpu_set_t One;
      CPU_ZERO(&One);
      CPU_SET(Cpu, &One);
      sched_setaffinity(0, sizeof(One), &One);
      return;
    }
}

/// The end-to-end metrics, with times and request latencies scaled to the
/// reference host speed by \p P (or raw, with \p P null).
std::map<std::string, Metric> endToEnd(const Run &R, const Service &Svc,
                                       const PaceLog *P) {
  std::map<std::string, Metric> M;
  M["compile_s"] = {R.Times.sum("compile/", P), "s"};
  M["native_build_s"] = {R.Times.sum("native/", P), "s"};
  M["lint_s"] = {R.Times.sum("lint/", P), "s"};
  M["warm_start_s"] = {R.Times.typical("warm", P), "s"};
  M["setup_s"] = {R.W->WarmSetup ? R.Times.typical("start", P)
                                 : R.Times.sum("setup/", P),
                  "s"};
  std::vector<double> Geo[3], Flops;
  for (const AppConst &A : kApps)
    for (int C = 0; C != 3; ++C)
      Geo[C].push_back(R.Times.typical(
          std::string("steady/") + A.Name + "." + kConfigs[C], P));
  for (const AppConst &A : kApps) {
    auto It = R.Layer.find(std::string("exec.") + A.Name + ".flops_per_output");
    Flops.push_back(It == R.Layer.end() ? 0 : It->second.Value);
  }
  M["steady_ns_per_output"] = {geomean(Geo[0]), "ns"};
  M["tape_ns_per_output"] = {geomean(Geo[1]), "ns"};
  M["base_ns_per_output"] = {geomean(Geo[2]), "ns"};
  M["flops_per_output"] = {geomean(Flops), "FLOP"};
  std::vector<double> Lat = latenciesMs(Svc.Ref, P);
  M["request_p50_ms"] = {Lat.empty() ? 0 : percentileSorted(Lat, 0.50), "ms"};
  // Capacity: served requests per second with every connection busy, from
  // the median seconds per request of the saturation steps.
  double SecondsPerRequest = R.Times.typical("capacity", P);
  M["max_rps"] = {SecondsPerRequest > 0 ? 1 / SecondsPerRequest : 0, "req/s"};
  return M;
}

/// Per-layer metrics of the compile rounds and the steady state: the
/// median sample per app (scaled to the reference host speed), summed
/// over apps.
void layerMetrics(Run &R, const Service &Svc, const AnalysisCounts &AC) {
  const PaceLog *P = &R.Pace;
  for (const char *Pass : kPassNames)
    R.layer(std::string("compiler.pass.") + Pass + "_s",
            R.Times.sum(std::string("pass/") + Pass + "/", P), "s");
  for (const AppConst &A : kApps) {
    R.layer(std::string("compiler.") + A.Name + ".compile_s",
            R.Times.typical(std::string("compile/") + A.Name, P), "s");
    for (const char *C : kConfigs)
      R.layer(std::string("exec.") + A.Name + "." + C + ".ns_per_output",
              R.Times.typical(std::string("steady/") + A.Name + "." + C, P),
              "ns");
  }
  auto Ratio = [](uint64_t H, uint64_t M) {
    return H + M ? static_cast<double>(H) / static_cast<double>(H + M) : 0.0;
  };
  R.layer("analysis.extraction_hit_ratio",
          Ratio(AC.ExtractionHits, AC.ExtractionMisses), "ratio");
  R.layer("analysis.combine_hit_ratio",
          Ratio(AC.CombineHits, AC.CombineMisses), "ratio");
  R.layer("codegen.emit_s", R.Times.sum("emit/", P), "s");
  R.layer("codegen.cc_s", R.Times.sum("cc/", P), "s");
  R.layer("codegen.source_bytes", R.SourceBytes, "bytes");
  R.layer("store.publish_s", R.T.totalSeconds("store.publish"), "s");
  R.layer("store.load_s", R.Times.typical("store-load", P), "s");
  // The p99 is a per-layer figure, not an end-to-end one: on a shared
  // host a single stall of a few hundred milliseconds delays more than 1%
  // of the requests and decides it, whatever the sample size.
  std::vector<double> Lat = latenciesMs(Svc.Ref, &R.Pace);
  R.layer("service.request_ms.p99",
          Lat.empty() ? 0 : percentileSorted(Lat, 0.99), "ms");
  R.layer("store.load_failures", R.LoadFailures, "count");
  R.layer("verify.linear_s", R.Times.sum("lint/linear/", P), "s");
  R.layer("verify.bounds_s", R.Times.sum("lint/bounds/", P), "s");
  R.layer("verify.state_s", R.Times.sum("lint/state/", P), "s");
}

int usage() {
  std::fprintf(stderr, "usage: perfbench --workload {paper-steady|"
                       "service-mixed} --seed N --seconds S --trace 0|1\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Run R;
  bool Trace = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload") {
      for (const Workload &W : kWorkloads)
        if (V == W.Name)
          R.W = &W;
    } else if (K == "--seed") {
      R.Seed = std::strtoull(V.c_str(), nullptr, 10);
    } else if (K == "--seconds") {
      R.Seconds = std::atof(V.c_str());
    } else if (K == "--trace") {
      Trace = V == "1";
    } else {
      return usage();
    }
  }
  if (!R.W || Argc % 2 == 0 || !(R.Seconds > 0))
    return usage();
  R.T.setEnabled(Trace);
  int64_t RunStartNs = nowNs();
  double Cpu0 = cpuSeconds();

  // Everything the run writes lives under .bench_build/ in the checkout.
  R.RunDir = ".bench_build/run-" + std::to_string(::getpid());
  fs::remove_all(R.RunDir);
  fs::create_directories(R.RunDir);

  int Root = R.T.open("run", -1);
  currentSpan() = Root;
  const int Cores = effectiveCores();
  const int Workers = std::min(Cores, 4);
  const int Clients = static_cast<int>(std::min<unsigned>(
      4, std::max(1u, std::thread::hardware_concurrency())));
  double Parallelism = 0;
  {
    ScopedSpan S(R.T, "host.facts");
    Parallelism = measuredParallelism(Workers);
  }
  // The rest of the run, and every thread and process it starts, stays on
  // one CPU: on a shared host the number of cores granted changes from
  // second to second, and the service's capacity would follow it.
  cpu_set_t FullMask;
  sched_getaffinity(0, sizeof(FullMask), &FullMask);
  pinToOneCpu(FullMask);

  {
    ScopedSpan S(R.T, "phase.setup");
    R.Apps = buildApps();
  }
  R.attempt(R.Apps.size() == std::size(kApps), "building the nine apps");
  computeReferences(R);

  // The first cold compile, then the program as written.
  AnalysisCounts AC;
  compileAndRestart(R, 0, AC);
  compileBase(R);
  checkFresh(R, /*BaseMode=*/true);

  // The service starts warm from the first round's store; then the run
  // alternates between service load, steady state and compile rounds.
  Service Svc;
  Svc.Clients = Clients;
  startService(R, Svc, Workers);
  for (int K = 0; K != kSlices; ++K) {
    if (!R.Failed) {
      loadSlice(R, Svc, K);
      saturationSlice(R, Svc, K);
    }
    steadyRound(R, K);
    if (K + 1 < kCompileRounds) {
      AnalysisCounts Ignored;
      compileAndRestart(R, K + 1, Ignored);
    }
  }
  if (!R.Failed)
    finishService(R, Svc);
  else if (Svc.Srv)
    Svc.Srv->stop();
  if (R.T.enabled()) {
    sched_setaffinity(0, sizeof(FullMask), &FullMask);
    parallelPhase(R, Workers);
    pinToOneCpu(FullMask);
  }

  R.E2E = endToEnd(R, Svc, &R.Pace);
  R.attempt(R.E2E["steady_ns_per_output"].Value > 0 &&
                R.E2E["tape_ns_per_output"].Value > 0 &&
                R.E2E["base_ns_per_output"].Value > 0,
            "steady-state samples of every app and configuration");
  std::map<std::string, Metric> Raw = endToEnd(R, Svc, nullptr);
  std::string Name = R.W->Name;

  R.T.close(Root);
  currentSpan() = -1;
  double WallS = (nowNs() - RunStartNs) * 1e-9;
  double CpuS = cpuSeconds() - Cpu0;

  // Per-layer metrics (reported by trace runs).
  layerMetrics(R, Svc, AC);
  R.layer("host.calibration_ms", R.Pace.medianSeconds() * 1e3, "ms");
  R.layer("host.effective_cores", Cores, "count");
  R.layer("failed_ratio",
          static_cast<double>(R.Failed) / static_cast<double>(R.Attempted),
          "ratio");
  if (R.T.enabled()) {
    R.layer("trace.root_self_share",
            static_cast<double>(R.T.selfNs(Root)) / (WallS * 1e9), "ratio");
    R.layer("trace.layer_coverage", R.T.coveredShare(Root, "phase."),
            "ratio");
    fs::create_directories(".bench_build/traces");
    std::string Path = ".bench_build/traces/" + Name + "-seed" +
                       std::to_string(R.Seed) + ".json";
    // The traced run's own end-to-end numbers, for the tracing overhead.
    std::string Header = "\"workload\": \"" + Name +
                         "\", \"seed\": " + std::to_string(R.Seed) +
                         ", \"e2e\": {";
    char Buf[64];
    for (const auto &[N, M] : R.E2E) {
      std::snprintf(Buf, sizeof(Buf), "%.17g", M.Value);
      Header += (Header.back() == '{' ? "\"" : ", \"") + N + "\": " + Buf;
    }
    Header += "}, ";
    if (!R.T.writeJson(Path, Header))
      std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
    else
      std::fprintf(stderr, "perfbench: spans written to %s\n", Path.c_str());
  }

  // Host facts go with every result, traced or not.
  std::printf("host: effective_cores=%d measured_parallelism=%.2f "
              "calibration_ms=%.4f wall_s=%.2f cpu_s=%.2f\n",
              Cores, Parallelism, R.Pace.medianSeconds() * 1e3, WallS, CpuS);
  // The same metrics unscaled, as measured at this host's own pace.
  std::string RawLine = "raw:";
  for (const auto &[N, M] : Raw)
    RawLine += " " + N + "=" + std::to_string(M.Value);
  std::printf("%s\n", RawLine.c_str());
  for (const auto &[N, M] : R.E2E)
    std::fprintf(stderr, "  %-22s %14.6g %s\n", N.c_str(), M.Value,
                 M.Unit.c_str());
  std::fprintf(stderr, "  %-22s %14.6g ratio\n", "failed_ratio",
               static_cast<double>(R.Failed) /
                   static_cast<double>(R.Attempted));

  R.Apps.clear();
  dropCaches();
  ArtifactStore::setGlobalDir("");
  fs::remove_all(R.RunDir);
  printJson(R);
  return R.Mismatches || R.Failed ? 1 : 0;
}
