//===- opt/Cleanup.cpp - Cleanup and verification passes --------------------==//

#include "opt/Cleanup.h"

#include "compiler/AnalysisManager.h"
#include "compiler/StructuralHash.h"
#include "sched/Rates.h"
#include "sched/Schedule.h"
#include "support/Diag.h"
#include "wir/Build.h"

#include <algorithm>
#include <cstdio>

using namespace slin;

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

std::string CleanupStats::summary() const {
  if (!any())
    return "no change";
  std::string Out;
  char Buf[96];
  auto Append = [&](const char *Fmt, auto... Args) {
    std::snprintf(Buf, sizeof(Buf), Fmt, Args...);
    if (!Out.empty())
      Out += ", ";
    Out += Buf;
  };
  if (ConstEmitters)
    Append("%d const emitter%s", ConstEmitters, ConstEmitters == 1 ? "" : "s");
  if (TrimmedFilters)
    Append("%d filter%s trimmed (-%lld peek rows)", TrimmedFilters,
           TrimmedFilters == 1 ? "" : "s",
           static_cast<long long>(TrimmedPeekRows));
  if (RemovedBranches)
    Append("%d dead branch%s removed", RemovedBranches,
           RemovedBranches == 1 ? "" : "es");
  if (DiscardSinks)
    Append("%d branch%s reduced to discard sinks", DiscardSinks,
           DiscardSinks == 1 ? "" : "es");
  if (CollapsedSplitJoins)
    Append("%d splitjoin%s collapsed", CollapsedSplitJoins,
           CollapsedSplitJoins == 1 ? "" : "s");
  return Out;
}

//===----------------------------------------------------------------------===//
// Observable effects
//===----------------------------------------------------------------------===//

namespace {

bool anyPrint(const wir::StmtList &Body) {
  for (const wir::StmtPtr &S : Body) {
    switch (S->kind()) {
    case wir::StmtKind::Print:
      return true;
    case wir::StmtKind::For:
      if (anyPrint(wir::cast<wir::ForStmt>(S.get())->Body))
        return true;
      break;
    case wir::StmtKind::If: {
      const auto *I = wir::cast<wir::IfStmt>(S.get());
      if (anyPrint(I->Then) || anyPrint(I->Else))
        return true;
      break;
    }
    case wir::StmtKind::Uncounted:
      if (anyPrint(wir::cast<wir::UncountedStmt>(S.get())->Body))
        return true;
      break;
    default:
      break;
    }
  }
  return false;
}

} // namespace

bool slin::hasObservableEffects(const Stream &S) {
  switch (S.kind()) {
  case StreamKind::Filter: {
    const auto *F = cast<Filter>(&S);
    if (F->isNative())
      return false; // natives only read and write their tapes
    if (anyPrint(F->work().Body))
      return true;
    return F->initWork() && anyPrint(F->initWork()->Body);
  }
  case StreamKind::Pipeline:
    for (const StreamPtr &C : cast<Pipeline>(&S)->children())
      if (hasObservableEffects(*C))
        return true;
    return false;
  case StreamKind::SplitJoin:
    for (const StreamPtr &C : cast<SplitJoin>(&S)->children())
      if (hasObservableEffects(*C))
        return true;
    return false;
  case StreamKind::FeedbackLoop: {
    const auto *FB = cast<FeedbackLoop>(&S);
    return hasObservableEffects(FB->body()) ||
           hasObservableEffects(FB->loop());
  }
  }
  unreachable("unknown stream kind");
}

//===----------------------------------------------------------------------===//
// LinearConstFold
//===----------------------------------------------------------------------===//

namespace {

/// Deepest peek position with a nonzero coefficient, or -1 when A == 0.
int deepestUsedPeek(const LinearNode &N) {
  for (int P = N.peekRate() - 1; P >= 0; --P)
    for (int J = 0; J != N.pushRate(); ++J)
      if (N.coeff(P, J) != 0.0)
        return P;
  return -1;
}

/// \p N with its dead deep-peek rows removed: same pops, pushes and
/// coefficients, peek window shrunk to \p NewE.
LinearNode trimPeekWindow(const LinearNode &N, int NewE) {
  int E = N.peekRate(), U = N.pushRate();
  assert(NewE >= N.popRate() && NewE < E && "nothing to trim");
  Matrix A(static_cast<size_t>(NewE), static_cast<size_t>(U));
  for (int R = 0; R != NewE; ++R)
    for (int J = 0; J != U; ++J)
      A.at(static_cast<size_t>(R), static_cast<size_t>(J)) =
          N.matrix().at(static_cast<size_t>(E - NewE + R),
                        static_cast<size_t>(J));
  return LinearNode(std::move(A), N.vector(), NewE, N.popRate(), U);
}

class ConstFolder {
public:
  ConstFolder(AnalysisManager &AM, LinearCodeGenStyle Style,
              CleanupStats &Stats)
      : AM(AM), Style(Style), Stats(Stats) {}

  bool Changed = false;

  StreamPtr rewrite(const Stream &S) {
    switch (S.kind()) {
    case StreamKind::Filter:
      return rewriteFilter(*cast<Filter>(&S));
    case StreamKind::Pipeline: {
      auto Out = std::make_unique<Pipeline>(S.name());
      for (const StreamPtr &C : cast<Pipeline>(&S)->children())
        Out->add(rewrite(*C));
      return Out;
    }
    case StreamKind::SplitJoin: {
      const auto *SJ = cast<SplitJoin>(&S);
      auto Out = std::make_unique<SplitJoin>(SJ->name(), SJ->splitter(),
                                             SJ->joiner());
      for (const StreamPtr &C : SJ->children())
        Out->add(rewrite(*C));
      return Out;
    }
    case StreamKind::FeedbackLoop: {
      const auto *FB = cast<FeedbackLoop>(&S);
      return std::make_unique<FeedbackLoop>(
          FB->name(), FB->joiner(), rewrite(FB->body()), rewrite(FB->loop()),
          FB->splitter(), FB->enqueued());
    }
    }
    unreachable("unknown stream kind");
  }

private:
  StreamPtr rewriteFilter(const Filter &F) {
    // Only steady-state IR filters are foldable: natives hide their
    // arithmetic and init-work firings are outside the extracted node.
    if (F.isNative() || F.initWork())
      return F.clone();
    std::shared_ptr<const ExtractionResult> Ext = AM.extraction(F);
    if (!Ext->isLinear())
      return F.clone();
    const LinearNode &N = *Ext->Node;
    int Deepest = deepestUsedPeek(N);
    int NewE = std::max(N.popRate(), Deepest + 1);
    if (NewE >= N.peekRate())
      return F.clone(); // every deep peek position is live

    // Fold only filters that are verbatim outputs of our code generator:
    // regenerating the extracted node must reproduce the filter exactly
    // (structural hash ignores names). Then the trimmed rebuild is the
    // same code with a smaller declared peek window — outputs and FLOP
    // counts are bit-identical by construction. Hand-written filters
    // (e.g. regions the selection DP left uncollapsed) never match and
    // are left untouched.
    std::unique_ptr<Filter> Regen = makeLinearFilter(N, F.name(), Style);
    if (structuralHash(*Regen) != structuralHash(F))
      return F.clone();

    std::unique_ptr<Filter> Folded =
        makeLinearFilter(trimPeekWindow(N, NewE), F.name(), Style);
    if (Deepest < 0)
      ++Stats.ConstEmitters;
    else
      ++Stats.TrimmedFilters;
    Stats.TrimmedPeekRows += N.peekRate() - NewE;
    Changed = true;
    return Folded;
  }

  AnalysisManager &AM;
  LinearCodeGenStyle Style;
  CleanupStats &Stats;
};

} // namespace

StreamPtr slin::constFoldLinear(const Stream &Root, AnalysisManager &AM,
                                LinearCodeGenStyle Style,
                                CleanupStats &Stats) {
  ConstFolder Folder(AM, Style, Stats);
  StreamPtr Out = Folder.rewrite(Root);
  return Folder.Changed ? std::move(Out) : nullptr;
}

//===----------------------------------------------------------------------===//
// DeadChannelElim
//===----------------------------------------------------------------------===//

namespace {

/// Minimal replacement for a dead roundrobin branch: consumes its
/// splitter allotment and discards it. Pure buffer management — no
/// floating-point work survives.
std::unique_ptr<Filter> makeDiscardSink(int Pop) {
  using namespace wir;
  using namespace wir::build;
  WorkFunction W(Pop, Pop, 0,
                 stmts(loop("i", cst(0), cst(Pop), stmts(popStmt()))));
  return std::make_unique<Filter>("DeadBranchSink", std::vector<FieldDef>{},
                                  std::move(W));
}

class DeadChannelEliminator {
public:
  explicit DeadChannelEliminator(CleanupStats &Stats) : Stats(Stats) {}

  bool Changed = false;

  StreamPtr rewrite(const Stream &S) {
    switch (S.kind()) {
    case StreamKind::Filter:
      return S.clone();
    case StreamKind::Pipeline: {
      auto Out = std::make_unique<Pipeline>(S.name());
      for (const StreamPtr &C : cast<Pipeline>(&S)->children())
        Out->add(rewrite(*C));
      return Out;
    }
    case StreamKind::SplitJoin:
      return rewriteSplitJoin(*cast<SplitJoin>(&S));
    case StreamKind::FeedbackLoop: {
      const auto *FB = cast<FeedbackLoop>(&S);
      return std::make_unique<FeedbackLoop>(
          FB->name(), FB->joiner(), rewrite(FB->body()), rewrite(FB->loop()),
          FB->splitter(), FB->enqueued());
    }
    }
    unreachable("unknown stream kind");
  }

private:
  /// A branch is dead when the joiner never reads from it and deleting
  /// it cannot be observed: no prints anywhere below, and (defensively —
  /// a zero-weight producing branch has no valid steady state anyway)
  /// no items produced.
  bool isDeadBranch(const Stream &Child, int JoinWeight) {
    if (JoinWeight != 0 || hasObservableEffects(Child))
      return false;
    Expected<RateSignature> R = tryComputeRates(Child);
    return R && R->Push == 0;
  }

  /// True if \p Child already is the minimal pop-and-discard sink for
  /// \p SplitW items (keeps the pass idempotent across recompiles).
  static bool isDiscardSink(const Stream &Child, int SplitW) {
    return Child.kind() == StreamKind::Filter &&
           !cast<Filter>(&Child)->isNative() &&
           structuralHash(Child) == structuralHash(*makeDiscardSink(SplitW));
  }

  StreamPtr rewriteSplitJoin(const SplitJoin &SJ) {
    const Splitter &Split = SJ.splitter();
    const Joiner &Join = SJ.joiner();
    const auto &Children = SJ.children();
    bool RR = Split.Kind == Splitter::RoundRobin;
    // Malformed weight vectors: rebuild verbatim, the verifier's job.
    if (Join.Weights.size() != Children.size() ||
        (RR && Split.Weights.size() != Children.size())) {
      auto Out = std::make_unique<SplitJoin>(SJ.name(), Split, Join);
      for (const StreamPtr &C : Children)
        Out->add(rewrite(*C));
      return Out;
    }

    std::vector<StreamPtr> NewChildren;
    std::vector<int> NewSplitW, NewJoinW;
    int Removed = 0, Sinks = 0;
    for (size_t K = 0; K != Children.size(); ++K) {
      int SplitW = RR ? Split.Weights[K] : 0;
      if (isDeadBranch(*Children[K], Join.Weights[K])) {
        if (!RR || SplitW == 0) {
          // Nothing is owed to this branch: delete it outright.
          ++Removed;
          continue;
        }
        if (!isDiscardSink(*Children[K], SplitW)) {
          // The splitter still deals this branch SplitW items per
          // cycle; keep the accounting with a minimal discard sink.
          ++Sinks;
          NewChildren.push_back(makeDiscardSink(SplitW));
          NewSplitW.push_back(SplitW);
          NewJoinW.push_back(0);
          continue;
        }
      }
      NewChildren.push_back(rewrite(*Children[K]));
      if (RR)
        NewSplitW.push_back(SplitW);
      NewJoinW.push_back(Join.Weights[K]);
    }
    // Never delete every branch: an empty splitjoin is unrepresentable.
    // (Stats are committed only past this point, so rolled-back
    // removals never show up in the pass note.)
    if (NewChildren.empty()) {
      auto Out = std::make_unique<SplitJoin>(SJ.name(), Split, Join);
      for (const StreamPtr &C : Children)
        Out->add(rewrite(*C));
      return Out;
    }
    bool RemovedHere = Removed || Sinks;
    Stats.RemovedBranches += Removed;
    Stats.DiscardSinks += Sinks;
    Changed = Changed || RemovedHere;

    // A splitjoin reduced to one branch is that branch: the splitter
    // forwards the whole input to it and the joiner forwards its whole
    // output.
    if (RemovedHere && NewChildren.size() == 1) {
      ++Stats.CollapsedSplitJoins;
      return std::move(NewChildren.front());
    }

    Splitter NewSplit = RR ? Splitter::roundRobin(std::move(NewSplitW))
                           : Splitter::duplicate();
    auto Out = std::make_unique<SplitJoin>(
        SJ.name(), std::move(NewSplit),
        Joiner::roundRobin(std::move(NewJoinW)));
    for (StreamPtr &C : NewChildren)
      Out->add(std::move(C));
    return Out;
  }

  CleanupStats &Stats;
};

} // namespace

StreamPtr slin::eliminateDeadChannels(const Stream &Root,
                                      CleanupStats &Stats) {
  DeadChannelEliminator E(Stats);
  StreamPtr Out = E.rewrite(Root);
  return E.Changed ? std::move(Out) : nullptr;
}

//===----------------------------------------------------------------------===//
// VerifyRates: hierarchy
//===----------------------------------------------------------------------===//

namespace {

/// Filter-level invariants the balance solver never looks at.
std::string checkFilterRates(const Stream &S) {
  switch (S.kind()) {
  case StreamKind::Filter: {
    const auto *F = cast<Filter>(&S);
    if (F->peekRate() < 0 || F->popRate() < 0 || F->pushRate() < 0)
      return "filter '" + F->name() + "': negative I/O rate";
    if (F->peekRate() < F->popRate())
      return "filter '" + F->name() + "': peek rate below pop rate";
    if (F->hasInitWork()) {
      if (F->initPeekRate() < 0 || F->initPopRate() < 0 ||
          F->initPushRate() < 0)
        return "filter '" + F->name() + "': negative init I/O rate";
      if (F->initPeekRate() < F->initPopRate())
        return "filter '" + F->name() + "': init peek rate below init pop";
    }
    return "";
  }
  case StreamKind::Pipeline:
    for (const StreamPtr &C : cast<Pipeline>(&S)->children()) {
      std::string E = checkFilterRates(*C);
      if (!E.empty())
        return E;
    }
    return "";
  case StreamKind::SplitJoin:
    for (const StreamPtr &C : cast<SplitJoin>(&S)->children()) {
      std::string E = checkFilterRates(*C);
      if (!E.empty())
        return E;
    }
    return "";
  case StreamKind::FeedbackLoop: {
    const auto *FB = cast<FeedbackLoop>(&S);
    std::string E = checkFilterRates(FB->body());
    if (!E.empty())
      return E;
    return checkFilterRates(FB->loop());
  }
  }
  unreachable("unknown stream kind");
}

} // namespace

std::string slin::verifyStreamRates(const Stream &Root) {
  std::string Err = checkFilterRates(Root);
  if (!Err.empty())
    return Err;
  // The balance solver recurses through every container, so one root
  // query validates all repetition vectors and splitter/joiner
  // consistency checks along the way.
  if (Expected<RateSignature> R = tryComputeRates(Root); !R)
    return R.status().message();
  return "";
}

//===----------------------------------------------------------------------===//
// VerifyRates: lowered schedule
//===----------------------------------------------------------------------===//

std::vector<NodeIO> slin::declaredIO(const flat::FlatGraph &G) {
  std::vector<NodeIO> IO(G.Nodes.size());
  for (size_t I = 0; I != G.Nodes.size(); ++I) {
    const flat::Node &N = G.Nodes[I];
    auto Rates = [&](FiringIO &F, bool InitFiring) {
      for (int C : N.inputChannels())
        F.In.push_back({C, N.peekNeedOn(C, InitFiring),
                        N.popsFrom(C, InitFiring)});
      for (int C : N.outputChannels())
        F.Out.push_back({C, 0, N.pushesTo(C, InitFiring)});
    };
    Rates(IO[I].Steady, false);
    IO[I].HasInit = N.Kind == flat::NodeKind::Filter && N.F->hasInitWork();
    if (IO[I].HasInit)
      Rates(IO[I].Init, true);
  }
  return IO;
}

std::string
ReplayRecord::Program::firingMismatch(const flat::FlatGraph &G) const {
  for (size_t I = 0; I != G.Nodes.size(); ++I)
    if (Fired[I] != Scheduled[I])
      return std::string(Name) + " program fires '" + G.Nodes[I].Name +
             "' " + std::to_string(Fired[I]) + " times, schedule says " +
             std::to_string(Scheduled[I]);
  return "";
}

const ReplayRecord::Program *ReplayRecord::failed() const {
  for (const Program &P : Programs)
    if (!P.Err.empty())
      return &P;
  return nullptr;
}

int64_t ReplayRecord::bufferNeed(size_t C) const {
  int64_t Need = 0;
  for (const Program &P : Programs) {
    int64_t End;
    if (__builtin_add_overflow(P.StartLive[C], P.Pushed[C], &End))
      return INT64_MAX;
    Need = std::max(Need, End);
  }
  return Need;
}

namespace {

/// A += K * Rate; false when the result leaves int64_t.
bool addTimes(int64_t &A, int64_t K, int64_t Rate) {
  int64_t P;
  return !__builtin_mul_overflow(K, Rate, &P) &&
         !__builtin_add_overflow(A, P, &A);
}

} // namespace

ReplayRecord slin::replayFiringPrograms(const flat::FlatGraph &G,
                                        const StaticSchedule &S,
                                        const std::vector<NodeIO> &IO) {
  const size_t NumNodes = G.Nodes.size();
  ReplayRecord Rec;
  std::vector<int64_t> Live(G.numChannels());
  for (size_t C = 0; C != Live.size(); ++C)
    Live[C] = static_cast<int64_t>(G.InitialItems[C].size());
  Rec.HighWater = Live;
  std::vector<bool> FiredOnce(NumNodes, false);

  // K same-rate firings of node I: the first needs its input window, each
  // further one pops more. The runtime supplies external input.
  auto Fire = [&](ReplayRecord::Program &P, size_t I, const FiringIO &F,
                  int64_t K) {
    const std::string &Name = G.Nodes[I].Name;
    auto Overflow = [&] {
      P.Err = std::string(P.Name) + " program's item counts overflow at '" +
              Name + "'";
      return false;
    };
    for (const FiringIO::Port &In : F.In) {
      if (In.Chan == G.ExternalIn) {
        if (!addTimes(P.ExtPops, K, In.Items))
          return Overflow();
        continue;
      }
      int64_t Need = std::max(In.Need, In.Items);
      if (!addTimes(Need, K - 1, In.Items))
        return Overflow();
      int64_t &Avail = Live[static_cast<size_t>(In.Chan)];
      if (Avail < Need) {
        P.Err = std::string(P.Name) + " program fires '" + Name +
                "' without its input window on channel " +
                std::to_string(In.Chan) + " (" + std::to_string(Avail) +
                " live, needs " + std::to_string(Need) + ")";
        return false;
      }
      if (!addTimes(Avail, K, -In.Items))
        return Overflow();
    }
    for (const FiringIO::Port &Out : F.Out) {
      size_t C = static_cast<size_t>(Out.Chan);
      if (!addTimes(Live[C], K, Out.Items) ||
          !addTimes(P.Pushed[C], K, Out.Items) ||
          (Out.Chan == G.ExternalOut &&
           !addTimes(P.ExtPushes, K, Out.Items)))
        return Overflow();
      Rec.HighWater[C] = std::max(Rec.HighWater[C], Live[C]);
    }
    return addTimes(P.Fired[I], K, 1) || Overflow();
  };

  // A wrapped product still reads as a mismatch, without the UB.
  std::vector<int64_t> BatchFirings(NumNodes);
  for (size_t I = 0; I != NumNodes; ++I)
    (void)__builtin_mul_overflow(S.Repetitions[I], S.BatchIterations,
                                 &BatchFirings[I]);
  const struct {
    const char *Name;
    const FiringProgram &Steps;
    const std::vector<int64_t> &Scheduled;
  } Progs[] = {{"init", S.InitProgram, S.InitFirings},
               {"batch", S.BatchProgram, BatchFirings},
               {"steady", S.SteadyProgram, S.Repetitions}};
  bool Failed = false;
  for (size_t K = 0; K != Rec.Programs.size(); ++K) {
    ReplayRecord::Program &P = Rec.Programs[K];
    P.Name = Progs[K].Name;
    P.Scheduled = Progs[K].Scheduled;
    P.Fired.assign(NumNodes, 0);
    P.Pushed.assign(Live.size(), 0);
    P.StartLive = Live;
    for (const FiringStep &Step : Progs[K].Steps) {
      if (Failed)
        break;
      if (!validStep(Step, NumNodes)) {
        P.Err = std::string(P.Name) + " program contains a malformed step";
        break;
      }
      size_t I = static_cast<size_t>(Step.Node);
      int64_t N = Step.Count;
      if (IO[I].HasInit && !FiredOnce[I]) {
        if (!Fire(P, I, IO[I].Init, 1))
          break;
        --N;
      }
      FiredOnce[I] = true;
      if (N > 0 && !Fire(P, I, IO[I].Steady, N))
        break;
    }
    P.EndLive = Live;
    Failed = Failed || !P.Err.empty();
  }
  return Rec;
}

namespace {

std::string checkVec(const char *Name, size_t Got, size_t Want) {
  if (Got == Want)
    return "";
  return std::string(Name) + " sized " + std::to_string(Got) +
         ", graph has " + std::to_string(Want);
}

} // namespace

std::string slin::verifySchedule(const flat::FlatGraph &G,
                                 const StaticSchedule &S) {
  size_t NumNodes = G.Nodes.size();
  size_t NumChans = G.numChannels();
  std::string E;
  if (!(E = checkVec("Repetitions", S.Repetitions.size(), NumNodes)).empty() ||
      !(E = checkVec("InitFirings", S.InitFirings.size(), NumNodes)).empty() ||
      !(E = checkVec("ChannelHighWater", S.ChannelHighWater.size(), NumChans))
           .empty() ||
      !(E = checkVec("ChannelBufSize", S.ChannelBufSize.size(), NumChans))
           .empty() ||
      !(E = checkVec("PostInitLive", S.PostInitLive.size(), NumChans)).empty())
    return E;
  if (S.BatchIterations < 1)
    return "non-positive batch iteration count";
  for (size_t I = 0; I != NumNodes; ++I) {
    if (S.Repetitions[I] < 1)
      return "node '" + G.Nodes[I].Name + "' has repetition count " +
             std::to_string(S.Repetitions[I]);
    if (S.InitFirings[I] < 0)
      return "node '" + G.Nodes[I].Name + "' has negative init firings";
  }

  // Independent balance re-derivation: on every channel with both ends
  // internal, the producer's steady output must equal the consumer's
  // steady intake under the cached repetition vector.
  std::vector<int> Producer(NumChans, -1), Consumer(NumChans, -1);
  for (size_t I = 0; I != NumNodes; ++I) {
    for (int C : G.Nodes[I].outputChannels())
      if (G.Nodes[I].pushesTo(C, false) > 0)
        Producer[static_cast<size_t>(C)] = static_cast<int>(I);
    for (int C : G.Nodes[I].inputChannels())
      if (G.Nodes[I].popsFrom(C, false) > 0)
        Consumer[static_cast<size_t>(C)] = static_cast<int>(I);
  }
  for (size_t C = 0; C != NumChans; ++C) {
    int P = Producer[C], Q = Consumer[C];
    if (P < 0 || Q < 0)
      continue;
    int64_t Out = S.Repetitions[static_cast<size_t>(P)] *
                  G.Nodes[static_cast<size_t>(P)].pushesTo(
                      static_cast<int>(C), false);
    int64_t In = S.Repetitions[static_cast<size_t>(Q)] *
                 G.Nodes[static_cast<size_t>(Q)].popsFrom(
                     static_cast<int>(C), false);
    if (Out != In)
      return "balance equation violated on channel " + std::to_string(C) +
             " between '" + G.Nodes[static_cast<size_t>(P)].Name + "' (" +
             std::to_string(Out) + " pushed) and '" +
             G.Nodes[static_cast<size_t>(Q)].Name + "' (" +
             std::to_string(In) + " popped) per steady state";
  }

  // External lookahead constants, re-derived as the scheduler does.
  int64_t ExternalExtra = 0;
  int64_t InitPeekMax = 0;
  for (const flat::Node &N : G.Nodes)
    for (int Chan : N.inputChannels()) {
      if (Chan != G.ExternalIn)
        continue;
      ExternalExtra =
          std::max(ExternalExtra, static_cast<int64_t>(
                                      N.peekNeedOn(Chan, false) -
                                      N.popsFrom(Chan, false)));
      InitPeekMax = std::max(
          InitPeekMax, static_cast<int64_t>(N.peekNeedOn(Chan, true)));
    }

  // Replay init, batch, then steady from one shared state — the order
  // the scheduler derived them in, so high-water marks line up exactly.
  // Every program leaves the channels as the init program did.
  ReplayRecord Rec = replayFiringPrograms(G, S, declaredIO(G));
  const int64_t ExtPops[] = {S.InitExternalPops, S.BatchExternalPops,
                             S.SteadyExternalPops};
  const int64_t ExtNeed[] = {S.InitExternalNeed, S.BatchExternalNeed,
                             S.SteadyExternalNeed};
  const int64_t ExtPushes[] = {S.InitExternalPushes, S.BatchExternalPushes,
                               S.SteadyExternalPushes};
  const int64_t PeekMax[] = {InitPeekMax, 0, 0};
  auto External = [&](size_t C) {
    return static_cast<int>(C) == G.ExternalIn ||
           static_cast<int>(C) == G.ExternalOut;
  };
  for (size_t K = 0; K != Rec.Programs.size(); ++K) {
    const ReplayRecord::Program &P = Rec.Programs[K];
    if (!P.Err.empty())
      return P.Err;
    if (!(E = P.firingMismatch(G)).empty())
      return E;
    for (size_t C = 0; C != NumChans; ++C)
      if (!External(C) && P.EndLive[C] != S.PostInitLive[C])
        return "after the " + std::string(P.Name) + " program: channel " +
               std::to_string(C) + " holds " + std::to_string(P.EndLive[C]) +
               " items, schedule says " + std::to_string(S.PostInitLive[C]);
    int64_t Need = std::max(P.ExtPops + ExternalExtra, PeekMax[K]);
    if (P.ExtPops != ExtPops[K] || P.ExtPushes != ExtPushes[K] ||
        Need != ExtNeed[K])
      return std::string(P.Name) + " program external I/O (pops " +
             std::to_string(P.ExtPops) + ", pushes " +
             std::to_string(P.ExtPushes) + ", needs " + std::to_string(Need) +
             ") disagrees with the schedule (pops " +
             std::to_string(ExtPops[K]) + ", pushes " +
             std::to_string(ExtPushes[K]) + ", needs " +
             std::to_string(ExtNeed[K]) + ")";
  }

  for (size_t C = 0; C != NumChans; ++C) {
    if (Rec.HighWater[C] != S.ChannelHighWater[C])
      return "channel " + std::to_string(C) + " high-water mark is " +
             std::to_string(Rec.HighWater[C]) + ", schedule says " +
             std::to_string(S.ChannelHighWater[C]);
    if (!External(C) && S.ChannelBufSize[C] != Rec.bufferNeed(C))
      return "channel " + std::to_string(C) + " buffer capacity is " +
             std::to_string(S.ChannelBufSize[C]) + ", replay needs " +
             std::to_string(Rec.bufferNeed(C));
  }
  return "";
}
