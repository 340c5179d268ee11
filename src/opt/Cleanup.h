//===- opt/Cleanup.h - Cleanup and verification passes ----------*- C++ -*-===//
///
/// \file
/// The compiler pipeline's cleanup and verification passes, run after the
/// paper's replacement/selection transforms (compiler/Pipeline.h):
///
///  * **LinearConstFold** — rebuilds generated linear filters whose
///    coefficient matrices carry compile-time-constant structure:
///    pure-offset nodes (A == 0, e.g. a linear region fed only by
///    constants) become constant emitters with no peek window beyond
///    their pops, and nodes whose deepest peek positions have all-zero
///    coefficients (combined decimating sections — Compressor tails —
///    produce these) get those dead rows trimmed, shrinking the peek
///    window and therefore every downstream buffer. Folding only fires
///    on filters that are verbatim outputs of our own code generator
///    (checked by structural hash), so the rebuilt filter's arithmetic —
///    and with it both output values and FLOP counts — is bit-identical
///    to the unfolded one.
///
///  * **DeadChannelElim** — deletes splitjoin branches whose outputs are
///    never consumed (joiner weight zero) and have no observable side
///    effects (no print statements anywhere in the subtree). Branches
///    fed by a duplicate splitter (or a zero splitter weight) are
///    removed outright; branches owed input by a roundrobin splitter are
///    reduced to a minimal pop-and-discard sink so the splitter's item
///    accounting is preserved. Splitjoins left with a single branch
///    collapse to that branch. The flat graph and schedule are
///    recomputed downstream, so the dead channels' buffers disappear.
///
///  * **VerifyRates** — assertion passes: verifyStreamRates re-derives
///    the push/pop/peek balance equations of the (rewritten) stream
///    hierarchy and reports the first inconsistency as a string instead
///    of executing anything; verifySchedule replays a lowered program's
///    init/batch/steady firing programs symbolically against the flat
///    graph and cross-checks every cached StaticSchedule field
///    (repetitions, firing counts, channel occupancy, high-water marks,
///    buffer capacities, external I/O accounting) for exact equality.
///    The pipeline runs them after every rewrite when
///    PipelineOptions::VerifyAfterEachPass is set (default: the
///    SLIN_VERIFY environment variable), failing fast with the offending
///    pass's name.
///
/// The replay itself, replayFiringPrograms, serves both schedule
/// verifiers: verifySchedule feeds it the declared rates, and the
/// linter's verify-bounds (verify/Lint.h) feeds it rates re-derived from
/// the op tapes and checks the same record against upper bounds. It
/// applies each step's firings at once, so it costs O(steps).
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_OPT_CLEANUP_H
#define SLIN_OPT_CLEANUP_H

#include "graph/Stream.h"
#include "opt/LinearReplacement.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace slin {

class AnalysisManager;
struct StaticSchedule;
namespace flat {
struct FlatGraph;
}

/// What the cleanup passes changed, for pass notes and tests.
struct CleanupStats {
  int ConstEmitters = 0;   ///< A == 0 nodes rebuilt as constant emitters
  int TrimmedFilters = 0;  ///< filters whose peek window shrank
  int64_t TrimmedPeekRows = 0; ///< dead peek positions removed in total
  int RemovedBranches = 0; ///< splitjoin children deleted outright
  int DiscardSinks = 0;    ///< dead branches reduced to pop-and-discard
  int CollapsedSplitJoins = 0; ///< single-branch splitjoins inlined

  bool any() const {
    return ConstEmitters || TrimmedFilters || RemovedBranches ||
           DiscardSinks || CollapsedSplitJoins;
  }
  /// Short human-readable summary for PassInfo notes ("no change" when
  /// nothing fired).
  std::string summary() const;
};

/// LinearConstFold. Returns the rewritten stream, or null when nothing
/// folded (the caller keeps the input). \p Style must be the pipeline's
/// code-generation style: a filter is only rebuilt when regenerating its
/// extracted node under \p Style reproduces it exactly, which both
/// certifies it as code-generator output and guarantees the trimmed
/// rebuild differs in nothing but the peek rate. \p AM memoizes the
/// extractions.
StreamPtr constFoldLinear(const Stream &Root, AnalysisManager &AM,
                          LinearCodeGenStyle Style, CleanupStats &Stats);

/// DeadChannelElim. Returns the rewritten stream, or null when nothing
/// was removed.
StreamPtr eliminateDeadChannels(const Stream &Root, CleanupStats &Stats);

/// True if any work/init-work function in \p S contains a print
/// statement (the only externally observable effect a stream can have).
bool hasObservableEffects(const Stream &S);

/// Re-derives the balance equations of \p Root; returns the first
/// inconsistency ("" when the graph has a valid steady state). Also
/// rejects negative rates, peek < pop windows and malformed init rates.
std::string verifyStreamRates(const Stream &Root);

/// What one firing of a node needs and does: on each input channel the
/// items that must be live (Need) and the items it pops, on each output
/// channel the items it pushes.
struct FiringIO {
  struct Port {
    int Chan = -1;
    int64_t Need = 0;  ///< inputs only
    int64_t Items = 0; ///< popped (inputs) or pushed (outputs)
  };
  std::vector<Port> In, Out;
};

/// A node's steady firing, and (HasInit) the first firing of a filter
/// with init work.
struct NodeIO {
  FiringIO Steady, Init;
  bool HasInit = false;
};

/// Every node's declared I/O (flat::Node::peekNeedOn/popsFrom/pushesTo).
std::vector<NodeIO> declaredIO(const flat::FlatGraph &G);

/// What replaying a schedule's init, batch and steady firing programs, in
/// that order and from one shared channel state, does to the graph.
struct ReplayRecord {
  struct Program {
    const char *Name = "";          ///< "init", "batch" or "steady"
    std::vector<int64_t> Scheduled; ///< firings per node the schedule says
    std::vector<int64_t> Fired;     ///< firings per node replayed
    std::vector<int64_t> StartLive; ///< live items per channel at start
    std::vector<int64_t> EndLive;   ///< ... and at the end
    std::vector<int64_t> Pushed;    ///< items appended per channel
    int64_t ExtPops = 0, ExtPushes = 0;
    /// A malformed step, an unmet input window or an item count that
    /// overflows. The replay stops there; later programs do not run.
    std::string Err;

    /// The first node whose replayed firings differ from Scheduled
    /// ("" when none does).
    std::string firingMismatch(const flat::FlatGraph &G) const;
  };
  std::array<Program, 3> Programs; ///< init, batch, steady
  std::vector<int64_t> HighWater;  ///< max live items per channel

  /// The first program that failed, or null.
  const Program *failed() const;
  /// Highest flat-buffer position channel \p C reaches: live items at a
  /// program's start plus the items appended during it, over programs.
  int64_t bufferNeed(size_t C) const;
};

/// Replays \p S's firing programs over \p G with each node firing as \p IO
/// says. Each step's firings are applied at once (the first firing of a
/// HasInit node split off), so the cost is O(steps), not O(firings). \p S's
/// per-node vectors must be sized to \p G.
ReplayRecord replayFiringPrograms(const flat::FlatGraph &G,
                                  const StaticSchedule &S,
                                  const std::vector<NodeIO> &IO);

/// Cross-checks \p S against \p G: independent balance of Repetitions, a
/// replay of the init, batch and steady programs with the declared rates
/// (malformed steps, unmet input windows, firing totals), and equality of
/// every derived schedule field (PostInitLive, ChannelHighWater,
/// ChannelBufSize, external pops/needs/pushes). Returns the first
/// mismatch, "" when consistent.
std::string verifySchedule(const flat::FlatGraph &G, const StaticSchedule &S);

} // namespace slin

#endif // SLIN_OPT_CLEANUP_H
