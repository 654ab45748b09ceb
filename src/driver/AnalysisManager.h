//===- AnalysisManager.h - Cached per-module/per-loop analyses --*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis half of the compilation-session architecture. One
/// AnalysisManager owns every analysis result derived from one module:
///
///  - per-module: AccessNumbering, PointsTo;
///  - per-(loop, graph source): the LoopDepGraph (profiled, static, or
///    caller-registered external) and its Definition 4/5 AccessClasses.
///
/// Queries are lazy and cached; repeated queries return the cached result
/// (counted in AnalysisStats, the basis of the batch-compilation guarantee
/// that the profiler runs at most once per (loop, source)). compileLoop's
/// transform stages report what they preserved and the session invalidates
/// accordingly: invalidateModule() drops everything (the IR changed),
/// invalidateLoop() drops only one loop's graphs and classes.
///
/// Failed graph acquisitions (a trapped profiling run, a missing or
/// mismatched external graph) are reported through the DiagnosticEngine and
/// negatively cached, so a batch session does not re-run a failing profile
/// for every downstream query. Negative entries live beside positive ones
/// and travel the same invalidation path: a transform stage that changes the
/// IR drops cached FAILURES too, so a loop that becomes analyzable after
/// expansion is re-profiled instead of replaying a stale error.
///
/// Thread-safety: none. A manager belongs to one CompilationSession, and a
/// session is used by one thread at a time (compileBatch hands each
/// session to exactly one worker and merges its output at the join).
///
//===----------------------------------------------------------------------===//

#ifndef GDSE_DRIVER_ANALYSISMANAGER_H
#define GDSE_DRIVER_ANALYSISMANAGER_H

#include "analysis/AccessClasses.h"
#include "analysis/DepGraph.h"
#include "analysis/PointsTo.h"
#include "analysis/StaticPrivatizer.h"
#include "ir/AccessInfo.h"
#include "support/Diagnostics.h"
#include "support/Timing.h"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace gdse {

struct BytecodeModule;
struct GuardPlan;

/// Where a loop-level dependence graph comes from (§2: "from the
/// programmer, the compiler, or tools that perform data dependence
/// profiling").
enum class GraphSource : uint8_t {
  Profile,  ///< dependence profiling run (the paper's evaluation setup)
  Static,   ///< conservative compile-time analysis (the §4.1 foil)
  External, ///< caller-supplied, e.g. programmer-verified (GraphIO.h)
  Witness,  ///< Static refined by the privatization witness's proofs
};

const char *graphSourceName(GraphSource S);

/// Cache behaviour counters; also mirrored into the TimingRegistry's named
/// counters when one is attached.
struct AnalysisStats {
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  /// Dependence-profiling interpreter executions (each is one whole-program
  /// VM run — by far the most expensive analysis).
  uint64_t ProfileRuns = 0;
  uint64_t PointsToRuns = 0;
  uint64_t NumberingRuns = 0;
  uint64_t StaticGraphRuns = 0;
  /// Static privatization witness computations (one per loop per IR version).
  uint64_t WitnessRuns = 0;
  uint64_t ClassifyRuns = 0;
  /// Register-bytecode lowerings of the whole module (each feeds every
  /// profiling run until the IR changes).
  uint64_t BytecodeLowerings = 0;
};

class AnalysisManager {
public:
  AnalysisManager(Module &M, DiagnosticEngine &DE,
                  TimingRegistry *TR = nullptr);
  ~AnalysisManager();

  /// Entry function executed by profiling runs (default "main"). Changing
  /// the entry drops every cached Profile-source result — graphs profiled
  /// under another entry point describe a different execution.
  void setEntry(std::string Entry);
  const std::string &entry() const { return Entry; }

  /// Registers the caller-supplied graph served for GraphSource::External.
  /// May be null to clear. The graph must outlive the manager (or the next
  /// setExternalGraph call). Changing the registered graph drops every
  /// cached External result (including negatively-cached failures).
  void setExternalGraph(const LoopDepGraph *G);

  //===--------------------------------------------------------------------===//
  // Queries
  //===--------------------------------------------------------------------===//

  /// Module-wide access/loop numbering of the CURRENT IR.
  const AccessNumbering &numbering();
  /// Whole-program Andersen points-to of the CURRENT IR.
  const PointsTo &pointsTo();
  /// The CURRENT IR lowered to register bytecode (default cost table) —
  /// the execution format every profiling run of this session shares.
  /// Numbering runs first (the lowering bakes access/loop ids in).
  /// Invalidated whenever the IR changes: invalidateModule, and also
  /// invalidateLoop, since the module bytecode embeds every loop's body.
  std::shared_ptr<const BytecodeModule> bytecode();

  /// The dependence graph of \p LoopId under \p Source. Null on failure
  /// (an error diagnostic has been emitted); failures are negatively
  /// cached until invalidation.
  const LoopDepGraph *depGraph(unsigned LoopId, GraphSource Source);

  /// Definition 4/5 classification of depGraph(LoopId, Source). Null when
  /// the underlying graph is unavailable.
  const AccessClasses *accessClasses(unsigned LoopId, GraphSource Source);

  /// The static privatization witness of \p LoopId: per-access-class
  /// ProvenPrivate / ProvenShared / Unknown verdicts derived from the
  /// conservative static graph (StaticPrivatizer.h). Never null; cached per
  /// loop and dropped on the same invalidation path as the graphs. The
  /// shared_ptr keeps a result alive across invalidation for callers that
  /// captured it (guard plans reference verdicts of the pre-transform IR).
  std::shared_ptr<const PrivatizationWitness> staticWitness(unsigned LoopId);

  //===--------------------------------------------------------------------===//
  // Guarded-execution metadata (transform OUTPUT, not an analysis)
  //===--------------------------------------------------------------------===//

  /// Registers the guard plan the expansion pass produced for \p LoopId —
  /// the byte ranges its privatized classes claimed private. Cached
  /// alongside the bytecode so every later execution of the rewritten
  /// module (bench runs, guarded re-runs) can validate the privatization
  /// without re-running the transform. Unlike analyses, plans describe the
  /// REWRITTEN IR, so they deliberately survive invalidateLoop /
  /// invalidateModule (those drop results derived from superseded IR; the
  /// plan belongs to the IR that superseded it). Null clears the entry.
  void setGuardPlan(unsigned LoopId, std::shared_ptr<const GuardPlan> GP);

  /// The registered guard plan of \p LoopId; null when the loop was never
  /// expanded (or expansion privatized nothing).
  std::shared_ptr<const GuardPlan> guardPlan(unsigned LoopId) const;

  /// All registered guard plans, ready for InterpOptions::GuardPlans.
  std::vector<std::shared_ptr<const GuardPlan>> guardPlans() const;

  //===--------------------------------------------------------------------===//
  // Invalidation
  //===--------------------------------------------------------------------===//

  /// The IR of \p LoopId changed (e.g. planner wrapped its body in ordered
  /// regions): drop that loop's graphs and classes — cached failures
  /// included — keep every other loop's entries.
  void invalidateLoop(unsigned LoopId);
  /// The module-wide IR changed (expansion, rtpriv): drop everything,
  /// positive and negative entries alike.
  void invalidateModule();

  AnalysisStats stats() const { return Stats; }
  Module &module() { return M; }
  DiagnosticEngine &diags() { return DE; }

private:
  struct CachedGraph {
    bool Failed = false;
    /// The failure's diagnostic, replayed verbatim on every cached-failure
    /// query so each compileLoop attempt still reports why it failed.
    Diagnostic FailDiag;
    LoopDepGraph G;
  };

  /// One loop's cached results.
  struct LoopCache {
    std::map<GraphSource, CachedGraph> Graphs;
    std::map<GraphSource, AccessClasses> Classes;
    std::shared_ptr<const PrivatizationWitness> Witness;
  };

  void hit();
  void miss();
  /// Serves a cache entry: counts the hit, replays the failure diagnostic
  /// for negative entries.
  const LoopDepGraph *served(const CachedGraph &Entry);
  /// The static graph and the witness of a loop, computed into \p L on
  /// first use. These are steps of the Static, Witness and staticWitness
  /// queries, not queries of their own, so they count no hit or miss.
  const LoopDepGraph &staticGraph(LoopCache &L, unsigned LoopId,
                                  const AccessNumbering &Numbering);
  const PrivatizationWitness &witness(LoopCache &L, unsigned LoopId,
                                      const AccessNumbering &Numbering);

  Module &M;
  DiagnosticEngine &DE;
  TimingRegistry *TR;
  std::string Entry = "main";
  const LoopDepGraph *External = nullptr;

  std::optional<AccessNumbering> Num;
  std::optional<PointsTo> PT;
  std::shared_ptr<const BytecodeModule> BC;
  std::map<unsigned, LoopCache> Loops;
  /// Guard plans by loop id (see setGuardPlan); not swept by invalidation.
  std::map<unsigned, std::shared_ptr<const GuardPlan>> GuardPlansById;
  AnalysisStats Stats;
};

} // namespace gdse

#endif // GDSE_DRIVER_ANALYSISMANAGER_H
