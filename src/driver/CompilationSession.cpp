//===- CompilationSession.cpp - Multi-loop batch compilation ---------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "driver/CompilationSession.h"

#include "ir/IR.h"
#include "rtpriv/RtPrivPass.h"
#include "support/Support.h"
#include "support/ThreadPool.h"

#include <map>

using namespace gdse;

namespace {

/// What a stage left intact, from the AnalysisManager's point of view.
enum class Preserved : uint8_t {
  All,           ///< IR unchanged: every cached analysis stays valid
  AllExceptLoop, ///< only the target loop's IR changed (e.g. sync insertion)
  None,          ///< module-wide rewrite: drop everything
};

/// --audit-deps: re-derive the source graph's privatization claims with the
/// static witness and report every claim it refutes or cannot support.
/// Runs before any transform: witness access ids match the profiled graph
/// only before expansion rewrites the loop. Never mutates the IR.
///
/// Refutations (warnings, counted in R.AuditRefuted) are facts the profile
/// asserts that a static proof contradicts — a profiled-private class with
/// a statically certain loop-carried flow dependence, a profiled upwards-
/// exposed load covered by same-iteration must-writes, or a profiled
/// carried flow edge into such a load. Any refutation means one of the two
/// analyses is wrong and the graph must not be trusted.
///
/// Unsupported claims (warnings, R.AuditUnsupported) are profiled-private
/// classes the witness can only call Unknown: nothing is wrong, but runtime
/// guards remain the only check for them.
///
/// Freshness-proven loads never refute exposure claims: a load of a
/// per-iteration-fresh allocation can still read uninitialized bytes, which
/// the profiler correctly reports as upwards-exposed. Only coverage proofs
/// (loadProven && !rootsFresh) contradict the profile.
Preserved auditDeps(AnalysisManager &AM, unsigned LoopId, GraphSource Source,
                    PipelineResult &R) {
  DiagnosticEngine &DE = AM.diags();
  const LoopDepGraph *G = AM.depGraph(LoopId, Source);
  const AccessClasses *Classes = AM.accessClasses(LoopId, Source);
  if (!G || !Classes) // acquisition already diagnosed upstream
    return Preserved::All;
  std::shared_ptr<const PrivatizationWitness> W = AM.staticWitness(LoopId);

  auto MemberList = [](const std::vector<AccessId> &Ids) {
    std::string S;
    for (AccessId Id : Ids)
      S += formatString("%s%u", S.empty() ? "" : " ", Id);
    return S;
  };

  for (unsigned CI = 0; CI < Classes->classes().size(); ++CI) {
    const AccessClassInfo &C = Classes->classes()[CI];
    if (!C.Private)
      continue;
    ++R.AuditChecked;
    AccessId SharedId = InvalidAccessId;
    bool AllPrivate = true;
    for (AccessId Id : C.Members) {
      PrivatizationVerdict V = W->verdictOf(Id);
      if (V == PrivatizationVerdict::ProvenShared &&
          SharedId == InvalidAccessId)
        SharedId = Id;
      if (V != PrivatizationVerdict::ProvenPrivate)
        AllPrivate = false;
    }
    if (SharedId != InvalidAccessId) {
      ++R.AuditRefuted;
      DE.warning(formatString(
          "refuted: profiled-private class %u (members %s) has a "
          "statically certain loop-carried flow dependence through "
          "access %u",
          CI, MemberList(C.Members).c_str(), SharedId));
    } else if (AllPrivate) {
      ++R.AuditConfirmed;
      DE.note(formatString(
          "confirmed: profiled-private class %u (members %s) is "
          "statically proven private",
          CI, MemberList(C.Members).c_str()));
    } else {
      ++R.AuditUnsupported;
      DE.warning(formatString(
          "unsupported: profiled-private class %u (members %s) could not "
          "be proven private statically%s; runtime guards remain the "
          "only check",
          CI, MemberList(C.Members).c_str(),
          W->unmodeled() ? " (unmodeled bulk memory operation)" : ""));
    }
  }

  for (AccessId Id : G->UpwardsExposedLoads)
    if (W->loadProven(Id) && !W->rootsFresh(Id)) {
      ++R.AuditRefuted;
      DE.warning(formatString(
          "refuted: profiled upwards-exposed load %u is covered by "
          "same-iteration must-writes on every path",
          Id));
    }
  for (const DepEdge &E : G->Edges)
    if (E.Carried && E.Kind == DepKind::Flow && W->loadProven(E.Dst) &&
        !W->rootsFresh(E.Dst)) {
      ++R.AuditRefuted;
      DE.warning(formatString(
          "refuted: profiled loop-carried flow %u -> %u targets a load "
          "covered by same-iteration must-writes",
          E.Src, E.Dst));
    }
  return Preserved::All;
}

/// Step 3 of Figure 7: rewrite the module so every thread-private access
/// class operates on per-thread copies (Tables 1-3).
Preserved expansion(AnalysisManager &AM, unsigned LoopId,
                    const PipelineOptions &Opts, PipelineResult &R,
                    std::set<AccessId> &Honored) {
  const LoopDepGraph *G = AM.depGraph(LoopId, Opts.Source);
  if (!G) {
    AM.diags().error("dependence graph unavailable");
    return Preserved::All;
  }
  ExpansionInputs In;
  In.Num = &AM.numbering();
  In.PT = &AM.pointsTo();
  In.Classes = AM.accessClasses(LoopId, Opts.Source);
  // Commutative privatization needs the witness even when guard pruning is
  // off: the reduction-op proof lives in the witness.
  std::shared_ptr<const PrivatizationWitness> W;
  if (Opts.Expansion.GuardPruning || Opts.Expansion.CommutativePrivatization) {
    W = AM.staticWitness(LoopId);
    In.Witness = W.get();
  }
  ExpansionResult ER =
      expandLoop(AM.module(), LoopId, *G, AM.diags(), Opts.Expansion, In);
  if (!ER.Ok) {
    // The module may be partially rewritten; the caller must discard it,
    // but drop the caches in case the session object outlives the error.
    return Preserved::None;
  }
  R.Expansion = ER.Stats;
  R.Guard = ER.Guard;
  AM.setGuardPlan(LoopId, ER.Guard);
  Honored = std::move(ER.PrivateAccesses);
  const ExpansionStats &S = ER.Stats;
  bool Untouched = S.ExpandedObjects == 0 && S.PromotedPointerSlots == 0 &&
                   S.SpanStoresInserted == 0 &&
                   S.PrivateAccessesRedirected == 0 &&
                   S.SharedAccessesRedirected == 0;
  return Untouched ? Preserved::All : Preserved::None;
}

/// The §4.2.1 baseline: route every private access through the VM's
/// runtime access-control library instead of expanding.
Preserved rtpriv(AnalysisManager &AM, unsigned LoopId, PipelineResult &R,
                 std::set<AccessId> &Honored) {
  RtPrivResult RR = applyRuntimePrivatization(AM.module(), R.PrivateAccesses,
                                              AM.diags(), LoopId);
  if (!RR.Ok)
    return Preserved::None;
  R.RtPrivWrapped = RR.AccessesWrapped;
  Honored = R.PrivateAccesses;
  return RR.AccessesWrapped ? Preserved::None : Preserved::All;
}

/// Step 4 of Figure 7: decide DOALL vs DOACROSS and wrap residual-
/// dependence statements in ordered regions. Plans against the graph
/// snapshot the privatization stage honored (R.Graph), never a re-profiled
/// one.
Preserved planner(AnalysisManager &AM, unsigned LoopId, PipelineResult &R,
                  const std::set<AccessId> &Honored) {
  R.Plan = planParallelLoop(AM.module(), LoopId, R.Graph, Honored,
                            &AM.diags());
  return R.Plan.Parallelized ? Preserved::AllExceptLoop : Preserved::All;
}

} // namespace

CompilationSession::CompilationSession(Module &M) : M(M), AM(M, DE, &TR) {}

std::vector<unsigned> CompilationSession::candidateLoops() {
  const AccessNumbering &Num = AM.numbering();
  std::vector<unsigned> Out;
  for (const LoopDesc &L : Num.loops())
    if (auto *F = dyn_cast<ForStmt>(L.LoopStmt))
      if (F->isCandidate())
        Out.push_back(L.Id);
  return Out;
}

PipelineResult CompilationSession::compileLoop(unsigned LoopId,
                                               const PipelineOptions &Opts) {
  PipelineResult R;
  R.LoopId = LoopId;
  size_t DiagStart = DE.size();
  unsigned ErrorsAtStart = DE.errorCount();
  AM.setEntry(Opts.Entry);
  AM.setExternalGraph(Opts.ExternalGraph);

  auto finish = [&](bool Ok) -> PipelineResult & {
    R.Diags = DE.diagnosticsSince(DiagStart);
    R.Ok = Ok && DE.errorCount() == ErrorsAtStart;
    return R;
  };

  // --- Graph acquisition + Definition 4/5 classification. -----------------
  // A failed profiling run or a missing/mismatched external graph short-
  // circuits here: nothing downstream sees a partially-filled result.
  const LoopDepGraph *G = AM.depGraph(LoopId, Opts.Source);
  if (!G)
    return finish(false);
  const AccessClasses *Classes = AM.accessClasses(LoopId, Opts.Source);
  if (!Classes)
    return finish(false);
  R.Graph = *G;
  R.Breakdown = computeAccessBreakdown(*G, *Classes);
  R.PrivateAccesses = Classes->privateAccesses();

  // --- Privatization + planning, in a fixed order. ------------------------
  // Each stage runs under its pass name: a DiagnosticScope attributes what
  // it reports, "pass.<name>" times it and counts its runs, and the caches
  // are invalidated per what it preserved. An error ends the pipeline.
  auto runStage = [&](const char *Name, auto Stage) {
    unsigned ErrorsBefore = DE.errorCount();
    std::string Timer = std::string("pass.") + Name;
    Preserved PA;
    {
      DiagnosticScope Scope(DE, Name, LoopId);
      TimerScope T(&TR, Timer);
      PA = Stage();
    }
    if (PA == Preserved::AllExceptLoop)
      AM.invalidateLoop(LoopId);
    else if (PA == Preserved::None)
      AM.invalidateModule();
    TR.bumpCounter(Timer + ".runs");
    return DE.errorCount() == ErrorsBefore;
  };
  // Private accesses the privatization stage honored (empty when none ran)
  // — the set the planner must treat as decontended.
  std::set<AccessId> Honored;
  if (Opts.AuditDeps && !runStage("audit-deps", [&] {
        return auditDeps(AM, LoopId, Opts.Source, R);
      }))
    return finish(false);
  bool Ok = true;
  switch (Opts.Method) {
  case PrivatizationMethod::Expansion:
    Ok = runStage("expansion",
                  [&] { return expansion(AM, LoopId, Opts, R, Honored); });
    break;
  case PrivatizationMethod::Runtime:
    Ok = runStage("rtpriv", [&] { return rtpriv(AM, LoopId, R, Honored); });
    break;
  case PrivatizationMethod::None:
    break;
  }
  Ok = Ok && runStage("planner",
                      [&] { return planner(AM, LoopId, R, Honored); });
  return finish(Ok);
}

std::vector<PipelineResult>
CompilationSession::compileAll(const PipelineOptions &Opts) {
  std::vector<PipelineResult> Out;
  for (unsigned LoopId : candidateLoops()) {
    Out.push_back(compileLoop(LoopId, Opts));
    if (!Out.back().Ok)
      break;
  }
  return Out;
}

static AnalysisStats statsDelta(const AnalysisStats &After,
                                const AnalysisStats &Before) {
  AnalysisStats D;
  D.CacheHits = After.CacheHits - Before.CacheHits;
  D.CacheMisses = After.CacheMisses - Before.CacheMisses;
  D.ProfileRuns = After.ProfileRuns - Before.ProfileRuns;
  D.PointsToRuns = After.PointsToRuns - Before.PointsToRuns;
  D.NumberingRuns = After.NumberingRuns - Before.NumberingRuns;
  D.StaticGraphRuns = After.StaticGraphRuns - Before.StaticGraphRuns;
  D.WitnessRuns = After.WitnessRuns - Before.WitnessRuns;
  D.ClassifyRuns = After.ClassifyRuns - Before.ClassifyRuns;
  D.BytecodeLowerings = After.BytecodeLowerings - Before.BytecodeLowerings;
  return D;
}

std::vector<BatchUnitResult>
CompilationSession::compileBatch(const std::vector<BatchUnit> &Units,
                                 unsigned Jobs,
                                 DiagnosticEngine *MergedDiags,
                                 TimingRegistry *MergedTiming) {
  std::vector<BatchUnitResult> Out(Units.size());

  // Group unit indices by module, preserving each module's first-appearance
  // order. A module's units share one session (cached analyses carry
  // across them) and are serialized on one worker: transform stages mutate
  // the module IR, which must never happen concurrently. Distinct modules
  // share nothing and compile fully in parallel.
  std::vector<Module *> GroupModules;
  std::map<Module *, std::vector<size_t>> UnitsOf;
  for (size_t I = 0; I < Units.size(); ++I) {
    if (!Units[I].M) {
      Diagnostic D;
      D.Pass = "session";
      D.Message = "batch unit has no module";
      Out[I].Diags.push_back(std::move(D));
      continue;
    }
    auto [It, IsNew] = UnitsOf.try_emplace(Units[I].M);
    if (IsNew)
      GroupModules.push_back(Units[I].M);
    It->second.push_back(I);
  }

  // Sessions are created (and later merged) on the calling thread; each
  // worker task owns exactly one session while it runs, so the per-worker
  // diagnostic and timing buffers need no cross-thread coordination until
  // the deterministic flush below.
  std::vector<std::unique_ptr<CompilationSession>> Sessions;
  Sessions.reserve(GroupModules.size());
  for (Module *M : GroupModules)
    Sessions.push_back(std::make_unique<CompilationSession>(*M));

  ThreadPool Pool(Jobs);
  for (size_t G = 0; G < GroupModules.size(); ++G) {
    CompilationSession *S = Sessions[G].get();
    const std::vector<size_t> *Group = &UnitsOf[GroupModules[G]];
    Pool.submit([S, Group, &Units, &Out] {
      for (size_t UI : *Group) {
        const BatchUnit &U = Units[UI];
        BatchUnitResult &R = Out[UI];
        size_t DiagStart = S->diags().size();
        AnalysisStats Before = S->analysisStats();
        std::vector<unsigned> Loops =
            U.Loops.empty() ? S->candidateLoops() : U.Loops;
        R.Ok = true;
        for (unsigned LoopId : Loops) {
          R.Results.push_back(S->compileLoop(LoopId, U.Opts));
          if (!R.Results.back().Ok) {
            R.Ok = false;
            break;
          }
        }
        R.Diags = S->diags().diagnosticsSince(DiagStart);
        R.Stats = statsDelta(S->analysisStats(), Before);
        if (UI == Group->back()) {
          R.TimingReport = S->timingReport();
          R.StatsReport = S->statsReport();
        }
      }
    });
  }
  Pool.wait();

  // The join point: flush every worker's buffered output in UNIT order —
  // scheduling never leaks into what the caller observes.
  if (MergedDiags)
    for (const BatchUnitResult &R : Out)
      MergedDiags->append(R.Diags);
  if (MergedTiming)
    for (const auto &S : Sessions)
      MergedTiming->merge(S->timing());

  return Out;
}

std::string CompilationSession::statsReport() const {
  std::string Out = TR.statsReport();
  AnalysisStats S = AM.stats();
  Out += formatString("  %12llu  analysis.profile.runs\n",
                      static_cast<unsigned long long>(S.ProfileRuns));
  Out += formatString("  %12llu  analysis.points-to.runs\n",
                      static_cast<unsigned long long>(S.PointsToRuns));
  Out += formatString("  %12llu  analysis.numbering.runs\n",
                      static_cast<unsigned long long>(S.NumberingRuns));
  return Out;
}
