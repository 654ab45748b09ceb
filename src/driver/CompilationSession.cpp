//===- CompilationSession.cpp - Multi-loop batch compilation ---------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "driver/CompilationSession.h"

#include "driver/PassManager.h"
#include "ir/IR.h"
#include "support/Support.h"
#include "support/ThreadPool.h"

#include <map>

using namespace gdse;

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
  AM.setEntry(Opts.Entry);
  AM.setExternalGraph(Opts.ExternalGraph);

  auto finish = [&](bool Ok) -> PipelineResult & {
    R.Diags = DE.diagnosticsSince(DiagStart);
    R.Errors = DE.errorStrings(DiagStart);
    R.Ok = Ok && R.Errors.empty();
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

  // --- Privatization + planning as registered passes. ---------------------
  PassManager PM;
  // The audit must see the untransformed module: witness access ids match
  // the profiled graph only before expansion rewrites the loop.
  if (Opts.AuditDeps)
    PM.add(createAuditPass());
  switch (Opts.Method) {
  case PrivatizationMethod::Expansion:
    PM.add(createExpansionPass());
    break;
  case PrivatizationMethod::Runtime:
    PM.add(createRtPrivPass());
    break;
  case PrivatizationMethod::None:
    break;
  }
  PM.add(createPlannerPass());

  PassContext Cx{M, LoopId, Opts, AM, DE, R, {}};
  bool Ok = PM.run(Cx, &TR);
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
  // across them) and are serialized on one worker: transform passes mutate
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
