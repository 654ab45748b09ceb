//===- CompilationSessionTest.cpp - Session and cache behavior --*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The compilation-session contracts: analyses are cached and re-served
// (profiler runs at most once per (loop, graph source)), transform stages
// invalidate exactly what they clobber, batch sessions compile several
// loops off shared analyses, and profiling always runs on the session's
// bytecode while staying engine-independent.
//
//===----------------------------------------------------------------------===//

#include "analysis/GraphIO.h"
#include "driver/CompilationSession.h"
#include "frontend/Parser.h"
#include "interp/Bytecode.h"
#include "interp/Interp.h"
#include "ir/IRPrinter.h"
#include "profile/DepProfiler.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

using namespace gdse;

namespace {

// The Figure 1 pattern: a heap buffer fully rewritten by every iteration.
const char *OneLoop = R"(
  int main() {
    int m = 32;
    int* buf = malloc(m * sizeof(int));
    long acc = 0;
    @candidate for (int i = 0; i < 16; i++) {
      for (int k = 0; k < m; k++) { buf[k] = i * 3 + k; }
      int s = 0;
      for (int k = 0; k < m; k++) { s += buf[k]; }
      acc += s * (i + 1);
    }
    print_int(acc);
    free(buf);
    return 0;
  }
)";

// Two independent candidate loops, each privatizing its own buffer.
const char *TwoLoops = R"(
  int main() {
    int m = 32;
    int* a = malloc(m * sizeof(int));
    int* b = malloc(m * sizeof(int));
    long acc = 0;
    @candidate for (int i = 0; i < 16; i++) {
      for (int k = 0; k < m; k++) { a[k] = i + k; }
      int s = 0;
      for (int k = 0; k < m; k++) { s += a[k]; }
      acc += s;
    }
    @candidate for (int j = 0; j < 16; j++) {
      for (int k = 0; k < m; k++) { b[k] = j * 2 + k; }
      int t = 0;
      for (int k = 0; k < m; k++) { t += b[k]; }
      acc += t * 3;
    }
    print_int(acc);
    free(a);
    free(b);
    return 0;
  }
)";

TEST(AnalysisCache, SecondGraphQueryIsServedFromCache) {
  std::unique_ptr<Module> M = parseMiniCOrDie(OneLoop, "cache");
  CompilationSession S(*M);
  unsigned Loop = S.candidateLoops().front();

  const LoopDepGraph *G1 = S.analyses().depGraph(Loop, GraphSource::Profile);
  ASSERT_NE(G1, nullptr);
  EXPECT_EQ(S.analysisStats().ProfileRuns, 1u);

  const LoopDepGraph *G2 = S.analyses().depGraph(Loop, GraphSource::Profile);
  EXPECT_EQ(G2, G1);
  EXPECT_EQ(S.analysisStats().ProfileRuns, 1u);
  EXPECT_GE(S.analysisStats().CacheHits, 1u);
}

TEST(AnalysisCache, ClassificationReusesTheCachedGraph) {
  std::unique_ptr<Module> M = parseMiniCOrDie(OneLoop, "cache");
  CompilationSession S(*M);
  unsigned Loop = S.candidateLoops().front();

  ASSERT_NE(S.analyses().depGraph(Loop, GraphSource::Profile), nullptr);
  ASSERT_NE(S.analyses().accessClasses(Loop, GraphSource::Profile), nullptr);
  // Classification queries the graph internally — as a hit, not a re-run.
  EXPECT_EQ(S.analysisStats().ProfileRuns, 1u);
  EXPECT_GE(S.analysisStats().CacheHits, 1u);
}

TEST(AnalysisCache, ExpansionInvalidatesCachedAnalyses) {
  std::unique_ptr<Module> M = parseMiniCOrDie(OneLoop, "invalidate");
  CompilationSession S(*M);
  unsigned Loop = S.candidateLoops().front();

  PipelineResult PR = S.compileLoop(Loop);
  ASSERT_TRUE(PR.Ok);
  ASSERT_GT(PR.Expansion.ExpandedObjects, 0u);
  // One profiling run sufficed for the whole pipeline: classification and
  // the expansion pass consumed the cached graph.
  EXPECT_EQ(S.analysisStats().ProfileRuns, 1u);
  EXPECT_GT(S.analysisStats().CacheHits, 0u);

  // Expansion mutated the module, so the cached graph must be gone: a fresh
  // query re-profiles (now the transformed program).
  ASSERT_NE(S.analyses().depGraph(Loop, GraphSource::Profile), nullptr);
  EXPECT_EQ(S.analysisStats().ProfileRuns, 2u);
}

TEST(AnalysisCache, FailedProfileIsNegativelyCached) {
  // The profiling run traps on an out-of-bounds store; the failure must be
  // reported once and cached, not re-executed per query.
  const char *Src = R"(
    int main() {
      int* p = malloc(4 * sizeof(int));
      @candidate for (int i = 0; i < 8; i++) { p[i + 2] = i; }
      print_int(p[0]);
      free(p);
      return 0;
    }
  )";
  std::unique_ptr<Module> M = parseMiniCOrDie(Src, "trap");
  CompilationSession S(*M);
  unsigned Loop = S.candidateLoops().front();

  EXPECT_EQ(S.analyses().depGraph(Loop, GraphSource::Profile), nullptr);
  EXPECT_EQ(S.analyses().depGraph(Loop, GraphSource::Profile), nullptr);
  EXPECT_EQ(S.analysisStats().ProfileRuns, 1u);
  ASSERT_GE(S.diags().errorCount(), 1u);

  PipelineResult PR = S.compileLoop(Loop);
  EXPECT_FALSE(PR.Ok);
  bool Found = false;
  for (const Diagnostic &D : PR.Diags)
    if (D.Severity == DiagSeverity::Error &&
        D.Message.find("profiling run failed") != std::string::npos)
      Found = true;
  EXPECT_TRUE(Found);
  // compileLoop consumed the cached failure: still exactly one profile run.
  EXPECT_EQ(S.analysisStats().ProfileRuns, 1u);
}

TEST(BatchCompilation, TwoLoopsOneSessionProfilesOncePerLoop) {
  std::unique_ptr<Module> Orig = parseMiniCOrDie(TwoLoops, "batch");
  RunResult Seq = Interp(*Orig).run();
  ASSERT_TRUE(Seq.ok()) << Seq.TrapMessage;

  std::unique_ptr<Module> M = parseMiniCOrDie(TwoLoops, "batch");
  CompilationSession S(*M);
  ASSERT_EQ(S.candidateLoops().size(), 2u);

  std::vector<PipelineResult> Results = S.compileAll();
  ASSERT_EQ(Results.size(), 2u);
  for (const PipelineResult &R : Results) {
    EXPECT_TRUE(R.Ok);
    EXPECT_GT(R.Expansion.ExpandedObjects, 0u);
    // The `acc +=` reduction leaves one residual carried dependence, so the
    // loops parallelize as DOACROSS with an ordered region around it.
    EXPECT_TRUE(R.Plan.Parallelized);
  }
  EXPECT_NE(Results[0].LoopId, Results[1].LoopId);

  // The batch guarantee: the profiler ran exactly once per (loop, source),
  // everything else was served from the analysis cache.
  EXPECT_EQ(S.analysisStats().ProfileRuns, 2u);
  EXPECT_GT(S.analysisStats().CacheHits, 0u);
  EXPECT_EQ(S.timing().counter("analysis.cache.hits"),
            S.analysisStats().CacheHits);

  // The doubly-transformed module still computes the original answer.
  InterpOptions IO;
  IO.NumThreads = 4;
  RunResult Par = Interp(*M, IO).run();
  ASSERT_TRUE(Par.ok()) << Par.TrapMessage;
  EXPECT_EQ(Par.Output, Seq.Output);
  EXPECT_LT(Par.SimTime, Seq.SimTime);
}

TEST(AnalysisCache, NegativeEntriesTravelTheInvalidationPath) {
  // Regression: a cached FAILURE must be dropped by exactly the same
  // invalidation events as a cached graph. A stale negative entry would
  // keep reporting "profiling run failed" for a loop whose IR has changed.
  const char *Src = R"(
    int main() {
      int* p = malloc(4 * sizeof(int));
      @candidate for (int i = 0; i < 8; i++) { p[i + 2] = i; }
      print_int(p[0]);
      free(p);
      return 0;
    }
  )";
  std::unique_ptr<Module> M = parseMiniCOrDie(Src, "neg-invalidate");
  CompilationSession S(*M);
  unsigned Loop = S.candidateLoops().front();

  EXPECT_EQ(S.analyses().depGraph(Loop, GraphSource::Profile), nullptr);
  EXPECT_EQ(S.analyses().depGraph(Loop, GraphSource::Profile), nullptr);
  EXPECT_EQ(S.analysisStats().ProfileRuns, 1u);

  // Per-loop invalidation clears the negative entry: the next query
  // re-executes the profiler instead of replaying the cached failure.
  S.analyses().invalidateLoop(Loop);
  EXPECT_EQ(S.analyses().depGraph(Loop, GraphSource::Profile), nullptr);
  EXPECT_EQ(S.analysisStats().ProfileRuns, 2u);

  // So does whole-module invalidation...
  S.analyses().invalidateModule();
  EXPECT_EQ(S.analyses().depGraph(Loop, GraphSource::Profile), nullptr);
  EXPECT_EQ(S.analysisStats().ProfileRuns, 3u);

  // ...and an entry-point change (a different entry is a different program
  // to the profiler; its failures do not transfer).
  S.analyses().setEntry("main");   // unchanged: must NOT drop the cache
  EXPECT_EQ(S.analyses().depGraph(Loop, GraphSource::Profile), nullptr);
  EXPECT_EQ(S.analysisStats().ProfileRuns, 3u);
  S.analyses().setEntry("other");
  S.analyses().setEntry("main");
  EXPECT_EQ(S.analyses().depGraph(Loop, GraphSource::Profile), nullptr);
  EXPECT_EQ(S.analysisStats().ProfileRuns, 4u);
}

TEST(AnalysisCache, RepeatedQueriesRunEachAnalysisOnce) {
  // Repeated queries on one session: every underlying analysis runs exactly
  // once per (loop, source), and every query is answered.
  std::unique_ptr<Module> M = parseMiniCOrDie(TwoLoops, "repeated");
  CompilationSession S(*M);
  std::vector<unsigned> Loops = S.candidateLoops();
  ASSERT_EQ(Loops.size(), 2u);
  for (int I = 0; I < 4; ++I)
    for (unsigned Loop : Loops) {
      EXPECT_NE(S.analyses().depGraph(Loop, GraphSource::Profile), nullptr);
      EXPECT_NE(S.analyses().accessClasses(Loop, GraphSource::Profile),
                nullptr);
      EXPECT_NE(S.analyses().depGraph(Loop, GraphSource::Static), nullptr);
    }
  AnalysisStats St = S.analysisStats();
  EXPECT_EQ(St.ProfileRuns, 2u);
  EXPECT_EQ(St.StaticGraphRuns, 2u);
  EXPECT_EQ(St.ClassifyRuns, 2u);
  EXPECT_EQ(St.NumberingRuns, 1u);
  // 4 rounds x 2 loops x 3 queries; every round after the first hits.
  EXPECT_GE(St.CacheHits, 3u * 2u * 3u);

  // The witness and the witness-refined graph build on the loop's one
  // static graph, in whichever order the three are queried.
  int Order[3] = {0, 1, 2};
  do {
    SCOPED_TRACE(testing::Message()
                 << "query order " << Order[0] << Order[1] << Order[2]);
    std::unique_ptr<Module> WM = parseMiniCOrDie(TwoLoops, "witness");
    CompilationSession WS(*WM);
    AnalysisManager &AM = WS.analyses();
    for (unsigned Loop : WS.candidateLoops())
      for (int Q : Order) {
        if (Q == 0)
          EXPECT_NE(AM.staticWitness(Loop), nullptr);
        else if (Q == 1)
          EXPECT_NE(AM.depGraph(Loop, GraphSource::Witness), nullptr);
        else
          EXPECT_NE(AM.depGraph(Loop, GraphSource::Static), nullptr);
      }
    EXPECT_EQ(WS.analysisStats().StaticGraphRuns, 2u);
    EXPECT_EQ(WS.analysisStats().WitnessRuns, 2u);
  } while (std::next_permutation(Order, Order + 3));
}

/// Strips every digit run from a rendered report, leaving its structure
/// (row order, names, column layout) for bit-comparison across runs whose
/// wall-clock readings differ.
std::string reportShape(const std::string &Report) {
  std::string Out;
  bool InNumber = false;
  for (char C : Report) {
    if ((C >= '0' && C <= '9') || (InNumber && C == '.')) {
      if (!InNumber)
        Out.push_back('#');
      InNumber = true;
      continue;
    }
    InNumber = false;
    Out.push_back(C);
  }
  return Out;
}

TEST(BatchCompilation, ParallelBatchIsBitIdenticalToSerial) {
  // The tentpole guarantee on all eight workloads: compileBatch with 4
  // workers produces the same transformed modules, the same diagnostics in
  // the same order, the same analysis counts, and the same timing-report
  // structure as a 1-worker (fully serial) batch.
  auto compileSet = [](unsigned Jobs, std::vector<std::string> &Printed,
                       DiagnosticEngine &Diags, TimingRegistry &Timing) {
    std::vector<std::unique_ptr<Module>> Modules;
    std::vector<BatchUnit> Units;
    for (const WorkloadInfo &W : allWorkloads()) {
      ParseResult PR = parseMiniC(W.Source);
      ASSERT_TRUE(PR.ok()) << W.Name;
      BatchUnit U;
      U.M = PR.M.get();
      Units.push_back(U);
      Modules.push_back(std::move(PR.M));
    }
    std::vector<BatchUnitResult> Results =
        CompilationSession::compileBatch(Units, Jobs, &Diags, &Timing);
    ASSERT_EQ(Results.size(), Modules.size());
    for (const BatchUnitResult &R : Results)
      EXPECT_TRUE(R.Ok);
    for (const std::unique_ptr<Module> &M : Modules)
      Printed.push_back(printModule(*M));
  };

  std::vector<std::string> SerialIR, ParallelIR;
  DiagnosticEngine SerialDiags, ParallelDiags;
  TimingRegistry SerialTiming, ParallelTiming;
  compileSet(1, SerialIR, SerialDiags, SerialTiming);
  compileSet(4, ParallelIR, ParallelDiags, ParallelTiming);

  // Transformed modules: bit-identical.
  ASSERT_EQ(SerialIR.size(), ParallelIR.size());
  for (size_t I = 0; I < SerialIR.size(); ++I)
    EXPECT_EQ(SerialIR[I], ParallelIR[I]) << "workload #" << I;

  // Diagnostics: same messages in the same (unit) order.
  std::vector<Diagnostic> SD = SerialDiags.diagnostics();
  std::vector<Diagnostic> PD = ParallelDiags.diagnostics();
  ASSERT_EQ(SD.size(), PD.size());
  for (size_t I = 0; I < SD.size(); ++I)
    EXPECT_EQ(SD[I].str(), PD[I].str());

  // Timing: identical structure, names, invocation and VM-cycle counts;
  // only wall-clock readings may differ.
  std::vector<PassTimingRecord> SR = SerialTiming.records();
  std::vector<PassTimingRecord> PR = ParallelTiming.records();
  ASSERT_EQ(SR.size(), PR.size());
  for (size_t I = 0; I < SR.size(); ++I) {
    EXPECT_EQ(SR[I].Name, PR[I].Name);
    EXPECT_EQ(SR[I].Invocations, PR[I].Invocations);
    EXPECT_EQ(SR[I].VmCycles, PR[I].VmCycles);
  }
  EXPECT_EQ(SerialTiming.counters(), ParallelTiming.counters());
  EXPECT_EQ(reportShape(SerialTiming.statsReport()),
            reportShape(ParallelTiming.statsReport()));
}

TEST(BatchCompilation, SameModuleUnitsSerializeAndShareOneSession) {
  // Two units naming the same module must share a session (analyses carry
  // across) and run in submission order on one worker — the second unit's
  // loop sees the first unit's transformed IR, exactly like compileAll.
  std::unique_ptr<Module> Ref = parseMiniCOrDie(TwoLoops, "ref");
  CompilationSession SRef(*Ref);
  std::vector<unsigned> RefLoops = SRef.candidateLoops();
  for (unsigned Loop : RefLoops)
    ASSERT_TRUE(SRef.compileLoop(Loop).Ok);
  AnalysisStats RefStats = SRef.analysisStats();

  std::unique_ptr<Module> M = parseMiniCOrDie(TwoLoops, "split");
  std::vector<unsigned> Loops = CompilationSession(*M).candidateLoops();
  ASSERT_EQ(Loops.size(), 2u);
  std::vector<BatchUnit> Units(2);
  Units[0].M = M.get();
  Units[0].Loops = {Loops[0]};
  Units[1].M = M.get();
  Units[1].Loops = {Loops[1]};
  std::vector<BatchUnitResult> Results =
      CompilationSession::compileBatch(Units, 4);
  ASSERT_EQ(Results.size(), 2u);
  EXPECT_TRUE(Results[0].Ok);
  EXPECT_TRUE(Results[1].Ok);
  // Sharing one session costs no analysis runs beyond the serial baseline.
  // (The count is not 1: the first unit's expansion pass mutates the IR and
  // invalidates the module, so the second unit legitimately re-numbers —
  // serial compileLoop sequences pay exactly the same.)
  EXPECT_EQ(Results[0].Stats.NumberingRuns + Results[1].Stats.NumberingRuns,
            RefStats.NumberingRuns);
  EXPECT_EQ(Results[0].Stats.ProfileRuns + Results[1].Stats.ProfileRuns,
            RefStats.ProfileRuns);
  // Each unit's stats are its own delta on the shared session, lowerings
  // included: profiling lowers the module, so each unit reports at least
  // one, and together they match the serial session.
  EXPECT_GE(Results[0].Stats.BytecodeLowerings, 1u);
  EXPECT_GE(Results[1].Stats.BytecodeLowerings, 1u);
  EXPECT_EQ(Results[0].Stats.BytecodeLowerings +
                Results[1].Stats.BytecodeLowerings,
            RefStats.BytecodeLowerings);

  EXPECT_EQ(printModule(*M), printModule(*Ref));
}

TEST(PassTiming, EveryStageIsAccounted) {
  std::unique_ptr<Module> M = parseMiniCOrDie(OneLoop, "timing");
  CompilationSession S(*M);
  PipelineResult PR = S.compileLoop(S.candidateLoops().front());
  ASSERT_TRUE(PR.Ok);

  bool SawProfile = false, SawExpansion = false, SawPlanner = false;
  bool SawShadow = false;
  for (const PassTimingRecord &Rec : S.timing().records()) {
    if (Rec.Name == "analysis.profile") {
      SawProfile = true;
      EXPECT_EQ(Rec.Invocations, 1u);
      // Profiling executes the whole program under the VM.
      EXPECT_GT(Rec.VmCycles, 0u);
      EXPECT_FALSE(Rec.Overlapping);
    } else if (Rec.Name == "analysis.profile.shadow" ||
               Rec.Name == "analysis.profile.wait") {
      // The shadow's helper thread and the VM thread's wait on it overlap
      // analysis.profile and stay out of the report's total.
      SawShadow = true;
      EXPECT_EQ(Rec.Invocations, 1u);
      EXPECT_TRUE(Rec.Overlapping);
    } else if (Rec.Name == "pass.expansion") {
      SawExpansion = true;
      EXPECT_EQ(Rec.Invocations, 1u);
    } else if (Rec.Name == "pass.planner") {
      SawPlanner = true;
      EXPECT_EQ(Rec.Invocations, 1u);
    }
  }
  EXPECT_TRUE(SawProfile);
  EXPECT_TRUE(SawShadow);
  EXPECT_TRUE(SawExpansion);
  EXPECT_TRUE(SawPlanner);
  EXPECT_EQ(S.timing().counter("pass.expansion.runs"), 1u);
  EXPECT_EQ(S.timing().counter("pass.planner.runs"), 1u);

  EXPECT_NE(S.timingReport().find("pass.expansion"), std::string::npos);
  EXPECT_NE(S.statsReport().find("analysis.profile.runs"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The register-bytecode module analysis: lowered once, shared by every
// profiling run, dropped whenever the IR changes.
//===----------------------------------------------------------------------===//

TEST(AnalysisCache, BytecodeIsLoweredOnceAndShared) {
  std::unique_ptr<Module> M = parseMiniCOrDie(OneLoop, "bytecode-cache");
  CompilationSession S(*M);

  std::shared_ptr<const BytecodeModule> B1 = S.analyses().bytecode();
  ASSERT_NE(B1, nullptr);
  EXPECT_EQ(S.analysisStats().BytecodeLowerings, 1u);

  std::shared_ptr<const BytecodeModule> B2 = S.analyses().bytecode();
  EXPECT_EQ(B2.get(), B1.get());
  EXPECT_EQ(S.analysisStats().BytecodeLowerings, 1u);
  EXPECT_GE(S.analysisStats().CacheHits, 1u);
}

TEST(AnalysisCache, BytecodeDroppedByModuleInvalidation) {
  std::unique_ptr<Module> M = parseMiniCOrDie(OneLoop, "bytecode-invalidate");
  CompilationSession S(*M);
  unsigned Loop = S.candidateLoops().front();

  std::shared_ptr<const BytecodeModule> Before = S.analyses().bytecode();
  ASSERT_NE(Before, nullptr);
  EXPECT_EQ(S.analysisStats().BytecodeLowerings, 1u);

  // compileLoop runs expansion, which rewrites the module IR and
  // invalidates module-level analyses — the cached lowering included.
  PipelineResult PR = S.compileLoop(Loop);
  ASSERT_TRUE(PR.Ok);
  std::shared_ptr<const BytecodeModule> After = S.analyses().bytecode();
  ASSERT_NE(After, nullptr);
  EXPECT_NE(After.get(), Before.get());
  EXPECT_EQ(S.analysisStats().BytecodeLowerings, 2u);

  // The old shared_ptr stays valid for anyone still running on it.
  EXPECT_FALSE(Before->Funcs.empty());
}

TEST(AnalysisCache, BytecodeDroppedByLoopInvalidation) {
  std::unique_ptr<Module> M = parseMiniCOrDie(TwoLoops, "bytecode-loop-inv");
  CompilationSession S(*M);
  unsigned Loop = S.candidateLoops().front();

  std::shared_ptr<const BytecodeModule> Before = S.analyses().bytecode();
  uint64_t NumberingRunsBefore = S.analysisStats().NumberingRuns;

  // A per-loop rewrite (the planner wrapping the body in ordered regions)
  // reports loop-level invalidation only — but the module bytecode embeds
  // that loop's body, so it must be relowered too...
  S.analyses().invalidateLoop(Loop);
  std::shared_ptr<const BytecodeModule> After = S.analyses().bytecode();
  EXPECT_NE(After.get(), Before.get());
  EXPECT_EQ(S.analysisStats().BytecodeLowerings, 2u);

  // ...while numbering survives, per the invalidateLoop contract.
  EXPECT_EQ(S.analysisStats().NumberingRuns, NumberingRunsBefore);
}

TEST(AnalysisCache, ProfilingSharesTheSessionBytecode) {
  std::unique_ptr<Module> M = parseMiniCOrDie(TwoLoops, "bytecode-profile");
  CompilationSession S(*M);
  std::vector<unsigned> Loops = S.candidateLoops();
  ASSERT_EQ(Loops.size(), 2u);

  // Two profiling runs (one per loop) against one shared lowering.
  ASSERT_NE(S.analyses().depGraph(Loops[0], GraphSource::Profile), nullptr);
  ASSERT_NE(S.analyses().depGraph(Loops[1], GraphSource::Profile), nullptr);
  EXPECT_EQ(S.analysisStats().ProfileRuns, 2u);
  EXPECT_EQ(S.analysisStats().BytecodeLowerings, 1u);
}

TEST(AnalysisCache, ProfilingIgnoresEngineEnvironment) {
  // GDSE_ENGINE picks the engine of tools and benchmarks, never the
  // library's: a user asking for host threads must still get bytecode
  // profiling runs on the session's one shared lowering, not tree-walks.
  const char *Saved = std::getenv("GDSE_ENGINE");
  std::string SavedValue = Saved ? Saved : "";
  ::setenv("GDSE_ENGINE", "threads", 1);
  std::unique_ptr<Module> M = parseMiniCOrDie(TwoLoops, "engine-env-profile");
  CompilationSession S(*M);
  std::vector<unsigned> Loops = S.candidateLoops();
  ASSERT_EQ(Loops.size(), 2u);
  const LoopDepGraph *G0 =
      S.analyses().depGraph(Loops[0], GraphSource::Profile);
  const LoopDepGraph *G1 =
      S.analyses().depGraph(Loops[1], GraphSource::Profile);
  if (Saved)
    ::setenv("GDSE_ENGINE", SavedValue.c_str(), 1);
  else
    ::unsetenv("GDSE_ENGINE");
  ASSERT_NE(G0, nullptr);
  ASSERT_NE(G1, nullptr);
  EXPECT_EQ(S.analysisStats().ProfileRuns, 2u);
  EXPECT_EQ(S.analysisStats().BytecodeLowerings, 1u);
}

TEST(AnalysisCache, ProfileGraphIdenticalUnderBothEngines) {
  // The graph the profiler builds must not depend on the engine: same
  // events, same order. Profile once on the reference tree-walker with a
  // DepProfiler observer and compare the serialized graph with the bytecode
  // profiles of profileLoop and of the session.
  std::unique_ptr<Module> M = parseMiniCOrDie(OneLoop, "engine-graph");
  CompilationSession S(*M);
  unsigned Loop = S.candidateLoops().front();

  InterpOptions IO;
  IO.NumThreads = 1;
  IO.SimulateParallel = false;
  IO.Engine = ExecEngine::TreeWalk;
  DepProfiler Profiler(Loop);
  Interp I(*M, IO);
  I.setObserver(&Profiler);
  RunResult Run = I.run();
  ASSERT_TRUE(Run.ok()) << Run.TrapMessage;
  LoopDepGraph Tree = Profiler.takeGraph();

  ProfileResult Byte = profileLoop(*M, Loop);
  ASSERT_TRUE(Byte.Run.ok()) << Byte.Run.TrapMessage;
  EXPECT_EQ(Byte.Run.WorkCycles, Run.WorkCycles);
  EXPECT_EQ(serializeDepGraph(Byte.Graph), serializeDepGraph(Tree));

  const LoopDepGraph *Session =
      S.analyses().depGraph(Loop, GraphSource::Profile);
  ASSERT_NE(Session, nullptr);
  EXPECT_EQ(serializeDepGraph(*Session), serializeDepGraph(Tree));
}

} // namespace
