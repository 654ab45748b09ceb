//===- GraphSourceTest.cpp - GraphIO and static-analysis tests --*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Tests the paper's three dependence-graph sources (§2): profiling,
// conservative static analysis, and programmer-supplied (serialized /
// verified) graphs.
//
//===----------------------------------------------------------------------===//

#include "analysis/AccessClasses.h"
#include "analysis/GraphIO.h"
#include "analysis/StaticDeps.h"
#include "driver/CompilationSession.h"
#include "frontend/Parser.h"
#include "interp/Interp.h"
#include "profile/DepProfiler.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace gdse;

namespace {

const char *ZptrSrc = R"(
  int main() {
    int m = 16;
    int* zptr = malloc(m * sizeof(int));
    long acc = 0;
    @candidate for (int it = 0; it < 8; it++) {
      for (int k = 0; k < m; k++) { zptr[k] = it + k; }
      int b = 0;
      for (int k = 0; k < m; k++) { b += zptr[k]; }
      acc += b;
    }
    print_int(acc);
    free(zptr);
    return 0;
  }
)";

LoopDepGraph profiledZptrGraph(std::unique_ptr<Module> &M) {
  M = parseMiniCOrDie(ZptrSrc, "graph source test");
  std::vector<unsigned> Cands = CompilationSession(*M).candidateLoops();
  ProfileResult PR = profileLoop(*M, Cands.front());
  return std::move(PR.Graph);
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

TEST(GraphIO, RoundTripExact) {
  std::unique_ptr<Module> M;
  LoopDepGraph G = profiledZptrGraph(M);
  std::string Text = serializeDepGraph(G);
  LoopDepGraph G2;
  std::string Err;
  ASSERT_TRUE(parseDepGraph(Text, G2, Err)) << Err;
  EXPECT_EQ(G.LoopId, G2.LoopId);
  EXPECT_EQ(G.Edges, G2.Edges);
  EXPECT_EQ(G.UpwardsExposedLoads, G2.UpwardsExposedLoads);
  EXPECT_EQ(G.DownwardsExposedStores, G2.DownwardsExposedStores);
  EXPECT_EQ(G.DynCount, G2.DynCount);
  EXPECT_EQ(G.HasUnmodeled, G2.HasUnmodeled);
  // And the re-serialization is bit-identical (stable format).
  EXPECT_EQ(Text, serializeDepGraph(G2));
}

TEST(GraphIO, ParserRejectsMalformed) {
  LoopDepGraph G;
  std::string Err;
  EXPECT_FALSE(parseDepGraph("edge 1 2 flow carried\n", G, Err)); // no loop
  EXPECT_NE(Err.find("loop"), std::string::npos);
  EXPECT_FALSE(parseDepGraph("loop 1\nedge 1 2 sideways carried\n", G, Err));
  EXPECT_NE(Err.find("unknown dependence kind"), std::string::npos);
  EXPECT_FALSE(parseDepGraph("loop 1\nfrobnicate\n", G, Err));
  EXPECT_NE(Err.find("unknown record"), std::string::npos);
}

TEST(GraphIO, CommentsAndBlankLinesIgnored) {
  LoopDepGraph G;
  std::string Err;
  ASSERT_TRUE(parseDepGraph(R"(# a verified graph
loop 3

edge 1 2 anti carried   # the reduction
upexposed 4
)",
                            G, Err))
      << Err;
  EXPECT_EQ(G.LoopId, 3u);
  EXPECT_TRUE(G.hasEdge(1, 2, DepKind::Anti, true));
  EXPECT_TRUE(G.UpwardsExposedLoads.count(4));
}

TEST(GraphIO, DiffDetectsChanges) {
  std::unique_ptr<Module> M;
  LoopDepGraph G = profiledZptrGraph(M);
  LoopDepGraph G2 = G;
  EXPECT_TRUE(diffDepGraphs(G, G2).identical());

  // The programmer-verified baseline may be a superset.
  G2.addEdge(9999, 9998, DepKind::Output, true);
  GraphDiff D = diffDepGraphs(/*Baseline=*/G2, /*Observed=*/G);
  EXPECT_FALSE(D.identical());
  EXPECT_TRUE(D.observedCoveredByBaseline());

  // A new observed edge requires re-verification.
  LoopDepGraph G3 = G;
  G3.addEdge(9997, 9996, DepKind::Flow, true);
  GraphDiff D2 = diffDepGraphs(/*Baseline=*/G, /*Observed=*/G3);
  EXPECT_FALSE(D2.observedCoveredByBaseline());
  EXPECT_EQ(D2.EdgesOnlyInObserved.size(), 1u);
}

//===----------------------------------------------------------------------===//
// External graphs drive the pipeline
//===----------------------------------------------------------------------===//

TEST(GraphIO, ExternalGraphDrivesPipeline) {
  // Serialize the profiled graph, reload it, and feed it to the pipeline on
  // a FRESH parse: the result must match the profile-driven transformation.
  std::unique_ptr<Module> M1;
  LoopDepGraph G = profiledZptrGraph(M1);
  std::string Text = serializeDepGraph(G);

  LoopDepGraph Loaded;
  std::string Err;
  ASSERT_TRUE(parseDepGraph(Text, Loaded, Err)) << Err;

  std::unique_ptr<Module> M = parseMiniCOrDie(ZptrSrc, "external");
  std::vector<unsigned> Cands = CompilationSession(*M).candidateLoops();
  PipelineOptions Opts;
  Opts.Source = GraphSource::External;
  Opts.ExternalGraph = &Loaded;
  PipelineResult PR = CompilationSession(*M).compileLoop(Cands.front(), Opts);
  ASSERT_TRUE(PR.Ok) << firstError(PR);
  // The commutative tier claims the `check` reduction regardless of graph
  // source (it is a static proof), so the loop is DOALL here just as it is
  // on the profile-driven path.
  EXPECT_EQ(PR.Plan.Kind, ParallelKind::DOALL);
  EXPECT_GE(PR.Expansion.ExpandedObjects, 1u);

  // And the transformed program still matches the original output.
  RunResult Seq;
  {
    std::unique_ptr<Module> MO = parseMiniCOrDie(ZptrSrc, "seq");
    Interp I(*MO);
    Seq = I.run();
  }
  InterpOptions IO;
  IO.NumThreads = 4;
  Interp I(*M, IO);
  RunResult Par = I.run();
  EXPECT_EQ(Par.Output, Seq.Output);
}

TEST(GraphIO, ExternalGraphLoopMismatchRejected) {
  std::unique_ptr<Module> M = parseMiniCOrDie(ZptrSrc, "mismatch");
  std::vector<unsigned> Cands = CompilationSession(*M).candidateLoops();
  LoopDepGraph Wrong;
  Wrong.LoopId = Cands.front() + 17;
  PipelineOptions Opts;
  Opts.Source = GraphSource::External;
  Opts.ExternalGraph = &Wrong;
  PipelineResult PR = CompilationSession(*M).compileLoop(Cands.front(), Opts);
  EXPECT_FALSE(PR.Ok);
}

//===----------------------------------------------------------------------===//
// Static analysis: sound but too conservative (the paper's §4.1 point)
//===----------------------------------------------------------------------===//

TEST(StaticDeps, SupersetOfProfiledCarriedFacts) {
  std::unique_ptr<Module> M;
  LoopDepGraph Profiled = profiledZptrGraph(M);
  AccessNumbering Num = AccessNumbering::compute(*M);
  PointsTo PT = PointsTo::compute(*M);
  LoopDepGraph Static =
      buildStaticDepGraph(*M, Profiled.LoopId, PT, Num);

  // Soundness: every profiled edge between vertices the static graph also
  // sees must be present statically.
  for (const DepEdge &E : Profiled.Edges) {
    if (!Static.DynCount.count(E.Src) || !Static.DynCount.count(E.Dst))
      continue;
    EXPECT_TRUE(Static.hasEdge(E.Src, E.Dst, E.Kind, E.Carried))
        << "missing static edge #" << E.Src << "->#" << E.Dst;
  }
  // Conservatism: strictly more edges than the profile found.
  EXPECT_GT(Static.Edges.size(), Profiled.Edges.size());
}

TEST(StaticDeps, KillsPrivatizationThatProfilingEnables) {
  std::unique_ptr<Module> M;
  LoopDepGraph Profiled = profiledZptrGraph(M);
  AccessNumbering Num = AccessNumbering::compute(*M);
  PointsTo PT = PointsTo::compute(*M);
  LoopDepGraph Static = buildStaticDepGraph(*M, Profiled.LoopId, PT, Num);

  AccessClasses FromProfile = AccessClasses::build(Profiled);
  AccessClasses FromStatic = AccessClasses::build(Static);
  EXPECT_FALSE(FromProfile.privateAccesses().empty());
  // The conservative exposure marks block every class (the paper: false
  // positives "prevent loop parallelization").
  EXPECT_TRUE(FromStatic.privateAccesses().empty());
}

TEST(StaticDeps, FreshPerIterationHeapStillRecognized) {
  // The one pattern static analysis CAN clear: memory allocated and freed
  // within the iteration.
  const char *Src = R"(
    int main() {
      long acc = 0;
      @candidate for (int i = 0; i < 4; i++) {
        int* p = malloc(8 * sizeof(int));
        p[0] = i;
        acc += p[0];
        free(p);
      }
      print_int(acc);
      return 0;
    }
  )";
  std::unique_ptr<Module> M = parseMiniCOrDie(Src, "fresh");
  std::vector<unsigned> Cands = CompilationSession(*M).candidateLoops();
  AccessNumbering Num = AccessNumbering::compute(*M);
  PointsTo PT = PointsTo::compute(*M);
  LoopDepGraph Static = buildStaticDepGraph(*M, Cands.front(), PT, Num);
  // p[0] accesses (heap allocated inside the loop) are not exposed.
  for (AccessId Id : Static.UpwardsExposedLoads) {
    const AccessDesc &D = Num.access(Id);
    EXPECT_FALSE(isa<ArrayIndexExpr>(D.location()))
        << "fresh heap access marked exposed";
  }
}

TEST(StaticDeps, PipelineWithStaticSourceStaysCorrectButSlow) {
  // Feeding the conservative graph keeps the program CORRECT but serializes
  // it (everything residual -> one big ordered chain).
  RunResult Seq;
  {
    std::unique_ptr<Module> M = parseMiniCOrDie(ZptrSrc, "seq");
    Interp I(*M);
    Seq = I.run();
  }
  std::unique_ptr<Module> M = parseMiniCOrDie(ZptrSrc, "static");
  std::vector<unsigned> Cands = CompilationSession(*M).candidateLoops();
  PipelineOptions Opts;
  Opts.Source = GraphSource::Static;
  // This test exercises the conservative static-graph serialization path;
  // the commutative tier would otherwise still claim the `check` reduction
  // (it is a static proof, independent of the dependence-graph source).
  Opts.Expansion.CommutativePrivatization = false;
  PipelineResult PR = CompilationSession(*M).compileLoop(Cands.front(), Opts);
  ASSERT_TRUE(PR.Ok) << firstError(PR);
  EXPECT_EQ(PR.Expansion.ExpandedObjects, 0u); // nothing privatizable
  InterpOptions IO;
  IO.NumThreads = 8;
  Interp I(*M, IO);
  RunResult Par = I.run();
  ASSERT_TRUE(Par.ok()) << Par.TrapMessage;
  EXPECT_EQ(Par.Output, Seq.Output);
  // No meaningful speedup: the ordered chain serializes the loop.
  EXPECT_LT(static_cast<double>(Seq.SimTime) /
                static_cast<double>(Par.SimTime),
            1.5);
}

} // namespace
