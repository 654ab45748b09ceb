//===- ProfilerOracleTest.cpp - DepProfiler against a reference ----------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Differential test of the dependence profiler: every candidate loop of
// every workload is profiled, in compileLoop order, by the session's
// DepProfiler and by the per-byte ReferenceDepProfiler on the same
// bytecode. The graphs must agree exactly (str() and every DynCount entry).
// Loops after the first are profiled on the module the earlier loops'
// expansion rewrote, as compileLoop sees them (h263-encoder's second loop).
// PropertyTest runs the same comparison on random programs.
//
//===----------------------------------------------------------------------===//

#include "ReferenceDepProfiler.h"

#include "driver/CompilationSession.h"
#include "frontend/Parser.h"
#include "workloads/Workloads.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace gdse;

namespace {

std::vector<std::string> workloadNames() {
  std::vector<std::string> Names;
  for (const WorkloadInfo &W : allWorkloads())
    Names.push_back(W.Name);
  for (const WorkloadInfo &W : reductionWorkloads())
    Names.push_back(W.Name);
  return Names;
}

class ProfilerOracle : public ::testing::TestWithParam<std::string> {};

TEST_P(ProfilerOracle, EveryLoopMatchesReference) {
  const WorkloadInfo *W = findWorkload(GetParam());
  ASSERT_NE(W, nullptr);
  std::unique_ptr<Module> M = parseMiniCOrDie(W->Source, W->Name);
  CompilationSession S(*M);
  AnalysisManager &AM = S.analyses();
  std::vector<unsigned> Loops = S.candidateLoops();
  ASSERT_EQ(Loops.size(), W->NumCandidates);
  for (unsigned Loop : Loops) {
    const LoopDepGraph *G = AM.depGraph(Loop, GraphSource::Profile);
    ASSERT_NE(G, nullptr) << W->Name << " loop " << Loop;
    ProfileResult Ref = referenceProfile(*M, Loop, AM.bytecode());
    ASSERT_TRUE(Ref.Run.ok()) << Ref.Run.TrapMessage;
    EXPECT_EQ(G->str(), Ref.Graph.str()) << W->Name << " loop " << Loop;
    EXPECT_EQ(G->DynCount, Ref.Graph.DynCount) << W->Name << " loop " << Loop;
    PipelineResult R = S.compileLoop(Loop);
    ASSERT_TRUE(R.Ok) << W->Name << ": "
                      << firstError(R);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, ProfilerOracle, ::testing::ValuesIn(workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      std::string Name = Info.param;
      for (char &C : Name)
        if (!isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

} // namespace
