//===- WorkloadTest.cpp - the eight Table 4 kernels, end to end ------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// For every benchmark kernel: the expanded parallel execution must produce
// the exact output of the original sequential run (for several thread
// counts), the planned parallelism must match Table 4's kind, and at least
// one structure must have been privatized (Table 5 is never zero).
//
//===----------------------------------------------------------------------===//

#include "driver/CompilationSession.h"
#include "frontend/Parser.h"
#include "interp/Interp.h"
#include "workloads/Workloads.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace gdse;

namespace {

struct WorkloadCase {
  const WorkloadInfo *W;
  int Threads;
};

// The workload name is held as a std::string, not a const char *: gtest
// prints a pointer inside a tuple by address, which would put a different
// number into the listed test name on every run.
class WorkloadEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(WorkloadEquivalence, TransformedMatchesOriginal) {
  const WorkloadInfo *W = findWorkload(std::get<0>(GetParam()));
  ASSERT_NE(W, nullptr);
  int Threads = std::get<1>(GetParam());

  RunResult Original;
  {
    std::unique_ptr<Module> M = parseMiniCOrDie(W->Source, W->Name);
    Interp I(*M);
    Original = I.run();
    ASSERT_TRUE(Original.ok()) << W->Name << ": " << Original.TrapMessage;
  }

  std::unique_ptr<Module> M = parseMiniCOrDie(W->Source, W->Name);
  std::vector<unsigned> Candidates = CompilationSession(*M).candidateLoops();
  ASSERT_EQ(Candidates.size(), W->NumCandidates) << W->Name;

  for (unsigned LoopId : Candidates) {
    PipelineResult PR = CompilationSession(*M).compileLoop(LoopId);
    ASSERT_TRUE(PR.Ok) << W->Name << ": "
                       << firstError(PR);
    EXPECT_TRUE(PR.Plan.Parallelized) << W->Name;
    EXPECT_EQ(PR.Plan.Kind, W->ExpectedKind) << W->Name;
    EXPECT_GE(PR.Expansion.ExpandedObjects, 1u) << W->Name;
  }

  InterpOptions IO;
  IO.NumThreads = Threads;
  Interp I(*M, IO);
  RunResult Transformed = I.run();
  ASSERT_TRUE(Transformed.ok()) << W->Name << ": " << Transformed.TrapMessage;
  EXPECT_EQ(Original.Output, Transformed.Output) << W->Name;
  EXPECT_EQ(Original.ExitCode, Transformed.ExitCode) << W->Name;

  // The loop must actually have run in parallel.
  bool SawParallelLoop = false;
  for (const auto &[LoopId, LS] : Transformed.Loops)
    if (LS.Kind != ParallelKind::None && !LS.WorkPerThread.empty())
      SawParallelLoop = true;
  EXPECT_TRUE(SawParallelLoop) << W->Name;
}

std::vector<std::tuple<std::string, int>> allCases() {
  std::vector<std::tuple<std::string, int>> Cases;
  for (const WorkloadInfo &W : allWorkloads())
    for (int N : {1, 4, 8})
      Cases.push_back({W.Name, N});
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadEquivalence, ::testing::ValuesIn(allCases()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>> &Info) {
      std::string Name = std::get<0>(Info.param);
      for (char &C : Name)
        if (!isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name + "_N" + std::to_string(std::get<1>(Info.param));
    });

//===----------------------------------------------------------------------===//
// Runtime-privatization baseline equivalence on every workload.
//===----------------------------------------------------------------------===//

class WorkloadRtPriv : public ::testing::TestWithParam<const char *> {};

TEST_P(WorkloadRtPriv, RtPrivMatchesOriginal) {
  const WorkloadInfo *W = findWorkload(GetParam());
  ASSERT_NE(W, nullptr);

  RunResult Original;
  {
    std::unique_ptr<Module> M = parseMiniCOrDie(W->Source, W->Name);
    Interp I(*M);
    Original = I.run();
  }

  std::unique_ptr<Module> M = parseMiniCOrDie(W->Source, W->Name);
  std::vector<unsigned> Candidates = CompilationSession(*M).candidateLoops();
  PipelineOptions Opts;
  Opts.Method = PrivatizationMethod::Runtime;
  for (unsigned LoopId : Candidates) {
    PipelineResult PR = CompilationSession(*M).compileLoop(LoopId, Opts);
    ASSERT_TRUE(PR.Ok) << W->Name << ": "
                       << firstError(PR);
  }
  InterpOptions IO;
  IO.NumThreads = 4;
  Interp I(*M, IO);
  RunResult Transformed = I.run();
  ASSERT_TRUE(Transformed.ok()) << W->Name << ": " << Transformed.TrapMessage;
  EXPECT_EQ(Original.Output, Transformed.Output) << W->Name;
  EXPECT_GT(Transformed.RtPrivTranslations, 0u) << W->Name;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadRtPriv,
                         ::testing::Values("dijkstra", "md5", "mpeg2-encoder",
                                           "mpeg2-decoder", "h263-encoder",
                                           "256.bzip2", "456.hmmer",
                                           "470.lbm"),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           std::string Name = I.param;
                           for (char &C : Name)
                             if (!isalnum(static_cast<unsigned char>(C)))
                               C = '_';
                           return Name;
                         });

} // namespace
