//===- MinicDumpTest.cpp - minic --dump=deps end to end ------------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Runs the minic binary with --dump=deps on a workload's source and checks
// that it prints exactly profileLoop(...).Graph.str() for each candidate
// loop of the untransformed module, in program order.
//
//===----------------------------------------------------------------------===//

#include "driver/CompilationSession.h"
#include "frontend/Parser.h"
#include "profile/DepProfiler.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

using namespace gdse;

namespace {

/// Runs \p Cmd through the shell; returns its stdout and sets \p Status.
std::string runCommand(const std::string &Cmd, int &Status) {
  std::string Out;
  FILE *P = popen(Cmd.c_str(), "r");
  if (!P) {
    Status = -1;
    return Out;
  }
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), P)) != 0)
    Out.append(Buf, N);
  Status = pclose(P);
  return Out;
}

TEST(MinicDump, DepsPrintsTheProfiledGraphOfEachCandidateLoop) {
  // Two candidate loops: both are profiled on the untransformed module.
  const WorkloadInfo *W = findWorkload("h263-encoder");
  ASSERT_NE(W, nullptr);
  std::string Path = ::testing::TempDir() + "minic_dump_deps.mc";
  {
    std::ofstream OS(Path);
    OS << W->Source;
  }
  int Status = 0;
  std::string Out = runCommand(
      std::string(GDSE_MINIC_PATH) + " '" + Path + "' --dump=deps", Status);
  std::remove(Path.c_str());
  EXPECT_EQ(Status, 0);

  std::unique_ptr<Module> M = parseMiniCOrDie(W->Source, W->Name);
  std::vector<unsigned> Loops = CompilationSession(*M).candidateLoops();
  ASSERT_EQ(Loops.size(), 2u);
  std::string Want;
  for (unsigned Loop : Loops) {
    ProfileResult R = profileLoop(*M, Loop);
    ASSERT_TRUE(R.Run.ok()) << R.Run.TrapMessage;
    Want += R.Graph.str();
  }
  EXPECT_EQ(Out, Want);
}

} // namespace
