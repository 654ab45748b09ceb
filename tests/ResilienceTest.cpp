//===- ResilienceTest.cpp - budgets, fault injection, degradation ----------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The execution resilience layer, driven through its seeded fault injector:
// every injection point (allocation failure, worker-start failure, lane
// delays, spurious guard violations) against every engine, asserting the
// exact contract of each ladder rung — budget breaches become one attributed
// trap, a dead worker pool degrades the loop to the simulated path
// bit-identically, and a wedged DOACROSS frontier is detected by the watchdog
// and recovered in-loop on the simulated path. Nothing in here may hang:
// every scenario must terminate within its deadline.
//
//===----------------------------------------------------------------------===//

#include "driver/CompilationSession.h"
#include "frontend/Parser.h"
#include "interp/Interp.h"
#include "support/Diagnostics.h"
#include "support/Resilience.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace gdse;

namespace {

//===----------------------------------------------------------------------===//
// FaultInjector: spec grammar and determinism
//===----------------------------------------------------------------------===//

std::shared_ptr<FaultInjector> parseOrDie(const std::string &Spec) {
  std::string Err;
  std::shared_ptr<FaultInjector> FI = FaultInjector::parse(Spec, Err);
  EXPECT_NE(FI, nullptr) << Spec << ": " << Err;
  return FI;
}

TEST(FaultInjector, OneShotFiresAtExactOpportunity) {
  auto FI = parseOrDie("alloc-fail@3");
  EXPECT_TRUE(FI->armed(FaultInjector::Point::AllocFail));
  EXPECT_FALSE(FI->armed(FaultInjector::Point::LaneDelay));
  std::vector<bool> Fired;
  for (int I = 0; I < 8; ++I)
    Fired.push_back(FI->shouldFire(FaultInjector::Point::AllocFail));
  EXPECT_EQ(Fired, (std::vector<bool>{false, false, true, false, false, false,
                                      false, false}));
  EXPECT_EQ(FI->fireCount(FaultInjector::Point::AllocFail), 1u);
  // The other points were never consulted and never fire.
  EXPECT_FALSE(FI->shouldFire(FaultInjector::Point::GuardViolation));
}

TEST(FaultInjector, ProbabilisticRulesAreSeedDeterministic) {
  auto A = parseOrDie("lane-delay~4,seed=42");
  auto B = parseOrDie("lane-delay~4,seed=42");
  auto C = parseOrDie("lane-delay~4,seed=43");
  std::vector<bool> FA, FB, FC;
  for (int I = 0; I < 512; ++I) {
    FA.push_back(A->shouldFire(FaultInjector::Point::LaneDelay));
    FB.push_back(B->shouldFire(FaultInjector::Point::LaneDelay));
    FC.push_back(C->shouldFire(FaultInjector::Point::LaneDelay));
  }
  EXPECT_EQ(FA, FB) << "same seed must reproduce the same firing sequence";
  EXPECT_NE(FA, FC) << "different seeds must diverge";
  EXPECT_GT(A->fireCount(FaultInjector::Point::LaneDelay), 0u);
  EXPECT_LT(A->fireCount(FaultInjector::Point::LaneDelay), 512u);
}

TEST(FaultInjector, DelayParameterAndDefault) {
  EXPECT_EQ(parseOrDie("lane-delay@1")->delayMillis(), 25u);
  EXPECT_EQ(parseOrDie("lane-delay@1,delay-ms=7")->delayMillis(), 7u);
}

TEST(FaultInjector, EmptySpecNeverFires) {
  auto FI = parseOrDie("");
  for (unsigned P = 0; P < FaultInjector::NumPoints; ++P) {
    EXPECT_FALSE(FI->armed(static_cast<FaultInjector::Point>(P)));
    EXPECT_FALSE(FI->shouldFire(static_cast<FaultInjector::Point>(P)));
  }
}

TEST(FaultInjector, MalformedSpecsAreRejected) {
  for (const char *Bad : {"bogus@1", "alloc-fail@", "alloc-fail@x",
                          "alloc-fail~0", "alloc-fail", "@3", "seed=",
                          "pace=3"}) {
    std::string Err;
    EXPECT_EQ(FaultInjector::parse(Bad, Err), nullptr) << Bad;
    EXPECT_FALSE(Err.empty()) << Bad;
  }
}

//===----------------------------------------------------------------------===//
// Shared programs and helpers
//===----------------------------------------------------------------------===//

/// Independent per-iteration writes: the pipeline plans this DOALL, and the
/// threads engine runs it on real workers.
const char *DoallSrc = R"(
int out[64];
long sink;
int main() {
  int n = 64;
  int i;
  @candidate for (int it = 0; it < n; it++) {
    int w = 0;
    int k;
    for (k = 0; k < it + 5; k++) w = w + k * it + 3;
    out[it] = w;
  }
  sink = 1;
  for (i = 0; i < n; i++) sink = sink * 31 + out[i];
  print_int(sink);
  return 0;
})";

/// A non-commutative carried recurrence: the conservative static graph puts
/// it (and everything residual) in DOACROSS ordered chains, the shape the
/// watchdog exists for.
const char *DoacrossSrc = R"(
int out;
int main() {
  int n = 64;
  int* data = (int*)malloc(256);
  int i;
  for (i = 0; i < n; i++) data[i] = (i * 37 + 11) % 50;
  @candidate for (int it = 0; it < n; it++) {
    int v = data[it];
    int w = 0;
    int k;
    for (k = 0; k < v; k++) w = w + k * k;
    out = out * 3 + w % 101;
  }
  print_int(out);
  free(data);
  return 0;
})";

std::unique_ptr<Module> transformed(const char *Src, ParallelKind Expect) {
  ParseResult PR = parseMiniC(Src);
  EXPECT_TRUE(PR.ok());
  std::vector<unsigned> Cands = CompilationSession(*PR.M).candidateLoops();
  EXPECT_EQ(Cands.size(), 1u);
  PipelineOptions Opts;
  if (Expect == ParallelKind::DOACROSS) {
    // The profile-driven graph would fold the recurrence into the
    // commutative tier and go DOALL; the watchdog scenarios need real
    // cross-iteration tickets.
    Opts.Source = GraphSource::Static;
  }
  PipelineResult R = CompilationSession(*PR.M).compileLoop(Cands.front(), Opts);
  EXPECT_TRUE(R.Ok) << firstError(R);
  EXPECT_EQ(R.Plan.Kind, Expect);
  if (Expect == ParallelKind::DOACROSS) {
    EXPECT_GE(R.Plan.OrderedRegions, 1u);
  }
  return std::move(PR.M);
}

RunResult runWith(Module &M, ExecEngine E, int Threads,
                  const ResilienceOptions &RO) {
  InterpOptions IO;
  IO.Engine = E;
  IO.NumThreads = Threads;
  IO.Resilience = RO;
  Interp I(M, IO);
  return I.run();
}

uint64_t totalDegradations(const RunResult &R) {
  uint64_t D = 0;
  for (const auto &[Id, LS] : R.Loops)
    D += LS.Degradations;
  return D;
}

uint64_t totalWatchdogFires(const RunResult &R) {
  uint64_t W = 0;
  for (const auto &[Id, LS] : R.Loops)
    W += LS.WatchdogFires;
  return W;
}

bool hasResilienceDiag(const DiagnosticEngine &DE, const std::string &Part) {
  for (const Diagnostic &D : DE.diagnostics())
    if (D.Pass == "resilience" && D.Message.find(Part) != std::string::npos)
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Budgets: every engine converts a breach into one attributed trap
//===----------------------------------------------------------------------===//

class ResilienceBudget : public ::testing::TestWithParam<ExecEngine> {};

TEST_P(ResilienceBudget, CycleCapTraps) {
  std::unique_ptr<Module> M = transformed(DoallSrc, ParallelKind::DOALL);
  ResilienceOptions RO;
  RO.Budget.MaxCycles = 500;
  RunResult R = runWith(*M, GetParam(), 4, RO);
  ASSERT_TRUE(R.Trapped);
  EXPECT_NE(R.TrapMessage.find("cycle budget exceeded"), std::string::npos)
      << R.TrapMessage;
  EXPECT_EQ(R.ExitCode, -1);
}

TEST_P(ResilienceBudget, DeadlineTrapsOnRunawayLoop) {
  // No cycle cap: without the wall-clock deadline this loop runs for ~2e9
  // iterations. The run must end with the deadline trap, promptly.
  const char *Src = R"(
int main() {
  int x = 0;
  while (x < 2000000000) { x = x + 1; }
  return x;
})";
  ParseResult PR = parseMiniC(Src);
  ASSERT_TRUE(PR.ok());
  ResilienceOptions RO;
  RO.Budget.DeadlineMs = 40;
  RunResult R = runWith(*PR.M, GetParam(), 4, RO);
  ASSERT_TRUE(R.Trapped);
  EXPECT_NE(R.TrapMessage.find("deadline of 40 ms exceeded"),
            std::string::npos)
      << R.TrapMessage;
}

TEST_P(ResilienceBudget, ByteBudgetBreachTrapsOutOfMemory) {
  const char *Src = R"(
int main() {
  int* a = (int*)malloc(4096);
  a[0] = 1;
  free(a);
  return 0;
})";
  ParseResult PR = parseMiniC(Src);
  ASSERT_TRUE(PR.ok());
  ResilienceOptions RO;
  RO.Budget.MaxBytes = 1024;
  RunResult R = runWith(*PR.M, GetParam(), 4, RO);
  ASSERT_TRUE(R.Trapped);
  EXPECT_NE(R.TrapMessage.find("out of memory: malloc of 4096 bytes failed"),
            std::string::npos)
      << R.TrapMessage;
}

TEST_P(ResilienceBudget, InjectedAllocFailureTrapsAttributed) {
  // The injected failure hits the first heap allocation, which sits inside
  // no loop here — the trap is the plain attributed out-of-memory message.
  const char *Src = R"(
int main() {
  int* a = (int*)malloc(64);
  a[0] = 9;
  int v = a[0];
  free(a);
  return v;
})";
  ParseResult PR = parseMiniC(Src);
  ASSERT_TRUE(PR.ok());
  ResilienceOptions RO;
  RO.Faults = parseOrDie("alloc-fail@1");
  RunResult R = runWith(*PR.M, GetParam(), 4, RO);
  ASSERT_TRUE(R.Trapped);
  EXPECT_NE(R.TrapMessage.find("out of memory"), std::string::npos)
      << R.TrapMessage;
  EXPECT_EQ(RO.Faults->fireCount(FaultInjector::Point::AllocFail), 1u);
}

TEST_P(ResilienceBudget, GenerousBudgetsAreMetricInvisible) {
  // Armed-but-unbreached budgets (the deadline poll, the byte cap check, the
  // folded cycle cap) must not move any virtual metric by a single unit.
  std::unique_ptr<Module> M = transformed(DoallSrc, ParallelKind::DOALL);
  RunResult Plain = runWith(*M, GetParam(), 4, ResilienceOptions());
  ASSERT_TRUE(Plain.ok()) << Plain.TrapMessage;
  ResilienceOptions RO;
  RO.Budget.DeadlineMs = 600000;
  RO.Budget.MaxCycles = 1000000000ull;
  RO.Budget.MaxBytes = 1ull << 40;
  RO.WatchdogMs = 60000;
  RunResult R = runWith(*M, GetParam(), 4, RO);
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Output, Plain.Output);
  EXPECT_EQ(R.ExitCode, Plain.ExitCode);
  EXPECT_EQ(R.SimTime, Plain.SimTime);
  EXPECT_EQ(R.PeakMemoryBytes, Plain.PeakMemoryBytes);
  EXPECT_EQ(R.WorkCycles, Plain.WorkCycles);
}

INSTANTIATE_TEST_SUITE_P(Engines, ResilienceBudget,
                         ::testing::Values(ExecEngine::TreeWalk,
                                           ExecEngine::Bytecode,
                                           ExecEngine::Threads),
                         [](const ::testing::TestParamInfo<ExecEngine> &I) {
                           switch (I.param) {
                           case ExecEngine::TreeWalk:
                             return "TreeWalk";
                           case ExecEngine::Bytecode:
                             return "Bytecode";
                           default:
                             return "Threads";
                           }
                         });

//===----------------------------------------------------------------------===//
// Threads engine: pool loss and the DOACROSS watchdog
//===----------------------------------------------------------------------===//

class ResilienceThreads : public ::testing::TestWithParam<int> {};

TEST_P(ResilienceThreads, WorkerStartFailureDegradesToSimulatedPath) {
  // Regression: the lazy ThreadPool construction throwing std::system_error
  // must not crash the run. The loop degrades to the simulated serial-order
  // path — bit-identical on every virtual axis — with one warning diagnostic
  // and one counted degradation per affected loop.
  const int N = GetParam();
  std::unique_ptr<Module> M = transformed(DoallSrc, ParallelKind::DOALL);
  RunResult Baseline = runWith(*M, ExecEngine::Bytecode, N,
                               ResilienceOptions());
  ASSERT_TRUE(Baseline.ok()) << Baseline.TrapMessage;

  DiagnosticEngine Diags;
  ResilienceOptions RO;
  RO.Faults = parseOrDie("worker-start-fail@1");
  RO.Diags = &Diags;
  RunResult R = runWith(*M, ExecEngine::Threads, N, RO);
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Output, Baseline.Output);
  EXPECT_EQ(R.ExitCode, Baseline.ExitCode);
  EXPECT_EQ(R.WorkCycles, Baseline.WorkCycles);
  EXPECT_EQ(R.SimTime, Baseline.SimTime);
  EXPECT_EQ(R.PeakMemoryBytes, Baseline.PeakMemoryBytes);
  if (N >= 2) {
    // Threaded dispatch was attempted and degraded; at 1 thread the loop was
    // never threaded-eligible and the injection point stays cold.
    EXPECT_GE(totalDegradations(R), 1u);
    EXPECT_EQ(totalWatchdogFires(R), 0u);
    EXPECT_TRUE(hasResilienceDiag(Diags, "worker pool unavailable"));
  } else {
    EXPECT_EQ(totalDegradations(R), 0u);
  }
}

TEST_P(ResilienceThreads, WatchdogRecoversWedgedDoacross) {
  // An injected lane delay far longer than the watchdog window wedges the
  // ordered-region frontier. The watchdog must fire, release the wedge, roll
  // the invocation back, and re-run it on the simulated path — bit-identical
  // to a clean serial run, with the fire and the hop counted.
  const int N = GetParam();
  if (N < 2)
    GTEST_SKIP() << "DOACROSS needs at least two workers to wedge";
  std::unique_ptr<Module> M = transformed(DoacrossSrc, ParallelKind::DOACROSS);
  RunResult Baseline = runWith(*M, ExecEngine::Bytecode, N,
                               ResilienceOptions());
  ASSERT_TRUE(Baseline.ok()) << Baseline.TrapMessage;

  DiagnosticEngine Diags;
  ResilienceOptions RO;
  RO.WatchdogMs = 20;
  RO.Faults = parseOrDie("lane-delay@1,delay-ms=400");
  RO.Diags = &Diags;
  RunResult R = runWith(*M, ExecEngine::Threads, N, RO);
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Output, Baseline.Output);
  EXPECT_EQ(R.ExitCode, Baseline.ExitCode);
  EXPECT_EQ(R.WorkCycles, Baseline.WorkCycles);
  EXPECT_EQ(R.SimTime, Baseline.SimTime);
  EXPECT_EQ(R.PeakMemoryBytes, Baseline.PeakMemoryBytes);
  EXPECT_GE(totalWatchdogFires(R), 1u);
  EXPECT_GE(totalDegradations(R), 1u);
  EXPECT_TRUE(hasResilienceDiag(Diags, "DOACROSS watchdog fired"));
  // The abandoned attempt is not counted as threaded: each fire records the
  // re-run's path instead.
  for (const auto &[Id, LS] : R.Loops) {
    if (LS.Kind == ParallelKind::None)
      continue;
    EXPECT_EQ(LS.Paths[static_cast<unsigned>(ThreadedPath::WatchdogRerun)],
              LS.WatchdogFires)
        << "loop " << Id;
    EXPECT_EQ(LS.Paths[static_cast<unsigned>(ThreadedPath::Threaded)] +
                  LS.WatchdogFires,
              LS.Invocations)
        << "loop " << Id;
  }
  EXPECT_EQ(RO.Faults->fireCount(FaultInjector::Point::LaneDelay), 1u);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ResilienceThreads,
                         ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int> &I) {
                           return "N" + std::to_string(I.param);
                         });

//===----------------------------------------------------------------------===//
// Spurious guard violations
//===----------------------------------------------------------------------===//

TEST(ResilienceGuard, InjectedViolationTriggersFallbackRerun) {
  // A spurious violation reported at an iteration boundary of a guarded
  // invocation must ride the ordinary guard-fallback rung: rollback, serial
  // re-run, bit-identical output, violation on the record. The loop writes a
  // global scratch array each iteration, so expansion privatizes it and the
  // (unpruned) plan has claims to guard.
  const char *GuardSrc = R"(
int scr[24];
long sink;
int main() {
  int n = 40;
  sink = 1;
  @candidate for (int it = 0; it < n; it++) {
    int k;
    for (k = 0; k < 24; k++) { scr[k] = it * 5 + k; }
    int red = 0;
    for (k = 0; k < 24; k++) { red = red ^ scr[k]; }
    sink = sink * 31 + red;
  }
  print_int(sink);
  return 0;
})";
  ParseResult PR = parseMiniC(GuardSrc);
  ASSERT_TRUE(PR.ok());
  RunResult Seq;
  {
    Interp I(*PR.M);
    Seq = I.run();
    ASSERT_TRUE(Seq.ok()) << Seq.TrapMessage;
  }
  ParseResult P2 = parseMiniC(GuardSrc);
  ASSERT_TRUE(P2.ok());
  std::vector<unsigned> Cands = CompilationSession(*P2.M).candidateLoops();
  ASSERT_EQ(Cands.size(), 1u);
  PipelineOptions Opts;
  Opts.Expansion.GuardPruning = false; // keep the full plan armed
  PipelineResult R = CompilationSession(*P2.M).compileLoop(Cands.front(), Opts);
  ASSERT_TRUE(R.Ok) << firstError(R);
  ASSERT_NE(R.Guard, nullptr);

  InterpOptions IO;
  IO.Engine = ExecEngine::Bytecode;
  IO.NumThreads = 4;
  IO.Guard = GuardMode::Fallback;
  IO.GuardPlans = {R.Guard};
  IO.Resilience.Faults = parseOrDie("guard-violation@1");
  Interp I(*P2.M, IO);
  RunResult Par = I.run();
  ASSERT_TRUE(Par.ok()) << Par.TrapMessage;
  EXPECT_EQ(Par.Output, Seq.Output);
  EXPECT_EQ(Par.ExitCode, Seq.ExitCode);
  EXPECT_FALSE(Par.Violations.empty());
  EXPECT_EQ(IO.Resilience.Faults->fireCount(
                FaultInjector::Point::GuardViolation),
            1u);
}

} // namespace
