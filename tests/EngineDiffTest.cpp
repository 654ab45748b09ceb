//===- EngineDiffTest.cpp - tree-walker vs bytecode bit-identity -----------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The register-bytecode engine must be observationally identical to the
// reference tree-walker on every non-trapping run: exit code, output, work
// cycles, simulated time, peak memory, rtpriv counters, the whole per-loop
// stats map, and the full observer event stream (addresses normalized by
// allocation serial number, since host addresses differ between runs).
//
// Every Table 4 workload runs through both engines in three configurations
// (serial original, transformed at 4 threads, runtime-privatization
// baseline), plus a battery of small adversarial programs covering the
// corners where a lowering bug would hide: casts, shifts, short-circuiting,
// conditional expressions, pointer arithmetic, aggregate assignment,
// recursion, break/continue through ordered regions, and builtins. Every
// transformed configuration additionally re-runs both engines under
// GuardMode::Check with the expansion's guard plans, asserting zero
// violations and bit-identical metrics/streams to the unguarded run — the
// guard must be invisible on every virtual axis. Trapping
// programs compare trap message and prior output (cycle totals on trapped
// runs are documented as engine-specific).
//
//===----------------------------------------------------------------------===//

#include "driver/CompilationSession.h"
#include "frontend/Parser.h"
#include "interp/Interp.h"
#include "ir/IRVisitor.h"
#include "workloads/Workloads.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace gdse;

namespace {

/// Records the observer event stream with addresses rewritten to
/// (allocation serial, offset) pairs so the streams of two runs compare
/// equal even though the host allocator hands out different addresses.
/// Streams can reach millions of events on the workloads, so the canonical
/// form is an FNV-1a hash plus a count; small programs can additionally
/// keep the literal strings for debuggable failures.
class NormalizingObserver : public InterpObserver {
public:
  explicit NormalizingObserver(bool KeepEvents = false) : Keep(KeepEvents) {}

  uint64_t Hash = 1469598103934665603ull; // FNV-1a offset basis
  uint64_t Count = 0;
  std::vector<std::string> Events;

  void onLoad(AccessId Id, uint64_t Addr, uint64_t Size) override {
    record("L " + std::to_string(Id) + " " + norm(Addr) + " " +
           std::to_string(Size));
  }
  void onStore(AccessId Id, uint64_t Addr, uint64_t Size) override {
    record("S " + std::to_string(Id) + " " + norm(Addr) + " " +
           std::to_string(Size));
  }
  void onBulkAccess(bool IsWrite, uint64_t Addr, uint64_t Size, Builtin B,
                    uint32_t CallSiteId) override {
    record(std::string("B ") + (IsWrite ? "w" : "r") + " " + norm(Addr) +
           " " + std::to_string(Size) + " " +
           std::to_string(static_cast<int>(B)) + " " +
           std::to_string(CallSiteId));
  }
  void onAlloc(const Allocation &A) override {
    Live[A.Base] = {A.Size, NextSerial};
    record("A " + std::to_string(NextSerial) + " " + std::to_string(A.Size) +
           " " + std::to_string(static_cast<int>(A.Kind)) + " " +
           std::to_string(A.SiteId));
    ++NextSerial;
  }
  void onFree(const Allocation &A) override {
    auto It = Live.find(A.Base);
    record("F " + std::to_string(It != Live.end() ? It->second.Serial : 0));
    if (It != Live.end())
      Live.erase(It);
  }
  void onLoopEnter(unsigned LoopId) override {
    record("LE " + std::to_string(LoopId));
  }
  void onLoopIter(unsigned LoopId, uint64_t Iter) override {
    record("LI " + std::to_string(LoopId) + " " + std::to_string(Iter));
  }
  void onLoopExit(unsigned LoopId) override {
    record("LX " + std::to_string(LoopId));
  }

private:
  struct Block {
    uint64_t Size;
    uint64_t Serial;
  };
  std::map<uint64_t, Block> Live;
  uint64_t NextSerial = 1;
  bool Keep;

  std::string norm(uint64_t Addr) {
    auto It = Live.upper_bound(Addr);
    if (It != Live.begin()) {
      --It;
      uint64_t Off = Addr - It->first;
      if (Off < It->second.Size || (Off == 0 && It->second.Size == 0))
        return std::to_string(It->second.Serial) + "+" + std::to_string(Off);
    }
    return "?" + std::to_string(Addr & 7); // untracked: keep alignment only
  }

  void record(const std::string &E) {
    for (unsigned char C : E) {
      Hash ^= C;
      Hash *= 1099511628211ull;
    }
    Hash ^= '\n';
    Hash *= 1099511628211ull;
    ++Count;
    if (Keep)
      Events.push_back(E);
  }
};

struct EngineRun {
  RunResult R;
  uint64_t EvHash = 0;
  uint64_t EvCount = 0;
  std::vector<std::string> Events;
};

EngineRun runEngine(Module &M, ExecEngine E, int Threads, bool KeepEvents,
                    GuardMode Guard = GuardMode::Off,
                    std::vector<std::shared_ptr<const GuardPlan>> Plans = {}) {
  InterpOptions IO;
  IO.Engine = E;
  IO.NumThreads = Threads;
  IO.Guard = Guard;
  IO.GuardPlans = std::move(Plans);
  Interp I(M, IO);
  NormalizingObserver O(KeepEvents);
  I.setObserver(&O);
  EngineRun ER;
  ER.R = I.run();
  ER.EvHash = O.Hash;
  ER.EvCount = O.Count;
  ER.Events = std::move(O.Events);
  return ER;
}

void expectIdentical(const EngineRun &T, const EngineRun &B,
                     const std::string &What) {
  EXPECT_EQ(T.R.Trapped, B.R.Trapped) << What;
  EXPECT_EQ(T.R.TrapMessage, B.R.TrapMessage) << What;
  EXPECT_EQ(T.R.ExitCode, B.R.ExitCode) << What;
  EXPECT_EQ(T.R.WorkCycles, B.R.WorkCycles) << What;
  EXPECT_EQ(T.R.SimTime, B.R.SimTime) << What;
  EXPECT_EQ(T.R.Output, B.R.Output) << What;
  EXPECT_EQ(T.R.PeakMemoryBytes, B.R.PeakMemoryBytes) << What;
  EXPECT_EQ(T.R.RtPrivTranslations, B.R.RtPrivTranslations) << What;
  EXPECT_EQ(T.R.RtPrivBytesCopied, B.R.RtPrivBytesCopied) << What;

  ASSERT_EQ(T.R.Loops.size(), B.R.Loops.size()) << What;
  for (const auto &[Id, TS] : T.R.Loops) {
    auto It = B.R.Loops.find(Id);
    ASSERT_NE(It, B.R.Loops.end()) << What << " loop " << Id;
    const LoopStats &BS = It->second;
    EXPECT_EQ(TS.Kind, BS.Kind) << What << " loop " << Id;
    EXPECT_EQ(TS.Invocations, BS.Invocations) << What << " loop " << Id;
    EXPECT_EQ(TS.Iterations, BS.Iterations) << What << " loop " << Id;
    EXPECT_EQ(TS.WorkCycles, BS.WorkCycles) << What << " loop " << Id;
    EXPECT_EQ(TS.SimTime, BS.SimTime) << What << " loop " << Id;
    EXPECT_EQ(TS.WorkPerThread, BS.WorkPerThread) << What << " loop " << Id;
    EXPECT_EQ(TS.SyncStallPerThread, BS.SyncStallPerThread)
        << What << " loop " << Id;
    EXPECT_EQ(TS.IdlePerThread, BS.IdlePerThread) << What << " loop " << Id;
    EXPECT_EQ(TS.DispatchPerThread, BS.DispatchPerThread)
        << What << " loop " << Id;
  }

  EXPECT_EQ(T.Events, B.Events) << What; // empty==empty when hashing only
  EXPECT_EQ(T.EvCount, B.EvCount) << What;
  EXPECT_EQ(T.EvHash, B.EvHash) << What << " (event streams diverge)";
}

/// Both engines over the same module; non-trapping expected.
void diffModule(Module &M, int Threads, const std::string &What,
                bool KeepEvents = false) {
  EngineRun T = runEngine(M, ExecEngine::TreeWalk, Threads, KeepEvents);
  EngineRun B = runEngine(M, ExecEngine::Bytecode, Threads, KeepEvents);
  ASSERT_FALSE(T.R.Trapped) << What << ": " << T.R.TrapMessage;
  expectIdentical(T, B, What);
}

/// diffModule, plus the guarded-execution invariance contract: re-running
/// the same module under GuardMode::Check with the expansion's plans must
/// report zero violations (the transformation was sound) and must be
/// bit-identical to the unguarded run on every virtual metric, the whole
/// per-loop stats map, and the full observer event stream — the guard is
/// host-side only. Guard counters must also agree across engines.
void diffModuleGuarded(Module &M, int Threads, const std::string &What,
                       std::vector<std::shared_ptr<const GuardPlan>> Plans,
                       bool KeepEvents = false) {
  EngineRun T = runEngine(M, ExecEngine::TreeWalk, Threads, KeepEvents);
  EngineRun B = runEngine(M, ExecEngine::Bytecode, Threads, KeepEvents);
  ASSERT_FALSE(T.R.Trapped) << What << ": " << T.R.TrapMessage;
  expectIdentical(T, B, What);

  EngineRun TC = runEngine(M, ExecEngine::TreeWalk, Threads, KeepEvents,
                           GuardMode::Check, Plans);
  EngineRun BC = runEngine(M, ExecEngine::Bytecode, Threads, KeepEvents,
                           GuardMode::Check, Plans);
  for (const EngineRun *C : {&TC, &BC})
    for (const DependenceViolation &V : C->R.Violations)
      ADD_FAILURE() << What << "/check: " << V.str();
  expectIdentical(T, TC, What + "/check-vs-off-tree");
  expectIdentical(B, BC, What + "/check-vs-off-bytecode");
  for (const auto &[Id, TS] : TC.R.Loops) {
    auto It = BC.R.Loops.find(Id);
    ASSERT_NE(It, BC.R.Loops.end()) << What << " loop " << Id;
    EXPECT_EQ(TS.GuardedInvocations, It->second.GuardedInvocations)
        << What << " loop " << Id;
    EXPECT_EQ(TS.GuardChecks, It->second.GuardChecks)
        << What << " loop " << Id;
    EXPECT_EQ(TS.GuardViolations, It->second.GuardViolations)
        << What << " loop " << Id;
    EXPECT_EQ(TS.GuardFallbacks, It->second.GuardFallbacks)
        << What << " loop " << Id;
  }
}

void diffSource(const std::string &Source, const std::string &What,
                int Threads = 1) {
  std::unique_ptr<Module> M = parseMiniCOrDie(Source, What.c_str());
  diffModule(*M, Threads, What, /*KeepEvents=*/true);
}

/// Both engines must trap with the same message after the same output.
/// Out-of-bounds messages embed the faulting host address, which differs
/// between runs — compare with that suffix stripped. (Cycle totals on
/// trapped runs are documented engine-specific.)
std::string stripAddr(const std::string &Msg) {
  size_t At = Msg.find(" at 0x");
  return At == std::string::npos ? Msg : Msg.substr(0, At);
}

void diffTrap(const std::string &Source, const std::string &ExpectMsg,
              const std::string &What) {
  std::unique_ptr<Module> M = parseMiniCOrDie(Source, What.c_str());
  InterpOptions IO;
  IO.Engine = ExecEngine::TreeWalk;
  RunResult T = Interp(*M, IO).run();
  IO.Engine = ExecEngine::Bytecode;
  RunResult B = Interp(*M, IO).run();
  ASSERT_TRUE(T.Trapped) << What;
  ASSERT_TRUE(B.Trapped) << What;
  EXPECT_EQ(stripAddr(T.TrapMessage), ExpectMsg) << What;
  EXPECT_EQ(stripAddr(B.TrapMessage), ExpectMsg) << What;
  EXPECT_EQ(T.Output, B.Output) << What;
  EXPECT_EQ(T.ExitCode, B.ExitCode) << What;
}

//===----------------------------------------------------------------------===//
// All eight workloads, three configurations each.
//===----------------------------------------------------------------------===//

class WorkloadDiff : public ::testing::TestWithParam<const char *> {};

TEST_P(WorkloadDiff, OriginalSerial) {
  const WorkloadInfo *W = findWorkload(GetParam());
  ASSERT_NE(W, nullptr);
  std::unique_ptr<Module> M = parseMiniCOrDie(W->Source, W->Name);
  diffModule(*M, 1, std::string(W->Name) + "/original");
}

TEST_P(WorkloadDiff, TransformedParallel) {
  const WorkloadInfo *W = findWorkload(GetParam());
  ASSERT_NE(W, nullptr);
  std::unique_ptr<Module> M = parseMiniCOrDie(W->Source, W->Name);
  std::vector<std::shared_ptr<const GuardPlan>> Plans;
  for (unsigned LoopId : CompilationSession(*M).candidateLoops()) {
    PipelineResult PR = CompilationSession(*M).compileLoop(LoopId);
    ASSERT_TRUE(PR.Ok) << W->Name << ": "
                       << firstError(PR);
    if (PR.Guard)
      Plans.push_back(PR.Guard);
  }
  diffModuleGuarded(*M, 4, std::string(W->Name) + "/expanded@4",
                    std::move(Plans));
}

TEST_P(WorkloadDiff, RuntimePrivatized) {
  const WorkloadInfo *W = findWorkload(GetParam());
  ASSERT_NE(W, nullptr);
  std::unique_ptr<Module> M = parseMiniCOrDie(W->Source, W->Name);
  PipelineOptions PO;
  PO.Method = PrivatizationMethod::Runtime;
  for (unsigned LoopId : CompilationSession(*M).candidateLoops()) {
    PipelineResult PR = CompilationSession(*M).compileLoop(LoopId, PO);
    ASSERT_TRUE(PR.Ok) << W->Name << ": "
                       << firstError(PR);
  }
  diffModule(*M, 4, std::string(W->Name) + "/rtpriv@4");
}

std::vector<const char *> workloadNames() {
  std::vector<const char *> Names;
  for (const WorkloadInfo &W : allWorkloads())
    Names.push_back(W.Name);
  return Names;
}

INSTANTIATE_TEST_SUITE_P(Workloads, WorkloadDiff,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &Info) {
                           std::string N = Info.param;
                           for (char &C : N)
                             if (C == '-' || C == '.')
                               C = '_';
                           return N;
                         });

//===----------------------------------------------------------------------===//
// Threads engine: real host threads, same virtual metrics.
//===----------------------------------------------------------------------===//

/// Like runEngine but with no observer installed — the configuration under
/// which the Threads engine actually dispatches eligible loops to host
/// threads (an observer forces the serial-order simulated path).
EngineRun runNoObs(Module &M, ExecEngine E, int Threads,
                   GuardMode Guard = GuardMode::Off,
                   std::vector<std::shared_ptr<const GuardPlan>> Plans = {}) {
  InterpOptions IO;
  IO.Engine = E;
  IO.NumThreads = Threads;
  IO.Guard = Guard;
  IO.GuardPlans = std::move(Plans);
  Interp I(M, IO);
  EngineRun ER;
  ER.R = I.run();
  return ER;
}

/// The Threads engine must reproduce the serial engines' results bit-for-bit
/// at 1, 2, and 4 host threads: exit code, output, work cycles, SimTime,
/// peak memory, rtpriv counters, and the entire per-loop stats map including
/// the per-thread work/stall/idle/dispatch vectors. With an observer it must
/// further reproduce the serial-order event stream (it simulates then, by
/// design — asserting so keeps that contract honest).
void diffThreadsModule(Module &M, const std::string &What,
                       std::vector<std::shared_ptr<const GuardPlan>> Plans =
                           {}) {
  for (int N : {1, 2, 4}) {
    std::string Tag = What + "/threads@" + std::to_string(N);
    EngineRun B = runNoObs(M, ExecEngine::Bytecode, N);
    EngineRun H = runNoObs(M, ExecEngine::Threads, N);
    ASSERT_FALSE(B.R.Trapped) << Tag << ": " << B.R.TrapMessage;
    expectIdentical(B, H, Tag);

    if (!Plans.empty()) {
      EngineRun BC =
          runNoObs(M, ExecEngine::Bytecode, N, GuardMode::Check, Plans);
      EngineRun HC =
          runNoObs(M, ExecEngine::Threads, N, GuardMode::Check, Plans);
      for (const DependenceViolation &V : HC.R.Violations)
        ADD_FAILURE() << Tag << "/check: " << V.str();
      expectIdentical(B, HC, Tag + "/check-vs-off");
      for (const auto &[Id, BS] : BC.R.Loops) {
        auto It = HC.R.Loops.find(Id);
        ASSERT_NE(It, HC.R.Loops.end()) << Tag << " loop " << Id;
        EXPECT_EQ(BS.GuardedInvocations, It->second.GuardedInvocations)
            << Tag << " loop " << Id;
        EXPECT_EQ(BS.GuardChecks, It->second.GuardChecks)
            << Tag << " loop " << Id;
        EXPECT_EQ(BS.GuardViolations, It->second.GuardViolations)
            << Tag << " loop " << Id;
        EXPECT_EQ(BS.GuardFallbacks, It->second.GuardFallbacks)
            << Tag << " loop " << Id;
      }
    }
  }

  // Observed run: the threads engine must fall back to the simulated path
  // and reproduce the full serial-order event stream.
  EngineRun TO = runEngine(M, ExecEngine::TreeWalk, 4, /*KeepEvents=*/false);
  EngineRun HO = runEngine(M, ExecEngine::Threads, 4, /*KeepEvents=*/false);
  expectIdentical(TO, HO, What + "/threads@4+observer");
}

class WorkloadThreads : public ::testing::TestWithParam<const char *> {};

TEST_P(WorkloadThreads, OriginalSerial) {
  const WorkloadInfo *W = findWorkload(GetParam());
  ASSERT_NE(W, nullptr);
  std::unique_ptr<Module> M = parseMiniCOrDie(W->Source, W->Name);
  diffThreadsModule(*M, std::string(W->Name) + "/original");
}

TEST_P(WorkloadThreads, TransformedParallel) {
  const WorkloadInfo *W = findWorkload(GetParam());
  ASSERT_NE(W, nullptr);
  std::unique_ptr<Module> M = parseMiniCOrDie(W->Source, W->Name);
  std::vector<std::shared_ptr<const GuardPlan>> Plans;
  for (unsigned LoopId : CompilationSession(*M).candidateLoops()) {
    PipelineResult PR = CompilationSession(*M).compileLoop(LoopId);
    ASSERT_TRUE(PR.Ok) << W->Name << ": "
                       << firstError(PR);
    if (PR.Guard)
      Plans.push_back(PR.Guard);
  }
  diffThreadsModule(*M, std::string(W->Name) + "/expanded",
                    std::move(Plans));
}

TEST_P(WorkloadThreads, RuntimePrivatized) {
  const WorkloadInfo *W = findWorkload(GetParam());
  ASSERT_NE(W, nullptr);
  std::unique_ptr<Module> M = parseMiniCOrDie(W->Source, W->Name);
  PipelineOptions PO;
  PO.Method = PrivatizationMethod::Runtime;
  for (unsigned LoopId : CompilationSession(*M).candidateLoops()) {
    PipelineResult PR = CompilationSession(*M).compileLoop(LoopId, PO);
    ASSERT_TRUE(PR.Ok) << W->Name << ": "
                       << firstError(PR);
  }
  // rtpriv loops are ineligible for host threading (serial-order shadow
  // map); the engine must detect that per invocation and simulate.
  diffThreadsModule(*M, std::string(W->Name) + "/rtpriv");
}

INSTANTIATE_TEST_SUITE_P(Workloads, WorkloadThreads,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &Info) {
                           std::string N = Info.param;
                           for (char &C : N)
                             if (C == '-' || C == '.')
                               C = '_';
                           return N;
                         });

//===----------------------------------------------------------------------===//
// Reduction workloads: the commutative tier, end to end.
//===----------------------------------------------------------------------===//

std::vector<const char *> reductionNames() {
  std::vector<const char *> Names;
  for (const WorkloadInfo &W : reductionWorkloads())
    Names.push_back(W.Name);
  return Names;
}

std::string reductionTestName(
    const ::testing::TestParamInfo<const char *> &Info) {
  std::string N = Info.param;
  for (char &C : N)
    if (C == '-' || C == '.')
      C = '_';
  return N;
}

// The full engine matrix rides the existing fixtures: {original, expanded@4,
// rtpriv@4} x {tree, vm} with guarded re-runs, and {original, expanded,
// rtpriv} x threads@{1,2,4} — all bit-identical on every virtual metric.
INSTANTIATE_TEST_SUITE_P(Reductions, WorkloadDiff,
                         ::testing::ValuesIn(reductionNames()),
                         reductionTestName);
INSTANTIATE_TEST_SUITE_P(Reductions, WorkloadThreads,
                         ::testing::ValuesIn(reductionNames()),
                         reductionTestName);

class ReductionMatrix : public ::testing::TestWithParam<const char *> {};

TEST_P(ReductionMatrix, ClassifiesCommutativeAndGoesDoall) {
  // Every reduction workload's candidate loop carries only commutative
  // accumulators: the tier must claim at least one class and the planner
  // must then see an empty residual — DOALL, not DOACROSS.
  const WorkloadInfo *W = findWorkload(GetParam());
  ASSERT_NE(W, nullptr);
  std::unique_ptr<Module> M = parseMiniCOrDie(W->Source, W->Name);
  std::vector<unsigned> Cands = CompilationSession(*M).candidateLoops();
  ASSERT_FALSE(Cands.empty());
  PipelineResult PR = CompilationSession(*M).compileLoop(Cands.front());
  ASSERT_TRUE(PR.Ok) << W->Name << ": "
                     << firstError(PR);
  EXPECT_GE(PR.Expansion.CommutativeClasses, 1u) << W->Name;
  EXPECT_GE(PR.Expansion.CommutativeObjects, 1u) << W->Name;
  EXPECT_EQ(PR.Plan.Kind, ParallelKind::DOALL) << W->Name;
}

TEST_P(ReductionMatrix, TierDisabledControl) {
  // With the commutative tier off these loops fall back to the previous
  // behavior (the carried accumulator survives, so no commutative DOALL) —
  // and whatever the pipeline does instead must still be bit-identical
  // across engines at 4 threads.
  const WorkloadInfo *W = findWorkload(GetParam());
  ASSERT_NE(W, nullptr);
  std::unique_ptr<Module> M = parseMiniCOrDie(W->Source, W->Name);
  PipelineOptions Opts;
  Opts.Expansion.CommutativePrivatization = false;
  for (unsigned LoopId : CompilationSession(*M).candidateLoops()) {
    PipelineResult PR = CompilationSession(*M).compileLoop(LoopId, Opts);
    ASSERT_TRUE(PR.Ok) << W->Name << ": "
                       << firstError(PR);
    EXPECT_EQ(PR.Expansion.CommutativeClasses, 0u) << W->Name;
  }
  diffModule(*M, 4, std::string(W->Name) + "/tier-off@4");
}

INSTANTIATE_TEST_SUITE_P(Reductions, ReductionMatrix,
                         ::testing::ValuesIn(reductionNames()),
                         reductionTestName);

/// A loop that carries a running sum and prints every iteration. The static
/// graph makes it DOACROSS with ordered regions; the profiled graph folds
/// the sum into a reduction.
const char *OrderedRegionsSrc = R"(
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
    out = out + w % 101;
    print_int(w % 101);
  }
  print_int(out);
  free(data);
  return 0;
})";

TEST(ThreadsEngine, TrapInParallelLoopAttribution) {
  // A trap inside a host-threaded DOALL: the lowest faulting iteration must
  // win, with exact loop/iteration attribution in the message and the
  // structured fields. (Cycle totals and output on trapping parallel runs
  // are documented engine-specific, so only the trap contract is compared.)
  const char *Src = R"(
int main() {
  int n = 40;
  int* a = (int*)malloc(160);
  int i;
  for (i = 0; i < n; i++) a[i] = i - 17;
  @candidate for (int it = 0; it < n; it++) {
    int d = a[it];
    a[it] = 1000 / d;
  }
  print_int(a[0]);
  free(a);
  return 0;
})";
  std::unique_ptr<Module> M = parseMiniCOrDie(Src, "threads-trap");
  // The pipeline's profiling run would trip over the planted fault, so mark
  // the (independent-iteration) loop DOALL directly — the engines must agree
  // on trap attribution regardless of how the loop got its parallel kind.
  std::vector<unsigned> Cands = CompilationSession(*M).candidateLoops();
  ASSERT_EQ(Cands.size(), 1u);
  bool Marked = false;
  for (Function *F : M->getFunctions()) {
    if (!F->isDefinition())
      continue;
    walkStmts(F->getBody(), [&](Stmt *S) {
      if (auto *FS = dyn_cast<ForStmt>(S))
        if (FS->getLoopId() == Cands.front()) {
          FS->setParallelKind(ParallelKind::DOALL);
          Marked = true;
        }
    });
  }
  ASSERT_TRUE(Marked);
  EngineRun B = runNoObs(*M, ExecEngine::Bytecode, 4);
  EngineRun H = runNoObs(*M, ExecEngine::Threads, 4);
  ASSERT_TRUE(B.R.Trapped);
  ASSERT_TRUE(H.R.Trapped);
  // Iteration 17 computes 1000 / 0 first (lowest faulting iteration).
  EXPECT_EQ(H.R.TrapMessage, B.R.TrapMessage);
  EXPECT_EQ(H.R.TrapLoopId, B.R.TrapLoopId);
  EXPECT_EQ(H.R.TrapIteration, 17);
  EXPECT_EQ(H.R.TrapThread, B.R.TrapThread);
}

/// A DOACROSS loop whose iteration 9 traps (1000/0) before it enters the
/// ordered chain of the non-commutative `acc` recurrence.
const char *OrderedTrapSrc = R"(
int acc;
int main() {
  int n = 32;
  int* a = (int*)malloc(128);
  int i;
  for (i = 0; i < n; i++) a[i] = i - 9;
  @candidate for (int it = 0; it < n; it++) {
    int v = 1000 / a[it];
    acc = acc * 3 + v;
  }
  print_int(acc);
  free(a);
  return 0;
})";

/// OrderedTrapSrc, transformed from the conservative static graph (the
/// pipeline's profiling run would trip the planted fault): the `acc`
/// recurrence, and everything else residual, lands in an ordered chain.
std::unique_ptr<Module> orderedTrapModule() {
  std::unique_ptr<Module> M = parseMiniCOrDie(OrderedTrapSrc, "ordered-trap");
  std::vector<unsigned> Cands = CompilationSession(*M).candidateLoops();
  EXPECT_EQ(Cands.size(), 1u);
  PipelineOptions Opts;
  Opts.Source = GraphSource::Static;
  PipelineResult PR = CompilationSession(*M).compileLoop(Cands.front(), Opts);
  EXPECT_TRUE(PR.Ok) << firstError(PR);
  EXPECT_EQ(PR.Plan.Kind, ParallelKind::DOACROSS);
  EXPECT_GE(PR.Plan.OrderedRegions, 1u);
  return M;
}

TEST(ThreadsEngine, TrapInOrderedRegionReleasesAllTickets) {
  // Fault injection on the DOACROSS ticket protocol under 4 host threads:
  // iteration 9 grabs its tickets, enters the ordered chain, and traps
  // (1000/0). Workers holding later tickets are blocked in enter() at that
  // moment; the trapping iteration must still release every lane exactly
  // once, or TG.wait() never joins and this test hangs. The run must
  // terminate with the trap attributed identically to the simulated engine.
  std::unique_ptr<Module> M = orderedTrapModule();
  ASSERT_FALSE(HasFailure());
  EngineRun B = runNoObs(*M, ExecEngine::Bytecode, 4);
  EngineRun H = runNoObs(*M, ExecEngine::Threads, 4);
  ASSERT_TRUE(B.R.Trapped);
  ASSERT_TRUE(H.R.Trapped) << "threaded DOACROSS did not surface the trap";
  EXPECT_EQ(H.R.TrapMessage, B.R.TrapMessage);
  EXPECT_EQ(H.R.TrapLoopId, B.R.TrapLoopId);
  EXPECT_EQ(H.R.TrapIteration, 9);
  EXPECT_EQ(B.R.TrapIteration, 9);
}

TEST(ThreadsEngine, DoacrossTrapNamesVirtualThread) {
  // Which worker grabs iteration 9 depends on the schedule; the trap must
  // still name the virtual thread the simulated engine runs it on, in the
  // message and in TrapThread. Every iteration below the faulting one runs,
  // so the replayed timeline that names it is the simulated one.
  std::unique_ptr<Module> M = orderedTrapModule();
  ASSERT_FALSE(HasFailure());
  for (int N : {2, 4}) {
    EngineRun B = runNoObs(*M, ExecEngine::Bytecode, N);
    ASSERT_TRUE(B.R.Trapped);
    EXPECT_NE(B.R.TrapMessage.find("iteration 9,"), std::string::npos)
        << B.R.TrapMessage;
    for (int Rep = 0; Rep != 20; ++Rep) {
      EngineRun H = runNoObs(*M, ExecEngine::Threads, N);
      ASSERT_TRUE(H.R.Trapped) << "@" << N << " rep " << Rep;
      EXPECT_EQ(H.R.TrapMessage, B.R.TrapMessage) << "@" << N << " rep " << Rep;
      EXPECT_EQ(H.R.TrapThread, B.R.TrapThread) << "@" << N << " rep " << Rep;
      EXPECT_EQ(H.R.TrapIteration, 9) << "@" << N << " rep " << Rep;
    }
  }
}

//===----------------------------------------------------------------------===//
// Threads engine: which loops run on host threads, and why not.
//===----------------------------------------------------------------------===//

/// Compiles every candidate loop of \p Src with the default pipeline.
std::unique_ptr<Module> compiledSource(const char *Src, const char *Name) {
  std::unique_ptr<Module> M = parseMiniCOrDie(Src, Name);
  for (unsigned LoopId : CompilationSession(*M).candidateLoops()) {
    PipelineResult PR = CompilationSession(*M).compileLoop(LoopId);
    EXPECT_TRUE(PR.Ok) << Name << ": " << firstError(PR);
  }
  return M;
}

/// The single parallel loop of \p M and its kind.
std::pair<unsigned, ParallelKind> parallelLoop(Module &M) {
  std::pair<unsigned, ParallelKind> Found{0, ParallelKind::None};
  for (Function *F : M.getFunctions())
    if (F->isDefinition())
      walkStmts(F->getBody(), [&](Stmt *S) {
        if (auto *FS = dyn_cast<ForStmt>(S))
          if (FS->getParallelKind() != ParallelKind::None)
            Found = {FS->getLoopId(), FS->getParallelKind()};
      });
  return Found;
}

/// Marks loop \p LoopId of \p M as \p Kind (for fixtures the profiling run
/// cannot compile, or whose shape the test wants fixed).
void markLoop(Module &M, unsigned LoopId, ParallelKind Kind) {
  for (Function *F : M.getFunctions())
    if (F->isDefinition())
      walkStmts(F->getBody(), [&](Stmt *S) {
        if (auto *FS = dyn_cast<ForStmt>(S))
          if (FS->getLoopId() == LoopId)
            FS->setParallelKind(Kind);
      });
}

/// The one path every invocation of \p LoopId took in \p R (fails when the
/// invocations split across paths).
ThreadedPath pathOf(const RunResult &R, unsigned LoopId) {
  auto It = R.Loops.find(LoopId);
  EXPECT_NE(It, R.Loops.end()) << "loop " << LoopId;
  if (It == R.Loops.end())
    return ThreadedPath::NotThreadsEngine;
  const LoopStats &L = It->second;
  for (unsigned C = 0; C != NumThreadedPaths; ++C)
    if (L.Paths[C]) {
      EXPECT_EQ(L.Paths[C], L.Invocations)
          << "loop " << LoopId << " split across paths";
      return static_cast<ThreadedPath>(C);
    }
  ADD_FAILURE() << "loop " << LoopId << " recorded no path";
  return ThreadedPath::NotThreadsEngine;
}

std::string pathName(ThreadedPath P) { return threadedPathName(P); }

TEST(ThreadsEngine, DoacrossOrderedRegions) {
  // DOACROSS under real threads: iterations run concurrently, ordered
  // regions serialize through cross-iteration tickets, and the replayed
  // timeline (SimTime, per-thread stall vectors) must still be bit-identical
  // to the simulated schedule. The static graph keeps the running sum in an
  // ordered region; the profiled one would fold it into a reduction (DOALL).
  std::unique_ptr<Module> M =
      parseMiniCOrDie(OrderedRegionsSrc, "threads-doacross");
  PipelineOptions PO;
  PO.Source = GraphSource::Static;
  for (unsigned LoopId : CompilationSession(*M).candidateLoops()) {
    PipelineResult PR = CompilationSession(*M).compileLoop(LoopId, PO);
    ASSERT_TRUE(PR.Ok) << firstError(PR);
    ASSERT_GE(PR.Plan.OrderedRegions, 1u);
  }
  auto [LoopId, Kind] = parallelLoop(*M);
  ASSERT_EQ(Kind, ParallelKind::DOACROSS);
  diffThreadsModule(*M, "threads-doacross");
  for (int N : {2, 4}) {
    RunResult R = runNoObs(*M, ExecEngine::Threads, N).R;
    ASSERT_TRUE(R.Loops.count(LoopId));
    EXPECT_GE(R.Loops.at(LoopId)
                  .Paths[static_cast<unsigned>(ThreadedPath::Threaded)],
              1u)
        << "threads@" << N;
  }
}

// DoacrossOrderedRegions with the running value `out` a local of main.
// Workers run on private frame copies whose bytes the join merges, so run
// threaded this prints a mix of different workers' `out` (83173, 58687,
// 61756 in three runs at 4 threads) instead of 59887. The frame-slot gate
// keeps it on the simulated path.
const char *CarriedLocalSrc = R"(
int main() {
  int n = 4096;
  int out = 0;
  int* data = (int*)malloc(16384);
  int i;
  for (i = 0; i < n; i++) data[i] = (i * 37 + 11) % 50;
  @candidate for (int it = 0; it < n; it++) {
    int v = data[it];
    int w = 0;
    int k;
    for (k = 0; k < v; k++) w = w + k * k;
    out = (out * 3 + w % 101) % 100003;
    print_int(w % 101);
  }
  print_int(out);
  free(data);
  return 0;
})";

TEST(ThreadsEngine, CarriedFrameLocalStaysSimulated) {
  std::unique_ptr<Module> M =
      compiledSource(CarriedLocalSrc, "carried-frame-local");
  auto [LoopId, Kind] = parallelLoop(*M);
  ASSERT_EQ(Kind, ParallelKind::DOACROSS);
  diffThreadsModule(*M, "carried-frame-local");
  for (int N : {2, 4}) {
    EngineRun H = runNoObs(*M, ExecEngine::Threads, N);
    EXPECT_EQ(H.R.Output.substr(H.R.Output.rfind('\n', H.R.Output.size() - 2)),
              "\n59887\n");
    EXPECT_EQ(pathName(pathOf(H.R, LoopId)), "carried-frame-slot");
  }
}

// The same shape through expansion: `scratch` is privatized into per-thread
// copies indexed by a synthesized tid, which alone would let the loop run
// threaded, and `out` is a carried local. Run threaded it prints 50091,
// 66393 or 95853 (three runs) instead of 24533.
const char *ExpandedCarriedLocalSrc = R"(
int data[4096]; int scratch[64];
int main() { int n = 4096; int out = 0; int seed = 99;
  for (int i = 0; i < n; i++) { seed = seed * 1103515245 + 12345; data[i] = (seed >> 16) & 63; }
  @candidate for (int it = 0; it < n; it++) {
    int v = data[it];
    for (int k = 0; k < 64; k++) { scratch[k] = k * v; }
    int w = 0;
    for (int k = 0; k < v; k++) { w = w + scratch[k] % 7; }
    out = (out * 3 + w % 101) % 100003;
  }
  print_int(out); return 0; }
)";

TEST(ThreadsEngine, ExpandedCarriedFrameLocalStaysSimulated) {
  std::unique_ptr<Module> M =
      compiledSource(ExpandedCarriedLocalSrc, "expanded-carried-local");
  auto [LoopId, Kind] = parallelLoop(*M);
  ASSERT_EQ(Kind, ParallelKind::DOACROSS);
  diffThreadsModule(*M, "expanded-carried-local");
  for (int N : {2, 4}) {
    EngineRun H = runNoObs(*M, ExecEngine::Threads, N);
    EXPECT_EQ(H.R.Output, "24533\n");
    EXPECT_EQ(pathName(pathOf(H.R, LoopId)), "carried-frame-slot");
  }
}

TEST(ThreadsEngine, UserTidDoacrossStaysSimulated) {
  // A DOACROSS body that prints __tid observes the virtual thread, which is
  // only known from the replayed timeline: it must keep the simulated path
  // and stay bit-identical.
  const char *Src = R"(
int acc;
int main() {
  int n = 48;
  int* a = (int*)malloc(192);
  int i;
  for (i = 0; i < n; i++) a[i] = (i * 7) % 13;
  @candidate for (int it = 0; it < n; it++) {
    int v = a[it] * 5;
    print_int(__tid);
    acc = acc * 3 + v;
  }
  print_int(acc);
  free(a);
  return 0;
})";
  std::unique_ptr<Module> M = parseMiniCOrDie(Src, "user-tid");
  std::vector<unsigned> Cands = CompilationSession(*M).candidateLoops();
  ASSERT_EQ(Cands.size(), 1u);
  markLoop(*M, Cands.front(), ParallelKind::DOACROSS);
  diffThreadsModule(*M, "user-tid");
  for (int N : {2, 4}) {
    EngineRun H = runNoObs(*M, ExecEngine::Threads, N);
    EXPECT_EQ(pathName(pathOf(H.R, Cands.front())), "user-tid");
  }
}

TEST(ThreadsEngine, ShippedDoacrossLoopsRunThreaded) {
  // dijkstra loop 4, 256.bzip2 loop 3 and 456.hmmer loop 6: expansion's
  // copy indices are synthesized tids and every hoisted local is written
  // before it is read, so all three run on host threads (the WorkloadThreads
  // matrix checks they stay bit-identical).
  for (const auto &[Name, Loop] :
       std::vector<std::pair<const char *, unsigned>>{
           {"dijkstra", 4}, {"256.bzip2", 3}, {"456.hmmer", 6}}) {
    const WorkloadInfo *W = findWorkload(Name);
    ASSERT_NE(W, nullptr);
    std::unique_ptr<Module> M = compiledSource(W->Source, Name);
    auto [LoopId, Kind] = parallelLoop(*M);
    EXPECT_EQ(LoopId, Loop) << Name;
    EXPECT_EQ(Kind, ParallelKind::DOACROSS) << Name;
    for (int N : {2, 4}) {
      EngineRun B = runNoObs(*M, ExecEngine::Bytecode, N);
      EngineRun H = runNoObs(*M, ExecEngine::Threads, N);
      EXPECT_EQ(H.R.Output, B.R.Output) << Name << "@" << N;
      EXPECT_EQ(pathName(pathOf(H.R, LoopId)), "threaded") << Name << "@" << N;
    }
  }
}

TEST(ThreadsEngine, EveryPathCodeIsReachable) {
  // Pins each ThreadedPath code to a configuration that produces it. (In
  // Fallback mode a guarded loop's commit can arm a post-loop watch, which
  // sends its later invocations down the serial-order path, so a run may
  // show two codes.)
  std::map<std::string, unsigned> Seen;
  auto note = [&](const RunResult &R, unsigned LoopId) {
    EXPECT_FALSE(R.Trapped) << R.TrapMessage;
    auto It = R.Loops.find(LoopId);
    ASSERT_NE(It, R.Loops.end()) << "loop " << LoopId;
    for (unsigned C = 0; C != NumThreadedPaths; ++C)
      if (It->second.Paths[C])
        ++Seen[pathName(static_cast<ThreadedPath>(C))];
  };

  // A DOALL loop and a loop whose induction variable is a global.
  const char *Src = R"(
int g;
int out[64];
int main() {
  int n = 64;
  @candidate for (int it = 0; it < n; it++) out[it] = it * 3;
  @candidate for (int j = 0; j < n; j++) out[7] = 5;
  print_int(out[5] + g);
  return 0;
})";
  std::unique_ptr<Module> M = parseMiniCOrDie(Src, "paths");
  std::vector<unsigned> Cands = CompilationSession(*M).candidateLoops();
  ASSERT_EQ(Cands.size(), 2u);
  for (unsigned L : Cands)
    markLoop(*M, L, ParallelKind::DOALL);
  // MiniC only declares local induction variables; move the second loop's
  // onto the global `g`.
  VarDecl *G = nullptr;
  for (VarDecl *D : M->getGlobals())
    if (D->getName() == "g")
      G = D;
  ASSERT_NE(G, nullptr);
  for (Function *F : M->getFunctions())
    if (F->isDefinition())
      walkStmts(F->getBody(), [&](Stmt *S) {
        if (auto *FS = dyn_cast<ForStmt>(S))
          if (FS->getLoopId() == Cands[1])
            FS->setInductionVar(G);
      });
  note(runNoObs(*M, ExecEngine::Threads, 4).R, Cands[0]);
  note(runNoObs(*M, ExecEngine::Bytecode, 4).R, Cands[0]);
  note(runNoObs(*M, ExecEngine::Threads, 4).R, Cands[1]);
  note(runEngine(*M, ExecEngine::Threads, 4, /*KeepEvents=*/false).R,
       Cands[0]);
  {
    InterpOptions IO;
    IO.Engine = ExecEngine::Threads;
    IO.NumThreads = 4;
    std::string Err;
    IO.Resilience.Faults = FaultInjector::parse("worker-start-fail@1", Err);
    ASSERT_TRUE(IO.Resilience.Faults) << Err;
    note(Interp(*M, IO).run(), Cands[0]);
  }

  // The runtime-privatization baseline, and a guarded DOACROSS loop in
  // both guard modes: threaded in Check mode (also across the watch its
  // first invocation arms), the fallback-guard path in Fallback mode.
  const WorkloadInfo *W = findWorkload("456.hmmer");
  ASSERT_NE(W, nullptr);
  {
    std::unique_ptr<Module> RM = parseMiniCOrDie(W->Source, W->Name);
    PipelineOptions PO;
    PO.Method = PrivatizationMethod::Runtime;
    for (unsigned L : CompilationSession(*RM).candidateLoops())
      ASSERT_TRUE(CompilationSession(*RM).compileLoop(L, PO).Ok);
    note(runNoObs(*RM, ExecEngine::Threads, 4).R, parallelLoop(*RM).first);
  }
  std::unique_ptr<Module> GM = parseMiniCOrDie(W->Source, W->Name);
  std::vector<std::shared_ptr<const GuardPlan>> Plans;
  for (unsigned L : CompilationSession(*GM).candidateLoops()) {
    PipelineResult PR = CompilationSession(*GM).compileLoop(L);
    ASSERT_TRUE(PR.Ok) << firstError(PR);
    if (PR.Guard)
      Plans.push_back(PR.Guard);
  }
  ASSERT_FALSE(Plans.empty());
  ASSERT_EQ(parallelLoop(*GM).second, ParallelKind::DOACROSS);
  for (GuardMode G : {GuardMode::Check, GuardMode::Fallback}) {
    RunResult R = runNoObs(*GM, ExecEngine::Threads, 4, G, Plans).R;
    note(R, parallelLoop(*GM).first);
    if (G == GuardMode::Check) {
      EXPECT_EQ(pathName(pathOf(R, parallelLoop(*GM).first)), "threaded");
    }
  }

  // The DOACROSS gates, on the fixtures above.
  std::unique_ptr<Module> CM =
      compiledSource(CarriedLocalSrc, "carried-frame-local");
  note(runNoObs(*CM, ExecEngine::Threads, 4).R, parallelLoop(*CM).first);
  std::unique_ptr<Module> TM = parseMiniCOrDie(R"(
int acc;
int main() {
  int n = 8;
  @candidate for (int it = 0; it < n; it++) acc = acc * 3 + __tid;
  print_int(acc);
  return 0;
})",
                                               "user-tid-small");
  unsigned TL = CompilationSession(*TM).candidateLoops().front();
  markLoop(*TM, TL, ParallelKind::DOACROSS);
  note(runNoObs(*TM, ExecEngine::Threads, 4).R, TL);

  // A threaded DOACROSS attempt that wedges: the watchdog abandons it and
  // re-runs the invocation simulated, which is the only path it records.
  {
    std::unique_ptr<Module> OM =
        parseMiniCOrDie(OrderedRegionsSrc, "ordered-regions");
    PipelineOptions PO;
    PO.Source = GraphSource::Static;
    for (unsigned L : CompilationSession(*OM).candidateLoops())
      ASSERT_TRUE(CompilationSession(*OM).compileLoop(L, PO).Ok);
    ASSERT_EQ(parallelLoop(*OM).second, ParallelKind::DOACROSS);
    InterpOptions IO;
    IO.Engine = ExecEngine::Threads;
    IO.NumThreads = 4;
    IO.Resilience.WatchdogMs = 20;
    std::string Err;
    IO.Resilience.Faults =
        FaultInjector::parse("lane-delay@1,delay-ms=200", Err);
    ASSERT_TRUE(IO.Resilience.Faults) << Err;
    RunResult R = Interp(*OM, IO).run();
    unsigned OL = parallelLoop(*OM).first;
    EXPECT_EQ(pathName(pathOf(R, OL)), "watchdog-rerun");
    note(R, OL);
  }

  for (unsigned C = 0; C != NumThreadedPaths; ++C)
    EXPECT_GE(Seen[pathName(static_cast<ThreadedPath>(C))], 1u)
        << pathName(static_cast<ThreadedPath>(C));
  EXPECT_EQ(Seen.size(), NumThreadedPaths);
}

TEST(ThreadsEngine, CalleeFrameBoundsCheckTrapsLikeBytecode) {
  // A threaded iteration's callee frame lives in the worker's frame arena;
  // bounds checks against it must stay exact, so the one-past-the-end store
  // traps with the bytecode engine's message and attribution.
  const char *Src = R"(
int sink[64];
int fill(int it) {
  int idx = it % 4;
  int buf[4];
  if (it == 17) idx = 4; // one past buf, which ends the frame
  buf[idx] = it;
  return buf[it % 4] + idx;
}
int main() {
  int n = 40;
  @candidate for (int it = 0; it < n; it++) {
    sink[it] = fill(it);
  }
  print_int(sink[3]);
  return 0;
})";
  std::unique_ptr<Module> M = parseMiniCOrDie(Src, "arena-bounds");
  std::vector<unsigned> Cands = CompilationSession(*M).candidateLoops();
  ASSERT_EQ(Cands.size(), 1u);
  markLoop(*M, Cands.front(), ParallelKind::DOALL);
  for (int N : {2, 4}) {
    EngineRun B = runNoObs(*M, ExecEngine::Bytecode, N);
    EngineRun H = runNoObs(*M, ExecEngine::Threads, N);
    ASSERT_TRUE(B.R.Trapped);
    ASSERT_TRUE(H.R.Trapped);
    EXPECT_NE(B.R.TrapMessage.find("out-of-bounds store of 4 bytes"),
              std::string::npos)
        << B.R.TrapMessage;
    // The faulting address is a host address, different per run.
    EXPECT_EQ(stripAddr(H.R.TrapMessage), stripAddr(B.R.TrapMessage));
    EXPECT_EQ(H.R.TrapLoopId, B.R.TrapLoopId);
    EXPECT_EQ(H.R.TrapIteration, 17);
    EXPECT_EQ(B.R.TrapIteration, 17);
    EXPECT_EQ(pathName(pathOf(H.R, Cands.front())), "threaded");
  }
}

//===----------------------------------------------------------------------===//
// Adversarial corners.
//===----------------------------------------------------------------------===//

TEST(EngineDiff, IntegerWidthsAndShifts) {
  diffSource(R"(
int main() {
  char c = 200; short s = 70000; unsigned char uc = 300;
  print_int(c); print_int(s); print_int(uc);
  int x = 1 << 31; print_int(x);
  long l = 1; l = l << 70; print_int(l);        // shift masks to 6
  unsigned u = 3000000000; print_int(u >> 3);   // unsigned shr
  int neg = 0 - 16; print_int(neg >> 2);        // signed shr
  unsigned short us = 60000;
  print_int(us * us);                           // promoted, wraps as int
  print_int(7 / 2); print_int(0 - 7 / 2); print_int(7 % 3);
  int d = 3; print_int(100 / d);                // non-const divisor cost path
  return 0;
})",
             "widths-shifts");
}

TEST(EngineDiff, FloatsCastsAndCompares) {
  diffSource(R"(
int main() {
  double d = 3.75; float f = (float)d;
  print_float(d); print_float(f);
  print_int((int)d); print_int((char)260.9);
  unsigned long big = 0; big = big - 1;          // max u64
  print_float((double)big);                      // unsigned -> double
  long sbig = 0 - 5; print_float((double)sbig);  // signed -> double
  double a = 0.1; double b = 0.2;
  print_int(a + b > 0.3); print_int(a + b == 0.3);
  print_int(sqrt(2.25) == 1.5);
  print_float(fabs(0.0 - 2.5)); print_int(abs(0 - 9));
  return 0;
})",
             "floats-casts");
}

TEST(EngineDiff, ShortCircuitAndCond) {
  diffSource(R"(
int g;
int bump() { g = g + 1; return g; }
int main() {
  g = 0;
  int a = 0 && bump();  print_int(a); print_int(g);
  int b = 1 || bump();  print_int(b); print_int(g);
  int c = 1 && bump();  print_int(c); print_int(g);
  int d = 0 || bump();  print_int(d); print_int(g);
  int e = g > 1 ? bump() : 0 - bump();
  print_int(e); print_int(g);
  print_int(0 ? bump() : 5); print_int(g);
  return 0;
})",
             "shortcircuit-cond");
}

TEST(EngineDiff, PointersStructsAggregates) {
  diffSource(R"(
struct P { int x; int y; double w; };
struct Box { struct P a; struct P b; int tag; };
int main() {
  struct Box bx;
  bx.a.x = 1; bx.a.y = 2; bx.a.w = 0.5; bx.tag = 7;
  bx.b = bx.a;                       // aggregate assignment
  print_int(bx.b.y); print_float(bx.b.w);
  struct Box* pb = &bx;
  pb->b.x = 40; print_int(bx.b.x);
  int arr[10];
  int i;
  for (i = 0; i < 10; i++) arr[i] = i * i;
  int* p = &arr[2]; int* q = &arr[9];
  print_int(q - p);                  // pointer difference
  print_int(*(p + 3));               // pointer + int
  print_int(p < q); print_int(p == q);
  short* sp = (short*)&arr[0];       // recast, different element size
  print_int(*(sp + 2));
  long n = sizeof(struct Box); print_int(n);
  print_int(sizeof(arr));
  return bx.tag;
})",
             "pointers-structs");
}

TEST(EngineDiff, HeapBuiltinsAndBulkOps) {
  diffSource(R"(
int main() {
  int* a = (int*)malloc(40);
  int* b = (int*)calloc(10, 4);
  int i;
  for (i = 0; i < 10; i++) a[i] = i + 1;
  memcpy(b, a, 40);
  print_int(b[9]);
  memset(a, 0, 20);
  print_int(a[0]); print_int(a[5]);
  a = (int*)realloc(a, 80);
  print_int(a[5]);                   // preserved across realloc
  a[19] = 99; print_int(a[19]);
  free(b); free(a);
  return 0;
})",
             "heap-builtins");
}

TEST(EngineDiff, RecursionAndCallConventions) {
  diffSource(R"(
int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
int acc(int a, int b, int c, int d) { return a * 1000 + b * 100 + c * 10 + d; }
int noret(int x) { print_int(x); return 0; }
int main() {
  print_int(fib(15));
  print_int(acc(1, 2, 3, 4));
  noret(5);
  return fib(10);
})",
             "recursion-calls");
}

TEST(EngineDiff, LoopsBreakContinueOrdered) {
  diffSource(R"(
int main() {
  int total = 0;
  int i = 0;
  while (i < 100) {
    i = i + 1;
    if (i % 3 == 0) continue;
    if (i > 60) break;
    total = total + i;
  }
  print_int(total); print_int(i);
  int j;
  for (j = 0; j < 10; j++) {
    int k;
    for (k = 0; k < 10; k++) {
      if (k == j) continue;
      if (k > 7) break;
      total = total + 1;
    }
  }
  print_int(total);
  return 0;
})",
             "loops-break-continue");
}

TEST(EngineDiff, ParallelLoopWithOrderedRegion) {
  // A DOACROSS-shaped loop written directly: the ordered region's event
  // stream feeds the timeline, so cycle-offset bookkeeping differences
  // between engines would show up in SimTime.
  const char *Src = R"(
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
    out = out + w % 101;
    print_int(w % 101);
  }
  print_int(out);
  free(data);
  return 0;
})";
  std::unique_ptr<Module> M = parseMiniCOrDie(Src, "ordered-doacross");
  std::vector<std::shared_ptr<const GuardPlan>> Plans;
  for (unsigned LoopId : CompilationSession(*M).candidateLoops()) {
    PipelineResult PR = CompilationSession(*M).compileLoop(LoopId);
    ASSERT_TRUE(PR.Ok) << firstError(PR);
    if (PR.Guard)
      Plans.push_back(PR.Guard);
  }
  diffModuleGuarded(*M, 4, "ordered-doacross@4", std::move(Plans),
                    /*KeepEvents=*/true);
}

TEST(EngineDiff, GlobalsTidAndExit) {
  diffSource(R"(
int counter;
double weight;
int main() {
  counter = 3; weight = 1.5;
  print_int(counter); print_float(weight);
  print_int(__tid); print_int(__nthreads);
  exit(counter + 4);
  print_int(999);  // unreachable
  return 0;
})",
             "globals-exit", /*Threads=*/2);
}

//===----------------------------------------------------------------------===//
// Trapping programs: same message, same prior output.
//===----------------------------------------------------------------------===//

TEST(EngineDiff, TrapDivisionByZero) {
  diffTrap(R"(
int main() { int z = 0; print_int(1); return 10 / z; })",
           "integer division by zero", "div-zero");
}

TEST(EngineDiff, TrapRemainderByZero) {
  diffTrap(R"(
int main() { int z = 0; return 10 % z; })",
           "integer remainder by zero", "rem-zero");
}

TEST(EngineDiff, TrapOutOfBounds) {
  diffTrap(R"(
int main() { int a[4]; int i = 7; a[i] = 1; return 0; })",
           "out-of-bounds store of 4 bytes", "oob-store");
}

TEST(EngineDiff, TrapUseAfterFree) {
  diffTrap(R"(
int main() {
  int* p = (int*)malloc(16);
  free(p);
  return *p;
})",
           "out-of-bounds load of 4 bytes", "use-after-free");
}

TEST(EngineDiff, TrapStackOverflow) {
  diffTrap(R"(
int rec(int n) { return rec(n + 1); }
int main() { return rec(0); })",
           "call stack overflow", "stack-overflow");
}

TEST(EngineDiff, TrapUndefinedFunction) {
  diffTrap(R"(
int ghost(int x);
int main() { return ghost(1); })",
           "call to undefined function 'ghost'", "undefined-fn");
}

TEST(EngineDiff, TrapNullDeref) {
  diffTrap(R"(
int main() { int* p; return *p; })",
           "null load of 4 bytes", "null-deref");
}

} // namespace
