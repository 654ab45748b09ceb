//===- GuardTest.cpp - Guarded execution fault-injection matrix -*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Runtime dependence validation for speculatively privatized loops, tested
// the only way a validator can be: by breaking the inputs it defends
// against. Each case profiles a program, mutates the verified dependence
// graph (or the resulting guard plan) the way a stale or wrong
// programmer-supplied graph would, re-runs the transformation on the lie,
// and asserts that
//   - GuardMode::Check reports exactly the injected violation kind with
//     correct (loop, class, iteration, thread) attribution, and
//   - GuardMode::Fallback rolls the parallel invocation back (or patches
//     last values at commit) and reproduces the serial program's output
//     bit-identically,
// on BOTH execution engines. A clean plan is also run under both modes to
// pin the no-violation path.
//
//===----------------------------------------------------------------------===//

#include "analysis/AccessClasses.h"
#include "analysis/DepGraph.h"
#include "driver/CompilationSession.h"
#include "frontend/Parser.h"
#include "interp/Guard.h"
#include "interp/Interp.h"
#include "profile/DepProfiler.h"
#include "support/Diagnostics.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

using namespace gdse;

namespace {

//===----------------------------------------------------------------------===//
// Harness
//===----------------------------------------------------------------------===//

/// Drops every loop-carried flow edge: the mutation that makes a class with
/// a real cross-iteration value chain look privatizable.
LoopDepGraph dropCarriedFlow(LoopDepGraph G) {
  std::set<DepEdge> Kept;
  for (const DepEdge &E : G.Edges)
    if (!(E.Carried && E.Kind == DepKind::Flow))
      Kept.insert(E);
  G.Edges = std::move(Kept);
  return G;
}

LoopDepGraph clearUpwardsExposed(LoopDepGraph G) {
  G.UpwardsExposedLoads.clear();
  return G;
}

LoopDepGraph clearDownwardsExposed(LoopDepGraph G) {
  G.DownwardsExposedStores.clear();
  return G;
}

struct Transformed {
  std::unique_ptr<Module> M;
  unsigned LoopId = 0;
  PipelineResult PR;
};

/// Profiles \p Src's (single) candidate loop and returns the true graph.
LoopDepGraph profiled(const char *Src, unsigned &LoopId) {
  std::unique_ptr<Module> M = parseMiniCOrDie(Src, "guard profile");
  LoopId = CompilationSession(*M).candidateLoops().front();
  return std::move(profileLoop(*M, LoopId).Graph);
}

/// Fresh parse of \p Src transformed under the (possibly mutated) external
/// graph \p G. The transformation must succeed and must emit a guard plan —
/// a fault injection that fails to privatize anything tests nothing.
Transformed transformWith(const char *Src, const LoopDepGraph &G) {
  Transformed T;
  T.M = parseMiniCOrDie(Src, "guard transform");
  T.LoopId = CompilationSession(*T.M).candidateLoops().front();
  PipelineOptions Opts;
  Opts.Source = GraphSource::External;
  Opts.ExternalGraph = &G;
  // Fault injection must see the FULL plan: any claim the witness can
  // legitimately discharge would vanish from a pruned plan and its injected
  // fault would go unvalidated. (WitnessPrunedCleanRunBitIdentical covers
  // the pruned path.)
  Opts.Expansion.GuardPruning = false;
  T.PR = CompilationSession(*T.M).compileLoop(T.LoopId, Opts);
  return T;
}

RunResult runSerial(const char *Src) {
  std::unique_ptr<Module> M = parseMiniCOrDie(Src, "guard serial ref");
  Interp I(*M);
  return I.run();
}

RunResult runGuarded(Module &M, ExecEngine E, GuardMode Mode,
                     std::shared_ptr<const GuardPlan> Plan,
                     DiagnosticEngine *Diags = nullptr) {
  InterpOptions IO;
  IO.NumThreads = 4;
  IO.Engine = E;
  IO.Guard = Mode;
  if (Plan)
    IO.GuardPlans.push_back(std::move(Plan));
  IO.GuardDiags = Diags;
  Interp I(M, IO);
  return I.run();
}

const char *engName(ExecEngine E) {
  switch (E) {
  case ExecEngine::TreeWalk:
    return "tree";
  case ExecEngine::Bytecode:
    return "bytecode";
  case ExecEngine::Threads:
    return "threads";
  }
  return "?";
}

/// The full matrix for one injected fault: Check must attribute the first
/// violation exactly; Fallback must recover the serial output on the same
/// module. \p ExpectIter / \p ExpectThread of -1 skip that attribution
/// check (for faults whose placement depends on the schedule).
struct ExpectedViolation {
  ViolationKind Kind;
  int64_t Iter;
  int Thread;
};

void expectFaultCaught(const char *Src, Transformed &T,
                       std::shared_ptr<const GuardPlan> Plan,
                       const ExpectedViolation &Want, ExecEngine E) {
  SCOPED_TRACE(std::string("engine=") + engName(E));
  ASSERT_TRUE(Plan && !Plan->empty());
  RunResult Serial = runSerial(Src);
  ASSERT_FALSE(Serial.Trapped) << Serial.TrapMessage;

  // --- Check: detect, attribute, never perturb execution. ---
  DiagnosticEngine CheckDiags;
  RunResult Check = runGuarded(*T.M, E, GuardMode::Check, Plan, &CheckDiags);
  ASSERT_FALSE(Check.Trapped) << Check.TrapMessage;
  ASSERT_FALSE(Check.Violations.empty())
      << "injected fault not detected in check mode";
  const DependenceViolation &V = Check.Violations.front();
  EXPECT_EQ(V.Kind, Want.Kind) << V.str();
  EXPECT_EQ(V.LoopId, T.LoopId) << V.str();
  if (Want.Iter >= 0) {
    EXPECT_EQ(V.Iteration, static_cast<uint64_t>(Want.Iter)) << V.str();
  }
  if (Want.Thread >= 0) {
    EXPECT_EQ(V.Thread, Want.Thread) << V.str();
  }
  // Class attribution: when the violating access is one the plan claims
  // private, the reported class must be that access's class.
  auto It = Plan->PrivateClassOf.find(V.Access);
  if (It != Plan->PrivateClassOf.end()) {
    EXPECT_EQ(V.ClassIndex, It->second) << V.str();
  }
  EXPECT_GE(Check.Loops.at(T.LoopId).GuardViolations, 1u);
  EXPECT_EQ(Check.Loops.at(T.LoopId).GuardFallbacks, 0u);
  // Diagnostics surfaced as errors through the engine.
  bool SawGuardError = false;
  for (const Diagnostic &D : CheckDiags.diagnostics())
    if (D.Pass == "guard" && D.Severity == DiagSeverity::Error)
      SawGuardError = true;
  EXPECT_TRUE(SawGuardError);

  // --- Fallback: recover the serial semantics exactly. ---
  DiagnosticEngine FbDiags;
  RunResult Fb = runGuarded(*T.M, E, GuardMode::Fallback, Plan, &FbDiags);
  ASSERT_FALSE(Fb.Trapped) << Fb.TrapMessage;
  EXPECT_EQ(Fb.Output, Serial.Output);
  EXPECT_EQ(Fb.ExitCode, Serial.ExitCode);
  EXPECT_GE(Fb.Loops.at(T.LoopId).GuardFallbacks, 1u);
  bool SawGuardWarning = false;
  for (const Diagnostic &D : FbDiags.diagnostics())
    if (D.Pass == "guard" && D.Severity == DiagSeverity::Warning)
      SawGuardWarning = true;
  EXPECT_TRUE(SawGuardWarning);
}

//===----------------------------------------------------------------------===//
// Upwards-exposed load: the first iteration reads a value that flowed in
// from before the loop; privatizing the structure severs it.
//===----------------------------------------------------------------------===//

const char *UpSrc = R"(
  int main() {
    int* buf = malloc(4 * sizeof(int));
    buf[0] = 100;
    long acc = 0;
    @candidate for (int i = 0; i < 8; i++) {
      int s = buf[0];
      buf[0] = s + i;
      acc += buf[0];
    }
    print_int(acc);
    free(buf);
    return 0;
  }
)";

class GuardFault : public ::testing::TestWithParam<ExecEngine> {};

TEST_P(GuardFault, UpwardsExposedLoad) {
  unsigned LoopId;
  LoopDepGraph True = profiled(UpSrc, LoopId);
  // The true graph must actually contain the facts we are about to erase.
  ASSERT_FALSE(True.UpwardsExposedLoads.empty());
  LoopDepGraph Lie = clearDownwardsExposed(
      clearUpwardsExposed(dropCarriedFlow(std::move(True))));

  Transformed T = transformWith(UpSrc, Lie);
  ASSERT_TRUE(T.PR.Ok) << firstError(T.PR);
  ASSERT_TRUE(T.PR.Guard) << "fault injection privatized nothing";

  // `int s = buf[0]` at iteration 0 on thread 0 reads its never-written
  // private copy: the very first guarded access violates.
  expectFaultCaught(UpSrc, T, T.PR.Guard,
                    {ViolationKind::UpwardsExposedLoad, 0, 0}, GetParam());
}

//===----------------------------------------------------------------------===//
// Loop-carried flow: every read is covered by an earlier iteration's write
// (so NOT upwards-exposed); dropping the carried flow edges is the lie.
//===----------------------------------------------------------------------===//

const char *CarriedSrc = R"(
  int main() {
    int* buf = malloc(4 * sizeof(int));
    buf[0] = 7;
    long acc = 0;
    @candidate for (int i = 0; i < 8; i++) {
      if (i > 0) {
        acc = acc + buf[0];
      }
      buf[0] = i * 3 + 1;
    }
    print_int(acc);
    free(buf);
    return 0;
  }
)";

TEST_P(GuardFault, LoopCarriedFlow) {
  unsigned LoopId;
  LoopDepGraph True = profiled(CarriedSrc, LoopId);
  bool HadCarriedFlow = false;
  for (const DepEdge &E : True.Edges)
    HadCarriedFlow |= E.Carried && E.Kind == DepKind::Flow;
  ASSERT_TRUE(HadCarriedFlow);
  LoopDepGraph Lie = clearDownwardsExposed(
      clearUpwardsExposed(dropCarriedFlow(std::move(True))));

  Transformed T = transformWith(CarriedSrc, Lie);
  ASSERT_TRUE(T.PR.Ok) << firstError(T.PR);
  ASSERT_TRUE(T.PR.Guard) << "fault injection privatized nothing";

  // DOALL chunking puts iterations 0 and 1 on thread 0: iteration 1's read
  // of buf[0] sees thread 0's own iteration-0 write — a cross-iteration
  // flow into a "private" class, the first violation of the run.
  expectFaultCaught(CarriedSrc, T, T.PR.Guard,
                    {ViolationKind::CarriedFlow, 1, 0}, GetParam());
}

//===----------------------------------------------------------------------===//
// Span escape: the plan (not the graph) is stale — it claims as private,
// and as a guarded region, a shared lookup table the rewrite never
// expanded. Every thread then reads the whole table, so reads land in
// other threads' claimed spans: the guard must flag the escape.
//===----------------------------------------------------------------------===//

const char *SpanSrc = R"(
  int main() {
    int* table = malloc(16 * sizeof(int));
    for (int k = 0; k < 16; k++) { table[k] = k * 5; }
    int* tmp = malloc(4 * sizeof(int));
    long acc = 0;
    @candidate for (int i = 0; i < 8; i++) {
      for (int k = 0; k < 4; k++) { tmp[k] = table[4 + k] + i; }
      int b = 0;
      for (int k = 0; k < 4; k++) { b = b + tmp[k]; }
      acc = acc + b;
    }
    print_int(acc);
    free(tmp);
    free(table);
    return 0;
  }
)";

/// Maps heap allocations and the loads that touch them, to recover the
/// shared table's allocation site and access id from a dry run.
class HeapSpy : public InterpObserver {
public:
  struct Block {
    uint64_t Base, Size;
    uint32_t Site;
  };
  std::vector<Block> Heap;
  std::map<uint32_t, uint32_t> LoadSite;  // access id -> touched site
  std::map<uint32_t, uint32_t> StoreSite; // access id -> touched site

  void onAlloc(const Allocation &A) override {
    if (A.Kind == AllocKind::Heap)
      Heap.push_back({A.Base, A.Size, A.SiteId});
  }
  void onLoad(AccessId Id, uint64_t Addr, uint64_t Size) override {
    (void)Size;
    note(LoadSite, Id, Addr);
  }
  void onStore(AccessId Id, uint64_t Addr, uint64_t Size) override {
    (void)Size;
    note(StoreSite, Id, Addr);
  }

private:
  void note(std::map<uint32_t, uint32_t> &Sites, AccessId Id, uint64_t Addr) {
    if (Id == InvalidAccessId)
      return;
    for (const Block &B : Heap)
      if (Addr - B.Base < B.Size) {
        Sites[Id] = B.Site;
        break;
      }
  }
};

TEST_P(GuardFault, SpanEscape) {
  // A perfectly clean program and a correct transformation...
  unsigned LoopId;
  LoopDepGraph True = profiled(SpanSrc, LoopId);
  Transformed T = transformWith(SpanSrc, True);
  ASSERT_TRUE(T.PR.Ok) << firstError(T.PR);
  ASSERT_TRUE(T.PR.Guard);

  // ...whose shared table we locate with a dry run: the heap load whose
  // target allocation site the plan does NOT claim.
  HeapSpy Spy;
  {
    InterpOptions IO;
    IO.Engine = GetParam();
    Interp I(*T.M, IO);
    I.setObserver(&Spy);
    RunResult R = I.run();
    ASSERT_FALSE(R.Trapped) << R.TrapMessage;
  }
  uint32_t VictimId = 0, VictimSite = 0;
  for (const auto &[Id, Site] : Spy.LoadSite)
    if (Site && !T.PR.Guard->RegionSites.count(Site) &&
        !T.PR.Guard->PrivateClassOf.count(Id)) {
      VictimId = Id;
      VictimSite = Site;
      break;
    }
  ASSERT_NE(VictimId, 0u) << "no shared heap load to misattribute";

  // The corrupt plan claims the table as a privatized region and its load
  // as a private access. Thread 0's very first table read, table[4] on
  // iteration 0, lands in "thread 1's span" (byte 16 of a 64-byte region
  // split 4 ways): a span escape with exact attribution.
  auto Mut = std::make_shared<GuardPlan>(*T.PR.Guard);
  Mut->PrivateClassOf[VictimId] = 0;
  Mut->RegionSites.insert(VictimSite);
  expectFaultCaught(SpanSrc, T, Mut, {ViolationKind::SpanEscape, 0, 0},
                    GetParam());
}

//===----------------------------------------------------------------------===//
// Downwards-exposed store: the loop's final values are read after the loop;
// privatization strands them in the last writer's copy. Check mode pins the
// misattributed read; fallback recovers via last-value copy-out.
//===----------------------------------------------------------------------===//

const char *DownSrc = R"(
  int main() {
    int* buf = malloc(4 * sizeof(int));
    @candidate for (int i = 0; i < 8; i++) {
      for (int k = 0; k < 4; k++) { buf[k] = i * 10 + k; }
    }
    print_int(buf[2]);
    free(buf);
    return 0;
  }
)";

TEST_P(GuardFault, DownwardsExposedStore) {
  unsigned LoopId;
  LoopDepGraph True = profiled(DownSrc, LoopId);
  ASSERT_FALSE(True.DownwardsExposedStores.empty());
  LoopDepGraph Lie = clearDownwardsExposed(std::move(True));

  Transformed T = transformWith(DownSrc, Lie);
  ASSERT_TRUE(T.PR.Ok) << firstError(T.PR);
  ASSERT_TRUE(T.PR.Guard) << "fault injection privatized nothing";

  // In-loop execution is clean (each iteration writes before reading); the
  // violation only exists at the post-loop read of buf[2], whose serially
  // final value was written by iteration 7 — on thread 3 under DOALL
  // chunking of 8 iterations over 4 threads — but stranded in that
  // thread's copy.
  expectFaultCaught(DownSrc, T, T.PR.Guard,
                    {ViolationKind::DownwardsExposedStore, 7, 3}, GetParam());

  // And check mode really observed the stale value (the bug is real):
  RunResult Serial = runSerial(DownSrc);
  RunResult Check = runGuarded(*T.M, GetParam(), GuardMode::Check, T.PR.Guard);
  EXPECT_NE(Check.Output, Serial.Output)
      << "misclassification produced no observable effect";
}

//===----------------------------------------------------------------------===//
// Non-commutative touch: an access outside a proven-commutative class
// sneaks into that class's region mid-loop. SpanSrc's `acc` accumulator is
// genuinely commutative, so its plan carries commit-time-merge machinery;
// the corrupt plan then relabels another region as commutative so real
// foreign accesses land in it.
//===----------------------------------------------------------------------===//

TEST_P(GuardFault, NonCommutativeTouchOnForeignRead) {
  unsigned LoopId;
  LoopDepGraph True = profiled(SpanSrc, LoopId);
  Transformed T = transformWith(SpanSrc, True);
  ASSERT_TRUE(T.PR.Ok) << firstError(T.PR);
  ASSERT_TRUE(T.PR.Guard);
  // The tentpole contract: acc's reduction really is claimed commutative.
  ASSERT_FALSE(T.PR.Guard->CommClassOf.empty());
  ASSERT_FALSE(T.PR.Guard->CommSiteClass.empty());

  // Locate the shared lookup table (the heap load the plan claims nothing
  // about) with a dry run, as in SpanEscape.
  HeapSpy Spy;
  {
    InterpOptions IO;
    IO.Engine = GetParam();
    Interp I(*T.M, IO);
    I.setObserver(&Spy);
    RunResult R = I.run();
    ASSERT_FALSE(R.Trapped) << R.TrapMessage;
  }
  uint32_t VictimSite = 0;
  for (const auto &[Id, Site] : Spy.LoadSite)
    if (Site && !T.PR.Guard->RegionSites.count(Site) &&
        !T.PR.Guard->CommSiteClass.count(Site) &&
        !T.PR.Guard->PrivateClassOf.count(Id) &&
        !T.PR.Guard->CommClassOf.count(Id)) {
      VictimSite = Site;
      break;
    }
  ASSERT_NE(VictimSite, 0u) << "no shared heap region to misattribute";

  // The corrupt plan claims the table carries a commutative class's
  // per-thread accumulators. Every iteration's unclaimed table reads then
  // observe "partial accumulator" state: thread 0's first read, iteration
  // 0, must be flagged as a non-commutative touch attributed to the
  // relabeled class.
  const unsigned CommCls = T.PR.Guard->NumClasses + 1;
  auto Mut = std::make_shared<GuardPlan>(*T.PR.Guard);
  Mut->CommSiteClass[VictimSite] = CommCls;
  expectFaultCaught(SpanSrc, T, Mut,
                    {ViolationKind::NonCommutativeTouch, 0, 0}, GetParam());

  DiagnosticEngine Diags;
  RunResult Check = runGuarded(*T.M, GetParam(), GuardMode::Check, Mut, &Diags);
  ASSERT_FALSE(Check.Violations.empty());
  EXPECT_EQ(Check.Violations.front().ClassIndex, CommCls)
      << Check.Violations.front().str();
}

TEST_P(GuardFault, NonCommutativeTouchOnForeignWrite) {
  unsigned LoopId;
  LoopDepGraph True = profiled(SpanSrc, LoopId);
  Transformed T = transformWith(SpanSrc, True);
  ASSERT_TRUE(T.PR.Ok) << firstError(T.PR);
  ASSERT_TRUE(T.PR.Guard);
  ASSERT_FALSE(T.PR.Guard->RegionSites.empty());

  // Relabel the expanded private scratch (`tmp`) as a commutative region:
  // its claimed-private stores now "sneak into" a commutative class. The
  // first body statement writes tmp[0] on iteration 0, thread 0 — that
  // write must be flagged with the relabeled class and the writer's access
  // id, before any of tmp's reads pile onto the same deduplicated record.
  const unsigned CommCls = T.PR.Guard->NumClasses + 2;
  auto Mut = std::make_shared<GuardPlan>(*T.PR.Guard);
  uint32_t TmpSite = *Mut->RegionSites.begin();
  Mut->RegionSites.erase(TmpSite);
  Mut->CommSiteClass[TmpSite] = CommCls;

  RunResult Serial = runSerial(SpanSrc);
  ASSERT_FALSE(Serial.Trapped) << Serial.TrapMessage;

  DiagnosticEngine Diags;
  RunResult Check = runGuarded(*T.M, GetParam(), GuardMode::Check, Mut, &Diags);
  ASSERT_FALSE(Check.Trapped) << Check.TrapMessage;
  ASSERT_FALSE(Check.Violations.empty())
      << "foreign write into commutative region not detected";
  const DependenceViolation &V = Check.Violations.front();
  EXPECT_EQ(V.Kind, ViolationKind::NonCommutativeTouch) << V.str();
  EXPECT_EQ(V.LoopId, T.LoopId) << V.str();
  EXPECT_EQ(V.ClassIndex, CommCls) << V.str();
  EXPECT_EQ(V.Iteration, 0u) << V.str();
  EXPECT_EQ(V.Thread, 0) << V.str();
  // The attribution names the sneaking writer: one of the accesses the
  // plan itself claims private (tmp's class), not an anonymous bulk touch.
  EXPECT_TRUE(Mut->PrivateClassOf.count(V.Access)) << V.str();

  // Fallback: rollback plus serial re-run must recover the serial output.
  RunResult Fb = runGuarded(*T.M, GetParam(), GuardMode::Fallback, Mut);
  ASSERT_FALSE(Fb.Trapped) << Fb.TrapMessage;
  EXPECT_EQ(Fb.Output, Serial.Output);
  EXPECT_GE(Fb.Loops.at(T.LoopId).GuardFallbacks, 1u);
}

//===----------------------------------------------------------------------===//
// Clean plan: the guard stays silent and invisible in both modes.
//===----------------------------------------------------------------------===//

TEST_P(GuardFault, CleanPlanNoViolations) {
  unsigned LoopId;
  LoopDepGraph True = profiled(SpanSrc, LoopId);
  Transformed T = transformWith(SpanSrc, True);
  ASSERT_TRUE(T.PR.Ok);
  ASSERT_TRUE(T.PR.Guard);
  RunResult Serial = runSerial(SpanSrc);

  RunResult Off = runGuarded(*T.M, GetParam(), GuardMode::Off, T.PR.Guard);
  for (GuardMode Mode : {GuardMode::Check, GuardMode::Fallback}) {
    DiagnosticEngine Diags;
    RunResult R = runGuarded(*T.M, GetParam(), Mode, T.PR.Guard, &Diags);
    SCOPED_TRACE(guardModeName(Mode));
    ASSERT_FALSE(R.Trapped) << R.TrapMessage;
    EXPECT_TRUE(R.Violations.empty());
    EXPECT_TRUE(Diags.diagnostics().empty());
    EXPECT_EQ(R.Output, Serial.Output);
    EXPECT_EQ(R.WorkCycles, Off.WorkCycles);
    EXPECT_EQ(R.SimTime, Off.SimTime);
    EXPECT_EQ(R.PeakMemoryBytes, Off.PeakMemoryBytes);
    const LoopStats &L = R.Loops.at(T.LoopId);
    EXPECT_GE(L.GuardedInvocations, 1u);
    EXPECT_GT(L.GuardChecks, 0u);
    EXPECT_EQ(L.GuardViolations, 0u);
    EXPECT_EQ(L.GuardFallbacks, 0u);
  }
}

/// A clean program whose private class the witness can fully discharge: the
/// global scratch buffer is must-written across its whole extent before
/// every read, so the coverage proof goes through (unlike SpanSrc, whose
/// heap scratch buffer the analysis leaves Unknown).
const char *ProvableSrc = R"(
  int tmp[16];
  long acc;
  int main() {
    acc = 1;
    @candidate for (int i = 0; i < 8; i++) {
      for (int k = 0; k < 16; k++) { tmp[k] = i * 3 + k; }
      int b = 0;
      for (int k = 0; k < 16; k++) { b = b + tmp[k]; }
      acc = acc * 31 + b;
    }
    print_int(acc);
    return 0;
  }
)";

TEST_P(GuardFault, WitnessPrunedCleanRunBitIdentical) {
  // The same clean program transformed WITHOUT disabling pruning: the
  // static witness discharges every private-class claim of ProvableSrc, so
  // no guard plan survives — and the check-mode run must still be
  // bit-identical to the full plan's off-mode run on every virtual metric,
  // with zero violations.
  unsigned LoopId;
  LoopDepGraph True = profiled(ProvableSrc, LoopId);
  Transformed Full = transformWith(ProvableSrc, True);
  ASSERT_TRUE(Full.PR.Ok);
  ASSERT_TRUE(Full.PR.Guard);

  Transformed Pruned;
  Pruned.M = parseMiniCOrDie(ProvableSrc, "guard pruned");
  Pruned.LoopId = CompilationSession(*Pruned.M).candidateLoops().front();
  PipelineOptions Opts;
  Opts.Source = GraphSource::External;
  Opts.ExternalGraph = &True;
  Pruned.PR = CompilationSession(*Pruned.M).compileLoop(Pruned.LoopId, Opts);
  ASSERT_TRUE(Pruned.PR.Ok)
      << firstError(Pruned.PR);
  EXPECT_TRUE(!Pruned.PR.Guard || Pruned.PR.Guard->empty());
  EXPECT_GT(Pruned.PR.Expansion.GuardAccessesElided, 0u);

  RunResult Serial = runSerial(ProvableSrc);
  RunResult FullOff =
      runGuarded(*Full.M, GetParam(), GuardMode::Off, Full.PR.Guard);
  DiagnosticEngine Diags;
  RunResult Check = runGuarded(*Pruned.M, GetParam(), GuardMode::Check,
                               Pruned.PR.Guard, &Diags);
  ASSERT_FALSE(Check.Trapped) << Check.TrapMessage;
  EXPECT_TRUE(Check.Violations.empty());
  EXPECT_TRUE(Diags.diagnostics().empty());
  EXPECT_EQ(Check.Output, Serial.Output);
  EXPECT_EQ(Check.WorkCycles, FullOff.WorkCycles);
  EXPECT_EQ(Check.SimTime, FullOff.SimTime);
  EXPECT_EQ(Check.PeakMemoryBytes, FullOff.PeakMemoryBytes);
  auto It = Check.Loops.find(Pruned.LoopId);
  if (It != Check.Loops.end()) {
    EXPECT_EQ(It->second.GuardChecks, 0u);
    EXPECT_EQ(It->second.GuardViolations, 0u);
  }
}

// The Threads row runs the whole fault matrix on real host threads: check
// mode detects each injected violation from the merged per-worker shadow
// logs with the same (iteration, thread) attribution the serial engines
// compute, and fallback mode (ineligible for real dispatch by design) must
// still recover serial output through the simulated schedule.
INSTANTIATE_TEST_SUITE_P(Engines, GuardFault,
                         ::testing::Values(ExecEngine::TreeWalk,
                                           ExecEngine::Bytecode,
                                           ExecEngine::Threads),
                         [](const auto &Info) {
                           switch (Info.param) {
                           case ExecEngine::TreeWalk:
                             return "TreeWalk";
                           case ExecEngine::Bytecode:
                             return "Bytecode";
                           case ExecEngine::Threads:
                             return "Threads";
                           }
                           return "Unknown";
                         });

//===----------------------------------------------------------------------===//
// DOACROSS rows: the same faults in loops that keep an ordered region (a
// non-commutative recurrence on the global `acc`), in Check mode, on the
// simulated bytecode engine and on host threads. Under host threads a
// DOACROSS worker grabs iterations dynamically and indexes the copies (and
// its guard shadow) by its slot, so the first occurrence of a violation is
// asserted exactly only where it cannot depend on which worker grabbed
// which iteration; attribution always names the virtual thread, as the
// simulated engine computes it.
//===----------------------------------------------------------------------===//

/// The lie of the DOALL rows, told only about heap accesses: the carried
/// flow into them and their exposure are dropped, while the global `acc`
/// recurrence keeps its edges and so its ordered region.
LoopDepGraph lieAboutHeap(const char *Src, LoopDepGraph G) {
  std::unique_ptr<Module> M = parseMiniCOrDie(Src, "guard heap spy");
  CompilationSession(*M).candidateLoops(); // numbers the accesses
  HeapSpy Spy;
  Interp I(*M);
  I.setObserver(&Spy);
  EXPECT_FALSE(I.run().Trapped);
  auto onHeap = [&](uint32_t Id) {
    return Spy.LoadSite.count(Id) || Spy.StoreSite.count(Id);
  };
  std::set<DepEdge> Kept;
  for (const DepEdge &E : G.Edges)
    if (!(E.Carried && E.Kind == DepKind::Flow &&
          (onHeap(E.Src) || onHeap(E.Dst))))
      Kept.insert(E);
  G.Edges = std::move(Kept);
  std::erase_if(G.UpwardsExposedLoads, onHeap);
  std::erase_if(G.DownwardsExposedStores, onHeap);
  return G;
}

/// Engine and thread count of one DOACROSS row.
using DoacrossParam = std::tuple<ExecEngine, int>;

class GuardFaultDoacross : public ::testing::TestWithParam<DoacrossParam> {
protected:
  ExecEngine engine() const { return std::get<0>(GetParam()); }
  int threads() const { return std::get<1>(GetParam()); }
  /// Threaded runs repeat, so the assertions hold across schedules.
  int reps() const { return engine() == ExecEngine::Threads ? 20 : 1; }

  /// A Check-mode run of \p M on \p E at \p N threads.
  static RunResult check(Module &M, std::shared_ptr<const GuardPlan> Plan,
                         ExecEngine E, int N,
                         DiagnosticEngine *Diags = nullptr) {
    InterpOptions IO;
    IO.NumThreads = N;
    IO.Engine = E;
    IO.Guard = GuardMode::Check;
    IO.GuardPlans.push_back(std::move(Plan));
    IO.GuardDiags = Diags;
    return Interp(M, IO).run();
  }

  /// Every parallel loop of \p M ran on host threads (on the threads
  /// engine): the rows must exercise the threaded guard, not the simulated
  /// one.
  void expectThreaded(const RunResult &R) const {
    if (engine() != ExecEngine::Threads)
      return;
    for (const auto &[Id, L] : R.Loops) {
      if (L.Kind == ParallelKind::None)
        continue;
      EXPECT_EQ(L.Paths[static_cast<unsigned>(ThreadedPath::Threaded)],
                L.Invocations)
          << "loop " << Id;
    }
  }

  void expectStaleTableEscape(const char *Src, const ExpectedViolation &Want);

  /// The first (deduplicated) entry of kind \p K, or null.
  static const DependenceViolation *firstOf(const RunResult &R,
                                            ViolationKind K) {
    for (const DependenceViolation &V : R.Violations)
      if (V.Kind == K)
        return &V;
    return nullptr;
  }

  /// Check mode detects the injected kind in every repetition, and its first
  /// occurrence has the attribution \p Want (thread -1: the thread the
  /// simulated bytecode engine names) and the simulated engine's class.
  void expectDoacrossFault(Transformed &T,
                           std::shared_ptr<const GuardPlan> Plan,
                           const ExpectedViolation &Want) const {
    ASSERT_TRUE(Plan && !Plan->empty());
    RunResult Sim = check(*T.M, Plan, ExecEngine::Bytecode, threads());
    const DependenceViolation *SV = firstOf(Sim, Want.Kind);
    ASSERT_NE(SV, nullptr) << "fault not detected by the simulated engine";
    for (int Rep = 0; Rep != reps(); ++Rep) {
      SCOPED_TRACE("rep " + std::to_string(Rep));
      DiagnosticEngine Diags;
      RunResult R = check(*T.M, Plan, engine(), threads(), &Diags);
      ASSERT_FALSE(R.Trapped) << R.TrapMessage;
      expectThreaded(R);
      const DependenceViolation *V = firstOf(R, Want.Kind);
      ASSERT_NE(V, nullptr) << "fault not detected";
      EXPECT_EQ(V->LoopId, T.LoopId) << V->str();
      EXPECT_EQ(V->ClassIndex, SV->ClassIndex) << V->str();
      EXPECT_EQ(V->Iteration, static_cast<uint64_t>(Want.Iter)) << V->str();
      EXPECT_EQ(V->Thread, Want.Thread >= 0 ? Want.Thread : SV->Thread)
          << V->str();
      auto It = Plan->PrivateClassOf.find(V->Access);
      if (It != Plan->PrivateClassOf.end()) {
        EXPECT_EQ(V->ClassIndex, It->second) << V->str();
      }
      EXPECT_GE(R.Loops.at(T.LoopId).GuardViolations, 1u);
      bool SawGuardError = false;
      for (const Diagnostic &D : Diags.diagnostics())
        SawGuardError |= D.Pass == "guard" && D.Severity == DiagSeverity::Error;
      EXPECT_TRUE(SawGuardError);
    }
  }
};

/// Compiles \p Src's first candidate loop under \p G and requires a guarded
/// DOACROSS loop with at least one ordered region.
Transformed doacrossWith(const char *Src, const LoopDepGraph &G) {
  Transformed T = transformWith(Src, G);
  EXPECT_TRUE(T.PR.Ok) << firstError(T.PR);
  EXPECT_EQ(T.PR.Plan.Kind, ParallelKind::DOACROSS);
  EXPECT_GE(T.PR.Plan.OrderedRegions, 1u);
  EXPECT_TRUE(T.PR.Guard) << "fault injection privatized nothing";
  return T;
}

const char *DoacrossUpSrc = R"(
  long acc;
  int main() {
    int* buf = malloc(4 * sizeof(int));
    buf[0] = 100;
    @candidate for (int i = 0; i < 8; i++) {
      int s = buf[0];
      buf[0] = s + i;
      acc = acc * 3 + buf[0];
    }
    print_int(acc);
    free(buf);
    return 0;
  }
)";

TEST_P(GuardFaultDoacross, UpwardsExposedLoad) {
  unsigned LoopId;
  LoopDepGraph True = profiled(DoacrossUpSrc, LoopId);
  ASSERT_FALSE(True.UpwardsExposedLoads.empty());
  Transformed T =
      doacrossWith(DoacrossUpSrc, lieAboutHeap(DoacrossUpSrc, True));
  ASSERT_FALSE(HasFatalFailure());
  // Iteration 0 is the first any worker grabs, and it runs on virtual
  // thread 0: its read of buf[0] finds its copy never written, whichever
  // worker's copy that is.
  expectDoacrossFault(T, T.PR.Guard,
                      {ViolationKind::UpwardsExposedLoad, 0, 0});
}

const char *DoacrossCarriedSrc = R"(
  long acc;
  int main() {
    int* buf = malloc(4 * sizeof(int));
    buf[0] = 7;
    @candidate for (int i = 0; i < 8; i++) {
      if (i > 0) {
        acc = acc * 3 + buf[0];
      }
      buf[0] = i * 3 + 1;
    }
    print_int(acc);
    free(buf);
    return 0;
  }
)";

TEST_P(GuardFaultDoacross, LoopCarriedFlow) {
  unsigned LoopId;
  LoopDepGraph True = profiled(DoacrossCarriedSrc, LoopId);
  Transformed T = doacrossWith(DoacrossCarriedSrc,
                               lieAboutHeap(DoacrossCarriedSrc, True));
  ASSERT_FALSE(HasFatalFailure());
  // Whether iteration 1 reads a copy iteration 0 already wrote depends on
  // the schedule, so only detection, loop and class are pinned. Eight
  // iterations on at most four workers put two on one worker (on one
  // virtual thread, in the simulated engine), and the later one reads the
  // earlier one's write: a carried flow is always seen.
  for (int Rep = 0; Rep != reps(); ++Rep) {
    SCOPED_TRACE("rep " + std::to_string(Rep));
    RunResult R = check(*T.M, T.PR.Guard, engine(), threads());
    ASSERT_FALSE(R.Trapped) << R.TrapMessage;
    expectThreaded(R);
    bool SawCarried = false;
    for (const DependenceViolation &V : R.Violations) {
      EXPECT_EQ(V.LoopId, T.LoopId) << V.str();
      auto It = T.PR.Guard->PrivateClassOf.find(V.Access);
      ASSERT_NE(It, T.PR.Guard->PrivateClassOf.end()) << V.str();
      EXPECT_EQ(V.ClassIndex, It->second) << V.str();
      SawCarried |= V.Kind == ViolationKind::CarriedFlow;
    }
    EXPECT_TRUE(SawCarried) << "carried flow not detected";
  }
}

const char *DoacrossSpanSrc = R"(
  long acc;
  int main() {
    int* table = malloc(16 * sizeof(int));
    for (int k = 0; k < 16; k++) { table[k] = k * 5; }
    int* tmp = malloc(4 * sizeof(int));
    @candidate for (int i = 0; i < 8; i++) {
      for (int k = 0; k < 4; k++) { tmp[k] = i + k; }
      int b = 0;
      for (int k = 0; k < 16; k++) { b = b + table[k] * tmp[k % 4]; }
      acc = acc * 3 + b;
    }
    print_int(acc);
    free(tmp);
    free(table);
    return 0;
  }
)";

/// The stale plan of the span rows: it claims \p Src's shared table as a
/// private region and its load as a private access. Every copy index
/// escapes its span on a read of the whole table, so the first escape is
/// that of the first iteration to read it, \p Want.
void GuardFaultDoacross::expectStaleTableEscape(const char *Src,
                                                const ExpectedViolation &Want) {
  unsigned LoopId;
  LoopDepGraph True = profiled(Src, LoopId);
  Transformed T = doacrossWith(Src, True);
  ASSERT_FALSE(HasFatalFailure());
  HeapSpy Spy;
  {
    Interp I(*T.M);
    I.setObserver(&Spy);
    ASSERT_FALSE(I.run().Trapped);
  }
  uint32_t VictimId = 0, VictimSite = 0;
  for (const auto &[Id, Site] : Spy.LoadSite)
    if (Site && !T.PR.Guard->RegionSites.count(Site) &&
        !T.PR.Guard->PrivateClassOf.count(Id)) {
      VictimId = Id;
      VictimSite = Site;
      break;
    }
  ASSERT_NE(VictimId, 0u) << "no shared heap load to misattribute";
  auto Mut = std::make_shared<GuardPlan>(*T.PR.Guard);
  Mut->PrivateClassOf[VictimId] = 0;
  Mut->RegionSites.insert(VictimSite);
  expectDoacrossFault(T, Mut, Want);
}

TEST_P(GuardFaultDoacross, SpanEscape) {
  // Every iteration reads the whole table: the first escape is iteration
  // 0's, on virtual thread 0. (Reads inside the running copy's own span come
  // first on some copies and are reported as upwards-exposed.)
  expectStaleTableEscape(DoacrossSpanSrc, {ViolationKind::SpanEscape, 0, 0});
}

const char *DoacrossLateSpanSrc = R"(
  long acc;
  int main() {
    int* table = malloc(16 * sizeof(int));
    for (int k = 0; k < 16; k++) { table[k] = k * 5; }
    int* tmp = malloc(4 * sizeof(int));
    @candidate for (int i = 0; i < 8; i++) {
      for (int k = 0; k < 4; k++) { tmp[k] = i + k; }
      int b = tmp[i % 4];
      if (i == 5) {
        for (int k = 0; k < 16; k++) { b = b + table[k] * tmp[k % 4]; }
      }
      acc = acc * 3 + b;
    }
    print_int(acc);
    free(tmp);
    free(table);
    return 0;
  }
)";

TEST_P(GuardFaultDoacross, SpanEscapeAtLaterIteration) {
  // Only iteration 5 reads the table. Whichever worker grabbed it, the
  // escape names the virtual thread the simulated engine runs iteration 5
  // on.
  expectStaleTableEscape(DoacrossLateSpanSrc,
                         {ViolationKind::SpanEscape, 5, -1});
}

const char *DoacrossDownSrc = R"(
  long acc;
  int main() {
    int* hist = malloc(16 * sizeof(int));
    for (int k = 0; k < 16; k++) { hist[k] = k; }
    int* tmp = malloc(4 * sizeof(int));
    @candidate for (int i = 0; i < 8; i++) {
      for (int k = 0; k < 4; k++) { tmp[k] = i * 10 + k; }
      int b = 0;
      for (int k = 0; k < 4; k++) { b = b + tmp[k]; }
      hist[15] = b;
      acc = acc * 3 + b;
    }
    int* out = malloc(16 * sizeof(int));
    @candidate for (int j = 0; j < 16; j++) { out[j] = hist[j] * 2; }
    print_int(acc + out[3] + out[7] + out[15]);
    free(out);
    free(tmp);
    free(hist);
    return 0;
  }
)";

TEST_P(GuardFaultDoacross, DownwardsExposedStore) {
  unsigned LoopId;
  LoopDepGraph True = profiled(DoacrossDownSrc, LoopId);
  Transformed T = doacrossWith(DoacrossDownSrc, True);
  ASSERT_FALSE(HasFatalFailure());
  // The reader is a second parallel loop.
  std::vector<unsigned> Cands = CompilationSession(*T.M).candidateLoops();
  ASSERT_EQ(Cands.size(), 2u);
  PipelineResult Reader = CompilationSession(*T.M).compileLoop(Cands[1]);
  ASSERT_TRUE(Reader.Ok) << firstError(Reader);
  ASSERT_EQ(Reader.Plan.Kind, ParallelKind::DOALL);
  // The stale plan claims the shared `hist` block as an expanded region,
  // which puts every iteration's hist[15] store in a thread copy other
  // than 0 whatever the schedule: at commit the guard finds the serially
  // final value (iteration 7's) stranded there, arms the post-loop watch,
  // and the reader loop's load of the matching copy-0 bytes hits it. The
  // watch carries the writer's iteration and virtual thread.
  HeapSpy Spy;
  {
    Interp I(*T.M);
    I.setObserver(&Spy);
    ASSERT_FALSE(I.run().Trapped);
  }
  // `hist` is the program's first heap allocation.
  ASSERT_FALSE(Spy.Heap.empty());
  uint32_t HistSite = Spy.Heap.front().Site;
  ASSERT_FALSE(T.PR.Guard->RegionSites.count(HistSite));
  auto Mut = std::make_shared<GuardPlan>(*T.PR.Guard);
  Mut->RegionSites.insert(HistSite);
  expectDoacrossFault(T, Mut,
                      {ViolationKind::DownwardsExposedStore, 7, -1});
}

INSTANTIATE_TEST_SUITE_P(
    Engines, GuardFaultDoacross,
    ::testing::Combine(::testing::Values(ExecEngine::Bytecode,
                                         ExecEngine::Threads),
                       ::testing::Values(2, 4)),
    [](const auto &Info) {
      return std::string(std::get<0>(Info.param) == ExecEngine::Threads
                             ? "Threads"
                             : "Bytecode") +
             "_N" + std::to_string(std::get<1>(Info.param));
    });

TEST(GuardWatchdog, GuardedDoacrossRerunMatchesSimulated) {
  // A guarded DOACROSS invocation on host threads whose ticket frontier an
  // injected lane delay wedges: the watchdog rolls it back and re-runs it on
  // the simulated path with its guard plan, so output, guard checks and
  // violations (none: the plan is clean) equal a simulated run's.
  unsigned LoopId;
  LoopDepGraph True = profiled(DoacrossSpanSrc, LoopId);
  Transformed T = doacrossWith(DoacrossSpanSrc, True);
  ASSERT_FALSE(HasFatalFailure());
  for (int N : {2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(N));
    InterpOptions IO;
    IO.NumThreads = N;
    IO.Guard = GuardMode::Check;
    IO.GuardPlans.push_back(T.PR.Guard);
    IO.Engine = ExecEngine::Bytecode;
    RunResult Sim = Interp(*T.M, IO).run();
    ASSERT_FALSE(Sim.Trapped) << Sim.TrapMessage;

    IO.Engine = ExecEngine::Threads;
    IO.Resilience.WatchdogMs = 20;
    std::string Err;
    IO.Resilience.Faults = FaultInjector::parse("lane-delay@1,delay-ms=200", Err);
    ASSERT_TRUE(IO.Resilience.Faults) << Err;
    RunResult R = Interp(*T.M, IO).run();
    ASSERT_FALSE(R.Trapped) << R.TrapMessage;
    const LoopStats &L = R.Loops.at(T.LoopId);
    EXPECT_EQ(L.Paths[static_cast<unsigned>(ThreadedPath::WatchdogRerun)], 1u);
    EXPECT_EQ(L.Invocations, 1u);
    EXPECT_EQ(L.WatchdogFires, 1u);
    EXPECT_EQ(R.Output, Sim.Output);
    EXPECT_EQ(R.WorkCycles, Sim.WorkCycles);
    EXPECT_EQ(R.SimTime, Sim.SimTime);
    const LoopStats &SL = Sim.Loops.at(T.LoopId);
    EXPECT_GT(SL.GuardChecks, 0u);
    EXPECT_EQ(L.GuardChecks, SL.GuardChecks);
    EXPECT_EQ(L.GuardedInvocations, SL.GuardedInvocations);
    EXPECT_EQ(L.GuardViolations, 0u);
    EXPECT_TRUE(R.Violations.empty());
    EXPECT_TRUE(Sim.Violations.empty());
  }
}

//===----------------------------------------------------------------------===//
// Mode plumbing.
//===----------------------------------------------------------------------===//

TEST(GuardMode, ParseAndNames) {
  GuardMode M = GuardMode::Off;
  EXPECT_TRUE(parseGuardMode("check", M));
  EXPECT_EQ(M, GuardMode::Check);
  EXPECT_TRUE(parseGuardMode("fallback", M));
  EXPECT_EQ(M, GuardMode::Fallback);
  EXPECT_TRUE(parseGuardMode("off", M));
  EXPECT_EQ(M, GuardMode::Off);
  EXPECT_FALSE(parseGuardMode("bogus", M));
  EXPECT_STREQ(guardModeName(GuardMode::Check), "check");
}

} // namespace
