//===- AnalysisTest.cpp - points-to, planner, memory, sim tests -*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "analysis/PointsTo.h"
#include "driver/CompilationSession.h"
#include "frontend/Parser.h"
#include "interp/Interp.h"
#include "interp/Memory.h"
#include "ir/AccessInfo.h"
#include "ir/IRVisitor.h"
#include "profile/DepProfiler.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace gdse;

namespace {

//===----------------------------------------------------------------------===//
// Points-to
//===----------------------------------------------------------------------===//

/// Finds the declared variable named \p Name anywhere in \p M.
VarDecl *findVar(Module &M, const std::string &Name) {
  for (uint32_t Id = 1; Id <= M.getNumVarDecls(); ++Id)
    if (M.getVarDecl(Id)->getName() == Name)
      return M.getVarDecl(Id);
  return nullptr;
}

std::set<std::string> pointeeNames(const PointsTo &PT, const VarDecl *D) {
  std::set<std::string> Out;
  for (uint32_t Obj : PT.contentObjects(D))
    Out.insert(PT.object(Obj).str());
  return Out;
}

TEST(PointsTo, AddressOfAndCopies) {
  auto M = parseMiniCOrDie(R"(
    int main() {
      int a;
      int b;
      int* p = &a;
      int* q = p;
      if (a > 0) { q = &b; }
      *q = 1;
      return a;
    }
  )",
                           "pts1");
  PointsTo PT = PointsTo::compute(*M);
  EXPECT_EQ(pointeeNames(PT, findVar(*M, "p")),
            (std::set<std::string>{"var:a"}));
  EXPECT_EQ(pointeeNames(PT, findVar(*M, "q")),
            (std::set<std::string>{"var:a", "var:b"}));
}

TEST(PointsTo, HeapSitesAreDistinct) {
  auto M = parseMiniCOrDie(R"(
    int main() {
      int* p = malloc(8);
      int* q = malloc(8);
      int* r = p;
      if (p[0] > 0) { r = q; }
      return r[0];
    }
  )",
                           "pts2");
  PointsTo PT = PointsTo::compute(*M);
  EXPECT_EQ(pointeeNames(PT, findVar(*M, "p")).size(), 1u);
  EXPECT_EQ(pointeeNames(PT, findVar(*M, "q")).size(), 1u);
  EXPECT_EQ(pointeeNames(PT, findVar(*M, "r")).size(), 2u);
  EXPECT_NE(pointeeNames(PT, findVar(*M, "p")),
            pointeeNames(PT, findVar(*M, "q")));
}

TEST(PointsTo, FlowsThroughStructFieldsAndCalls) {
  auto M = parseMiniCOrDie(R"(
    struct Holder { int* slot; };
    int* identity(int* x) { return x; }
    int main() {
      struct Holder h;
      int v;
      h.slot = &v;
      int* out = identity(h.slot);
      *out = 3;
      return v;
    }
  )",
                           "pts3");
  PointsTo PT = PointsTo::compute(*M);
  // out must reach v through the field store and the call.
  EXPECT_EQ(pointeeNames(PT, findVar(*M, "out")),
            (std::set<std::string>{"var:v"}));
}

TEST(PointsTo, LinkedStructureCollapses) {
  auto M = parseMiniCOrDie(R"(
    struct Node { int v; struct Node* next; };
    int main() {
      struct Node* head = 0;
      for (int i = 0; i < 3; i++) {
        struct Node* n = malloc(sizeof(struct Node));
        n->next = head;
        head = n;
      }
      int s = 0;
      struct Node* cur = head;
      while (cur != 0) { s += cur->v; cur = cur->next; }
      return s;
    }
  )",
                           "pts4");
  PointsTo PT = PointsTo::compute(*M);
  // cur reaches the heap site (and only heap objects).
  auto Names = pointeeNames(PT, findVar(*M, "cur"));
  ASSERT_FALSE(Names.empty());
  for (const std::string &N : Names)
    EXPECT_EQ(N.rfind("heap:", 0), 0u) << N;
}

TEST(PointsTo, CastsDoNotLoseTargets) {
  auto M = parseMiniCOrDie(R"(
    int main() {
      int* zptr = malloc(16);
      short* sp = (short*)zptr;
      sp[0] = 1;
      return zptr[0];
    }
  )",
                           "pts5");
  PointsTo PT = PointsTo::compute(*M);
  EXPECT_EQ(pointeeNames(PT, findVar(*M, "sp")),
            pointeeNames(PT, findVar(*M, "zptr")));
}

//===----------------------------------------------------------------------===//
// VMMemory
//===----------------------------------------------------------------------===//

TEST(VMMemory, AllocateFindFree) {
  VMMemory Mem;
  uint64_t A = Mem.allocate(100, AllocKind::Heap, 7);
  uint64_t B = Mem.allocate(50, AllocKind::Global, 9);
  EXPECT_NE(A, B);
  EXPECT_EQ(Mem.liveAllocations(), 2u);
  EXPECT_EQ(Mem.currentBytes(), 150u);

  const Allocation *FA = Mem.containing(A + 99);
  ASSERT_NE(FA, nullptr);
  EXPECT_EQ(FA->Base, A);
  EXPECT_EQ(FA->SiteId, 7u);
  EXPECT_EQ(Mem.containing(A + 100), nullptr); // one past the end

  EXPECT_TRUE(Mem.inBounds(A, 100));
  EXPECT_FALSE(Mem.inBounds(A + 1, 100));

  EXPECT_TRUE(Mem.deallocate(A));
  EXPECT_FALSE(Mem.deallocate(A)); // double free rejected
  EXPECT_EQ(Mem.currentBytes(), 50u);
  EXPECT_EQ(Mem.containing(A), nullptr);
}

TEST(VMMemory, PeakTracksHighWater) {
  VMMemory Mem;
  uint64_t A = Mem.allocate(1000, AllocKind::Heap, 0);
  Mem.deallocate(A);
  Mem.allocate(10, AllocKind::Heap, 0);
  EXPECT_GE(Mem.peakBytes(), 1000u);
  EXPECT_EQ(Mem.currentBytes(), 10u);
}

TEST(VMMemory, GenerationsIncrease) {
  VMMemory Mem;
  uint64_t A = Mem.allocate(16, AllocKind::Heap, 0);
  uint32_t G1 = Mem.byBase(A)->Generation;
  Mem.deallocate(A);
  uint64_t B = Mem.allocate(16, AllocKind::Heap, 0);
  EXPECT_GT(Mem.byBase(B)->Generation, G1);
}

TEST(VMMemory, ZeroSizedAllocationsAreDistinct) {
  VMMemory Mem;
  uint64_t A = Mem.allocate(0, AllocKind::Heap, 0);
  uint64_t B = Mem.allocate(0, AllocKind::Heap, 0);
  EXPECT_NE(A, B);
  EXPECT_TRUE(Mem.deallocate(A));
  EXPECT_TRUE(Mem.deallocate(B));
}

//===----------------------------------------------------------------------===//
// Planner
//===----------------------------------------------------------------------===//

struct Planned {
  std::unique_ptr<Module> M;
  LoopDepGraph Graph;
  PlanResult Plan;
  unsigned LoopId = 0;
};

Planned planProgram(const std::string &Src, bool Privatize = true) {
  Planned P;
  P.M = parseMiniCOrDie(Src, "planner test");
  std::vector<unsigned> Cands = CompilationSession(*P.M).candidateLoops();
  EXPECT_EQ(Cands.size(), 1u);
  P.LoopId = Cands.front();
  ProfileResult PR = profileLoop(*P.M, P.LoopId);
  P.Graph = std::move(PR.Graph);
  AccessClasses C = AccessClasses::build(P.Graph);
  std::set<AccessId> Priv = Privatize ? C.privateAccesses()
                                      : std::set<AccessId>{};
  P.Plan = planParallelLoop(*P.M, P.LoopId, P.Graph, Priv);
  return P;
}

TEST(Planner, IndependentLoopIsDoall) {
  Planned P = planProgram(R"(
    int out[16];
    int main() {
      @candidate for (int i = 0; i < 16; i++) { out[i] = i * i; }
      print_int(out[5]);
      return 0;
    }
  )");
  EXPECT_TRUE(P.Plan.Parallelized);
  EXPECT_EQ(P.Plan.Kind, ParallelKind::DOALL);
  EXPECT_EQ(P.Plan.OrderedRegions, 0u);
}

TEST(Planner, ResidualDepsForceDoacrossWithOrderedRegions) {
  Planned P = planProgram(R"(
    int out[16];
    int main() {
      int pos = 0;
      @candidate for (int i = 0; i < 16; i++) {
        out[i] = i * 3;
        pos = pos + out[i];
      }
      print_int(pos);
      return 0;
    }
  )");
  EXPECT_TRUE(P.Plan.Parallelized);
  EXPECT_EQ(P.Plan.Kind, ParallelKind::DOACROSS);
  EXPECT_GE(P.Plan.OrderedRegions, 1u);
  // The ordered region must actually be in the loop body now.
  unsigned OrderedCount = 0;
  for (Function *F : P.M->getFunctions())
    walkStmts(F->getBody(), [&](Stmt *S) {
      if (isa<OrderedStmt>(S))
        ++OrderedCount;
    });
  EXPECT_EQ(OrderedCount, P.Plan.OrderedRegions);
}

TEST(Planner, SeparatedResidualStatementsGetSeparateRegions) {
  Planned P = planProgram(R"(
    int scratch[64];
    int main() {
      int acc1 = 0;
      int acc2 = 0;
      @candidate for (int i = 0; i < 16; i++) {
        acc1 += i;                      // residual 1
        for (int k = 0; k < 64; k++) { scratch[k] = i + k; }
        int local = 0;
        for (int k = 0; k < 64; k++) { local ^= scratch[k]; }
        acc2 ^= local;                  // residual 2
      }
      print_int(acc1 + acc2);
      return 0;
    }
  )",
                          /*Privatize=*/true);
  EXPECT_EQ(P.Plan.Kind, ParallelKind::DOACROSS);
  EXPECT_EQ(P.Plan.OrderedRegions, 2u);
}

TEST(Planner, RejectsLoopWithReturn) {
  Planned P = planProgram(R"(
    int main() {
      @candidate for (int i = 0; i < 4; i++) {
        if (i == 2) { return 1; }
      }
      return 0;
    }
  )");
  EXPECT_FALSE(P.Plan.Parallelized);
}

TEST(Planner, RejectsLoopWithBreak) {
  Planned P = planProgram(R"(
    int main() {
      int s = 0;
      @candidate for (int i = 0; i < 4; i++) {
        if (i == 2) { break; }
        s += i;
      }
      print_int(s);
      return 0;
    }
  )");
  EXPECT_FALSE(P.Plan.Parallelized);
}

TEST(Planner, NestedBreakIsAllowed) {
  Planned P = planProgram(R"(
    int out[8];
    int main() {
      @candidate for (int i = 0; i < 8; i++) {
        int v = 0;
        for (int k = 0; k < 100; k++) {
          v += k;
          if (v > 50) { break; }
        }
        out[i] = v;
      }
      print_int(out[7]);
      return 0;
    }
  )");
  EXPECT_TRUE(P.Plan.Parallelized);
  EXPECT_EQ(P.Plan.Kind, ParallelKind::DOALL);
}

TEST(Planner, RejectsUnmodeledBulkAccess) {
  Planned P = planProgram(R"(
    int a[8];
    int b[8];
    int main() {
      @candidate for (int i = 0; i < 4; i++) {
        memcpy(b, a, 8 * sizeof(int));
      }
      print_int(b[0]);
      return 0;
    }
  )");
  EXPECT_FALSE(P.Plan.Parallelized);
}

TEST(Planner, WithoutPrivatizationEverythingIsResidual) {
  // The same scratch-buffer loop: with privatization it is DOACROSS only
  // because of the reduction; without, the buffer's carried anti/output
  // deps also become residual (more ordered statements).
  const char *Src = R"(
    int buf[32];
    int main() {
      long acc = 0;
      @candidate for (int i = 0; i < 8; i++) {
        for (int k = 0; k < 32; k++) { buf[k] = i + k; }
        int b = 0;
        for (int k = 0; k < 32; k++) { b += buf[k]; }
        acc += b;
      }
      print_int(acc);
      return 0;
    }
  )";
  Planned With = planProgram(Src, /*Privatize=*/true);
  Planned Without = planProgram(Src, /*Privatize=*/false);
  EXPECT_EQ(With.Plan.Kind, ParallelKind::DOACROSS);
  EXPECT_EQ(Without.Plan.Kind, ParallelKind::DOACROSS);
  EXPECT_GT(Without.Plan.OrderedStatements, With.Plan.OrderedStatements);
}

//===----------------------------------------------------------------------===//
// Parallel timeline properties
//===----------------------------------------------------------------------===//

RunResult runParallel(const std::string &Src, int N) {
  auto M = parseMiniCOrDie(Src, "sim test");
  std::vector<unsigned> Cands = CompilationSession(*M).candidateLoops();
  PipelineResult PR = CompilationSession(*M).compileLoop(Cands.front());
  EXPECT_TRUE(PR.Ok) << firstError(PR);
  InterpOptions IO;
  IO.NumThreads = N;
  Interp I(*M, IO);
  return I.run();
}

TEST(ParallelSim, BalancedDoallScalesNearLinearly) {
  const char *Src = R"(
    int out[64];
    int main() {
      @candidate for (int i = 0; i < 64; i++) {
        int v = 0;
        for (int k = 0; k < 200; k++) { v += (i ^ k) * 3; }
        out[i] = v;
      }
      long c = 0;
      for (int i = 0; i < 64; i++) { c += out[i]; }
      print_int(c);
      return 0;
    }
  )";
  RunResult R1 = runParallel(Src, 1);
  RunResult R2 = runParallel(Src, 2);
  RunResult R4 = runParallel(Src, 4);
  ASSERT_TRUE(R1.ok() && R2.ok() && R4.ok());
  double S2 = double(R1.SimTime) / double(R2.SimTime);
  double S4 = double(R1.SimTime) / double(R4.SimTime);
  EXPECT_GT(S2, 1.7);
  EXPECT_LT(S2, 2.05);
  EXPECT_GT(S4, 3.2);
  EXPECT_LT(S4, 4.1);
}

TEST(ParallelSim, FullySerialOrderedRegionCapsSpeedup) {
  // Every statement of the body is one ordered chain: no speedup possible.
  const char *Src = R"(
    int main() {
      long acc = 1;
      @candidate for (int i = 0; i < 32; i++) {
        for (int k = 0; k < 50; k++) { acc = acc * 3 + k; }
      }
      print_int(acc);
      return 0;
    }
  )";
  RunResult R1 = runParallel(Src, 1);
  RunResult R8 = runParallel(Src, 8);
  ASSERT_TRUE(R1.ok() && R8.ok());
  // Only the per-iteration dispatch overhead can overlap; the work itself
  // is one serial chain, so eight cores stay far from 8x.
  double S8 = double(R1.SimTime) / double(R8.SimTime);
  EXPECT_LT(S8, 1.6);
  // And the stall time must be the dominant non-work category.
  uint64_t Stall = 0, Idle = 0;
  for (const auto &[Id, LS] : R8.Loops) {
    for (uint64_t V : LS.SyncStallPerThread)
      Stall += V;
    for (uint64_t V : LS.IdlePerThread)
      Idle += V;
  }
  EXPECT_GT(Stall + Idle, 0u);
}

TEST(ParallelSim, ImbalancedDoallShowsIdleTime) {
  // Iteration i does O(i) work: static chunks are imbalanced.
  const char *Src = R"(
    long out[32];
    int main() {
      @candidate for (int i = 0; i < 32; i++) {
        long v = 0;
        for (int k = 0; k < i * 40; k++) { v += k; }
        out[i] = v;
      }
      print_int(out[31]);
      return 0;
    }
  )";
  auto M = parseMiniCOrDie(Src, "imbalance");
  std::vector<unsigned> Cands = CompilationSession(*M).candidateLoops();
  PipelineResult PR = CompilationSession(*M).compileLoop(Cands.front());
  ASSERT_TRUE(PR.Ok);
  InterpOptions IO;
  IO.NumThreads = 4;
  Interp I(*M, IO);
  RunResult R = I.run();
  ASSERT_TRUE(R.ok());
  const LoopStats &LS = R.Loops.at(Cands.front());
  uint64_t Idle = 0, Work = 0;
  for (unsigned T = 0; T < LS.IdlePerThread.size(); ++T) {
    Idle += LS.IdlePerThread[T];
    Work += LS.WorkPerThread[T];
  }
  // The ascending-work distribution leaves early chunks idle ~half the time.
  EXPECT_GT(Idle, Work / 4);
}

TEST(ParallelSim, DoacrossDispatchCostAppears) {
  // The recurrence mixes * and +, so the commutative tier cannot claim it:
  // the carried flow survives and the loop stays DOACROSS (a plain `acc += i`
  // would now be proven-commutative and go DOALL with zero dispatches).
  const char *Src = R"(
    int main() {
      long acc = 0;
      @candidate for (int i = 0; i < 64; i++) {
        acc = acc * 3 + i;
      }
      print_int(acc);
      return 0;
    }
  )";
  auto M = parseMiniCOrDie(Src, "dispatch");
  std::vector<unsigned> Cands = CompilationSession(*M).candidateLoops();
  PipelineResult PR = CompilationSession(*M).compileLoop(Cands.front());
  ASSERT_TRUE(PR.Ok);
  EXPECT_EQ(PR.Plan.Kind, ParallelKind::DOACROSS);
  InterpOptions IO;
  IO.NumThreads = 4;
  Interp I(*M, IO);
  RunResult R = I.run();
  const LoopStats &LS = R.Loops.at(Cands.front());
  uint64_t Dispatch = 0;
  for (uint64_t D : LS.DispatchPerThread)
    Dispatch += D;
  // 64 iterations, chunk size one: 64 dispatches.
  EXPECT_EQ(Dispatch, 64u * InterpOptions().Costs.IterDispatch);
}

} // namespace
