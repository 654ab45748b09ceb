//===- ProfilerTest.cpp - dependence profiler & classification tests ------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Validates the shadow-memory dependence profiler (Definitions 1-3) and the
// access-class partitioning / thread-private classification (Definitions
// 4-5) on the dependence patterns the paper's transformation hinges on.
//
//===----------------------------------------------------------------------===//

#include "ReferenceDepProfiler.h"

#include "analysis/AccessClasses.h"
#include "driver/CompilationSession.h"
#include "frontend/Parser.h"
#include "ir/AccessInfo.h"
#include "profile/DepProfiler.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace gdse;

namespace {

struct ProfiledProgram {
  std::unique_ptr<Module> M;
  AccessNumbering Numbering;
  unsigned TargetLoopId = 0;
  LoopDepGraph Graph;
  RunResult Run;
  ProfileStats Stats;
};

/// Parses, numbers, finds the first @candidate loop, and profiles it.
ProfiledProgram profileCandidate(const std::string &Src) {
  ProfiledProgram P;
  P.M = parseMiniCOrDie(Src, "profiler test program");
  P.Numbering = AccessNumbering::compute(*P.M);
  for (const LoopDesc &L : P.Numbering.loops()) {
    if (auto *F = dyn_cast<ForStmt>(L.LoopStmt)) {
      if (F->isCandidate()) {
        P.TargetLoopId = L.Id;
        break;
      }
    }
  }
  EXPECT_NE(P.TargetLoopId, 0u) << "no @candidate loop in test program";
  ProfileResult R = profileLoop(*P.M, P.TargetLoopId);
  EXPECT_TRUE(R.Run.ok()) << R.Run.TrapMessage;
  P.Graph = std::move(R.Graph);
  P.Run = std::move(R.Run);
  P.Stats = R.Stats;
  return P;
}

bool hasCarried(const LoopDepGraph &G, DepKind K) {
  for (const DepEdge &E : G.Edges)
    if (E.Carried && E.Kind == K)
      return true;
  return false;
}

bool hasIndependent(const LoopDepGraph &G, DepKind K) {
  for (const DepEdge &E : G.Edges)
    if (!E.Carried && E.Kind == K)
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Figure 1 pattern: a scratch buffer re-initialized every iteration.
//===----------------------------------------------------------------------===//

TEST(Profiler, ScratchBufferIsExpandable) {
  ProfiledProgram P = profileCandidate(R"(
    int main() {
      int m = 16;
      int* zptr = malloc(m * sizeof(int));
      int total = 0;
      @candidate for (int it = 0; it < 8; it++) {
        for (int k = 0; k < m; k++) { zptr[k] = it + k; }
        int b = 0;
        for (int k = 0; k < m; k++) { b += zptr[k]; }
        print_int(b);
      }
      free(zptr);
      return 0;
    }
  )");
  const LoopDepGraph &G = P.Graph;
  EXPECT_EQ(G.Iterations, 8u);
  // Write-then-read each iteration: independent flow, carried anti+output,
  // and crucially NO carried flow on the buffer.
  EXPECT_TRUE(hasIndependent(G, DepKind::Flow));
  EXPECT_TRUE(hasCarried(G, DepKind::Anti));
  EXPECT_TRUE(hasCarried(G, DepKind::Output));

  AccessClasses C = AccessClasses::build(G);
  std::set<AccessId> Priv = C.privateAccesses();
  EXPECT_FALSE(Priv.empty());

  // The breakdown must attribute the zptr traffic to "expandable".
  AccessBreakdown B = computeAccessBreakdown(G, C);
  EXPECT_GT(B.Expandable, 0u);
}

//===----------------------------------------------------------------------===//
// A true reduction: carried flow must block privatization.
//===----------------------------------------------------------------------===//

TEST(Profiler, ReductionHasCarriedFlow) {
  ProfiledProgram P = profileCandidate(R"(
    int main() {
      int sum = 0;
      @candidate for (int i = 0; i < 10; i++) {
        sum = sum + i;
      }
      print_int(sum);
      return 0;
    }
  )");
  const LoopDepGraph &G = P.Graph;
  EXPECT_TRUE(hasCarried(G, DepKind::Flow));

  AccessClasses C = AccessClasses::build(G);
  EXPECT_TRUE(C.privateAccesses().empty());
  AccessBreakdown B = computeAccessBreakdown(G, C);
  EXPECT_GT(B.WithCarried, 0u);
  EXPECT_EQ(B.Expandable, 0u);
}

//===----------------------------------------------------------------------===//
// Read-only shared data: upwards-exposed, but dependence-free.
//===----------------------------------------------------------------------===//

TEST(Profiler, ReadOnlyDataIsUpwardsExposedAndFree) {
  ProfiledProgram P = profileCandidate(R"(
    int main() {
      int table[8];
      for (int i = 0; i < 8; i++) { table[i] = i * 3; }
      int out[8];
      @candidate for (int i = 0; i < 8; i++) {
        out[i] = table[7 - i];
      }
      print_int(out[0]);
      return 0;
    }
  )");
  const LoopDepGraph &G = P.Graph;
  EXPECT_FALSE(G.UpwardsExposedLoads.empty());
  // Reads of table carry no dependences at all.
  AccessClasses C = AccessClasses::build(G);
  AccessBreakdown B = computeAccessBreakdown(G, C);
  EXPECT_GT(B.FreeOfCarried, 0u);
  EXPECT_EQ(B.WithCarried, 0u); // out[i] writes disjoint addresses
}

//===----------------------------------------------------------------------===//
// Definition 3: stores read after the loop are downwards-exposed.
//===----------------------------------------------------------------------===//

TEST(Profiler, DownwardsExposedStoreDetected) {
  ProfiledProgram P = profileCandidate(R"(
    int main() {
      int buf[4];
      int last = 0;
      @candidate for (int i = 0; i < 4; i++) {
        buf[i] = i * i;
      }
      print_int(buf[3]);   // consumes a loop store
      return 0;
    }
  )");
  EXPECT_FALSE(P.Graph.DownwardsExposedStores.empty());

  // And the class containing that store must not be private.
  AccessClasses C = AccessClasses::build(P.Graph);
  for (AccessId Id : P.Graph.DownwardsExposedStores)
    EXPECT_FALSE(C.isPrivate(Id));
}

TEST(Profiler, StoreNotReadAfterLoopIsNotDownwardsExposed) {
  ProfiledProgram P = profileCandidate(R"(
    int main() {
      int scratch[4];
      int sink = 0;
      @candidate for (int i = 0; i < 6; i++) {
        scratch[0] = i;
        scratch[1] = scratch[0] + 1;
        sink = sink ^ scratch[1];
      }
      print_int(sink);
      return 0;
    }
  )");
  // scratch stores feed only in-iteration reads; nothing reads scratch after
  // the loop, so no downwards exposure on those stores.
  for (AccessId Id : P.Graph.DownwardsExposedStores) {
    const AccessDesc &D = P.Numbering.access(Id);
    // Only 'sink' stores may be downwards-exposed (read by print after loop).
    auto *LHS = D.StoreNode->getLHS();
    auto *VR = dyn_cast<VarRefExpr>(LHS);
    ASSERT_NE(VR, nullptr);
    EXPECT_EQ(VR->getDecl()->getName(), "sink");
  }
}

//===----------------------------------------------------------------------===//
// The paper's §3.2 aliasing example: equivalence classes must merge the
// conditional *p store with both potential targets.
//===----------------------------------------------------------------------===//

TEST(Profiler, AliasedAccessesFallIntoOneClass) {
  ProfiledProgram P = profileCandidate(R"(
    int main() {
      int a[8];
      int b[8];
      int acc = 0;
      @candidate for (int i = 0; i < 8; i++) {
        int* p;
        if (i % 2 == 0) { p = &a[0]; } else { p = &b[0]; }
        *p = i;            // L3: thread-private iff condition holds
        int v = 0;
        if (i % 2 == 0) { v = a[0]; } else { v = b[0]; }
        acc ^= v;
        a[0] = 0; b[0] = 0; // kill before next iteration (anti/output only)
      }
      print_int(acc);
      return 0;
    }
  )");
  const LoopDepGraph &G = P.Graph;
  // Find the *p store's access id.
  AccessId StarPStore = InvalidAccessId;
  for (const AccessDesc &D : P.Numbering.accesses())
    if (D.IsStore && isa<DerefExpr>(D.StoreNode->getLHS()))
      StarPStore = D.Id;
  ASSERT_NE(StarPStore, InvalidAccessId);

  AccessClasses C = AccessClasses::build(G);
  ASSERT_TRUE(C.contains(StarPStore));
  unsigned Cls = C.classOf(StarPStore);
  // The class must include the a[0]/b[0] readers connected by independent
  // flow through *p.
  EXPECT_GT(C.classes()[Cls].Members.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Allocator address reuse must not fabricate dependences.
//===----------------------------------------------------------------------===//

TEST(Profiler, MallocFreePerIterationCreatesNoCarriedDeps) {
  ProfiledProgram P = profileCandidate(R"(
    struct Node { int v; struct Node* next; };
    int main() {
      int acc = 0;
      @candidate for (int i = 0; i < 10; i++) {
        struct Node* n = malloc(sizeof(struct Node));
        n->v = i;
        acc ^= n->v;
        free(n);
      }
      print_int(acc);
      return 0;
    }
  )");
  const LoopDepGraph &G = P.Graph;
  // The heap-node field accesses (n->v, through a Deref/Field l-value) must
  // show NO carried dependences even though the allocator reuses the same
  // host address every iteration. Carried deps on the scalar locals 'n' and
  // 'acc' themselves are real (per-iteration variable reuse).
  for (const DepEdge &E : G.Edges) {
    if (!E.Carried)
      continue;
    const AccessDesc &Src = P.Numbering.access(E.Src);
    const AccessDesc &Dst = P.Numbering.access(E.Dst);
    EXPECT_TRUE(isa<VarRefExpr>(Src.location()))
        << "carried dep on heap node: " << G.str();
    EXPECT_TRUE(isa<VarRefExpr>(Dst.location()))
        << "carried dep on heap node: " << G.str();
  }
}

//===----------------------------------------------------------------------===//
// Stack frame reuse across calls must not fabricate dependences either.
//===----------------------------------------------------------------------===//

TEST(Profiler, FrameReuseAcrossCallsIsClean) {
  ProfiledProgram P = profileCandidate(R"(
    int work(int x) {
      int local[4];
      for (int k = 0; k < 4; k++) { local[k] = x + k; }
      return local[3];
    }
    int main() {
      int acc = 0;
      @candidate for (int i = 0; i < 6; i++) {
        acc ^= work(i);
      }
      print_int(acc);
      return 0;
    }
  )");
  // 'local' is fresh per call; only 'acc' may carry dependences.
  for (const DepEdge &E : P.Graph.Edges) {
    if (!E.Carried)
      continue;
    const AccessDesc &Src = P.Numbering.access(E.Src);
    auto *VR = dyn_cast<VarRefExpr>(Src.location());
    ASSERT_NE(VR, nullptr) << P.Graph.str();
    EXPECT_EQ(VR->getDecl()->getName(), "acc") << P.Graph.str();
  }
}

//===----------------------------------------------------------------------===//
// Definition 1 refinement: covered reads do not produce carried flow.
//===----------------------------------------------------------------------===//

TEST(Profiler, CoveredReadIsIndependentFlow) {
  ProfiledProgram P = profileCandidate(R"(
    int main() {
      int t = 0;
      int out = 0;
      @candidate for (int i = 0; i < 5; i++) {
        t = i * 2;        // write before every read
        out ^= t;         // covered read
      }
      print_int(out);
      return 0;
    }
  )");
  const LoopDepGraph &G = P.Graph;
  // t: independent flow + carried anti/output; no carried flow.
  bool CarriedFlowOnT = false;
  for (const DepEdge &E : G.Edges) {
    if (!(E.Carried && E.Kind == DepKind::Flow))
      continue;
    const AccessDesc &Src = P.Numbering.access(E.Src);
    if (auto *VR = dyn_cast<VarRefExpr>(Src.location()))
      if (VR->getDecl()->getName() == "t")
        CarriedFlowOnT = true;
  }
  EXPECT_FALSE(CarriedFlowOnT) << G.str();

  // And t's class is privatizable.
  AccessClasses C = AccessClasses::build(G);
  bool TPrivate = false;
  for (const AccessDesc &D : P.Numbering.accesses()) {
    if (!D.IsStore)
      continue;
    if (auto *VR = dyn_cast<VarRefExpr>(D.StoreNode->getLHS()))
      if (VR->getDecl()->getName() == "t" && C.isPrivate(D.Id))
        TPrivate = true;
  }
  EXPECT_TRUE(TPrivate) << G.str();
}

//===----------------------------------------------------------------------===//
// memcpy inside the target loop flags the graph as unmodeled.
//===----------------------------------------------------------------------===//

TEST(Profiler, BulkAccessInLoopSetsUnmodeledFlag) {
  ProfiledProgram P = profileCandidate(R"(
    int main() {
      int a[4];
      int b[4];
      for (int i = 0; i < 4; i++) { a[i] = i; }
      @candidate for (int i = 0; i < 3; i++) {
        memcpy(b, a, 4 * sizeof(int));
      }
      print_int(b[2]);
      return 0;
    }
  )");
  EXPECT_TRUE(P.Graph.HasUnmodeled);
}

TEST(Profiler, MallocInsideLoopDoesNotSetUnmodeledFlag) {
  ProfiledProgram P = profileCandidate(R"(
    int main() {
      int acc = 0;
      @candidate for (int i = 0; i < 3; i++) {
        int* p = malloc(8 * sizeof(int));
        p[0] = i;
        acc ^= p[0];
        free(p);
      }
      print_int(acc);
      return 0;
    }
  )");
  EXPECT_FALSE(P.Graph.HasUnmodeled);
}

//===----------------------------------------------------------------------===//
// Dynamic counts power the Figure 8 weights.
//===----------------------------------------------------------------------===//

TEST(Profiler, DynamicCountsMatchExecution) {
  ProfiledProgram P = profileCandidate(R"(
    int main() {
      int buf[32];
      int acc = 0;
      @candidate for (int i = 0; i < 4; i++) {
        for (int k = 0; k < 8; k++) { buf[k] = i + k; }
        for (int k = 0; k < 8; k++) { acc ^= buf[k]; }
      }
      print_int(acc);
      return 0;
    }
  )");
  // buf store executes 4*8 = 32 times.
  uint64_t MaxCount = 0;
  for (const auto &[Id, Count] : P.Graph.DynCount)
    MaxCount = std::max(MaxCount, Count);
  EXPECT_GE(MaxCount, 32u);
}

//===----------------------------------------------------------------------===//
// Shadow-layout corner cases. Each program also runs under the per-byte
// ReferenceDepProfiler, which must produce the same graph.
//===----------------------------------------------------------------------===//

void expectMatchesReference(const ProfiledProgram &P) {
  ProfileResult Ref = referenceProfile(*P.M, P.TargetLoopId);
  ASSERT_TRUE(Ref.Run.ok()) << Ref.Run.TrapMessage;
  EXPECT_EQ(P.Graph.str(), Ref.Graph.str());
  EXPECT_EQ(P.Graph.DynCount, Ref.Graph.DynCount);
}

/// Ids of the accesses inside a loop, stores or loads, whose l-value is the
/// variable \p Var itself (or, with an empty \p Var, is NOT a plain
/// variable: memory reached through a pointer or an index), ascending.
std::vector<AccessId> loopAccesses(const ProfiledProgram &P, bool IsStore,
                                   const std::string &Var = "") {
  std::vector<AccessId> Ids;
  for (const AccessDesc &D : P.Numbering.accesses()) {
    if (D.IsStore != IsStore || D.LoopStack.empty())
      continue;
    auto *VR = dyn_cast<VarRefExpr>(D.location());
    if (Var.empty() ? VR == nullptr
                    : VR != nullptr && VR->getDecl()->getName() == Var)
      Ids.push_back(D.Id);
  }
  return Ids;
}

bool hasFlowFrom(const LoopDepGraph &G, AccessId Src, AccessId Dst) {
  return G.hasEdge(Src, Dst, DepKind::Flow, false) ||
         G.hasEdge(Src, Dst, DepKind::Flow, true);
}

TEST(ProfilerShadow, SubWordStoreGivesTwoWriters) {
  ProfiledProgram P = profileCandidate(R"(
    int main() {
      int x = 0;
      int out = 0;
      @candidate for (int i = 0; i < 4; i++) {
        x = i + 256;
        char* c = (char*)&x;
        *c = 7;
        out = out + x;
      }
      print_int(out);
      return 0;
    }
  )");
  std::vector<AccessId> IntStores = loopAccesses(P, true, "x");
  std::vector<AccessId> CharStores = loopAccesses(P, true);
  std::vector<AccessId> IntLoads = loopAccesses(P, false, "x");
  ASSERT_EQ(IntStores.size(), 1u);
  ASSERT_EQ(CharStores.size(), 1u);
  ASSERT_EQ(IntLoads.size(), 1u);
  // Byte 0 comes from the char store, bytes 1-3 from the int store.
  EXPECT_TRUE(P.Graph.hasEdge(IntStores[0], IntLoads[0], DepKind::Flow, false))
      << P.Graph.str();
  EXPECT_TRUE(
      P.Graph.hasEdge(CharStores[0], IntLoads[0], DepKind::Flow, false))
      << P.Graph.str();
  EXPECT_TRUE(
      P.Graph.hasEdge(IntStores[0], CharStores[0], DepKind::Output, false));
  expectMatchesReference(P);
}

TEST(ProfilerShadow, AccessStraddlingAPageBoundary) {
  // Wherever the block lands, some int at buf + i straddles a 4 KiB
  // boundary with two bytes on each side. Only there, a char store into
  // the far side feeds an int load, and an int store feeds a char load
  // of the far side: both edges exist only if a straddling access updates
  // the bytes on both pages.
  ProfiledProgram P = profileCandidate(R"(
    int main() {
      char* buf = malloc(8200);
      int out = 0;
      @candidate for (int i = 0; i < 8190; i++) {
        int* p = (int*)(buf + i);
        if ((long)p % 4096 == 4094) {
          buf[i + 3] = 9;
          out = out + *p;
          *p = i;
          out = out + buf[i + 2];
        }
      }
      print_int(out);
      free(buf);
      return 0;
    }
  )");
  std::vector<AccessId> Stores = loopAccesses(P, true);
  std::vector<AccessId> Loads = loopAccesses(P, false);
  ASSERT_EQ(Stores.size(), 2u); // buf[i + 3] = 9; *p = i;
  ASSERT_EQ(Loads.size(), 2u);  // *p; buf[i + 2]
  AccessId CharStore = Stores[0], IntStore = Stores[1];
  AccessId IntLoad = Loads[0], CharLoad = Loads[1];
  ASSERT_TRUE(P.Graph.DynCount.count(IntLoad)) << "no straddling offset ran";
  EXPECT_TRUE(P.Graph.hasEdge(CharStore, IntLoad, DepKind::Flow, false))
      << P.Graph.str();
  EXPECT_TRUE(P.Graph.hasEdge(IntStore, CharLoad, DepKind::Flow, false))
      << P.Graph.str();
  EXPECT_TRUE(P.Graph.hasEdge(CharStore, IntStore, DepKind::Output, false))
      << P.Graph.str();
  expectMatchesReference(P);
}

TEST(ProfilerShadow, FreeAndMallocAgainInsideAnIteration) {
  ProfiledProgram P = profileCandidate(R"(
    int main() {
      int acc = 0;
      @candidate for (int i = 0; i < 6; i++) {
        int* p = malloc(16);
        p[0] = i;
        acc = acc + p[0];
        free(p);
        int* q = malloc(16);
        acc = acc + q[0];
        free(q);
      }
      print_int(acc);
      return 0;
    }
  )");
  std::vector<AccessId> Stores = loopAccesses(P, true);
  std::vector<AccessId> Loads = loopAccesses(P, false);
  ASSERT_EQ(Stores.size(), 1u);
  ASSERT_EQ(Loads.size(), 2u);
  // q[0] reads fresh memory, even where the allocator hands p's block back.
  EXPECT_FALSE(hasFlowFrom(P.Graph, Stores[0], Loads[1])) << P.Graph.str();
  EXPECT_TRUE(P.Graph.UpwardsExposedLoads.count(Loads[1])) << P.Graph.str();
  EXPECT_TRUE(P.Graph.hasEdge(Stores[0], Loads[0], DepKind::Flow, false));
  expectMatchesReference(P);
}

TEST(ProfilerShadow, WriteOfAnEarlierInvocationIsUpwardsExposed) {
  ProfiledProgram P = profileCandidate(R"(
    int buf[8];
    int main() {
      int out = 0;
      for (int r = 0; r < 2; r++) {
        @candidate for (int i = 0; i < 8; i++) {
          if (r == 1) { out = out + buf[i]; }
          if (r == 0) { buf[i] = i + 1; }
        }
      }
      print_int(out);
      return 0;
    }
  )");
  EXPECT_EQ(P.Graph.Invocations, 2u);
  EXPECT_EQ(P.Graph.Iterations, 16u);
  std::vector<AccessId> Stores = loopAccesses(P, true);
  std::vector<AccessId> Loads = loopAccesses(P, false);
  ASSERT_EQ(Stores.size(), 1u);
  ASSERT_EQ(Loads.size(), 1u);
  // Invocation 2 reads what invocation 1 wrote: upwards-exposed, not flow.
  EXPECT_FALSE(hasFlowFrom(P.Graph, Stores[0], Loads[0])) << P.Graph.str();
  EXPECT_TRUE(P.Graph.UpwardsExposedLoads.count(Loads[0])) << P.Graph.str();
  expectMatchesReference(P);
}

TEST(ProfilerShadow, RecursiveReentryStaysInTheOuterIteration) {
  ProfiledProgram P = profileCandidate(R"(
    int walk(int d) {
      int s = 0;
      @candidate for (int i = 0; i < 3; i++) {
        s = s + i;
        if (d > 0) { s = s + walk(d - 1); }
      }
      return s;
    }
    int main() {
      print_int(walk(2));
      return 0;
    }
  )");
  // Nested entries of the target loop neither start an invocation nor
  // count iterations: their accesses belong to the outer iteration.
  EXPECT_EQ(P.Graph.Invocations, 1u);
  EXPECT_EQ(P.Graph.Iterations, 3u);
  std::vector<AccessId> SStores = loopAccesses(P, true, "s");
  std::vector<AccessId> SLoads = loopAccesses(P, false, "s");
  ASSERT_EQ(SStores.size(), 2u); // s = s + i; s = s + walk(d - 1);
  ASSERT_FALSE(SLoads.empty());
  AccessId AddI = SStores[0], AddWalk = SStores[1], Read = SLoads[0];
  // The outermost frame carries s from one iteration's last store to the
  // next iteration's read.
  EXPECT_TRUE(P.Graph.hasEdge(AddWalk, Read, DepKind::Flow, true))
      << P.Graph.str();
  // The nested frames' iterations all run inside one outer iteration, so
  // their own s = s + i chain is loop-independent.
  EXPECT_TRUE(P.Graph.hasEdge(AddI, Read, DepKind::Flow, false))
      << P.Graph.str();
  EXPECT_FALSE(P.Graph.hasEdge(AddI, Read, DepKind::Flow, true))
      << P.Graph.str();
  expectMatchesReference(P);
}

TEST(ProfilerShadow, BulkWritesDefineBytesWithoutVertices) {
  ProfiledProgram P = profileCandidate(R"(
    int main() {
      int a[8];
      int b[8];
      for (int i = 0; i < 8; i++) { a[i] = i; b[i] = i; }
      memset(b, 0, 8 * sizeof(int));
      int out = 0;
      @candidate for (int i = 0; i < 4; i++) {
        out = out + b[i];
        memcpy(b, a, 8 * sizeof(int));
        out = out + b[i + 4];
      }
      print_int(out);
      print_int(b[0]);
      return 0;
    }
  )");
  EXPECT_TRUE(P.Graph.HasUnmodeled);
  std::vector<AccessId> Loads = loopAccesses(P, false);
  ASSERT_EQ(Loads.size(), 2u);
  // b[i] first reads memset's bytes, written before the loop; b[i + 4]
  // always reads what this iteration's memcpy wrote.
  EXPECT_TRUE(P.Graph.UpwardsExposedLoads.count(Loads[0])) << P.Graph.str();
  EXPECT_FALSE(P.Graph.UpwardsExposedLoads.count(Loads[1])) << P.Graph.str();
  // A bulk write has no access id, so it is the endpoint of no edge and is
  // never downwards-exposed: print_int(b[0]) marks nothing, and only the
  // stores of out remain downwards-exposed.
  for (const DepEdge &E : P.Graph.Edges) {
    EXPECT_NE(E.Src, InvalidAccessId);
    EXPECT_NE(E.Dst, InvalidAccessId);
  }
  std::vector<AccessId> OutStores = loopAccesses(P, true, "out");
  for (AccessId Id : P.Graph.DownwardsExposedStores)
    EXPECT_NE(std::find(OutStores.begin(), OutStores.end(), Id),
              OutStores.end())
        << P.Graph.str();
  expectMatchesReference(P);
}

TEST(ProfilerShadow, FifthDistinctReaderIsDropped) {
  ProfiledProgram P = profileCandidate(R"(
    int main() {
      int x = 5;
      int s = 0;
      @candidate for (int i = 0; i < 4; i++) {
        int a1 = x;
        int a2 = x;
        int a3 = x;
        int a4 = x;
        int a5 = x;
        s = s + a1 + a2 + a3 + a4 + a5;
        x = i;
      }
      print_int(s);
      return 0;
    }
  )");
  std::vector<AccessId> Reads = loopAccesses(P, false, "x");
  std::vector<AccessId> Writes = loopAccesses(P, true, "x");
  ASSERT_EQ(Reads.size(), 5u);
  ASSERT_EQ(Writes.size(), 1u);
  AccessId S = Writes[0];
  // A byte keeps four readers: the fifth read of each iteration is dropped,
  // so its anti dependence on the following store is not seen.
  for (unsigned I = 0; I != 4; ++I)
    EXPECT_TRUE(P.Graph.hasEdge(Reads[I], S, DepKind::Anti, false))
        << "reader " << I << "\n"
        << P.Graph.str();
  EXPECT_FALSE(P.Graph.hasEdge(Reads[4], S, DepKind::Anti, false))
      << P.Graph.str();
  // Flow is unaffected by the cap.
  EXPECT_TRUE(P.Graph.hasEdge(S, Reads[4], DepKind::Flow, true));
  // 4 bytes of x, one dropped read each, in every one of 4 iterations.
  EXPECT_EQ(P.Stats.DroppedReads, 16u);
  expectMatchesReference(P);
}

//===----------------------------------------------------------------------===//
// Profiler counters reach the session's statistics.
//===----------------------------------------------------------------------===//

TEST(ProfilerCounters, ReportedThroughTheSession) {
  const WorkloadInfo *W = findWorkload("dijkstra");
  ASSERT_NE(W, nullptr);
  std::unique_ptr<Module> M = parseMiniCOrDie(W->Source, W->Name);
  CompilationSession S(*M);
  unsigned Loop = S.candidateLoops().front();
  ASSERT_NE(S.analyses().depGraph(Loop, GraphSource::Profile), nullptr);
  const TimingRegistry &TR = S.timing();
  EXPECT_GT(TR.counter("profile.accesses"), 0u);
  EXPECT_GE(TR.counter("profile.bytes"), TR.counter("profile.accesses"));
  // dijkstra reads some bytes with more than four distinct accesses per
  // write, which the reader cap drops.
  EXPECT_GT(TR.counter("profile.dropped_reads"), 0u);
  EXPECT_NE(S.statsReport().find("profile.dropped_reads"), std::string::npos);
}

TEST(ProfilerCounters, SmallFixtureDropsNothing) {
  ProfiledProgram P = profileCandidate(R"(
    int main() {
      int buf[4];
      int acc = 0;
      @candidate for (int i = 0; i < 4; i++) {
        buf[i] = i;
        acc = acc + buf[i];
      }
      print_int(acc);
      return 0;
    }
  )");
  EXPECT_GT(P.Stats.Accesses, 0u);
  EXPECT_GT(P.Stats.Bytes, 0u);
  EXPECT_GT(P.Stats.ShadowPages, 0u);
  EXPECT_EQ(P.Stats.DroppedReads, 0u);
}

} // namespace
