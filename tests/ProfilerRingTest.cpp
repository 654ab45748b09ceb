//===- ProfilerRingTest.cpp - profileLoop's helper-thread event ring ------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// profileLoop runs the dependence shadow on a helper thread, fed through an
// EventRing. The ring must hand the shadow exactly the event stream a
// synchronous observer sees: on a run that traps mid-loop, on a run that
// laps the ring many times, and on every workload loop against the
// tree-walker. An exception the shadow throws on the helper must reach the
// thread that finishes the ring.
//
//===----------------------------------------------------------------------===//

#include "driver/CompilationSession.h"
#include "frontend/Parser.h"
#include "profile/DepProfiler.h"
#include "profile/EventRing.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <new>

using namespace gdse;

namespace {

unsigned firstCandidate(Module &M) {
  return CompilationSession(M).candidateLoops().front();
}

/// Profiles \p Loop with a DepProfiler observing \p Engine directly, on the
/// calling thread.
ProfileResult directProfile(Module &M, unsigned Loop, ExecEngine Engine) {
  InterpOptions Opts;
  Opts.NumThreads = 1;
  Opts.SimulateParallel = false;
  Opts.Engine = Engine;
  DepProfiler Profiler(Loop);
  Interp I(M, Opts);
  I.setObserver(&Profiler);
  ProfileResult R;
  R.Run = I.run();
  R.Graph = Profiler.takeGraph();
  R.Stats = Profiler.stats();
  return R;
}

void expectSameProfile(const ProfileResult &Got, const ProfileResult &Want,
                       const std::string &What) {
  EXPECT_EQ(Got.Graph.str(), Want.Graph.str()) << What;
  EXPECT_EQ(Got.Graph.DynCount, Want.Graph.DynCount) << What;
  EXPECT_EQ(Got.Stats.Accesses, Want.Stats.Accesses) << What;
  EXPECT_EQ(Got.Stats.Bytes, Want.Stats.Bytes) << What;
  EXPECT_EQ(Got.Stats.DroppedReads, Want.Stats.DroppedReads) << What;
  EXPECT_EQ(Got.Run.Trapped, Want.Run.Trapped) << What;
  EXPECT_EQ(Got.Run.Output, Want.Run.Output) << What;
}

/// The trap message without its host address, which differs between runs.
std::string withoutAddress(const std::string &Msg) {
  return Msg.substr(0, Msg.find(" at 0x"));
}

TEST(ProfilerRing, TrapMidLoopDrainsTheRing) {
  std::unique_ptr<Module> M = parseMiniCOrDie(R"(
    int main() {
      int* a = malloc(40);
      int acc = 0;
      @candidate for (int i = 0; i < 20; i++) {
        for (int k = 0; k < 500; k++) { acc = acc + k; }
        a[i] = acc;
      }
      print_int(acc);
      return 0;
    }
  )",
                                              "trap");
  unsigned Loop = firstCandidate(*M);
  ProfileResult Threaded = profileLoop(*M, Loop);
  ProfileResult Direct = directProfile(*M, Loop, ExecEngine::Bytecode);
  ASSERT_TRUE(Threaded.Run.Trapped);
  EXPECT_EQ(withoutAddress(Threaded.Run.TrapMessage),
            "out-of-bounds store of 4 bytes");
  EXPECT_EQ(Threaded.Run.TrapIteration, 10);
  EXPECT_EQ(withoutAddress(Threaded.Run.TrapMessage),
            withoutAddress(Direct.Run.TrapMessage));
  // Every event before the trap reached the shadow: ten iterations of 500
  // inner-loop updates each.
  EXPECT_EQ(Threaded.Graph.Iterations, 11u);
  EXPECT_GT(Threaded.Stats.Accesses, 10u * 500u);
  expectSameProfile(Threaded, Direct, "trapped run");
}

TEST(ProfilerRing, LapsTheRingManyTimes) {
  // Well over twenty laps of the ring, with sizes too large for a record's
  // size field (a 70000-byte calloc and memset) on the way.
  std::unique_ptr<Module> M = parseMiniCOrDie(R"(
    int main() {
      int* a = malloc(4000);
      char* big = calloc(70000, 1);
      int acc = 0;
      @candidate for (int i = 0; i < 60; i++) {
        for (int k = 0; k < 1000; k++) { a[k] = a[k] + i; }
        if (i % 20 == 0) { memset(big, i, 70000); }
        acc = acc + a[i] + big[i * 1000];
      }
      print_int(acc);
      free(big);
      free(a);
      return 0;
    }
  )",
                                              "laps");
  unsigned Loop = firstCandidate(*M);
  ProfileResult Threaded = profileLoop(*M, Loop);
  ProfileResult Direct = directProfile(*M, Loop, ExecEngine::Bytecode);
  ASSERT_TRUE(Threaded.Run.ok()) << Threaded.Run.TrapMessage;
  EXPECT_GT(Threaded.Stats.Accesses, 20 * EventRing::Capacity);
  EXPECT_TRUE(Threaded.Graph.HasUnmodeled);
  expectSameProfile(Threaded, Direct, "long run");
}

/// A shadow that runs out of memory on its 5000th store.
class FailingShadow : public DepProfiler {
public:
  using DepProfiler::DepProfiler;
  void onStore(AccessId Id, uint64_t Addr, uint64_t Size) override {
    if (++Stores == 5000)
      throw std::bad_alloc();
    DepProfiler::onStore(Id, Addr, Size);
  }

private:
  unsigned Stores = 0;
};

TEST(ProfilerRing, ShadowExceptionReachesTheCaller) {
  // profileLoop's own shadow cannot be made to fail on demand, so this
  // drives the ring as profileLoop does, with a shadow that throws.
  std::unique_ptr<Module> M = parseMiniCOrDie(R"(
    int main() {
      int* a = malloc(400);
      @candidate for (int i = 0; i < 100; i++) {
        for (int k = 0; k < 100; k++) { a[k] = a[k] + i; }
      }
      print_int(a[7]);
      return 0;
    }
  )",
                                              "failing");
  unsigned Loop = firstCandidate(*M);
  InterpOptions Opts;
  Opts.SimulateParallel = false;
  FailingShadow Shadow(Loop);
  Interp I(*M, Opts);
  EventRing Ring(Shadow);
  I.setObserver(&Ring);
  RunResult R = I.run();
  I.setObserver(nullptr);
  // The VM ran to the end: the failed helper kept draining the ring.
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Output, "4950\n");
  EXPECT_THROW(Ring.finish(), std::bad_alloc);
  // finish() joined the helper; a second call has nothing left to report.
  EXPECT_NO_THROW(Ring.finish());
}

TEST(ProfilerRing, TreeWalkerObserverMatchesOnEveryLoop) {
  std::vector<const WorkloadInfo *> Ws;
  for (const WorkloadInfo &W : allWorkloads())
    Ws.push_back(&W);
  for (const WorkloadInfo &W : reductionWorkloads())
    Ws.push_back(&W);
  unsigned Loops = 0;
  for (const WorkloadInfo *W : Ws) {
    std::unique_ptr<Module> M = parseMiniCOrDie(W->Source, W->Name);
    CompilationSession S(*M);
    for (unsigned Loop : S.candidateLoops()) {
      std::string What = std::string(W->Name) + " loop " + std::to_string(Loop);
      ProfileResult Threaded =
          profileLoop(*M, Loop, "main", S.analyses().bytecode());
      ProfileResult Tree = directProfile(*M, Loop, ExecEngine::TreeWalk);
      ASSERT_TRUE(Threaded.Run.ok()) << What << ": " << Threaded.Run.TrapMessage;
      expectSameProfile(Threaded, Tree, What);
      ASSERT_TRUE(S.compileLoop(Loop).Ok) << What;
      ++Loops;
    }
  }
  EXPECT_EQ(Loops, 13u);
}

} // namespace
