//===- MemoryTest.cpp - VMMemory registry and lookup cache -----------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Regression tests for the registry's lookup cache (the recently returned
// allocations containing() and the inline bounds check consult): every path
// that kills or erases an allocation must leave the cache unable to answer
// with the dead block, even when the host allocator immediately recycles the
// address for an unrelated allocation (the freed-then-reallocated hazard).
// Plus the concurrent-mode worker paths: call frames on a worker's arena,
// with exact per-frame bounds and deltas, and frees while concurrent.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "interp/Interp.h"
#include "interp/Memory.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace gdse;

namespace {

TEST(VMMemoryCache, FreedThenReallocatedRegion) {
  VMMemory Mem;
  uint64_t A = Mem.allocate(64, AllocKind::Heap, 7);
  const Allocation *PA = Mem.containing(A + 8); // primes the last-hit cache
  ASSERT_NE(PA, nullptr);
  EXPECT_EQ(PA->SiteId, 7u);
  uint32_t GenA = PA->Generation;

  ASSERT_TRUE(Mem.deallocate(A));
  // The cache was primed on the freed block; the lookup must miss.
  EXPECT_EQ(Mem.containing(A + 8), nullptr);

  // Same-size reallocation: the host allocator usually hands the same
  // address straight back. Whether or not it does, the lookup must answer
  // with the NEW allocation's identity, never the cached dead one.
  uint64_t B = Mem.allocate(64, AllocKind::Heap, 9);
  const Allocation *PB = Mem.containing(B + 8);
  ASSERT_NE(PB, nullptr);
  EXPECT_EQ(PB->Base, B);
  EXPECT_EQ(PB->SiteId, 9u);
  EXPECT_NE(PB->Generation, GenA);
  Mem.deallocate(B);
}

TEST(VMMemoryCache, ReleaseUntrackedInvalidates) {
  VMMemory Mem;
  uint64_t F = Mem.allocateUntracked(128);
  const Allocation *PF = Mem.containing(F); // primes the cache
  ASSERT_NE(PF, nullptr);
  EXPECT_TRUE(PF->Untracked);

  Mem.releaseUntracked(F);
  uint64_t B = Mem.allocate(128, AllocKind::Heap, 3);
  const Allocation *PB = Mem.containing(B);
  ASSERT_NE(PB, nullptr);
  EXPECT_EQ(PB->Base, B);
  EXPECT_EQ(PB->SiteId, 3u);
  EXPECT_EQ(PB->Kind, AllocKind::Heap);
  EXPECT_FALSE(PB->Untracked);
  Mem.deallocate(B);
}

TEST(VMMemoryCache, DeadQuarantinedEntryNeverAnswered) {
  // Under speculation a freed pre-checkpoint block keeps its registry entry
  // (marked dead) so rollback can resurrect it. A cache primed on the block
  // before the free must not resurrect it early — and after rollback the
  // block is legitimately visible again.
  VMMemory Mem;
  uint64_t A = Mem.allocate(32, AllocKind::Heap, 5);
  Mem.beginSpeculation();
  ASSERT_NE(Mem.containing(A + 1), nullptr); // primes the cache
  ASSERT_TRUE(Mem.deallocate(A));            // quarantined: Live = false
  EXPECT_EQ(Mem.containing(A + 1), nullptr);
  Mem.rollbackSpeculation();
  const Allocation *PA = Mem.containing(A + 1);
  ASSERT_NE(PA, nullptr);
  EXPECT_EQ(PA->SiteId, 5u);
  EXPECT_TRUE(PA->Live);
  Mem.deallocate(A);
}

TEST(VMMemoryCache, ConcurrentModeTransitionsDropCache) {
  // The cache is primed before concurrent mode; a worker-side free erases
  // the block at endConcurrent. The post-join lookup must not see it.
  VMMemory Mem;
  uint64_t A = Mem.allocate(16, AllocKind::Heap, 11);
  ASSERT_NE(Mem.containing(A), nullptr); // primes the cache
  Mem.beginConcurrent();
  ASSERT_TRUE(Mem.deallocate(A)); // deferred host delete + erase
  Mem.endConcurrent();
  EXPECT_EQ(Mem.containing(A), nullptr);
}

//===----------------------------------------------------------------------===//
// The bounds check's fast path: an access answered from the lookup cache
// must get the answer the registry gives.
//===----------------------------------------------------------------------===//

/// Runs \p Src on the bytecode VM with bounds checks on.
RunResult runChecked(const std::string &Src) {
  std::unique_ptr<Module> M = parseMiniCOrDie(Src, "bounds");
  InterpOptions Opts;
  Opts.SimulateParallel = false;
  Interp I(*M, Opts);
  return I.run();
}

/// The trap message without its host address, which differs between runs.
std::string withoutAddress(const std::string &Msg) {
  return Msg.substr(0, Msg.find(" at 0x"));
}

TEST(BoundsFastPath, OverrunOfTheRecentBlockTraps) {
  VMMemory Mem;
  uint64_t A = Mem.allocate(16, AllocKind::Heap, 1);
  ASSERT_TRUE(Mem.inBounds(A + 12, 4)); // caches the block
  EXPECT_TRUE(Mem.inRecent(A + 12, 4));
  // Starts in the cached block, ends past it.
  EXPECT_FALSE(Mem.inRecent(A + 14, 4));
  EXPECT_FALSE(Mem.inBounds(A + 14, 4));
  EXPECT_FALSE(Mem.inBounds(A + 15, UINT64_MAX)); // no wrap-around
  Mem.deallocate(A);

  RunResult R = runChecked(R"(
    int main() {
      int* p = malloc(16);
      p[3] = 1;
      char* c = (char*)p;
      int* q = (int*)(c + 14);
      *q = 5;
      return 0;
    }
  )");
  ASSERT_TRUE(R.Trapped);
  EXPECT_EQ(withoutAddress(R.TrapMessage), "out-of-bounds store of 4 bytes");
}

TEST(BoundsFastPath, UseAfterFreeOfTheRecentBlockTraps) {
  VMMemory Mem;
  uint64_t A = Mem.allocate(16, AllocKind::Heap, 1);
  ASSERT_TRUE(Mem.inBounds(A, 4));
  ASSERT_TRUE(Mem.deallocate(A));
  EXPECT_FALSE(Mem.inRecent(A, 4));
  EXPECT_FALSE(Mem.inBounds(A, 4));

  RunResult R = runChecked(R"(
    int main() {
      int* p = malloc(16);
      p[0] = 1;
      free(p);
      print_int(p[0]);
      return 0;
    }
  )");
  ASSERT_TRUE(R.Trapped);
  EXPECT_EQ(withoutAddress(R.TrapMessage), "out-of-bounds load of 4 bytes");
}

TEST(BoundsFastPath, FreeThenMallocAtTheSameAddress) {
  // The host allocator usually hands a freed block's address straight
  // back. The cache must answer with the new, smaller block.
  VMMemory Mem;
  uint64_t A = Mem.allocate(16, AllocKind::Heap, 1);
  ASSERT_TRUE(Mem.inBounds(A + 12, 4));
  ASSERT_TRUE(Mem.deallocate(A));
  uint64_t B = Mem.allocate(12, AllocKind::Heap, 2);
  EXPECT_TRUE(Mem.inBounds(B + 8, 4));
  EXPECT_FALSE(Mem.inRecent(B + 12, 4));
  EXPECT_FALSE(Mem.inBounds(B + 12, 4));
  ASSERT_NE(Mem.containing(B), nullptr);
  EXPECT_EQ(Mem.containing(B)->SiteId, 2u);
  Mem.deallocate(B);

  RunResult R = runChecked(R"(
    int main() {
      int* p = malloc(16);
      p[3] = 1;
      free(p);
      int* q = malloc(12);
      q[2] = 7;
      print_int(q[2]);
      q[3] = 1;
      return 0;
    }
  )");
  ASSERT_TRUE(R.Trapped);
  EXPECT_EQ(R.Output, "7\n");
  EXPECT_EQ(withoutAddress(R.TrapMessage), "out-of-bounds store of 4 bytes");
}

TEST(BoundsFastPath, ZeroSizeBlock) {
  VMMemory Mem;
  uint64_t A = Mem.allocate(0, AllocKind::Heap, 1);
  ASSERT_NE(A, 0u);
  ASSERT_NE(Mem.containing(A), nullptr); // caches the block
  EXPECT_FALSE(Mem.inRecent(A, 1));
  EXPECT_FALSE(Mem.inBounds(A, 1));
  EXPECT_FALSE(Mem.inRecent(A, 0)); // the cache never answers for it
  EXPECT_TRUE(Mem.inBounds(A, 0));
  Mem.deallocate(A);

  RunResult R = runChecked(R"(
    int main() {
      char* p = malloc(0);
      p[0] = 1;
      return 0;
    }
  )");
  ASSERT_TRUE(R.Trapped);
  EXPECT_EQ(withoutAddress(R.TrapMessage), "out-of-bounds store of 1 bytes");
}

TEST(BoundsFastPath, ConcurrentModeNeverReadsTheCache) {
  // A block cached before concurrent mode is freed by one thread while
  // another looks it up. Reading the cache would read the block's Live
  // flag without the registry lock, a race the thread sanitizer reports.
  VMMemory Mem;
  uint64_t A = Mem.allocate(64, AllocKind::Heap, 1);
  uint64_t B = Mem.allocate(64, AllocKind::Heap, 2);
  ASSERT_TRUE(Mem.inBounds(A, 8));
  ASSERT_TRUE(Mem.inBounds(B, 8));
  EXPECT_EQ(Mem.cachedLookups(), 2u);
  Mem.beginConcurrent();
  std::atomic<bool> Freed{false};
  std::thread Freer([&] {
    EXPECT_TRUE(Mem.deallocate(A));
    Freed = true;
  });
  std::thread Reader([&] {
    for (unsigned I = 0; I != 1000; ++I) {
      EXPECT_FALSE(Mem.inRecent(B, 8));
      EXPECT_TRUE(Mem.inBounds(B, 8));
      bool FreedBefore = Freed;
      bool Live = Mem.inBounds(A, 8);
      EXPECT_FALSE(FreedBefore && Live);
    }
  });
  Freer.join();
  Reader.join();
  EXPECT_FALSE(Mem.inBounds(A, 8));
  // Lookups while concurrent neither read nor change the cache.
  EXPECT_EQ(Mem.cachedLookups(), 2u);
  Mem.endConcurrent();
  EXPECT_FALSE(Mem.inBounds(A, 8));
  EXPECT_TRUE(Mem.inBounds(B, 8));
  EXPECT_EQ(Mem.cachedLookups(), 1u);
  Mem.deallocate(B);
}

TEST(VMMemoryConcurrent, WorkerFrameArenaAndSharedFrees) {
  // One thread plays both workers in turn (attach() binds a worker to the
  // calling thread, detach() lets it go).
  VMMemory Mem;
  uint64_t Pre = Mem.allocate(32, AllocKind::Heap, 1);
  Mem.beginConcurrent();
  MemWorker W0(0), W1(1);

  Mem.attach(W0);
  W0.Sink.beginIter();
  uint64_t F = Mem.allocate(24, AllocKind::Frame, 0);
  ASSERT_NE(F, 0u);
  const Allocation *A = Mem.containing(F + 23);
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(A->Base, F);
  EXPECT_EQ(A->Kind, AllocKind::Frame);
  EXPECT_EQ(Mem.byBase(F), A);
  // Exact per-frame bounds: the byte past the frame belongs to no frame.
  EXPECT_EQ(Mem.containing(F + 24), nullptr);
  EXPECT_FALSE(Mem.inBounds(F + 20, 8));
  uint64_t G = Mem.allocate(8, AllocKind::Frame, 0); // nested call
  EXPECT_GE(G, F + 24);
  EXPECT_TRUE(Mem.deallocate(G));
  EXPECT_TRUE(Mem.deallocate(F));
  EXPECT_EQ(Mem.containing(F), nullptr);
  // +24, +8, -8, -24: the peak replay sees the frames like any block.
  EXPECT_EQ(W0.Sink.Cur, 0);
  EXPECT_EQ(W0.Sink.MaxPrefix, 32);
  EXPECT_EQ(Mem.currentBytes(), 32u);

  uint64_t H = Mem.allocate(16, AllocKind::Heap, 2);
  ASSERT_NE(H, 0u);
  Mem.detach();

  // Worker 1 looks up worker 0's block, then worker 0 frees it and the
  // pre-existing block: both are dead at once, though quarantined until
  // endConcurrent().
  Mem.attach(W1);
  EXPECT_NE(Mem.containing(H + 4), nullptr);
  Mem.detach();
  Mem.attach(W0);
  EXPECT_TRUE(Mem.deallocate(H));
  EXPECT_TRUE(Mem.deallocate(Pre));
  EXPECT_FALSE(Mem.deallocate(Pre));
  EXPECT_EQ(Mem.byBase(H), nullptr);
  EXPECT_EQ(Mem.containing(Pre), nullptr);
  // A block only its own worker has seen is deleted at once.
  uint64_t K = Mem.allocate(8, AllocKind::Heap, 3);
  ASSERT_NE(Mem.containing(K), nullptr);
  EXPECT_TRUE(Mem.deallocate(K));
  EXPECT_FALSE(Mem.deallocate(K));
  Mem.detach();
  Mem.endConcurrent();
  EXPECT_EQ(Mem.liveAllocations(), 0u);
  EXPECT_EQ(Mem.currentBytes(), 0u);
  EXPECT_EQ(Mem.containing(H), nullptr);
}

} // namespace
