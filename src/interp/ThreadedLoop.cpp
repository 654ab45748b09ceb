//===- ThreadedLoop.cpp - Host-threaded parallel loop execution ------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The real host-threaded runner behind ExecEngine::Threads: the threaded
// half of the one parallel-invocation skeleton (ExecState.h). The skeleton's
// prologue (beginParallel), epilogue (endParallel), guard setup and commit,
// and InvocationCheckpoint are shared with the simulated runner
// (ExecState.cpp), which executes iterations in serial order and *computes*
// the N-core timeline. What is this runner's own is worker dispatch and the
// replay of what the workers recorded. It dispatches iterations to N worker
// ThreadStates over the shared VMMemory:
//
//  - DOALL: the same static chunking as the virtual schedule
//    (Chunk = ceil(Total/N), thread T owns [T*Chunk, (T+1)*Chunk)), one pool
//    task per chunk;
//  - DOACROSS: workers grab iterations in order from an atomic counter;
//    ordered regions are enforced by per-region tickets — an iteration's
//    first entry into a region blocks until every earlier iteration has
//    released it, and an iteration releases all of the loop's regions when
//    it completes (slightly more conservative than the virtual schedule's
//    exit-to-exit handoff, which costs real wall-clock but cannot change the
//    virtual metrics, because those are replayed from recorded events).
//
// Each worker is a full ThreadState sharing the ProgramContext: it owns its
// cycles, output, trap state, ordered-event buffer, nested-loop stats, and
// (under check-mode guarding) its own copy of the guard shadow. Workers run
// over a private copy of the enclosing function's frame (registered
// untracked, so byte accounting is unaffected) and the shared heap/globals —
// which is exactly the paper's bet: the expansion transformation has already
// privatized what iterations would otherwise race on.
//
// A worker's CurTid is its worker index — the *slot* tid. Under DOALL it is
// also the virtual thread (chunk T is thread T). Under DOACROSS the virtual
// thread is only known from the replayed timeline, but expansion's copy
// indices (synthesized tids) need no more than an index exclusive to the
// running iteration, which the slot tid is; only a body that reads a user
// __tid keeps the simulated path. The guard shadow follows the copies: a
// worker stamps and span-checks against its slot, and the join renames
// every violation, every shadow stamp (hence every post-loop watch byte)
// and the trap of the faulting iteration to the iteration's virtual thread.
// The private frame copies are exact for DOALL chunks; for DOACROSS, whose
// iterations interleave across workers, the frame-slot gate
// (ProgramContext::LoopTraits::CarriesFrameSlot) keeps every loop that
// could carry a value through a frame slot on the simulated path, so the
// byte-diff merge below only ever copies back slots nothing reads again.
//
// A check-mode post-loop watch (armed by an earlier guarded invocation's
// commit) does not stop threading either: every worker reads the watched
// addresses without changing the watch and logs, with its iteration and in
// program order, each access that touches a watched byte its own stores
// have not erased; the join replays the logs through the serial watch
// hooks.
//
// A worker's iterations stay off VMMemory's registry lock and the host
// allocator in the steady state: its calls push frames on a private LIFO
// arena (MemWorker), its frees of blocks only it has seen are deleted at
// once (any other stays quarantined until the join), and every buffer it
// fills — ordered events, output, register file, nested-loop stats, ticket
// bitmaps — is sized on the calling thread before the workers start.
//
// After the join everything is merged back deterministically, in serial
// iteration order: the virtual timeline replay through the exact arithmetic
// the simulated path uses (ParallelTimeline.h), which also names each
// iteration's virtual thread; output concatenation, per-iteration work
// cycles, the peak-memory replay (per-iteration allocation deltas re-run in
// iteration order), frame byte-diffs (last-writing chunk wins, as in serial
// order), guard-shadow merge (latest-iteration byte wins) followed by the
// ordinary commit scan, and worker violation and watch-access logs replayed
// through the serial recorder (logViolation) and watch hooks. A DOACROSS
// attempt whose ticket frontier wedges is not merged at all: the watchdog
// rolls the shared InvocationCheckpoint back and the invocation re-runs on
// the simulated path.
//
// On loop invocations that complete normally, every virtual metric is
// therefore bit-identical to the serial engines (EngineDiffTest enforces
// this); on invocations that trap or halt mid-loop, every iteration below
// the (lowest) faulting one runs, but iterations past it may or may not
// have run on other workers, so — as with the bytecode engine's existing
// trap-run license (Bytecode.h) — cycle totals, output, and side effects
// past the fault may diverge, while the trap message keeps exact
// loop/iteration/virtual-thread attribution.
//
//===----------------------------------------------------------------------===//

#include "interp/ExecState.h"

#include "interp/ParallelTimeline.h"
#include "support/Support.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>

namespace gdse {

/// Cross-iteration synchronization for ordered regions under real DOACROSS
/// threading: one ticket lane per region id. Iteration I may enter a region
/// once every iteration < I has released it; NextIter is the smallest
/// iteration that has not yet released, and Released marks out-of-order
/// completions ahead of it (one bit per iteration, allocated up front so a
/// release never touches the host allocator).
///
/// With a non-zero watchdog window the wait is timed: a waiter that sees no
/// release anywhere (Progress unchanged) for a full window declares the
/// ticket frontier wedged, wakes every lane, and every waiter bails out —
/// the loop invocation then degrades instead of hanging the process.
struct DoacrossSync {
  struct Region {
    std::mutex Mu;
    std::condition_variable Cv;
    uint64_t NextIter = 0;
    std::vector<uint64_t> Released;
  };
  std::map<unsigned, Region> Regions;
  /// Watchdog window in milliseconds; 0 = untimed waits (watchdog off).
  const uint64_t WindowMs;
  /// Bumped on every releaseAll — the "some lane made progress" signal the
  /// watchdog distinguishes a slow frontier from a stalled one by.
  std::atomic<uint64_t> Progress{0};
  std::atomic<bool> Wedged{false};

  DoacrossSync(const std::vector<unsigned> &Ids, uint64_t Total,
               uint64_t WatchdogMs)
      : WindowMs(WatchdogMs) {
    for (unsigned Id : Ids)
      Regions[Id].Released.assign((Total + 63) / 64, 0);
  }

  /// Blocks until iteration \p Iter holds region \p Id's ticket. Returns
  /// false when the watchdog declared the frontier wedged — the caller must
  /// abandon the iteration (never touch the region's data).
  bool enter(unsigned Id, uint64_t Iter) {
    auto It = Regions.find(Id);
    if (It == Regions.end())
      return true;
    Region &R = It->second;
    std::unique_lock<std::mutex> Lock(R.Mu);
    if (!WindowMs) {
      // A second entry by the same iteration sees NextIter == Iter and
      // passes straight through: the ticket is held for the whole iteration.
      R.Cv.wait(Lock, [&] { return R.NextIter >= Iter; });
      return true;
    }
    for (;;) {
      uint64_t P0 = Progress.load(std::memory_order_relaxed);
      R.Cv.wait_for(Lock, std::chrono::milliseconds(WindowMs), [&] {
        return R.NextIter >= Iter || Wedged.load(std::memory_order_relaxed);
      });
      // Holding the ticket always wins, even against a concurrent wedge
      // declaration: proceeding is safe, and the iteration's releaseAll
      // keeps the drain moving.
      if (R.NextIter >= Iter)
        return true;
      if (Wedged.load(std::memory_order_relaxed))
        return false;
      if (Progress.load(std::memory_order_relaxed) != P0)
        continue; // slow but alive: somebody released during the window
      // No lane released anything for a full window: the frontier is
      // wedged. Release the wedge — set the flag, then wake every lane
      // (own lock dropped first; taking other lanes' locks while holding
      // ours could deadlock against a symmetric waiter).
      Wedged.store(true, std::memory_order_relaxed);
      Lock.unlock();
      wakeAllLanes();
      return false;
    }
  }

  void wakeAllLanes() {
    for (auto &[Id, R] : Regions) {
      std::lock_guard<std::mutex> Lock(R.Mu);
      R.Cv.notify_all();
    }
  }

  /// Called exactly once per grabbed iteration, at its end — normal exit,
  /// trap inside an ordered region, or abort-after-grab alike: liveness of
  /// the protocol depends on every grabbed ticket releasing every lane.
  void releaseAll(uint64_t Iter) {
    Progress.fetch_add(1, std::memory_order_relaxed);
    for (auto &[Id, R] : Regions) {
      std::unique_lock<std::mutex> Lock(R.Mu);
      // A duplicate or stale release must be inert: an iteration already
      // below the lane frontier has nothing left to release.
      if (Iter < R.NextIter)
        continue;
      R.Released[Iter / 64] |= uint64_t(1) << (Iter % 64);
      while (R.NextIter / 64 < R.Released.size() &&
             (R.Released[R.NextIter / 64] >> (R.NextIter % 64) & 1))
        ++R.NextIter;
      R.Cv.notify_all();
    }
  }
};

} // namespace gdse

using namespace gdse;

void ThreadState::orderedRealEnter(unsigned RegionId) {
  if (!DX)
    return;
  // Fault injection: an artificial stall at a lane entry, long enough (with
  // the right spec) to trip the watchdog deterministically.
  if (injectFault(FaultInjector::Point::LaneDelay))
    std::this_thread::sleep_for(
        std::chrono::milliseconds(Opts.Resilience.Faults->delayMillis()));
  if (!DX->enter(RegionId, DXIter))
    trap(formatString("DOACROSS watchdog: ordered-region frontier stalled "
                      "for %llu ms",
                      static_cast<unsigned long long>(DX->WindowMs)));
}

namespace {

/// Everything one iteration leaves behind, indexed by iteration so the merge
/// can walk in serial order regardless of which worker ran what. Ordered
/// events and output stay in the running worker's buffers; the record keeps
/// their ranges, so an iteration costs the worker no host allocation.
struct IterRec {
  uint64_t W = 0;                  ///< work cycles of the body
  size_t EvBegin = 0, EvEnd = 0;   ///< ordered entries/exits (DOACROSS)
  size_t OutBegin = 0, OutEnd = 0; ///< print output of this iteration
  int64_t MemNet = 0;              ///< net tracked bytes allocated
  int64_t MemMaxPrefix = 0;        ///< max net-bytes prefix within the iter
  Flow FL = Flow::Normal;
  unsigned Worker = 0; ///< meaningful once Ran
  /// The virtual thread, once the timeline replay dispatched the iteration;
  /// the worker slot for an iteration past the lowest faulting one.
  unsigned VThread = 0;
  bool Ran = false;
};

struct WorkerCtx {
  std::unique_ptr<ThreadState> WS;
  uint64_t FrameBase = 0;
  /// Highest iteration this worker started (frame-merge order); UINT64_MAX
  /// when it never ran one.
  uint64_t LastIter = UINT64_MAX;
  // Declared after WS so it is destroyed first: the thunk holds the
  // engine-side worker VM, which references *WS.
  std::function<Flow()> Body;
};

} // namespace

Flow ThreadState::runForThreaded(ParallelInvocation I,
                                 const ThreadLoopHooks &Host,
                                 ThreadPool &Pool) {
  const bool DOALL = I.Kind == ParallelKind::DOALL;
  // Eligibility guarantees the traits (a loop without them is simulated).
  const ProgramContext::LoopTraits &Traits = *P.loopTraits(I.LoopId);
  const uint64_t WatchdogMs =
      !DOALL && !Traits.RegionIds.empty() ? Opts.Resilience.WatchdogMs : 0;

  // Watchdog recovery checkpoint: a wedged DOACROSS attempt must be able to
  // roll back to the pre-invocation world and re-run on the simulated path,
  // bit-identical to a clean serial-order run. Armed before any of this
  // invocation's bookkeeping (stats, bounds evaluation) for exactly that
  // reason.
  InvocationCheckpoint CP(*this);
  if (WatchdogMs)
    CP.arm();
  if (!beginParallel(I))
    return Flow::Halt;
  const uint64_t Total = I.Total;
  const ForBounds &B = I.B;
  ParallelTimeline TL(Opts.Costs, I.N, DOALL, Total);
  const uint64_t Chunk = TL.Chunk;
  Flow Result = Flow::Normal;
  std::vector<IterRec> Recs(Total);
  std::vector<WorkerCtx> Workers;
  // Each worker's frame arena and delta sink.
  std::vector<MemWorker> MemWs;
  uint64_t AbnIt = UINT64_MAX; // lowest iteration that trapped/halted

  if (Total != 0) {
    const unsigned NumWorkers =
        DOALL ? static_cast<unsigned>(
                    std::min<uint64_t>((Total + Chunk - 1) / Chunk, I.N))
              : I.N;

    // The frame state every chunk starts from: the enclosing frame exactly
    // as iteration 0 would see it (bounds already evaluated).
    std::vector<uint8_t> FrameSnap(Host.FrameSize ? Host.FrameSize : 1);
    std::memcpy(FrameSnap.data(), reinterpret_cast<void *>(Host.FrameBase),
                Host.FrameSize);
    const uint64_t IVOff = B.IVAddr - Host.FrameBase;
    const uint64_t MemStart = Mem.currentBytes();

    DoacrossSync Sync(Traits.RegionIds, Total, WatchdogMs);
    std::atomic<uint64_t> NextGrab{0};
    // The lowest iteration that trapped or halted so far. Only iterations
    // past it are skipped, so every iteration below the faulting one runs,
    // as in serial order, and the timeline replay up to it is exact.
    std::atomic<uint64_t> AbortIt{UINT64_MAX};
    auto abortAt = [&](uint64_t It) {
      uint64_t Cur = AbortIt.load(std::memory_order_relaxed);
      while (It < Cur && !AbortIt.compare_exchange_weak(
                             Cur, It, std::memory_order_relaxed)) {
      }
    };

    // Per-worker buffers are sized here, on the calling thread, so the
    // workers' steady state stays off the host allocator.
    const size_t Regions = Traits.RegionIds.size();
    const size_t EvReserve =
        Regions ? (Total / NumWorkers + 1) * 2 * Regions : 0;
    // A Check-mode watch armed by an earlier invocation, flattened for the
    // workers' lookups; it does not change until the join replays the logs.
    std::vector<uint64_t> WatchAddrs;
    WatchAddrs.reserve(GuardWatch.size());
    for (const auto &[Addr, W] : GuardWatch)
      WatchAddrs.push_back(Addr);
    Workers.resize(NumWorkers);
    MemWs.reserve(NumWorkers);
    for (unsigned T = 0; T != NumWorkers; ++T) {
      WorkerCtx &W = Workers[T];
      MemWs.emplace_back(T);
      W.WS.reset(new ThreadState(P));
      ThreadState &WS = *W.WS;
      WS.CurTid = static_cast<int>(T);
      WS.InParallelLoop = true;
      WS.SuppressGuardDiags = true;
      WS.RecordOrdered = !DOALL;
      if (!DOALL)
        WS.DX = &Sync;
      if (I.GP) {
        WS.GuardActive = true;
        WS.GuardLoop = I.LoopId;
        WS.GuardStats = &WS.Loops[I.LoopId];
        WS.GuardRegions = GuardRegions; // private first-write shadow copy
        WS.GuardHasComm = GuardHasComm;
        WS.GuardLo = GuardLo;
        WS.GuardHi = GuardHi;
      }
      if (!WatchAddrs.empty()) {
        WS.WatchAddrs = &WatchAddrs;
        WS.WatchErased.assign(WatchAddrs.size(), 0);
      }
      WS.updateGuardHooks();
      // Worker frames must exist before the arena goes concurrent and are
      // excluded from byte accounting (no serial counterpart).
      W.FrameBase = Mem.allocateUntracked(Host.FrameSize);
      std::memcpy(reinterpret_cast<void *>(W.FrameBase), FrameSnap.data(),
                  Host.FrameSize);
      W.Body = Host.MakeWorker(WS, W.FrameBase);
      for (unsigned Id : Traits.InnerLoopIds)
        WS.Loops[Id];
      WS.LoopCtxStack.reserve(8);
      WS.LoopCtxStack.push_back({I.LoopId, 0});
      WS.OrderedEvents.reserve(EvReserve);
    }

    auto runIter = [&](unsigned T, uint64_t It) -> bool {
      WorkerCtx &W = Workers[T];
      MemWorker &WM = MemWs[T];
      ThreadState &WS = *W.WS;
      IterRec &R = Recs[It];
      R.Worker = T;
      R.Ran = true;
      WS.LoopCtxStack.back().Iter = It;
      WS.GuardIter = It;
      WS.DXIter = It;
      // Iteration-boundary budget poll, as on the serial drivers. Only the
      // wall-clock deadline can be armed here (a cycle cap forces the
      // simulated path), so a breach is an attributed trap, not a rung of
      // the ladder — re-running would breach again.
      if (!WS.checkBudget()) {
        R.FL = Flow::Halt;
        abortAt(It);
        return false;
      }
      int64_t IVal = B.Lo + static_cast<int64_t>(It) * B.Step;
      WS.storeScalar(W.FrameBase + IVOff, I.IVType, VMValue::ofInt(IVal));
      R.OutBegin = WS.Output.size();
      R.EvBegin = WS.OrderedEvents.size();
      WS.IterStartCycles = WS.Cycles;
      WM.Sink.beginIter();
      Flow FL = W.Body();
      R.W = WS.Cycles - WS.IterStartCycles;
      R.EvEnd = WS.OrderedEvents.size();
      R.OutEnd = WS.Output.size();
      R.MemNet = WM.Sink.Cur;
      R.MemMaxPrefix = WM.Sink.MaxPrefix;
      W.LastIter = It;
      if (FL == Flow::Break || FL == Flow::Return) {
        WS.trap("break/return escaping a parallel loop");
        FL = Flow::Halt;
      }
      if (FL == Flow::Halt || WS.dead()) {
        R.FL = Flow::Halt;
        abortAt(It);
        return false;
      }
      R.FL = FL;
      return true;
    };

    Mem.beginConcurrent();
    {
      TaskGroup TG(Pool);
      if (DOALL) {
        for (unsigned T = 0; T != NumWorkers; ++T) {
          uint64_t LoIt = static_cast<uint64_t>(T) * Chunk;
          uint64_t HiIt = std::min<uint64_t>(LoIt + Chunk, Total);
          TG.submit([&, T, LoIt, HiIt] {
            Mem.attach(MemWs[T]);
            for (uint64_t It = LoIt; It != HiIt; ++It) {
              if (It > AbortIt.load(std::memory_order_relaxed))
                break;
              if (!runIter(T, It))
                break;
            }
            Mem.detach();
          });
        }
      } else {
        for (unsigned T = 0; T != NumWorkers; ++T) {
          TG.submit([&, T] {
            Mem.attach(MemWs[T]);
            for (;;) {
              uint64_t It = NextGrab.fetch_add(1, std::memory_order_relaxed);
              if (It >= Total)
                break;
              if (It > AbortIt.load(std::memory_order_relaxed)) {
                // Grabbed but not run: still release, so iterations behind
                // us that are already inside the loop can drain.
                Sync.releaseAll(It);
                break;
              }
              bool OK = runIter(T, It);
              Sync.releaseAll(It);
              if (!OK)
                break;
            }
            Mem.detach();
          });
        }
      }
      TG.wait();
    }
    Mem.endConcurrent();

    const bool WedgeFired = Sync.Wedged.load(std::memory_order_relaxed);
    if (WedgeFired && CP.armed()) {
      // Watchdog recovery: the frontier wedged, every worker has drained.
      // Abandon the whole attempt — no merge, no trap transfer — roll the
      // world back to the pre-invocation checkpoint and re-run the
      // invocation on the simulated serial-order path, which cannot wedge.
      // Worker frames must go first: they carry post-checkpoint generations
      // the rollback would otherwise reclaim behind releaseUntracked's back.
      for (WorkerCtx &W : Workers)
        Mem.releaseUntracked(W.FrameBase);
      CP.rollback();
      // runForLoop counted this invocation threaded before the checkpoint.
      uint64_t *Paths = Loops[I.LoopId].Paths;
      --Paths[static_cast<unsigned>(ThreadedPath::Threaded)];
      ++Paths[static_cast<unsigned>(ThreadedPath::WatchdogRerun)];
      noteDegradation(
          I.LoopId, /*Watchdog=*/true,
          formatString("DOACROSS watchdog fired (no lane progress within "
                       "%llu ms); re-running the invocation on the "
                       "simulated serial-order path",
                       static_cast<unsigned long long>(WatchdogMs)));
      // The re-run sets the guard shadow up afresh from the rolled-back
      // heap (beginParallel), so a guarded invocation is re-validated.
      return runForParallel(I);
    }

    //===------------------------------------------------------------------===//
    // Deterministic post-join merge, in serial iteration order.
    //===------------------------------------------------------------------===//

    for (uint64_t It = 0; It != Total; ++It)
      if (Recs[It].Ran && Recs[It].FL == Flow::Halt) {
        AbnIt = It;
        break;
      }

    // Virtual timeline replay: identical arithmetic, fed in iteration order,
    // and it names each iteration's virtual thread. The faulting iteration
    // (when one exists) is dispatched but not completed — exactly where the
    // simulated path breaks out of its iteration loop; every iteration below
    // it ran (see AbortIt).
    for (uint64_t It = 0; It != Total; ++It) {
      IterRec &R = Recs[It];
      R.VThread = R.Worker;
      if (!R.Ran || It > AbnIt)
        continue;
      R.VThread = TL.dispatch(It);
      if (It == AbnIt)
        continue;
      const std::vector<OrderedEvent> &Ev =
          Workers[R.Worker].WS->OrderedEvents;
      TL.completeIter(R.VThread, R.W, Ev.data() + R.EvBegin,
                      R.EvEnd - R.EvBegin);
    }

    // Work cycles and output, in iteration order (through the faulting
    // iteration when one exists — later iterations other workers may have
    // executed are dropped, per the trap-run license).
    for (uint64_t It = 0; It != Total && It <= AbnIt; ++It) {
      const IterRec &R = Recs[It];
      if (!R.Ran)
        continue;
      Cycles += R.W;
      Output.append(Workers[R.Worker].WS->Output, R.OutBegin,
                    R.OutEnd - R.OutBegin);
    }

    // Peak-memory replay: re-run the per-iteration allocation deltas in
    // serial iteration order, reconstructing the exact high-water mark the
    // simulated execution would have recorded.
    int64_t Running = static_cast<int64_t>(MemStart);
    for (uint64_t It = 0; It != Total && It <= AbnIt; ++It) {
      if (!Recs[It].Ran)
        continue;
      int64_t IterPeak = Running + Recs[It].MemMaxPrefix;
      if (IterPeak > 0)
        Mem.notePeak(static_cast<uint64_t>(IterPeak));
      Running += Recs[It].MemNet;
    }

    // Frame merge: apply each worker's frame byte-diff against the shared
    // snapshot, in ascending order of last-started iteration, so the byte a
    // serially-later iteration wrote wins — exactly serial last-writer
    // semantics for DOALL (chunks are iteration-ordered).
    std::vector<unsigned> Order(NumWorkers);
    std::iota(Order.begin(), Order.end(), 0u);
    std::stable_sort(Order.begin(), Order.end(), [&](unsigned A, unsigned C) {
      uint64_t LA = Workers[A].LastIter, LC = Workers[C].LastIter;
      return (LA + 1) < (LC + 1); // UINT64_MAX (never ran) sorts first
    });
    uint8_t *MainFrame = reinterpret_cast<uint8_t *>(Host.FrameBase);
    for (unsigned T : Order) {
      const uint8_t *WF =
          reinterpret_cast<const uint8_t *>(Workers[T].FrameBase);
      for (uint64_t I = 0; I != Host.FrameSize; ++I)
        if (WF[I] != FrameSnap[I])
          MainFrame[I] = WF[I];
    }

    // Nested-loop and guard counters: every LoopStats field a worker touched
    // is additive; fold in merge order for determinism.
    for (unsigned T : Order) {
      for (const auto &[Id, S] : Workers[T].WS->Loops) {
        if (!S.Invocations && !S.GuardChecks && !S.GuardViolations &&
            !S.GuardFallbacks)
          continue; // set up before the start and never touched
        LoopStats &D = Loops[Id];
        if (D.Kind == ParallelKind::None)
          D.Kind = S.Kind;
        D.Invocations += S.Invocations;
        D.Iterations += S.Iterations;
        D.WorkCycles += S.WorkCycles;
        D.SimTime += S.SimTime;
        D.GuardedInvocations += S.GuardedInvocations;
        D.GuardChecks += S.GuardChecks;
        D.GuardViolations += S.GuardViolations;
        D.GuardFallbacks += S.GuardFallbacks;
        D.Degradations += S.Degradations;
        D.WatchdogFires += S.WatchdogFires;
      }
    }

    if (I.GP) {
      // Guard-shadow merge. A region survives only if no worker freed its
      // block mid-loop (guardFree drops it from that worker's copy); for
      // survivors, each byte takes the stamp of the latest-iteration writer
      // across workers — each iteration ran on exactly one worker, so that
      // is exactly the serial first-write shadow's final state. The stamp's
      // thread becomes the writer's virtual thread, which is what a watch
      // byte armed from it reports.
      std::vector<GuardRegion> Survivors;
      for (GuardRegion &R : GuardRegions) {
        std::vector<const GuardRegion *> Copies;
        for (unsigned T = 0; T != NumWorkers; ++T) {
          const std::vector<GuardRegion> &WR = Workers[T].WS->GuardRegions;
          auto C = std::find_if(
              WR.begin(), WR.end(),
              [&](const GuardRegion &G) { return G.Base == R.Base; });
          if (C == WR.end())
            break;
          Copies.push_back(&*C);
        }
        if (Copies.size() != NumWorkers)
          continue;
        // Commutative regions carry no shadow: workers logged any foreign
        // touches directly, so only the violation-log merge below applies.
        if (!R.Commutative) {
          for (uint64_t Pos = 0; Pos != R.Size; ++Pos) {
            const GuardRegion *BestR = nullptr;
            for (const GuardRegion *C : Copies) {
              uint32_t WI = C->WriteIter[Pos];
              if (WI == UINT32_MAX)
                continue;
              if (!BestR || WI >= BestR->WriteIter[Pos])
                BestR = C;
            }
            if (!BestR)
              continue;
            uint32_t WI = BestR->WriteIter[Pos];
            R.WriteIter[Pos] = WI;
            R.WriteTid[Pos] = static_cast<int8_t>(Recs[WI].VThread);
            R.WriteClass[Pos] = BestR->WriteClass[Pos];
          }
          for (const GuardRegion *C : Copies) {
            R.PrivMin = std::min(R.PrivMin, C->PrivMin);
            R.PrivMax = std::max(R.PrivMax, C->PrivMax);
          }
        }
        Survivors.push_back(std::move(R));
      }
      GuardRegions = std::move(Survivors);
      GuardRegionHit = -1;
    }

    // Violation replay, in serial iteration order through the faulting
    // iteration. Workers already deduplicated their in-loop violations per
    // (loop, class, kind); those entries fold through the serial recorder
    // in first-occurrence order, renamed to the virtual thread, so the
    // surviving attribution matches what a serial scan would have kept and
    // each genuinely new entry is reported once. The accesses workers logged
    // against an armed watch replay through the serial watch hooks, by
    // iteration and then in each worker's program order: exactly the loads
    // the serial guardWatchLoad reports, in the same order, with each byte
    // erased at its first store or free. Within one iteration, in-loop
    // first occurrences go before watch hits.
    std::vector<DependenceViolation> InLoop;
    std::vector<WatchAccess> Watched;
    for (WorkerCtx &W : Workers) {
      for (const DependenceViolation &V : W.WS->GuardViolationLog)
        if (V.Iteration <= AbnIt)
          InLoop.push_back(V);
      for (const WatchAccess &A : W.WS->WatchLog)
        if (A.Iter <= AbnIt)
          Watched.push_back(A);
    }
    std::stable_sort(InLoop.begin(), InLoop.end(),
                     [](const DependenceViolation &A,
                        const DependenceViolation &C) {
                       return A.Iteration < C.Iteration;
                     });
    std::stable_sort(Watched.begin(), Watched.end(),
                     [](const WatchAccess &A, const WatchAccess &C) {
                       return A.Iter < C.Iter;
                     });
    size_t NextV = 0;
    auto logInLoopThrough = [&](uint64_t It) {
      for (; NextV != InLoop.size() && InLoop[NextV].Iteration <= It;
           ++NextV) {
        DependenceViolation &V = InLoop[NextV];
        V.Thread = static_cast<int>(Recs[V.Iteration].VThread);
        logViolation(V);
      }
    };
    for (const WatchAccess &A : Watched) {
      logInLoopThrough(A.Iter);
      if (A.IsStore)
        guardWatchStore(A.Addr, A.Size);
      else
        guardWatchLoad(A.Addr, A.Size);
    }
    logInLoopThrough(UINT64_MAX);

    // Trap/halt transfer: the lowest faulting iteration wins. Its worker
    // already attributed the loop and iteration; the thread becomes the
    // iteration's virtual thread, as the simulated path names it.
    if (AbnIt != UINT64_MAX) {
      Result = Flow::Halt;
      ThreadState &WS = *Workers[Recs[AbnIt].Worker].WS;
      if (WS.Trapped && !Trapped) {
        Trapped = true;
        TrapMessage = WS.TrapMessage;
        TrapLoopId = WS.TrapLoopId;
        TrapIteration = WS.TrapIteration;
        TrapThread = WS.TrapThread;
        setTrapThread(static_cast<int>(Recs[AbnIt].VThread));
      }
      if (WS.Halted) {
        Halted = true;
        ExitCode = WS.ExitCode;
      }
      if (!Trapped && !Halted)
        Halted = true; // defensive: a faulting iteration must end the run
    }

    // A wedge without a recovery checkpoint (the arena was already
    // speculating) ends the run with the worker's attributed watchdog trap
    // transferred above.
    if (WedgeFired)
      ++Loops[I.LoopId].WatchdogFires;

    for (WorkerCtx &W : Workers)
      Mem.releaseUntracked(W.FrameBase);
  }

  // The attempt stands (clean, or a real program trap/halt/budget breach):
  // keep its state and drop the recovery checkpoint.
  CP.commit();
  return endParallel(I, TL, Result);
}
