//===- ExecState.h - Per-thread state and shared semantics ------*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-thread half of the execution-state split (the shared half is
/// ProgramContext.h). Everything the execution engines (the tree-walking
/// reference interpreter and the register-bytecode VM) must agree on lives
/// here: the runtime value representation, memory/trap/cycle accounting,
/// builtin semantics, the runtime-privatization runtime, loop bookkeeping,
/// and — most importantly — the counted-loop driver. The engines differ only
/// in how they evaluate straight-line code; every observable effect
/// (observer callbacks, cycle charges at loop/region boundaries, allocation
/// order, trap messages) funnels through this one implementation, which is
/// what makes the engines bit-identical.
///
/// A parallel loop invocation has one skeleton and two runners. The
/// skeleton (runForLoop, beginParallel, endParallel) looks up the loop's
/// guard plan once, decides the path, evaluates the bounds and trip count,
/// sets up and commits the guard shadow, and folds the virtual timeline into
/// the loop's stats and the program's simulated time. Between prologue and
/// epilogue, runForParallel (ExecState.cpp) runs the iterations inline in
/// serial order, dispatching each to its virtual thread through
/// ParallelTimeline; runForThreaded (ThreadedLoop.cpp) runs them on host
/// workers and replays their recorded work through the same timeline after
/// the join. Both recovery paths — a Fallback-mode guard trip and a DOACROSS
/// watchdog wedge — roll back through one InvocationCheckpoint.
///
/// A ThreadState is one virtual hardware thread: it owns its cycle counter,
/// frame/output/trap state, ordered-event buffer, and guard-shadow shard,
/// and references the ProgramContext everything else hangs off. The main
/// thread's ThreadState lives for the whole run; worker ThreadStates are
/// created per host-threaded loop invocation and merged back
/// deterministically at the join (ThreadedLoop.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef GDSE_INTERP_EXECSTATE_H
#define GDSE_INTERP_EXECSTATE_H

#include "interp/Interp.h"
#include "interp/ProgramContext.h"
#include "ir/IR.h"
#include "support/FunctionRef.h"

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace gdse {

/// A scalar or pointer runtime value. The engines know from the static type
/// (tree) or the instruction's ScalarKind (bytecode) which member is
/// meaningful.
struct VMValue {
  int64_t I = 0;
  double F = 0.0;

  static VMValue ofInt(int64_t V) {
    VMValue R;
    R.I = V;
    return R;
  }
  static VMValue ofFloat(double V) {
    VMValue R;
    R.F = V;
    return R;
  }
};

/// Statement-level control flow.
enum class Flow : uint8_t { Normal, Break, Continue, Return, Halt };

/// One ordered-region entry/exit observed during an iteration, as work-cycle
/// offsets from the iteration start.
struct OrderedEvent {
  unsigned RegionId = 0;
  uint64_t EntryOff = 0;
  uint64_t ExitOff = 0;
};

/// How a scalar is encoded in VM memory. The bytecode pre-resolves types to
/// this enum at lowering time; the tree-walker maps Type* to it per access.
enum class ScalarKind : uint8_t {
  I8,
  I16,
  I32,
  I64,
  U8,
  U16,
  U32,
  U64,
  F32,
  F64,
  Ptr,
  Invalid ///< aggregate — not loadable/storable as a scalar
};

/// Maps a type to its memory encoding (Invalid for aggregates).
ScalarKind scalarKindOf(const Type *T);

inline unsigned scalarSize(ScalarKind K) {
  switch (K) {
  case ScalarKind::I8:
  case ScalarKind::U8:
    return 1;
  case ScalarKind::I16:
  case ScalarKind::U16:
    return 2;
  case ScalarKind::I32:
  case ScalarKind::U32:
  case ScalarKind::F32:
    return 4;
  default:
    return 8;
  }
}

struct ThreadState;
struct DoacrossSync;
struct ParallelTimeline;

/// How an engine hands the host-threaded loop runner the means to execute
/// body iterations on worker ThreadStates. Supplied by the bytecode engine's
/// ForLoop handler for parallel loops only (the tree-walker never threads;
/// it stays the pure serial reference). FrameBase/FrameSize describe the
/// enclosing function frame so the runner can give each worker a private
/// copy; MakeWorker is called once per worker, on the calling thread, with
/// the worker's ThreadState and its frame copy's base, and returns the thunk
/// that runs one iteration's body segment.
struct ThreadLoopHooks {
  uint64_t FrameBase = 0;
  uint64_t FrameSize = 0;
  /// False when the induction variable lives in a global (workers would race
  /// on its slot): not eligible for host threading.
  bool IVInFrame = true;
  FunctionRef<std::function<Flow()>(ThreadState &WS, uint64_t WorkerFrame)>
      MakeWorker;
};

/// The mutable machine state of one virtual thread plus the semantics both
/// engines share. The tree-walker's evaluator and the bytecode VM both
/// operate on this; any behavior implemented here is bit-identical across
/// engines by construction.
struct ThreadState {
  ProgramContext &P;

  // Aliases into the shared context, kept under their historical names so
  // engine code reads the same before and after the split.
  Module &M;
  TypeContext &Ctx;
  const InterpOptions &Opts;
  VMMemory &Mem;

  InterpObserver *Obs = nullptr;

  uint64_t Cycles = 0;    ///< pure work cycles
  int64_t TimeAdjust = 0; ///< SimTime - work inside parallel loops (signed)
  int CurTid = 0;
  bool InParallelLoop = false;

  /// Deadline-poll decimation counter (see checkBudget); per-thread, so
  /// workers poll independently without sharing a cache line.
  uint32_t BudgetPolls = 0;
  /// Constructor-time constant: a wall-clock deadline is configured for this
  /// run (Opts.Resilience.Budget.DeadlineMs != 0).
  const bool DeadlineArmed;

  bool Trapped = false;
  bool Halted = false;
  std::string TrapMessage;
  /// Structured trap context (satellite of the guard work): filled when the
  /// trap fired inside a counted loop, -1/-1/-1 otherwise.
  int64_t TrapLoopId = -1;
  int64_t TrapIteration = -1;
  int TrapThread = -1;
  int64_t ExitCode = 0;
  VMValue ReturnValue;
  std::string Output;
  unsigned CallDepth = 0;

  /// Innermost-first stack of active counted loops, for trap attribution.
  /// Maintained by the loop drivers around their iteration loops.
  struct LoopCtx {
    unsigned LoopId = 0;
    uint64_t Iter = 0;
  };
  std::vector<LoopCtx> LoopCtxStack;

  std::map<unsigned, LoopStats> Loops;

  // Ordered-region event recording (active during DOACROSS simulation and in
  // DOACROSS worker threads).
  bool RecordOrdered = false;
  uint64_t IterStartCycles = 0;
  std::vector<OrderedEvent> OrderedEvents;

  /// Real cross-iteration synchronization for ordered regions, non-null only
  /// on worker ThreadStates inside a host-threaded DOACROSS loop. The
  /// engines call orderedRealEnter() on region entry when set.
  DoacrossSync *DX = nullptr;
  /// The iteration this worker is currently executing (ticket number).
  uint64_t DXIter = 0;

  // Runtime privatization (SpiceC-style baseline).
  std::map<std::pair<int, uint64_t>, uint64_t> RtShadow;
  uint64_t RtPrivTranslations = 0;
  uint64_t RtPrivBytesCopied = 0;

  //===------------------------------------------------------------------===//
  // Guarded execution state (see Guard.h)
  //===------------------------------------------------------------------===//

  /// One expanded structure under guard during a parallel invocation: a live
  /// allocation from a plan's RegionSites, with a per-byte first-write
  /// shadow (LRPD-style). WriteIter uses UINT32_MAX as "never written this
  /// invocation"; WriteClass is -1 for writes outside any private class.
  /// Under host threading each worker gets its own GuardRegion copies (the
  /// per-thread first-write logs); the join merges them byte-wise,
  /// latest-iteration-wins, back into the main ThreadState's regions before
  /// the ordinary commit scan runs.
  struct GuardRegion {
    uint64_t Base = 0;
    uint64_t Size = 0;
    uint64_t Span = 0; ///< bytes per thread copy (Size / NumThreads)
    uint32_t SiteId = 0;
    std::vector<uint32_t> WriteIter;
    std::vector<int8_t> WriteTid;
    std::vector<int32_t> WriteClass;
    /// Window of offsets written into copies > 0, bounding the commit scan.
    uint64_t PrivMin = UINT64_MAX;
    uint64_t PrivMax = 0;
    /// Commit-time-merge mode (the backing of a proven-commutative class):
    /// the shadow vectors stay empty — carried flow through the copies is
    /// licensed by the commutativity proof and reconciled by the generated
    /// merge IR. The region is instead watched for accesses from outside
    /// the class (NonCommutativeTouch) and for members escaping their span.
    bool Commutative = false;
    unsigned CommClass = 0;
  };
  std::vector<GuardRegion> GuardRegions;
  /// Some active region is in commit-time-merge mode: unclaimed accesses
  /// must be screened against commutative regions too (they are otherwise
  /// ignored by guardLoad, and guardStore must not stamp a missing shadow).
  bool GuardHasComm = false;

  bool GuardActive = false;  ///< inside a guarded parallel invocation
  /// An in-loop violation in this Fallback invocation (set by
  /// guardViolation): the attempt rolls back at the iteration boundary.
  bool GuardTripped = false;
  bool GuardHooksOn = false; ///< GuardActive || a watch is armed
  unsigned GuardLoop = 0;    ///< loop id of the active guarded invocation
  /// Loops[GuardLoop], where each claimed access counts its check; valid
  /// while GuardActive.
  LoopStats *GuardStats = nullptr;
  uint64_t GuardIter = 0;    ///< current iteration, for shadow stamps
  /// Set on worker ThreadStates: violations are logged but not reported to
  /// the diagnostic engine (the join reports merged entries once, in
  /// iteration order, exactly as a serial run would).
  bool SuppressGuardDiags = false;
  std::vector<DependenceViolation> GuardViolationLog;

  /// Post-loop watch for output-dependence misclassifications: copy-0 bytes
  /// whose serially-final value was left in a discarded thread copy at
  /// commit. A later load of such a byte (before any store) is a
  /// DownwardsExposedStore violation; in fallback mode the watch values are
  /// patched in (LRPD last-value copy-out) so execution continues with the
  /// serial program's data.
  struct GuardWatchByte {
    uint8_t Value = 0; ///< the serially-final value of this byte
    unsigned LoopId = 0;
    unsigned Class = 0;
    uint64_t Iter = 0;
    int Tid = 0;
  };
  std::map<uint64_t, GuardWatchByte> GuardWatch;

  /// Set on worker ThreadStates while a Check-mode watch is armed: the
  /// addresses the main thread's watch held when the loop started, sorted
  /// and shared read-only. A worker marks the ones its own stores and frees
  /// erase (WatchErased is its own) and logs, in program order, each access
  /// that still touches one: every load or store the serial watch hooks
  /// could report or erase with, since a byte this worker erased stays
  /// erased for all of its later iterations in serial order too. The join
  /// replays the logs in serial iteration order through guardWatchLoad and
  /// guardWatchStore on the main thread (ThreadedLoop.cpp).
  const std::vector<uint64_t> *WatchAddrs = nullptr;
  std::vector<uint8_t> WatchErased;
  struct WatchAccess {
    uint64_t Iter = 0;
    uint64_t Addr = 0;
    uint64_t Size = 0;
    bool IsStore = false; ///< a store, bulk write or free
  };
  std::vector<WatchAccess> WatchLog;

  //===------------------------------------------------------------------===//
  // Guarded execution API
  //===------------------------------------------------------------------===//

  /// Fast-path hooks: the engines call these on every scalar/aggregate
  /// access, but only when GuardHooksOn — which is permanently false in
  /// GuardMode::Off, so the unguarded cost is one predictable branch. Most
  /// accesses under a guard are ones no plan claims, outside every guarded
  /// region and watched byte: those are settled here, inline. The guard
  /// charges no cycles and emits no observer events in any mode.
  void guardLoad(uint32_t Id, uint64_t Addr, uint64_t Size) {
    if ((GuardActive && ((GuardHasComm && mayTouchRegions(Addr)) ||
                         guardAccess(Id))) ||
        mayTouchWatch(Addr, Size))
      guardLoadChecked(Id, Addr, Size);
  }
  void guardStore(uint32_t Id, uint64_t Addr, uint64_t Size) {
    if ((GuardActive && (mayTouchRegions(Addr) || guardAccess(Id))) ||
        mayTouchWatch(Addr, Size))
      guardStoreChecked(Id, Addr, Size);
  }
  /// Bulk effects (memcpy/memset/realloc) and frees, from execBuiltinOp.
  void guardBulkRead(uint64_t Addr, uint64_t Size);
  void guardBulkWrite(uint64_t Addr, uint64_t Size);
  void guardFree(uint64_t Base, uint64_t Size);

  explicit ThreadState(ProgramContext &P);
  ThreadState(const ThreadState &) = delete;
  ThreadState &operator=(const ThreadState &) = delete;
  ~ThreadState();

  //===------------------------------------------------------------------===//
  // Diagnostics and cycle accounting
  //===------------------------------------------------------------------===//

  /// Records the first trap. Traps raised inside a counted loop carry the
  /// innermost loop id, iteration, and thread — appended to the message and
  /// exposed structurally via TrapLoopId/TrapIteration/TrapThread
  /// (implemented in ExecState.cpp).
  void trap(const std::string &Msg);

  bool dead() const { return Trapped || Halted; }

  void charge(uint64_t C) { Cycles += C; }

  /// The per-iteration budget gate: the budget's cycle cap (exact, checked
  /// every call) and the wall-clock deadline (polled every 64th call — the
  /// clock read is the expensive part, and a deadline is approximate by
  /// nature). Traps and returns false on breach. DeadlineArmed is a
  /// constructor-time constant, so with no deadline configured the extra
  /// cost is one predictable branch.
  bool checkBudget() {
    const uint64_t MaxCycles = Opts.Resilience.Budget.MaxCycles;
    if (MaxCycles && Cycles > MaxCycles) {
      trap("cycle budget exceeded (runaway loop?)");
      return false;
    }
    if (DeadlineArmed && (++BudgetPolls & 63) == 0 && deadlineExpired())
      return false;
    return true;
  }

  /// True — after recording the attributed trap — when the run's armed
  /// wall-clock deadline has passed. Callers on allocation boundaries use
  /// this directly (no cycle-cap interaction there).
  bool deadlineExpired();

  /// True when the injection point \p Pt should fire now (no injector or no
  /// armed rule = never).
  bool injectFault(FaultInjector::Point Pt) {
    FaultInjector *FI = Opts.Resilience.Faults.get();
    return FI && FI->shouldFire(Pt);
  }

  /// Records one degradation hop of loop \p LoopId onto the simulated
  /// serial-order path: per-loop counters plus a structured warning through
  /// Opts.Resilience.Diags (pass "resilience").
  void noteDegradation(unsigned LoopId, bool Watchdog, const std::string &Why);

  //===------------------------------------------------------------------===//
  // Addressing and raw memory
  //===------------------------------------------------------------------===//

  /// Base address of global \p D; traps (and returns 0) when unallocated.
  uint64_t globalAddr(const VarDecl *D) {
    uint64_t Addr = D->getId() < P.GlobalAddrById.size()
                        ? P.GlobalAddrById[D->getId()]
                        : 0;
    if (!Addr)
      trap("reference to unallocated global '" + D->getName() + "'");
    return Addr;
  }

  bool checkAccess(uint64_t Addr, uint64_t Size, const char *What);

  static int64_t normalizeInt(int64_t V, unsigned Bits, bool Signed) {
    if (Bits == 64)
      return V;
    uint64_t Mask = (uint64_t(1) << Bits) - 1;
    uint64_t U = static_cast<uint64_t>(V) & Mask;
    if (Signed && (U >> (Bits - 1)))
      U |= ~Mask;
    return static_cast<int64_t>(U);
  }
  static int64_t normalizeInt(int64_t V, const IntType *T) {
    return normalizeInt(V, T->getBits(), T->isSigned());
  }

  VMValue loadScalarKind(uint64_t Addr, ScalarKind K);
  void storeScalarKind(uint64_t Addr, ScalarKind K, VMValue V);

  /// Type-directed wrappers; trap on aggregate types.
  VMValue loadScalar(uint64_t Addr, Type *T);
  void storeScalar(uint64_t Addr, Type *T, VMValue V);

  bool isRegisterAccess(const Expr *Loc) const;

  //===------------------------------------------------------------------===//
  // Builtins and the runtime-privatization runtime
  //===------------------------------------------------------------------===//

  /// Executes builtin \p B on already-evaluated arguments. Both engines
  /// evaluate arguments first (in index order), then call this; the one
  /// exception is sqrt's extra DivRem charge, which the caller applies
  /// *before* argument evaluation to preserve the historical charge order.
  VMValue execBuiltinOp(Builtin B, uint32_t SiteId, const VMValue *Args,
                        unsigned NumArgs);

  VMValue rtPrivTranslate(uint64_t P);
  void rtPrivCommitAll();

  //===------------------------------------------------------------------===//
  // Loop bookkeeping (while loops and ordered regions)
  //===------------------------------------------------------------------===//

  struct ActiveLoop {
    unsigned Id = 0;
    uint64_t Before = 0;
    uint64_t Iter = 0;
  };

  /// While-loop entry: invocation count, cycle watermark, observer.
  ActiveLoop loopEnter(unsigned Id) {
    LoopStats &LS = Loops[Id];
    ++LS.Invocations;
    ActiveLoop L;
    L.Id = Id;
    L.Before = Cycles;
    if (Obs)
      Obs->onLoopEnter(Id);
    return L;
  }

  /// Fires once per iteration, after the condition held.
  void loopIterNote(ActiveLoop &L) {
    if (Obs)
      Obs->onLoopIter(L.Id, L.Iter);
    ++L.Iter;
  }

  /// While-loop exit bookkeeping; must run on every exit path.
  void loopExit(const ActiveLoop &L) {
    if (Obs)
      Obs->onLoopExit(L.Id);
    LoopStats &LS = Loops[L.Id];
    LS.Iterations += L.Iter;
    LS.WorkCycles += Cycles - L.Before;
    LS.SimTime += Cycles - L.Before;
  }

  /// Ordered-region entry under real DOACROSS threading: blocks until this
  /// worker's iteration holds the region's ticket (ThreadedLoop.cpp). Called
  /// by the engines when DX is set; charges nothing (the OrderedEnter charge
  /// is the engine's, exactly as in the simulated path).
  void orderedRealEnter(unsigned RegionId);

  //===------------------------------------------------------------------===//
  // Counted loops: serial semantics and the multicore timeline
  //===------------------------------------------------------------------===//

  struct ForBounds {
    uint64_t IVAddr = 0;
    int64_t Lo = 0;
    int64_t Hi = 0;
    int64_t Step = 0;
  };

  using BoundsFn = FunctionRef<void(ForBounds &)>;
  using BodyFn = FunctionRef<Flow()>;

  /// Runs one `for` statement. \p EvalBounds resolves the induction
  /// variable's address and evaluates init/limit/step (in that order, with
  /// whatever charges the evaluation incurs); \p Body executes one iteration
  /// and reports its control flow. Both are non-owning references, so a
  /// loop costs no host allocation. The driver implements the serial
  /// iteration protocol and the DOALL/DOACROSS virtual-multicore timeline
  /// exactly once for both engines. Returns Normal (also for break),
  /// Return, or Halt.
  ///
  /// \p Host, when non-null, offers real host-threaded execution of the
  /// loop (Threads engine). The driver still decides per invocation and
  /// counts the decision in LoopStats::Paths: ineligible loops (see
  /// ThreadedPath) take the serial-order simulated path, which is
  /// bit-identical by construction.
  Flow runForLoop(unsigned LoopId, ParallelKind Kind, Type *IVType,
                  BoundsFn EvalBounds, BodyFn Body,
                  const ThreadLoopHooks *Host = nullptr);

  //===------------------------------------------------------------------===//
  // Run scaffolding
  //===------------------------------------------------------------------===//

  /// Resets per-run state and (re)allocates zeroed globals.
  void resetRun();

private:
  friend class InvocationCheckpoint;

  /// One parallel invocation as both runners see it: the loop, its guard
  /// plan, and — once beginParallel has run — its bounds, trip count and
  /// the cycle count before the bounds were evaluated.
  struct ParallelInvocation {
    unsigned LoopId;
    ParallelKind Kind;
    Type *IVType;
    BoundsFn EvalBounds;
    BodyFn Body;
    unsigned N; ///< virtual threads
    /// Null when unguarded, or when none of the plan's regions is live.
    const GuardPlan *GP;
    ForBounds B = {};
    uint64_t Total = 0;
    uint64_t Before = 0;
  };

  Flow runForSerial(unsigned LoopId, ParallelKind Kind, Type *IVType,
                    BoundsFn EvalBounds, BodyFn Body);
  /// The simulated runner: iterations in serial order, each dispatched to
  /// its virtual thread on the timeline.
  Flow runForParallel(ParallelInvocation I);
  /// The real host-threaded runner (ThreadedLoop.cpp). Bit-identical virtual
  /// metrics to runForParallel on every eligible loop; a wedged DOACROSS
  /// attempt rolls back and re-runs through runForParallel. \p Pool is the
  /// already-materialized worker pool (runForLoop resolved it; a null pool
  /// degrades before ever reaching here).
  Flow runForThreaded(ParallelInvocation I, const ThreadLoopHooks &Host,
                      ThreadPool &Pool);
  /// ThreadedPath::Threaded when this invocation can run on real host
  /// threads, otherwise the first reason it cannot (never PoolUnavailable:
  /// runForLoop learns that only when it asks for the pool).
  ThreadedPath threadedEligible(const ParallelInvocation &I,
                                const ThreadLoopHooks *Host) const;
  /// The shared prologue: loop stats, bounds, the step trap, the trip count,
  /// the observer's loop entry, and the guard shadow (clearing I.GP when no
  /// region is live). False when the invocation must end with Flow::Halt.
  bool beginParallel(ParallelInvocation &I);
  /// The shared epilogue: guard commit, rtpriv commit, the observer's loop
  /// exit, and the timeline folded into the loop's stats and TimeAdjust.
  Flow endParallel(const ParallelInvocation &I, const ParallelTimeline &TL,
                   Flow Result);

  /// Re-attributes a trap raised inside a counted loop to thread \p Tid, in
  /// TrapThread and in the message.
  void setTrapThread(int Tid);

  // Guarded-execution internals (ExecState.cpp). ThreadedLoop.cpp reuses
  // guardCommit, logViolation and the watch hooks.
  void guardLoadChecked(uint32_t Id, uint64_t Addr, uint64_t Size);
  void guardStoreChecked(uint32_t Id, uint64_t Addr, uint64_t Size);
  GuardRegion *guardRegionContaining(uint64_t Addr);
  void guardSetupRegions(const GuardPlan *GP, unsigned NumThreads);
  void guardTeardownRegions();
  /// Arms the post-loop watch from the shadow, then drops the shadow.
  void guardCommit(const GuardPlan *GP, unsigned NumThreads);
  /// A read / a write or free of [Addr, Addr + Size) under an armed watch:
  /// the main thread reports or erases watched bytes, a worker logs the
  /// access when it touches a byte of WatchAddrs it has not erased.
  void guardWatchLoad(uint64_t Addr, uint64_t Size);
  void guardWatchStore(uint64_t Addr, uint64_t Size);
  void logWatchAccess(uint64_t Addr, uint64_t Size, bool IsStore);
  /// The one violation recorder: counts the occurrence, trips a Fallback
  /// attempt on an in-loop violation, and logs it.
  void guardViolation(ViolationKind K, unsigned LoopId, unsigned Class,
                      uint64_t Iter, int Tid, uint64_t Addr, uint32_t Access);
  /// An in-loop violation of the active invocation's current iteration.
  void guardViolation(ViolationKind K, unsigned Class, uint64_t Addr,
                      uint32_t Access) {
    guardViolation(K, GuardLoop, Class, GuardIter, CurTid, Addr, Access);
  }
  /// De-duplicates \p V into GuardViolationLog by (loop, class, kind) and
  /// reports a new entry once (unless SuppressGuardDiags).
  void logViolation(const DependenceViolation &V);
  /// The claim the active guarded loop's plan makes on access \p Id, or null.
  const ProgramContext::GuardAccess *guardAccess(uint32_t Id) const {
    if (Id >= P.GuardAccessById.size())
      return nullptr;
    const ProgramContext::GuardAccess &GA = P.GuardAccessById[Id];
    return GA.LoopId == GuardLoop ? &GA : nullptr;
  }
  /// True when [Addr, Addr + Size) leaves this thread's copy of \p R.
  bool escapesSpan(const GuardRegion &R, uint64_t Addr, uint64_t Size) const {
    uint64_t Lo = R.Base + static_cast<uint64_t>(CurTid) * R.Span;
    uint64_t Last = Size ? Size - 1 : 0;
    return Addr - Lo >= R.Span || Addr + Last - Lo >= R.Span;
  }
  /// False when \p Addr is outside the guarded regions' address bounds (a
  /// region is found by the address an access starts at).
  bool mayTouchRegions(uint64_t Addr) const {
    return Addr - GuardLo < GuardHi - GuardLo;
  }
  /// False when [Addr, Addr + Size) is outside the watch's address bounds.
  bool mayTouchWatch(uint64_t Addr, uint64_t Size) const {
    return Addr <= WatchHi && Addr + Size > WatchLo;
  }
  /// Re-derives GuardHooksOn and the watch bounds; called after every change
  /// to GuardActive or the watch.
  void updateGuardHooks();
  /// Address bounds of the guarded regions, [GuardLo, GuardHi), and of the
  /// watched bytes, [WatchLo, WatchHi] (empty: WatchLo > WatchHi).
  uint64_t GuardLo = 0, GuardHi = 0;
  uint64_t WatchLo = UINT64_MAX, WatchHi = 0;
  /// Index into GuardRegions answered last (clustered accesses), or -1.
  int GuardRegionHit = -1;
};

/// The one rollback point of a parallel invocation, serving both recovery
/// paths: a Fallback-mode guard trip (re-run serially) and a DOACROSS
/// watchdog wedge (re-run on the simulated path). arm() snapshots VM memory
/// (VMMemory speculation) and every run field an invocation can change;
/// rollback() restores that pre-invocation world exactly, with no trap and
/// no guard shadow; commit() keeps the current state. A checkpoint still
/// armed when it goes out of scope commits.
class InvocationCheckpoint {
public:
  explicit InvocationCheckpoint(ThreadState &S) : S(S) {}
  InvocationCheckpoint(const InvocationCheckpoint &) = delete;
  InvocationCheckpoint &operator=(const InvocationCheckpoint &) = delete;
  ~InvocationCheckpoint() { commit(); }

  /// Takes the checkpoint, unless VM memory is already speculating under an
  /// enclosing one; returns armed().
  bool arm();
  bool armed() const { return Armed; }
  void commit();
  void rollback();

private:
  ThreadState &S;
  bool Armed = false;
  uint64_t Cycles = 0;
  int64_t TimeAdjust = 0;
  std::string Output;
  std::map<unsigned, LoopStats> Loops;
  std::map<std::pair<int, uint64_t>, uint64_t> RtShadow;
  std::map<uint64_t, ThreadState::GuardWatchByte> GuardWatch;
  uint64_t RtPrivTranslations = 0;
  uint64_t RtPrivBytesCopied = 0;
  int64_t ExitCode = 0;
  VMValue ReturnValue;
  bool Halted = false;
};

} // namespace gdse

#endif // GDSE_INTERP_EXECSTATE_H
