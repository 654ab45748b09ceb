//===- ExecState.cpp - Per-thread state and shared semantics ---------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "interp/ExecState.h"

#include "interp/ParallelTimeline.h"
#include "ir/AccessInfo.h"
#include "support/Diagnostics.h"
#include "support/Support.h"

#include <algorithm>
#include <cmath>
#include <cstring>

using namespace gdse;

ThreadState::ThreadState(ProgramContext &P)
    : P(P), M(P.M), Ctx(P.Ctx), Opts(P.Opts), Mem(P.Mem),
      DeadlineArmed(P.Opts.Resilience.Budget.DeadlineMs != 0),
      BoundsCheck(P.Opts.BoundsCheck) {}

ThreadState::~ThreadState() = default;

bool ThreadState::deadlineExpired() {
  uint64_t D = P.DeadlineNs.load(std::memory_order_relaxed);
  if (!D || monotonicNowNs() < D)
    return false;
  trap(formatString("deadline of %llu ms exceeded",
                    static_cast<unsigned long long>(
                        Opts.Resilience.Budget.DeadlineMs)));
  return true;
}

void ThreadState::noteDegradation(unsigned LoopId, bool Watchdog,
                                  const std::string &Why) {
  LoopStats &LS = Loops[LoopId];
  ++LS.Degradations;
  if (Watchdog)
    ++LS.WatchdogFires;
  if (DiagnosticEngine *DE = Opts.Resilience.Diags) {
    // Watchdog fires are rare and each one matters; a dead pool degrades
    // every invocation, so only the loop's first hop is reported (the pool
    // failure itself was already reported once by loopPoolOrNull()).
    if (Watchdog || LS.Degradations == 1) {
      Diagnostic D;
      D.Severity = DiagSeverity::Warning;
      D.Pass = "resilience";
      D.LoopId = LoopId;
      D.Message = Why;
      DE->report(std::move(D));
    }
  }
}

namespace {

/// Shared heap-allocation wrapper: polls the wall-clock deadline (an
/// allocation boundary is a cancellation point on every engine), applies the
/// alloc-fail injection point, and converts registry failure (host OOM or
/// byte-budget breach) into an attributed out-of-memory trap. Returns 0 iff
/// the caller must bail out (a trap has been recorded).
uint64_t heapAllocOrTrap(ThreadState &S, uint64_t Size, uint32_t SiteId,
                         const char *What) {
  if (S.DeadlineArmed && S.deadlineExpired())
    return 0;
  uint64_t Base = 0;
  if (!S.injectFault(FaultInjector::Point::AllocFail))
    Base = S.Mem.allocate(Size, AllocKind::Heap, SiteId);
  if (!Base)
    S.trap(formatString("out of memory: %s of %llu bytes failed", What,
                        static_cast<unsigned long long>(Size)));
  return Base;
}

/// The attribution a trap inside a counted loop appends to its message.
std::string trapSuffix(int64_t LoopId, int64_t Iter, int Tid) {
  return formatString(" [loop %lld, iteration %lld, thread %d]",
                      static_cast<long long>(LoopId),
                      static_cast<long long>(Iter), Tid);
}

} // namespace

void ThreadState::trap(const std::string &Msg) {
  if (Trapped)
    return;
  Trapped = true;
  if (!LoopCtxStack.empty()) {
    const LoopCtx &C = LoopCtxStack.back();
    TrapLoopId = static_cast<int64_t>(C.LoopId);
    TrapIteration = static_cast<int64_t>(C.Iter);
    TrapThread = CurTid;
    TrapMessage = Msg + trapSuffix(TrapLoopId, TrapIteration, TrapThread);
  } else {
    TrapMessage = Msg;
  }
}

void ThreadState::setTrapThread(int Tid) {
  if (TrapLoopId < 0)
    return;
  std::string Old = trapSuffix(TrapLoopId, TrapIteration, TrapThread);
  TrapMessage.resize(TrapMessage.size() - Old.size());
  TrapThread = Tid;
  TrapMessage += trapSuffix(TrapLoopId, TrapIteration, TrapThread);
}

ScalarKind gdse::scalarKindOf(const Type *T) {
  switch (T->getKind()) {
  case Type::Kind::Int: {
    const auto *IT = cast<IntType>(T);
    switch (IT->getBits()) {
    case 8:
      return IT->isSigned() ? ScalarKind::I8 : ScalarKind::U8;
    case 16:
      return IT->isSigned() ? ScalarKind::I16 : ScalarKind::U16;
    case 32:
      return IT->isSigned() ? ScalarKind::I32 : ScalarKind::U32;
    default:
      return IT->isSigned() ? ScalarKind::I64 : ScalarKind::U64;
    }
  }
  case Type::Kind::Float:
    return cast<FloatType>(T)->getBits() == 32 ? ScalarKind::F32
                                               : ScalarKind::F64;
  case Type::Kind::Pointer:
    return ScalarKind::Ptr;
  default:
    return ScalarKind::Invalid;
  }
}

bool ThreadState::checkAccessSlow(uint64_t Addr, uint64_t Size,
                                  const char *What) {
  if (Addr == 0) {
    trap(formatString("null %s of %llu bytes", What,
                      static_cast<unsigned long long>(Size)));
    return false;
  }
  if (!Mem.inBounds(Addr, Size)) {
    trap(formatString("out-of-bounds %s of %llu bytes at 0x%llx", What,
                      static_cast<unsigned long long>(Size),
                      static_cast<unsigned long long>(Addr)));
    return false;
  }
  return true;
}

namespace {

// One fixed-size copy per scalar width. A constant-size memcpy becomes a
// plain (and sanitizer-instrumented) load or store; a variable-size one can
// be expanded inline after the thread sanitizer's pass, which leaves the
// access invisible to it.
template <typename T> T loadRaw(uint64_t Addr) {
  T V;
  std::memcpy(&V, reinterpret_cast<const void *>(Addr), sizeof(T));
  return V;
}

template <typename T> void storeRaw(uint64_t Addr, T V) {
  std::memcpy(reinterpret_cast<void *>(Addr), &V, sizeof(T));
}

} // namespace

VMValue ThreadState::loadScalarKind(uint64_t Addr, ScalarKind K) {
  switch (K) {
  case ScalarKind::I8:
    return VMValue::ofInt(loadRaw<int8_t>(Addr));
  case ScalarKind::I16:
    return VMValue::ofInt(loadRaw<int16_t>(Addr));
  case ScalarKind::I32:
    return VMValue::ofInt(loadRaw<int32_t>(Addr));
  case ScalarKind::U8:
    return VMValue::ofInt(loadRaw<uint8_t>(Addr));
  case ScalarKind::U16:
    return VMValue::ofInt(loadRaw<uint16_t>(Addr));
  case ScalarKind::U32:
    return VMValue::ofInt(loadRaw<uint32_t>(Addr));
  case ScalarKind::F32:
    return VMValue::ofFloat(loadRaw<float>(Addr));
  case ScalarKind::F64:
    return VMValue::ofFloat(loadRaw<double>(Addr));
  default: // I64, U64, Ptr
    return VMValue::ofInt(loadRaw<int64_t>(Addr));
  }
}

void ThreadState::storeScalarKind(uint64_t Addr, ScalarKind K, VMValue V) {
  switch (K) {
  case ScalarKind::I8:
  case ScalarKind::U8:
    return storeRaw(Addr, static_cast<uint8_t>(V.I));
  case ScalarKind::I16:
  case ScalarKind::U16:
    return storeRaw(Addr, static_cast<uint16_t>(V.I));
  case ScalarKind::I32:
  case ScalarKind::U32:
    return storeRaw(Addr, static_cast<uint32_t>(V.I));
  case ScalarKind::F32:
    return storeRaw(Addr, static_cast<float>(V.F));
  case ScalarKind::F64:
    return storeRaw(Addr, V.F);
  default: // I64, U64, Ptr
    return storeRaw(Addr, V.I);
  }
}

VMValue ThreadState::loadScalar(uint64_t Addr, Type *T) {
  ScalarKind K = scalarKindOf(T);
  if (K == ScalarKind::Invalid) {
    trap("scalar load of aggregate type " + T->str());
    return VMValue();
  }
  return loadScalarKind(Addr, K);
}

void ThreadState::storeScalar(uint64_t Addr, Type *T, VMValue V) {
  ScalarKind K = scalarKindOf(T);
  if (K == ScalarKind::Invalid) {
    trap("scalar store of aggregate type " + T->str());
    return;
  }
  storeScalarKind(Addr, K, V);
}

bool ThreadState::isRegisterAccess(const Expr *Loc) const {
  return gdse::isRegisterAccess(P.RegisterVars, Loc);
}

//===----------------------------------------------------------------------===//
// Builtins
//===----------------------------------------------------------------------===//

VMValue ThreadState::execBuiltinOp(Builtin B, uint32_t SiteId,
                                   const VMValue *Args, unsigned NumArgs) {
  (void)NumArgs;
  switch (B) {
  case Builtin::MallocFn: {
    int64_t N = Args[0].I;
    if (N < 0 || N > (int64_t(1) << 34)) {
      trap(formatString("malloc of invalid size %lld",
                        static_cast<long long>(N)));
      return VMValue();
    }
    charge(Opts.Costs.Alloc);
    uint64_t Base =
        heapAllocOrTrap(*this, static_cast<uint64_t>(N), SiteId, "malloc");
    if (!Base)
      return VMValue();
    if (Obs)
      Obs->onAlloc(*Mem.byBase(Base));
    return VMValue::ofInt(static_cast<int64_t>(Base));
  }
  case Builtin::CallocFn: {
    int64_t N = Args[0].I, Sz = Args[1].I;
    if (N < 0 || Sz < 0 || N * Sz > (int64_t(1) << 34)) {
      trap("calloc of invalid size");
      return VMValue();
    }
    uint64_t Size = static_cast<uint64_t>(N * Sz);
    charge(Opts.Costs.Alloc + Size * Opts.Costs.PerByteCopy);
    uint64_t Base = heapAllocOrTrap(*this, Size, SiteId, "calloc");
    if (!Base)
      return VMValue();
    if (Obs) {
      Obs->onAlloc(*Mem.byBase(Base));
      Obs->onBulkAccess(/*IsWrite=*/true, Base, Size, B, SiteId);
    }
    return VMValue::ofInt(static_cast<int64_t>(Base));
  }
  case Builtin::ReallocFn: {
    uint64_t Old = static_cast<uint64_t>(Args[0].I);
    int64_t N = Args[1].I;
    if (N < 0 || N > (int64_t(1) << 34)) {
      trap("realloc of invalid size");
      return VMValue();
    }
    uint64_t Size = static_cast<uint64_t>(N);
    if (!Old) {
      charge(Opts.Costs.Alloc);
      uint64_t Base = heapAllocOrTrap(*this, Size, SiteId, "realloc");
      if (!Base)
        return VMValue();
      if (Obs)
        Obs->onAlloc(*Mem.byBase(Base));
      return VMValue::ofInt(static_cast<int64_t>(Base));
    }
    const Allocation *A = Mem.byBase(Old);
    if (!A || A->Kind != AllocKind::Heap) {
      trap("realloc of a non-heap or non-base pointer");
      return VMValue();
    }
    uint64_t CopySize = std::min(A->Size, Size);
    charge(Opts.Costs.Alloc + Opts.Costs.Free +
           CopySize * Opts.Costs.PerByteCopy);
    uint64_t Base = heapAllocOrTrap(*this, Size, SiteId, "realloc");
    if (!Base)
      return VMValue(); // the old block stays live, as host realloc promises
    std::memcpy(reinterpret_cast<void *>(Base), reinterpret_cast<void *>(Old),
                CopySize);
    if (Obs) {
      Obs->onAlloc(*Mem.byBase(Base));
      Obs->onBulkAccess(/*IsWrite=*/false, Old, CopySize, B, SiteId);
      Obs->onBulkAccess(/*IsWrite=*/true, Base, CopySize, B, SiteId);
      Obs->onFree(*Mem.byBase(Old));
    }
    if (GuardHooksOn) {
      guardBulkRead(Old, CopySize);
      guardFree(Old, A->Size);
    }
    Mem.deallocate(Old);
    return VMValue::ofInt(static_cast<int64_t>(Base));
  }
  case Builtin::FreeFn: {
    uint64_t Ptr = static_cast<uint64_t>(Args[0].I);
    if (!Ptr)
      return VMValue();
    const Allocation *A = Mem.byBase(Ptr);
    if (!A || A->Kind != AllocKind::Heap) {
      trap(formatString("invalid free of 0x%llx",
                        static_cast<unsigned long long>(Ptr)));
      return VMValue();
    }
    charge(Opts.Costs.Free);
    if (Obs)
      Obs->onFree(*A);
    if (GuardHooksOn)
      guardFree(Ptr, A->Size);
    Mem.deallocate(Ptr);
    return VMValue();
  }
  case Builtin::MemcpyFn: {
    uint64_t D = static_cast<uint64_t>(Args[0].I);
    uint64_t S = static_cast<uint64_t>(Args[1].I);
    int64_t N = Args[2].I;
    if (N < 0) {
      trap("memcpy with negative size");
      return VMValue();
    }
    uint64_t Size = static_cast<uint64_t>(N);
    if (!checkAccess(D, Size, "memcpy dest") ||
        !checkAccess(S, Size, "memcpy src"))
      return VMValue();
    charge(Size * Opts.Costs.PerByteCopy);
    if (Obs) {
      Obs->onBulkAccess(false, S, Size, B, SiteId);
      Obs->onBulkAccess(true, D, Size, B, SiteId);
    }
    if (GuardHooksOn) {
      guardBulkRead(S, Size);
      guardBulkWrite(D, Size);
    }
    std::memmove(reinterpret_cast<void *>(D), reinterpret_cast<void *>(S),
                 Size);
    return VMValue::ofInt(static_cast<int64_t>(D));
  }
  case Builtin::MemsetFn: {
    uint64_t D = static_cast<uint64_t>(Args[0].I);
    int64_t V = Args[1].I;
    int64_t N = Args[2].I;
    if (N < 0) {
      trap("memset with negative size");
      return VMValue();
    }
    uint64_t Size = static_cast<uint64_t>(N);
    if (!checkAccess(D, Size, "memset dest"))
      return VMValue();
    charge(Size * Opts.Costs.PerByteCopy);
    if (Obs)
      Obs->onBulkAccess(true, D, Size, B, SiteId);
    if (GuardHooksOn)
      guardBulkWrite(D, Size);
    std::memset(reinterpret_cast<void *>(D), static_cast<int>(V), Size);
    return VMValue::ofInt(static_cast<int64_t>(D));
  }
  case Builtin::PrintInt:
    Output += formatString("%lld\n", static_cast<long long>(Args[0].I));
    return VMValue();
  case Builtin::PrintFloat:
    Output += formatString("%.6g\n", Args[0].F);
    return VMValue();
  case Builtin::AbsFn: {
    int64_t V = Args[0].I;
    return VMValue::ofInt(V < 0 ? -V : V);
  }
  case Builtin::FabsFn:
    return VMValue::ofFloat(std::fabs(Args[0].F));
  case Builtin::SqrtFn:
    // The DivRem charge was applied by the caller before argument
    // evaluation (see the declaration comment).
    return VMValue::ofFloat(std::sqrt(Args[0].F));
  case Builtin::ExitFn:
    ExitCode = Args[0].I;
    Halted = true;
    return VMValue();
  case Builtin::RtPrivPtr:
    return rtPrivTranslate(static_cast<uint64_t>(Args[0].I));
  case Builtin::None:
    break;
  }
  gdse_unreachable("unhandled builtin");
}

VMValue ThreadState::rtPrivTranslate(uint64_t Ptr) {
  const Allocation *A = Mem.containing(Ptr);
  if (!A) {
    trap("rtpriv_ptr of a dangling pointer");
    return VMValue();
  }
  ++RtPrivTranslations;
  charge(Opts.Costs.Alloc / 2); // hash lookup + bookkeeping per access
  auto Key = std::make_pair(CurTid, A->Base);
  auto It = RtShadow.find(Key);
  if (It == RtShadow.end()) {
    uint64_t Shadow = heapAllocOrTrap(*this, A->Size, 0, "rtpriv shadow");
    if (!Shadow)
      return VMValue();
    std::memcpy(reinterpret_cast<void *>(Shadow),
                reinterpret_cast<void *>(A->Base), A->Size);
    charge(Opts.Costs.Alloc + A->Size * Opts.Costs.PerByteCopy);
    RtPrivBytesCopied += A->Size;
    It = RtShadow.emplace(Key, Shadow).first;
  }
  return VMValue::ofInt(static_cast<int64_t>(It->second + (Ptr - A->Base)));
}

void ThreadState::rtPrivCommitAll() {
  for (auto &[Key, Shadow] : RtShadow) {
    const Allocation *A = Mem.byBase(Shadow);
    if (A) {
      charge(A->Size * Opts.Costs.PerByteCopy + Opts.Costs.Free);
      RtPrivBytesCopied += A->Size;
      Mem.deallocate(Shadow);
    }
  }
  RtShadow.clear();
}

//===----------------------------------------------------------------------===//
// Guarded execution (see Guard.h)
//===----------------------------------------------------------------------===//
//
// The guard is deliberately invisible to every virtual metric: it charges no
// cycles, emits no observer events, and allocates its shadow on the host, so
// a clean Check/Fallback run is bit-identical to an Off run (EngineDiffTest
// enforces this). All hooks funnel through this shared core, which is what
// keeps the two engines' guard behavior identical too.

ThreadState::GuardRegion *ThreadState::guardRegionContaining(uint64_t Addr) {
  if (GuardRegionHit >= 0 &&
      static_cast<size_t>(GuardRegionHit) < GuardRegions.size()) {
    GuardRegion &R = GuardRegions[GuardRegionHit];
    if (Addr - R.Base < R.Size)
      return &R;
  }
  for (size_t I = 0; I != GuardRegions.size(); ++I) {
    GuardRegion &R = GuardRegions[I];
    if (Addr - R.Base < R.Size) {
      GuardRegionHit = static_cast<int>(I);
      return &R;
    }
  }
  return nullptr;
}

void ThreadState::guardViolation(ViolationKind K, unsigned LoopId,
                                 unsigned Cls, uint64_t Iter, int Tid,
                                 uint64_t Addr, uint32_t Access) {
  ++Loops[LoopId].GuardViolations;
  // In Fallback mode an in-loop violation abandons the speculative attempt
  // at the iteration boundary; a post-loop watch hit is recovered in place by
  // the last-value copy-out instead (guardWatchLoad).
  if (Opts.Guard == GuardMode::Fallback &&
      K != ViolationKind::DownwardsExposedStore)
    GuardTripped = true;
  DependenceViolation V;
  V.Kind = K;
  V.LoopId = LoopId;
  V.ClassIndex = Cls;
  V.Iteration = Iter;
  V.Thread = Tid;
  V.Addr = Addr;
  V.Access = Access;
  logViolation(V);
}

void ThreadState::logViolation(const DependenceViolation &V) {
  for (DependenceViolation &E : GuardViolationLog)
    if (E.LoopId == V.LoopId && E.ClassIndex == V.ClassIndex &&
        E.Kind == V.Kind) {
      E.Count += V.Count;
      return;
    }
  GuardViolationLog.push_back(V);
  if (!Opts.GuardDiags || SuppressGuardDiags)
    return;
  Diagnostic D;
  // In fallback mode the run recovers (serial re-execution / last-value
  // copy-out), so the violation is a warning; in check mode the result is
  // known wrong, so it is an error.
  D.Severity = Opts.Guard == GuardMode::Fallback ? DiagSeverity::Warning
                                                 : DiagSeverity::Error;
  D.Pass = "guard";
  D.LoopId = V.LoopId;
  D.Message = V.str();
  Opts.GuardDiags->report(std::move(D));
}

void ThreadState::guardSetupRegions(const GuardPlan *GP, unsigned NumThreads) {
  guardTeardownRegions();
  Mem.forEachLive([&](const Allocation &A) {
    if (A.Kind != AllocKind::Heap || !A.SiteId)
      return;
    auto CIt = GP->CommSiteClass.find(A.SiteId);
    bool Comm = CIt != GP->CommSiteClass.end();
    if (!Comm && !GP->RegionSites.count(A.SiteId))
      return;
    GuardRegion R;
    R.Base = A.Base;
    R.Size = A.Size;
    R.Span = A.Size / NumThreads;
    R.SiteId = A.SiteId;
    if (!R.Span)
      return;
    if (Comm) {
      // Commit-time-merge mode: no first-write shadow. The class's RMW loads
      // are carried by construction (that is what the commutativity proof
      // licenses), so per-byte exposure tracking would only report what the
      // witness already justified; the violations that remain possible are
      // foreign touches and members escaping their copy's span.
      R.Commutative = true;
      R.CommClass = CIt->second;
      GuardHasComm = true;
    } else {
      R.WriteIter.assign(A.Size, UINT32_MAX);
      R.WriteTid.assign(A.Size, -1);
      R.WriteClass.assign(A.Size, -1);
    }
    GuardLo = GuardRegions.empty() ? R.Base : std::min(GuardLo, R.Base);
    GuardHi = std::max(GuardHi, R.Base + R.Size);
    GuardRegions.push_back(std::move(R));
  });
}

void ThreadState::guardTeardownRegions() {
  GuardRegions.clear();
  GuardRegionHit = -1;
  GuardHasComm = false;
  GuardLo = GuardHi = 0;
}

void ThreadState::updateGuardHooks() {
  WatchLo = UINT64_MAX;
  WatchHi = 0;
  if (WatchAddrs) {
    WatchLo = WatchAddrs->front();
    WatchHi = WatchAddrs->back();
  } else if (!GuardWatch.empty()) {
    WatchLo = GuardWatch.begin()->first;
    WatchHi = GuardWatch.rbegin()->first;
  }
  GuardHooksOn = GuardActive || WatchLo <= WatchHi;
}

void ThreadState::guardLoadChecked(uint32_t Id, uint64_t Addr,
                                   uint64_t Size) {
  if (GuardActive) {
    const ProgramContext::GuardAccess *GA = guardAccess(Id);
    if (GA && !GA->Commutative) {
      ++GuardStats->GuardChecks;
      GuardRegion *R = guardRegionContaining(Addr);
      if (!R) {
        // Outside every guarded region: either a dynamic instance the
        // rewrite left shared (zero-span fat pointer), or a fat-pointer
        // metadata read, which shares the data access's id (Promote.cpp).
        // Neither is this plan's to validate.
      } else if (R->Commutative) {
        // A claimed-private access reading another class's commutative
        // region observes a partial accumulator the merge has not folded.
        guardViolation(ViolationKind::NonCommutativeTouch, R->CommClass, Addr,
                       Id);
      } else if (escapesSpan(*R, Addr, Size)) {
        guardViolation(ViolationKind::SpanEscape, GA->Class, Addr, Id);
      } else {
        uint64_t O = Addr - R->Base;
        for (uint64_t B = 0; B != Size; ++B) {
          uint32_t WI = R->WriteIter[O + B];
          if (WI == static_cast<uint32_t>(GuardIter))
            continue;
          // First touch is a read (never written this invocation): the load
          // is upwards-exposed. Written by an earlier iteration: a carried
          // flow into the "private" class.
          guardViolation(WI == UINT32_MAX ? ViolationKind::UpwardsExposedLoad
                                          : ViolationKind::CarriedFlow,
                         GA->Class, Addr + B, Id);
          break;
        }
      }
    } else if (GA) {
      // Commutative member: the RMW load of its own copy is licensed; the
      // only checkable facts are that it stays inside that copy's span of a
      // region of its own class.
      ++GuardStats->GuardChecks;
      GuardRegion *R = guardRegionContaining(Addr);
      if (R && (!R->Commutative || R->CommClass != GA->Class ||
                escapesSpan(*R, Addr, Size)))
        guardViolation(ViolationKind::SpanEscape, GA->Class, Addr, Id);
    } else if (GuardHasComm) {
      // Unclaimed load: normally not this plan's to validate, but reading a
      // commutative region mid-loop observes a partial accumulator — the
      // "every carried use is one reduction op" claim was wrong.
      GuardRegion *R = guardRegionContaining(Addr);
      if (R && R->Commutative)
        guardViolation(ViolationKind::NonCommutativeTouch, R->CommClass, Addr,
                       Id);
    }
  }
  if (mayTouchWatch(Addr, Size))
    guardWatchLoad(Addr, Size);
}

void ThreadState::guardStoreChecked(uint32_t Id, uint64_t Addr,
                                    uint64_t Size) {
  if (GuardActive) {
    GuardRegion *R = guardRegionContaining(Addr);
    const ProgramContext::GuardAccess *GA = guardAccess(Id);
    int32_t Cls = -1;
    if (GA && !GA->Commutative) {
      Cls = static_cast<int32_t>(GA->Class);
      ++GuardStats->GuardChecks;
      // As in guardLoad: addresses outside every region are shared or
      // metadata instances, not escapes.
      if (R && R->Commutative)
        guardViolation(ViolationKind::NonCommutativeTouch, R->CommClass, Addr,
                       Id);
      else if (R && escapesSpan(*R, Addr, Size))
        guardViolation(ViolationKind::SpanEscape, GA->Class, Addr, Id);
    } else if (GA) {
      // Commutative member: must stay inside its own copy's span of a
      // region of its own class. Aliasing into a first-write-shadowed
      // region falls through to the stamp below as a foreign (Cls = -1)
      // write, exactly like any unclaimed store.
      ++GuardStats->GuardChecks;
      if (R && R->Commutative &&
          (R->CommClass != GA->Class || escapesSpan(*R, Addr, Size)))
        guardViolation(ViolationKind::SpanEscape, GA->Class, Addr, Id);
    } else if (R && R->Commutative) {
      // Unclaimed (or bulk) store into a commutative region clobbers
      // partial accumulators behind the merge's back.
      guardViolation(ViolationKind::NonCommutativeTouch, R->CommClass, Addr,
                     Id);
    }
    if (R && !R->Commutative) {
      // Stamp the first-write shadow. Every write counts — shared (copy 0)
      // stores included — because any of them can satisfy or break a later
      // private read.
      uint64_t O = Addr - R->Base;
      uint64_t End = std::min(O + Size, R->Size);
      for (uint64_t Pos = O; Pos < End; ++Pos) {
        R->WriteIter[Pos] = static_cast<uint32_t>(GuardIter);
        R->WriteTid[Pos] = static_cast<int8_t>(CurTid);
        R->WriteClass[Pos] = Cls;
      }
      // The window of copy offsets written in copies > 0. An access that
      // wraps past the end of a copy widens it to the whole span.
      if (End > R->Span && O < End) {
        uint64_t First = std::max(O, R->Span);
        uint64_t Lo = First % R->Span, Hi = (End - 1) % R->Span;
        if (Hi < Lo || End - First > R->Span) {
          Lo = 0;
          Hi = R->Span - 1;
        }
        R->PrivMin = std::min(R->PrivMin, Lo);
        R->PrivMax = std::max(R->PrivMax, Hi);
      }
    }
  }
  if (mayTouchWatch(Addr, Size))
    guardWatchStore(Addr, Size);
}

void ThreadState::guardBulkRead(uint64_t Addr, uint64_t Size) {
  if (mayTouchWatch(Addr, Size))
    guardWatchLoad(Addr, Size);
}

void ThreadState::guardBulkWrite(uint64_t Addr, uint64_t Size) {
  if (GuardActive)
    guardStore(InvalidAccessId, Addr, Size);
  else if (mayTouchWatch(Addr, Size))
    guardWatchStore(Addr, Size);
}

void ThreadState::guardFree(uint64_t Base, uint64_t Size) {
  if (mayTouchWatch(Base, Size))
    guardWatchStore(Base, Size);
  if (GuardActive)
    for (size_t I = 0; I != GuardRegions.size(); ++I)
      if (GuardRegions[I].Base == Base) {
        GuardRegions.erase(GuardRegions.begin() + static_cast<ptrdiff_t>(I));
        GuardRegionHit = -1;
        break;
      }
}

void ThreadState::logWatchAccess(uint64_t Addr, uint64_t Size,
                                 bool IsStore) {
  const std::vector<uint64_t> &W = *WatchAddrs;
  bool Live = false;
  for (size_t K = std::lower_bound(W.begin(), W.end(), Addr) - W.begin();
       K != W.size() && W[K] < Addr + Size; ++K)
    if (!WatchErased[K]) {
      Live = true;
      if (!IsStore)
        break;
      WatchErased[K] = 1;
    }
  if (!Live)
    return;
  WatchLog.push_back({GuardIter, Addr, Size, IsStore});
  if (!IsStore)
    return;
  // Narrow this worker's watch bounds past the bytes its stores erased, so
  // later accesses outside what is left are settled inline.
  size_t Lo = std::lower_bound(W.begin(), W.end(), WatchLo) - W.begin();
  size_t End = std::upper_bound(W.begin(), W.end(), WatchHi) - W.begin();
  while (Lo != End && WatchErased[Lo])
    ++Lo;
  while (End != Lo && WatchErased[End - 1])
    --End;
  WatchLo = Lo != End ? W[Lo] : UINT64_MAX;
  WatchHi = Lo != End ? W[End - 1] : 0;
}

void ThreadState::guardWatchLoad(uint64_t Addr, uint64_t Size) {
  if (WatchAddrs) {
    logWatchAccess(Addr, Size, /*IsStore=*/false);
    return;
  }
  auto It = GuardWatch.lower_bound(Addr);
  if (It == GuardWatch.end() || It->first >= Addr + Size)
    return;
  // A post-loop read of a byte whose serially-final value was left in a
  // discarded thread copy: the store that produced it was downwards-exposed.
  GuardWatchByte W = It->second;
  guardViolation(ViolationKind::DownwardsExposedStore, W.LoopId, W.Class,
                 W.Iter, W.Tid, It->first, InvalidAccessId);
  if (Opts.Guard == GuardMode::Fallback) {
    // LRPD last-value copy-out: patch every watched byte with its serial
    // value before the load consumes anything, then drop the watch — from
    // here on execution sees exactly the serial program's data.
    for (auto &[A, WB] : GuardWatch)
      *reinterpret_cast<uint8_t *>(A) = WB.Value;
    ++Loops[W.LoopId].GuardFallbacks;
    GuardWatch.clear();
    updateGuardHooks();
  }
}

void ThreadState::guardWatchStore(uint64_t Addr, uint64_t Size) {
  if (WatchAddrs) {
    logWatchAccess(Addr, Size, /*IsStore=*/true);
    return;
  }
  auto It = GuardWatch.lower_bound(Addr);
  bool Erased = false;
  while (It != GuardWatch.end() && It->first < Addr + Size) {
    It = GuardWatch.erase(It);
    Erased = true;
  }
  if (Erased)
    updateGuardHooks();
}

void ThreadState::guardCommit(const GuardPlan *GP, unsigned NumThreads) {
  GuardActive = false;
  for (GuardRegion &R : GuardRegions) {
    if (R.Commutative)
      continue; // reconciled by the generated merge IR, which runs after
                // this commit and must not trip a divergence watch
    if (R.PrivMin > R.PrivMax)
      continue; // no write ever landed in a copy > 0
    for (uint64_t Norm = R.PrivMin; Norm <= R.PrivMax && Norm < R.Span;
         ++Norm) {
      // The serially-final value of logical byte Norm is the one written by
      // the latest iteration, whichever copy it landed in.
      bool Any = false;
      uint32_t BestIter = 0;
      uint64_t BestOff = 0;
      for (unsigned S = 0; S != NumThreads; ++S) {
        uint64_t Pos = static_cast<uint64_t>(S) * R.Span + Norm;
        if (Pos >= R.Size)
          break;
        uint32_t WI = R.WriteIter[Pos];
        if (WI == UINT32_MAX)
          continue;
        if (!Any || WI >= BestIter) {
          Any = true;
          BestIter = WI;
          BestOff = Pos;
        }
      }
      if (!Any || BestOff / R.Span == 0)
        continue; // copy 0 already holds the final value
      uint8_t Final = *reinterpret_cast<uint8_t *>(R.Base + BestOff);
      uint8_t Cur = *reinterpret_cast<uint8_t *>(R.Base + Norm);
      if (Final == Cur)
        continue; // coincidentally identical: divergence is unobservable
      GuardWatchByte W;
      W.Value = Final;
      W.LoopId = GP->LoopId;
      W.Class = R.WriteClass[BestOff] >= 0
                    ? static_cast<unsigned>(R.WriteClass[BestOff])
                    : 0;
      W.Iter = BestIter;
      W.Tid = R.WriteTid[BestOff];
      GuardWatch[R.Base + Norm] = W;
    }
  }
  guardTeardownRegions();
  updateGuardHooks();
}

//===----------------------------------------------------------------------===//
// Counted loops
//===----------------------------------------------------------------------===//

const char *gdse::threadedPathName(ThreadedPath P) {
  switch (P) {
  case ThreadedPath::Threaded:
    return "threaded";
  case ThreadedPath::NotThreadsEngine:
    return "not-threads-engine";
  case ThreadedPath::SerialOrder:
    return "serial-order";
  case ThreadedPath::RtPriv:
    return "rtpriv";
  case ThreadedPath::FallbackGuard:
    return "fallback-guard";
  case ThreadedPath::UserTid:
    return "user-tid";
  case ThreadedPath::CarriedFrameSlot:
    return "carried-frame-slot";
  case ThreadedPath::GlobalIV:
    return "global-iv";
  case ThreadedPath::PoolUnavailable:
    return "pool-unavailable";
  case ThreadedPath::WatchdogRerun:
    return "watchdog-rerun";
  }
  gdse_unreachable("unknown threaded path");
}

Flow ThreadState::runForLoop(unsigned LoopId, ParallelKind Kind, Type *IVType,
                             BoundsFn EvalBounds, BodyFn Body,
                             const ThreadLoopHooks *Host) {
  bool Parallel =
      Opts.SimulateParallel && Kind != ParallelKind::None && !InParallelLoop;
  if (!Parallel)
    return runForSerial(LoopId, Kind, IVType, EvalBounds, Body);
  const unsigned N = static_cast<unsigned>(std::max(1, Opts.NumThreads));
  ParallelInvocation I{LoopId, Kind, IVType, EvalBounds, Body, N,
                       P.guardPlanFor(LoopId)};
  ThreadedPath Path = threadedEligible(I, Host);
  ThreadPool *Pool = nullptr;
  if (Path == ThreadedPath::Threaded && !(Pool = P.loopPoolOrNull())) {
    // A dead worker pool (thread creation failed, or an injected
    // worker-start fault) sends the invocation down to the simulated
    // serial-order path — bit-identical by construction — instead of
    // crashing or trapping.
    Path = ThreadedPath::PoolUnavailable;
    noteDegradation(LoopId, /*Watchdog=*/false,
                    "degrading to the simulated serial-order path: worker "
                    "pool unavailable");
  }
  ++Loops[LoopId].Paths[static_cast<unsigned>(Path)];
  return Pool ? runForThreaded(I, *Host, *Pool) : runForParallel(I);
}

ThreadedPath ThreadState::threadedEligible(const ParallelInvocation &I,
                                           const ThreadLoopHooks *Host) const {
  // The engine must have offered host execution at all (only the bytecode
  // engine does, and only under ExecEngine::Threads).
  if (!Host || Opts.Engine != ExecEngine::Threads || Opts.NumThreads < 2)
    return ThreadedPath::NotThreadsEngine;
  // The induction variable must live in the frame the runner is about to
  // privatize.
  if (!Host->IVInFrame)
    return ThreadedPath::GlobalIV;
  // An installed observer expects the serial-order event stream; a cycle
  // budget needs a monotonic global cycle counter; a Fallback-mode watch
  // patches memory (last-value copy-out) before the load that hits it
  // consumes anything. All three force the simulated path. A Check-mode
  // watch only reports, so workers log the accesses that touch it and the
  // join replays them in serial order (ThreadedLoop.cpp). Wall-clock
  // deadlines and byte budgets are order-free and stay threaded-compatible.
  if (Obs || Opts.Resilience.Budget.MaxCycles != 0 ||
      (!GuardWatch.empty() && Opts.Guard != GuardMode::Check))
    return ThreadedPath::SerialOrder;
  const ProgramContext::LoopTraits *T = P.loopTraits(I.LoopId);
  // Runtime privatization keeps a serial-order shadow map: simulate.
  if (!T || T->UsesRtPriv)
    return ThreadedPath::RtPriv;
  // Fallback speculation checkpoints and re-runs serially; the threaded
  // runner only supports check-mode guarding (per-worker shadow merge).
  if (I.GP && Opts.Guard == GuardMode::Fallback)
    return ThreadedPath::FallbackGuard;
  if (I.Kind != ParallelKind::DOACROSS)
    return ThreadedPath::Threaded;
  // DOACROSS virtual thread assignment (argmin of the simulated timeline) is
  // only known after the fact, so a body that observes a user __tid cannot
  // run on real threads in DOACROSS form. Expansion's synthesized copy
  // indices are fine: workers index the copies by worker, which is
  // exclusive to the iteration running on it, and so do the guard shadows;
  // the join renames every guard record and trap to the virtual thread.
  if (T->UsesTid)
    return ThreadedPath::UserTid;
  // Workers run on private frame copies, merged byte-wise at the join: exact
  // only when no value crosses iterations or leaves the loop through a slot.
  if (T->CarriesFrameSlot)
    return ThreadedPath::CarriedFrameSlot;
  return ThreadedPath::Threaded;
}

Flow ThreadState::runForSerial(unsigned LoopId, ParallelKind Kind,
                               Type *IVType, BoundsFn EvalBounds,
                               BodyFn Body) {
  LoopStats &LS = Loops[LoopId];
  LS.Kind = Kind;
  ++LS.Invocations;
  uint64_t Before = Cycles;

  ForBounds B;
  EvalBounds(B);
  if (dead())
    return Flow::Halt;
  if (B.Step <= 0) {
    trap("for loop with non-positive step");
    return Flow::Halt;
  }
  uint64_t IVSize = Ctx.getLayout(IVType).Size;
  if (Obs)
    Obs->onLoopEnter(LoopId);
  LoopCtxStack.push_back({LoopId, 0});
  uint64_t Iter = 0;
  Flow Result = Flow::Normal;
  for (int64_t I = B.Lo; I < B.Hi; I += B.Step) {
    LoopCtxStack.back().Iter = Iter;
    if (!checkBudget()) {
      Result = Flow::Halt;
      break;
    }
    storeScalar(B.IVAddr, IVType, VMValue::ofInt(I));
    if (Obs) {
      Obs->onLoopIter(LoopId, Iter);
      // Loop-control store of the induction variable: reported with the
      // invalid id so the profiler treats it as a definition but never
      // builds dependence edges to it.
      Obs->onStore(InvalidAccessId, B.IVAddr, IVSize);
    }
    ++Iter;
    charge(Opts.Costs.ExprBase * 2); // increment + compare
    Flow FL = Body();
    if (FL == Flow::Break)
      break;
    if (FL == Flow::Return || FL == Flow::Halt) {
      Result = FL;
      break;
    }
    // Re-read the induction variable: the body may legally not touch it,
    // but a transformed body never modifies it.
    I = loadScalar(B.IVAddr, IVType).I;
  }
  LoopCtxStack.pop_back();
  if (Obs)
    Obs->onLoopExit(LoopId);
  LS.Iterations += Iter;
  LS.WorkCycles += Cycles - Before;
  LS.SimTime += Cycles - Before;
  return Result;
}

bool ThreadState::beginParallel(ParallelInvocation &I) {
  LoopStats &LS = Loops[I.LoopId];
  LS.Kind = I.Kind;
  ++LS.Invocations;
  if (LS.WorkPerThread.size() != I.N) {
    LS.WorkPerThread.assign(I.N, 0);
    LS.SyncStallPerThread.assign(I.N, 0);
    LS.IdlePerThread.assign(I.N, 0);
    LS.DispatchPerThread.assign(I.N, 0);
  }
  I.Before = Cycles;
  I.EvalBounds(I.B);
  if (dead())
    return false;
  if (I.B.Step <= 0) {
    trap("parallel for loop with non-positive step");
    return false;
  }
  const ForBounds &B = I.B;
  I.Total = B.Hi > B.Lo
                ? static_cast<uint64_t>((B.Hi - B.Lo + B.Step - 1) / B.Step)
                : 0;
  if (Obs)
    Obs->onLoopEnter(I.LoopId);
  if (I.GP) {
    guardSetupRegions(I.GP, I.N);
    if (GuardRegions.empty()) {
      // None of the plan's expanded structures are live (e.g. the loop runs
      // before its allocations): nothing to validate against this time.
      I.GP = nullptr;
    } else {
      GuardActive = true;
      GuardTripped = false;
      GuardLoop = I.LoopId;
      GuardStats = &LS;
      updateGuardHooks();
      ++LS.GuardedInvocations;
    }
  }
  return true;
}

Flow ThreadState::endParallel(const ParallelInvocation &I,
                              const ParallelTimeline &TL, Flow Result) {
  // The commit scan over the shadow arms the post-loop watch that catches
  // output-dependence misclassifications the in-loop checks cannot see.
  if (I.GP)
    guardCommit(I.GP, I.N);
  rtPrivCommitAll();
  if (Obs)
    Obs->onLoopExit(I.LoopId);

  uint64_t WorkDelta = Cycles - I.Before;
  uint64_t SimTime = TL.maxReady() + Opts.Costs.ForkJoin;
  LoopStats &LS = Loops[I.LoopId];
  LS.Iterations += I.Total;
  LS.WorkCycles += WorkDelta;
  LS.SimTime += SimTime;
  TL.accumulate(LS);

  // Program simulated time: replace this loop's work span by its simulated
  // duration.
  TimeAdjust +=
      static_cast<int64_t>(SimTime) - static_cast<int64_t>(WorkDelta);
  return Result;
}

Flow ThreadState::runForParallel(ParallelInvocation I) {
  // Fallback mode re-executes a tripped invocation serially, so the
  // checkpoint is taken before any of this invocation's bookkeeping: the
  // serial re-run starts from a truly pre-invocation world.
  InvocationCheckpoint CP(*this);
  if (I.GP && Opts.Guard == GuardMode::Fallback)
    CP.arm();
  if (!beginParallel(I))
    return Flow::Halt;
  if (!I.GP)
    CP.commit(); // no live region: nothing to speculate on

  uint64_t IVSize = Ctx.getLayout(I.IVType).Size;
  LoopCtxStack.push_back({I.LoopId, 0});
  InParallelLoop = true;
  RecordOrdered = I.Kind == ParallelKind::DOACROSS;
  ParallelTimeline TL(Opts.Costs, I.N, I.Kind == ParallelKind::DOALL,
                      I.Total);

  Flow Result = Flow::Normal;
  for (uint64_t It = 0; It != I.Total; ++It) {
    LoopCtxStack.back().Iter = It;
    GuardIter = It;
    if (!checkBudget()) {
      Result = Flow::Halt;
      break;
    }
    unsigned T = TL.dispatch(It);
    CurTid = static_cast<int>(T);

    int64_t IVal = I.B.Lo + static_cast<int64_t>(It) * I.B.Step;
    storeScalar(I.B.IVAddr, I.IVType, VMValue::ofInt(IVal));
    if (Obs) {
      Obs->onLoopIter(I.LoopId, It);
      Obs->onStore(InvalidAccessId, I.B.IVAddr, IVSize);
    }

    OrderedEvents.clear();
    IterStartCycles = Cycles;
    Flow FL = I.Body();
    uint64_t W = Cycles - IterStartCycles;

    // Fault injection: a spurious dependence violation at the iteration
    // boundary of a guarded invocation, exercising the check/fallback paths
    // without needing a program that actually races.
    if (GuardActive && injectFault(FaultInjector::Point::GuardViolation))
      guardViolation(ViolationKind::CarriedFlow, 0, 0, InvalidAccessId);

    // A tripped guard abandons the speculative run at the iteration
    // boundary, before any trap from this iteration is inspected: the serial
    // re-execution decides what really happens (including re-raising a trap
    // the mis-speculated state may have caused spuriously).
    if (CP.armed() && GuardTripped)
      break;

    if (FL == Flow::Break || FL == Flow::Return) {
      trap("break/return escaping a parallel loop");
      Result = Flow::Halt;
      break;
    }
    if (FL == Flow::Halt) {
      Result = Flow::Halt;
      break;
    }

    TL.completeIter(T, W, OrderedEvents.data(), OrderedEvents.size());
  }

  RecordOrdered = false;
  InParallelLoop = false;
  CurTid = 0;
  LoopCtxStack.pop_back();

  if (CP.armed() && GuardTripped) {
    // Rollback to the pre-invocation world, then run the loop serially on
    // the original (copy-0) structures. Guard counters from the abandoned
    // attempt are re-applied on top of the restored stats so the attempt
    // stays visible in the accounting.
    LoopStats Snap = Loops[I.LoopId];
    CP.rollback();
    LoopStats &LS = Loops[I.LoopId];
    LS.Kind = I.Kind;
    LS.GuardedInvocations = Snap.GuardedInvocations;
    LS.GuardChecks = Snap.GuardChecks;
    LS.GuardViolations = Snap.GuardViolations;
    ++LS.GuardFallbacks;
    if (Obs)
      Obs->onLoopExit(I.LoopId);
    return runForSerial(I.LoopId, I.Kind, I.IVType, I.EvalBounds, I.Body);
  }
  CP.commit();
  return endParallel(I, TL, Result);
}

//===----------------------------------------------------------------------===//
// Invocation checkpoint
//===----------------------------------------------------------------------===//

bool InvocationCheckpoint::arm() {
  if (S.Mem.speculating())
    return false;
  S.Mem.beginSpeculation();
  Armed = true;
  Cycles = S.Cycles;
  TimeAdjust = S.TimeAdjust;
  Output = S.Output;
  Loops = S.Loops;
  RtShadow = S.RtShadow;
  GuardWatch = S.GuardWatch;
  RtPrivTranslations = S.RtPrivTranslations;
  RtPrivBytesCopied = S.RtPrivBytesCopied;
  ExitCode = S.ExitCode;
  ReturnValue = S.ReturnValue;
  Halted = S.Halted;
  return true;
}

void InvocationCheckpoint::commit() {
  if (Armed)
    S.Mem.commitSpeculation();
  Armed = false;
}

void InvocationCheckpoint::rollback() {
  Armed = false;
  S.Mem.rollbackSpeculation();
  S.Cycles = Cycles;
  S.TimeAdjust = TimeAdjust;
  S.Output = std::move(Output);
  S.Loops = std::move(Loops);
  S.RtShadow = std::move(RtShadow);
  S.GuardWatch = std::move(GuardWatch);
  S.RtPrivTranslations = RtPrivTranslations;
  S.RtPrivBytesCopied = RtPrivBytesCopied;
  S.ExitCode = ExitCode;
  S.ReturnValue = ReturnValue;
  S.Halted = Halted;
  S.Trapped = false;
  S.TrapMessage.clear();
  S.TrapLoopId = -1;
  S.TrapIteration = -1;
  S.TrapThread = -1;
  S.GuardActive = false;
  S.GuardTripped = false;
  S.guardTeardownRegions();
  S.updateGuardHooks();
}

//===----------------------------------------------------------------------===//
// Run scaffolding
//===----------------------------------------------------------------------===//

void ThreadState::resetRun() {
  Cycles = 0;
  TimeAdjust = 0;
  CurTid = 0;
  InParallelLoop = false;
  Trapped = false;
  Halted = false;
  TrapMessage.clear();
  TrapLoopId = -1;
  TrapIteration = -1;
  TrapThread = -1;
  BudgetPolls = 0;
  P.armDeadline();
  LoopCtxStack.clear();
  Output.clear();
  ExitCode = 0;
  Loops.clear();
  RtPrivTranslations = 0;
  RtPrivBytesCopied = 0;
  GuardActive = false;
  GuardTripped = false;
  GuardLoop = 0;
  GuardIter = 0;
  guardTeardownRegions();
  GuardViolationLog.clear();
  GuardWatch.clear();
  updateGuardHooks();

  P.resetGlobals();
}
