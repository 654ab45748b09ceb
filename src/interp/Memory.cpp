//===- Memory.cpp - VM memory and allocation registry ----------------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "interp/Memory.h"

#include "support/Support.h"

#include <algorithm>
#include <cstring>
#include <new>

using namespace gdse;

thread_local MemWorker *VMMemory::TLWorker = nullptr;

MemWorker::MemWorker(unsigned Slot)
    : Chunk(new uint8_t[ChunkBytes]), Slot(Slot) {
  Frames.reserve(MaxFrames);
}

const Allocation *MemWorker::frameContaining(uint64_t Addr) const {
  for (auto It = Frames.rbegin(); It != Frames.rend(); ++It)
    if (Addr - It->Base < std::max<uint64_t>(It->Size, 1))
      return &*It;
  return nullptr;
}

VMMemory::~VMMemory() {
  for (auto &[Base, A] : ByBase)
    ::operator delete(reinterpret_cast<void *>(Base));
}

void VMMemory::noteHolder(const Allocation &A) const {
  if (!TLWorker || A.Owner != TLWorker->Slot)
    A.Shared = true;
}

uint32_t VMMemory::takeGeneration() {
  uint32_t G = NextGeneration.load(std::memory_order_relaxed);
  NextGeneration.store(G + 1, std::memory_order_relaxed);
  return G;
}

bool VMMemory::chargeBytes(uint64_t Size) {
  uint64_t Old = CurBytes.fetch_add(Size, std::memory_order_relaxed);
  if (ByteBudget && Old + Size > ByteBudget) {
    CurBytes.fetch_sub(Size, std::memory_order_relaxed);
    return false;
  }
  return true;
}

uint64_t VMMemory::pushFrame(MemWorker &W, uint64_t Size, uint32_t SiteId) {
  uint64_t HostSize = Size ? Size : 1;
  uint64_t Off = (W.Top + 15) & ~uint64_t(15);
  if (W.Frames.size() == W.Frames.capacity() ||
      HostSize > MemWorker::ChunkBytes - Off)
    return 0; // full: the caller takes the registry path
  // Without a budget nothing reads CurBytes while concurrent, and a frame's
  // +size/-size nets to zero by its pop, so the shared counter is skipped.
  if (ByteBudget && !chargeBytes(Size))
    return UINT64_MAX;
  if (W.GenNext == W.GenEnd) {
    W.GenNext = NextGeneration.fetch_add(MemWorker::GenBatch,
                                         std::memory_order_relaxed);
    W.GenEnd = W.GenNext + MemWorker::GenBatch;
  }
  uint64_t Base = W.chunkBase() + Off;
  std::memset(reinterpret_cast<void *>(Base), 0, HostSize);
  W.Top = Off + HostSize;
  Allocation A;
  A.Base = Base;
  A.Size = Size;
  A.Generation = W.GenNext++;
  A.SiteId = SiteId;
  A.Kind = AllocKind::Frame;
  W.Frames.push_back(A);
  W.Sink.note(static_cast<int64_t>(Size));
  return Base;
}

uint64_t VMMemory::allocate(uint64_t Size, AllocKind Kind, uint32_t SiteId) {
  // Zero-size allocations still get a distinct address.
  uint64_t HostSize = Size ? Size : 1;

  Allocation A;
  A.Size = Size;
  A.SiteId = SiteId;
  A.Kind = Kind;
  A.Live = true;

  if (Concurrent) {
    if (Kind == AllocKind::Frame && TLWorker) {
      uint64_t Base = pushFrame(*TLWorker, Size, SiteId);
      if (Base)
        return Base == UINT64_MAX ? 0 : Base;
    }
    std::lock_guard<std::mutex> Lock(Mu);
    // Budget check and charge in one step, so concurrent allocators cannot
    // jointly overshoot the cap.
    if (!chargeBytes(Size))
      return 0;
    void *P = ::operator new(HostSize, std::nothrow);
    if (!P) {
      CurBytes.fetch_sub(Size, std::memory_order_relaxed);
      return 0;
    }
    std::memset(P, 0, HostSize);
    uint64_t Base = reinterpret_cast<uint64_t>(P);
    A.Base = Base;
    A.Generation = NextGeneration++;
    if (TLWorker)
      A.Owner = static_cast<uint16_t>(TLWorker->Slot);
    ByBase[Base] = A;
    ++NumLive;
    if (TLWorker)
      TLWorker->Sink.note(static_cast<int64_t>(Size));
    else
      PeakBytes = std::max(PeakBytes, currentBytes());
    return Base;
  }

  if (ByteBudget && currentBytes() + Size > ByteBudget)
    return 0;
  void *P = ::operator new(HostSize, std::nothrow);
  if (!P)
    return 0;
  std::memset(P, 0, HostSize);
  uint64_t Base = reinterpret_cast<uint64_t>(P);
  A.Base = Base;
  A.Generation = takeGeneration();
  ByBase[Base] = A;
  // Serial: no other thread touches the counters, so plain loads and
  // stores (no locked read-modify-write) on every call frame.
  CurBytes.store(currentBytes() + Size, std::memory_order_relaxed);
  PeakBytes = std::max(PeakBytes, currentBytes());
  ++NumLive;
  return Base;
}

bool VMMemory::deallocate(uint64_t Base) {
  if (Concurrent) {
    if (MemWorker *W = TLWorker)
      if (!W->Frames.empty() && W->Frames.back().Base == Base) {
        // LIFO pop: the arena top falls back to the frame's base.
        uint64_t Size = W->Frames.back().Size;
        W->Top = Base - W->chunkBase();
        W->Frames.pop_back();
        if (ByteBudget)
          CurBytes.fetch_sub(Size, std::memory_order_relaxed);
        W->Sink.note(-static_cast<int64_t>(Size));
        return true;
      }
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = ByBase.find(Base);
    if (It == ByBase.end() || !It->second.Live)
      return false;
    Allocation &A = It->second;
    CurBytes.fetch_sub(A.Size, std::memory_order_relaxed);
    --NumLive;
    if (TLWorker)
      TLWorker->Sink.note(-static_cast<int64_t>(A.Size));
    if (TLWorker && A.Owner == TLWorker->Slot && !A.Shared &&
        !(Speculating && A.Generation < SpecBeginGeneration)) {
      // Only this worker's thread ever held the block's Allocation, and it
      // holds none past the current instruction: delete it now, on the
      // thread that allocated it, so the host allocator recycles it here.
      ::operator delete(reinterpret_cast<void *>(Base));
      ByBase.erase(It);
      return true;
    }
    // Defer the host delete and the registry erase: another worker may hold
    // an Allocation pointer from containing()/byBase(), and the host
    // allocator must not recycle the address mid-loop.
    A.Live = false;
    ConcQuarantine.push_back(Base);
    return true;
  }

  auto It = ByBase.find(Base);
  if (It == ByBase.end() || !It->second.Live)
    return false;
  CurBytes.store(currentBytes() - It->second.Size, std::memory_order_relaxed);
  --NumLive;
  if (LastHit == &It->second)
    LastHit = nullptr;
  if (Speculating && It->second.Generation < SpecBeginGeneration) {
    // Pre-checkpoint block freed under speculation: keep the host block (the
    // address must stay reserved so rollback can resurrect it) and the
    // registry entry, only marked dead.
    It->second.Live = false;
    SpecQuarantine.push_back(Base);
    return true;
  }
  ::operator delete(reinterpret_cast<void *>(Base));
  // The host allocator may hand the same address out again; drop the entry
  // entirely (Generation uniqueness is preserved by NextGeneration).
  ByBase.erase(It);
  return true;
}

uint64_t VMMemory::allocateUntracked(uint64_t Size) {
  if (Concurrent)
    reportFatalError("VMMemory: untracked allocation while concurrent");
  uint64_t HostSize = Size ? Size : 1;
  void *P = ::operator new(HostSize);
  std::memset(P, 0, HostSize);
  uint64_t Base = reinterpret_cast<uint64_t>(P);
  Allocation A;
  A.Base = Base;
  A.Size = Size;
  A.Generation = takeGeneration();
  A.SiteId = 0;
  A.Kind = AllocKind::Frame;
  A.Live = true;
  A.Untracked = true;
  ByBase[Base] = A;
  return Base;
}

void VMMemory::releaseUntracked(uint64_t Base) {
  if (Concurrent)
    reportFatalError("VMMemory: untracked release while concurrent");
  auto It = ByBase.find(Base);
  if (It == ByBase.end() || !It->second.Untracked)
    reportFatalError("VMMemory: releaseUntracked of a tracked block");
  if (LastHit == &It->second)
    LastHit = nullptr;
  ::operator delete(reinterpret_cast<void *>(Base));
  ByBase.erase(It);
}

void VMMemory::beginConcurrent() {
  if (Concurrent)
    reportFatalError("VMMemory: nested concurrent mode");
  // Running inside a speculation checkpoint is allowed: the watchdog
  // recovery path checkpoints the arena, then fans iterations out to real
  // threads. endConcurrent() keeps the checkpoint's invariants.
  // The cache slot must not be touched (even read) while workers run.
  LastHit = nullptr;
  Concurrent = true;
}

void VMMemory::endConcurrent() {
  if (!Concurrent)
    return;
  Concurrent = false;
  for (uint64_t Base : ConcQuarantine) {
    auto It = ByBase.find(Base);
    if (It != ByBase.end() && Speculating &&
        It->second.Generation < SpecBeginGeneration) {
      // Pre-checkpoint block freed by a worker: the address must stay
      // reserved (entry kept, marked dead by deallocate()) so a rollback can
      // resurrect it — same deferral as the serial speculation path.
      SpecQuarantine.push_back(Base);
      continue;
    }
    ::operator delete(reinterpret_cast<void *>(Base));
    ByBase.erase(Base);
  }
  ConcQuarantine.clear();
  LastHit = nullptr;
}

void VMMemory::attach(MemWorker &W) { TLWorker = &W; }

void VMMemory::detach() { TLWorker = nullptr; }

void VMMemory::beginSpeculation() {
  if (Speculating)
    reportFatalError("VMMemory: nested speculation checkpoint");
  if (Concurrent)
    reportFatalError("VMMemory: speculation during concurrent mode");
  Speculating = true;
  SpecBeginGeneration = NextGeneration;
  SpecCurBytes = currentBytes();
  SpecNumLive = NumLive;
  SpecSnapshot.clear();
  SpecSnapshot.reserve(NumLive);
  for (const auto &[Base, A] : ByBase) {
    if (!A.Live)
      continue;
    SpecSaved S;
    S.Meta = A;
    S.Bytes.reset(new uint8_t[A.Size ? A.Size : 1]);
    std::memcpy(S.Bytes.get(), reinterpret_cast<void *>(Base),
                A.Size ? A.Size : 1);
    SpecSnapshot.push_back(std::move(S));
  }
}

void VMMemory::commitSpeculation() {
  if (!Speculating)
    return;
  for (uint64_t Base : SpecQuarantine) {
    ::operator delete(reinterpret_cast<void *>(Base));
    ByBase.erase(Base);
  }
  SpecQuarantine.clear();
  SpecSnapshot.clear();
  LastHit = nullptr;
  Speculating = false;
}

void VMMemory::rollbackSpeculation() {
  if (!Speculating)
    return;
  // Blocks created during speculation (dead ones were reclaimed eagerly in
  // deallocate(), so every survivor with a post-checkpoint generation is
  // live): delete for real.
  for (auto It = ByBase.begin(); It != ByBase.end();) {
    if (It->second.Generation >= SpecBeginGeneration) {
      ::operator delete(reinterpret_cast<void *>(It->first));
      It = ByBase.erase(It);
    } else {
      ++It;
    }
  }
  // Resurrect and restore every checkpointed block.
  for (SpecSaved &S : SpecSnapshot) {
    auto It = ByBase.find(S.Meta.Base);
    if (It == ByBase.end())
      reportFatalError("VMMemory: checkpointed block vanished");
    It->second = S.Meta;
    std::memcpy(reinterpret_cast<void *>(S.Meta.Base), S.Bytes.get(),
                S.Meta.Size ? S.Meta.Size : 1);
  }
  CurBytes.store(SpecCurBytes);
  NumLive = SpecNumLive;
  NextGeneration.store(SpecBeginGeneration);
  SpecQuarantine.clear();
  SpecSnapshot.clear();
  LastHit = nullptr;
  Speculating = false;
}

const Allocation *VMMemory::containing(uint64_t Addr) const {
  if (Concurrent) {
    // The calling worker's own frames first: an address inside its arena
    // chunk is answered there, and only by a live frame.
    if (const MemWorker *W = TLWorker)
      if (Addr - W->chunkBase() < MemWorker::ChunkBytes)
        return W->frameContaining(Addr);
    // No last-hit cache here: the slot is written by const lookups and would
    // race between concurrent readers (the bug this mode exists to avoid).
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = ByBase.upper_bound(Addr);
    if (It == ByBase.begin())
      return nullptr;
    --It;
    const Allocation &A = It->second;
    if (!A.Live || Addr >= A.Base + std::max<uint64_t>(A.Size, 1))
      return nullptr;
    noteHolder(A);
    return &A;
  }
  // Fast path: repeated accesses into the block we answered last time. The
  // Live check is load-bearing: every path that kills or erases an entry
  // must null the cache slot (deallocate, releaseUntracked, the concurrent
  // and speculation transitions), but a stale hit here would resurrect a
  // freed block whose address the host allocator may already have recycled
  // for a different allocation — so a dead cached entry is never trusted.
  if (LastHit && LastHit->Live &&
      Addr - LastHit->Base < std::max<uint64_t>(LastHit->Size, 1))
    return LastHit;
  auto It = ByBase.upper_bound(Addr);
  if (It == ByBase.begin())
    return nullptr;
  --It;
  const Allocation &A = It->second;
  if (!A.Live || Addr >= A.Base + std::max<uint64_t>(A.Size, 1))
    return nullptr;
  LastHit = &A;
  return &A;
}

const Allocation *VMMemory::byBase(uint64_t Base) const {
  if (Concurrent) {
    if (const MemWorker *W = TLWorker)
      if (Base - W->chunkBase() < MemWorker::ChunkBytes) {
        const Allocation *A = W->frameContaining(Base);
        return A && A->Base == Base ? A : nullptr;
      }
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = ByBase.find(Base);
    if (It == ByBase.end() || !It->second.Live)
      return nullptr;
    noteHolder(It->second);
    return &It->second;
  }
  auto It = ByBase.find(Base);
  if (It == ByBase.end() || !It->second.Live)
    return nullptr;
  return &It->second;
}
