//===- EventRing.cpp - Observer events replayed on a helper thread --------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "profile/EventRing.h"

#include "support/Support.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <new>

using namespace gdse;

namespace {

/// Spin iterations before a waiting side goes to sleep: a few microseconds
/// (x86's pause takes about 15 ns), about the time the other side takes for
/// a batch. Longer spins buy a lone profiling run nothing measurable and
/// cost a batch compile that runs more threads than cores.
constexpr unsigned SpinRounds = 256;

inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

// Sleeping and waking pair up like Dekker's protocol, all in seq_cst: the
// sleeper raises Sleeping and then re-reads the other side's index; the
// publisher stores its index and then reads Sleeping. One of them sees the
// other's store, so a sleeper is never left waiting on a published index.
template <typename ReadyT>
static void await(std::atomic<uint32_t> &Rings, std::atomic<bool> &Sleeping,
                  ReadyT Ready) {
  for (unsigned I = 0; I != SpinRounds; ++I) {
    if (Ready())
      return;
    cpuRelax();
  }
  for (;;) {
    uint32_t Seen = Rings.load();
    Sleeping.store(true);
    if (Ready())
      break;
    Rings.wait(Seen);
    if (Ready())
      break;
  }
  Sleeping.store(false);
}

static void wake(std::atomic<uint32_t> &Rings, std::atomic<bool> &Sleeping) {
  if (Sleeping.load()) {
    Rings.fetch_add(1);
    Rings.notify_one();
  }
}

void EventRing::FreeRing::operator()(Record *R) const {
  ::operator delete(R, std::align_val_t(64));
}

EventRing::EventRing(InterpObserver &Sink)
    : Sink(Sink), Ring(static_cast<Record *>(::operator new(
                      Capacity * sizeof(Record), std::align_val_t(64)))) {
  Helper = std::thread([this] { consume(); });
}

EventRing::~EventRing() {
  if (Finished)
    return;
  try {
    finish();
  } catch (...) {
  }
}

void EventRing::pushLong(Kind K, uint32_t Id, uint64_t Addr, uint64_t Size,
                         Builtin B) {
  // The two records are published together.
  if (Staged + 2 > Batch)
    flush();
  Stage[Staged++] = Record{Addr, Id, LongSize, K, B};
  Stage[Staged++] = Record{Size, 0, 0, K, B};
  if (Staged == Batch)
    flush();
}

void EventRing::flush() {
  if (Head + Staged - CachedTail > Capacity)
    waitForRoom(Staged);
  uint64_t At = Head % Capacity;
  uint64_t First = std::min(Staged, Capacity - At);
  std::memcpy(&Ring[At], Stage, First * sizeof(Record));
  std::memcpy(&Ring[0], Stage + First, (Staged - First) * sizeof(Record));
  Head += Staged;
  Staged = 0;
  PublishedHead.store(Head);
  wake(DataBell.Rings, DataBell.Sleeping);
}

void EventRing::waitForRoom(uint64_t N) {
  auto Room = [this, N] {
    CachedTail = PublishedTail.load();
    return Head + N - CachedTail <= Capacity;
  };
  if (Room())
    return;
  uint64_t T0 = nowNs();
  await(RoomBell.Rings, RoomBell.Sleeping, Room);
  WaitNs += nowNs() - T0;
}

void EventRing::finish() {
  if (Finished)
    return;
  Finished = true;
  uint64_t T0 = nowNs();
  flush();
  Closed.store(true);
  wake(DataBell.Rings, DataBell.Sleeping);
  Helper.join();
  WaitNs += nowNs() - T0;
  if (Error)
    std::rethrow_exception(Error);
}

void EventRing::consume() {
  uint64_t Tail = 0;
  for (;;) {
    uint64_t End = PublishedHead.load(std::memory_order_acquire);
    if (End == Tail) {
      if (Closed.load() && PublishedHead.load() == Tail)
        return;
      await(DataBell.Rings, DataBell.Sleeping, [this, Tail] {
        return PublishedHead.load() != Tail || Closed.load();
      });
      continue;
    }
    uint64_t T0 = nowNs();
    while (Tail != End) {
      uint64_t Stop = std::min(End, Tail + Batch);
      if (!Error) {
        try {
          while (Tail < Stop)
            Tail += replay(Tail);
        } catch (...) {
          // Keep draining, so the producer never waits on a dead consumer.
          Error = std::current_exception();
        }
      }
      Tail = std::max(Tail, Stop);
      PublishedTail.store(Tail);
      wake(RoomBell.Rings, RoomBell.Sleeping);
    }
    SinkNs += nowNs() - T0;
  }
}

uint64_t EventRing::replay(uint64_t Tail) {
  const Record &R = Ring[Tail % Capacity];
  uint64_t Size = R.Size;
  uint64_t Used = 1;
  if (Size == LongSize) {
    Size = Ring[(Tail + 1) % Capacity].Addr;
    Used = 2;
  }
  switch (R.K) {
  case Kind::Load:
    Sink.onLoad(R.Id, R.Addr, Size);
    break;
  case Kind::Store:
    Sink.onStore(R.Id, R.Addr, Size);
    break;
  case Kind::BulkRead:
  case Kind::BulkWrite:
    Sink.onBulkAccess(R.K == Kind::BulkWrite, R.Addr, Size, R.B, R.Id);
    break;
  case Kind::Alloc:
  case Kind::Free: {
    Allocation A;
    A.Base = R.Addr;
    A.Size = Size;
    if (R.K == Kind::Alloc)
      Sink.onAlloc(A);
    else
      Sink.onFree(A);
    break;
  }
  case Kind::LoopEnter:
    Sink.onLoopEnter(R.Id);
    break;
  case Kind::LoopIter:
    Sink.onLoopIter(R.Id, R.Addr);
    break;
  case Kind::LoopExit:
    Sink.onLoopExit(R.Id);
    break;
  }
  return Used;
}
