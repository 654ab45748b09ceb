//===- EventRing.h - Observer events replayed on a helper thread -*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An InterpObserver that hands every event to another observer (the sink)
/// on a helper thread, through a single-producer/single-consumer ring of
/// fixed-size records. The VM thread only appends; the helper replays the
/// records in order, so the sink sees exactly the serial event stream and
/// its result is the one a synchronous observer builds.
///
/// The ring holds 8192 records of 16 bytes (128 KiB). A record carries a
/// 64-bit address and a 16-bit size; a larger size (a bulk copy, a big
/// allocation) takes a second record that holds it in full. The producer
/// stages records in a private batch of 256 and copies each full batch into
/// the ring before it publishes the new head; the helper publishes its tail
/// every 256 records. So the ring's cache lines cross between the cores a
/// batch at a time, and the indices about once per batch. A side that finds
/// nothing to do spins briefly, then blocks (std::atomic::wait) until the
/// other side publishes, so a batch of profiling runs on fewer cores than
/// threads does not burn them spinning.
///
/// An exception the sink throws (say std::bad_alloc from its shadow) stops
/// the replay; the helper keeps draining the ring so the VM thread never
/// blocks, and finish() rethrows it on the caller's thread.
///
//===----------------------------------------------------------------------===//

#ifndef GDSE_PROFILE_EVENTRING_H
#define GDSE_PROFILE_EVENTRING_H

#include "interp/Interp.h"
#include "interp/Memory.h"

#include <atomic>
#include <exception>
#include <memory>
#include <thread>

namespace gdse {

class EventRing : public InterpObserver {
public:
  /// Starts the helper thread, which feeds \p Sink until finish().
  explicit EventRing(InterpObserver &Sink);
  /// Calls finish() if the caller has not (its exception is dropped).
  ~EventRing() override;
  EventRing(const EventRing &) = delete;
  EventRing &operator=(const EventRing &) = delete;

  void onLoad(AccessId Id, uint64_t Addr, uint64_t Size) override {
    push(Kind::Load, Id, Addr, Size);
  }
  void onStore(AccessId Id, uint64_t Addr, uint64_t Size) override {
    push(Kind::Store, Id, Addr, Size);
  }
  void onBulkAccess(bool IsWrite, uint64_t Addr, uint64_t Size, Builtin B,
                    uint32_t CallSiteId) override {
    push(IsWrite ? Kind::BulkWrite : Kind::BulkRead, CallSiteId, Addr, Size,
         B);
  }
  void onAlloc(const Allocation &A) override {
    push(Kind::Alloc, 0, A.Base, A.Size);
  }
  void onFree(const Allocation &A) override {
    push(Kind::Free, 0, A.Base, A.Size);
  }
  void onLoopEnter(unsigned LoopId) override {
    push(Kind::LoopEnter, LoopId, 0, 0);
  }
  void onLoopIter(unsigned LoopId, uint64_t Iter) override {
    push(Kind::LoopIter, LoopId, Iter, 0);
  }
  void onLoopExit(unsigned LoopId) override {
    push(Kind::LoopExit, LoopId, 0, 0);
  }

  /// Publishes the last records, waits until the sink has replayed them,
  /// joins the helper, and rethrows what the sink threw. Idempotent.
  void finish();

  /// Host time the helper spent replaying records into the sink.
  uint64_t sinkNs() const { return SinkNs; }
  /// Host time the producer spent blocked on a full ring or in finish().
  uint64_t waitNs() const { return WaitNs; }

  static constexpr uint64_t Capacity = 8192;
  static constexpr uint64_t Batch = 256;

private:
  enum class Kind : uint8_t {
    Load,
    Store,
    BulkRead,
    BulkWrite,
    Alloc,
    Free,
    LoopEnter,
    LoopIter,
    LoopExit
  };
  /// One observer call. Alloc and Free records carry the block's base and
  /// size only; the sink gets an Allocation with its other fields default.
  struct Record {
    uint64_t Addr;
    uint32_t Id;
    /// The size, or LongSize when the next record's Addr holds it.
    uint16_t Size;
    Kind K;
    Builtin B;
  };
  static_assert(sizeof(Record) == 16, "four records per cache line");
  static constexpr uint16_t LongSize = UINT16_MAX;

  /// A counter one side bumps (and wakes the other with) when it publishes
  /// while the other is asleep.
  struct alignas(64) Bell {
    std::atomic<uint32_t> Rings{0};
    std::atomic<bool> Sleeping{false};
  };

  void push(Kind K, uint32_t Id, uint64_t Addr, uint64_t Size,
            Builtin B = Builtin::None) {
    if (Size >= LongSize) [[unlikely]] {
      pushLong(K, Id, Addr, Size, B);
      return;
    }
    Stage[Staged] = Record{Addr, Id, static_cast<uint16_t>(Size), K, B};
    if (++Staged == Batch) [[unlikely]]
      flush();
  }
  void pushLong(Kind K, uint32_t Id, uint64_t Addr, uint64_t Size,
                Builtin B);
  /// Copies the staged records into the ring and publishes them.
  void flush();
  void waitForRoom(uint64_t N);
  void consume();
  /// Replays the record at \p Tail; returns the number of records used.
  uint64_t replay(uint64_t Tail);

  // Each group below sits on its own cache lines: one thread writes it, so
  // a write on one side never evicts what the other side reads per record.

  // Read by both sides, written by neither while the helper runs.
  InterpObserver &Sink;
  struct FreeRing {
    void operator()(Record *R) const;
  };
  /// Cache-line aligned, so every batch (4 KiB) starts a line and the
  /// helper never reads a line the producer is still copying into.
  const std::unique_ptr<Record[], FreeRing> Ring;
  std::thread Helper;

  // Producer side (the VM thread). Records are staged in a private batch
  // and copied into the ring a batch at a time, so the ring's cache lines
  // move between the cores in bulk, not one record's store at a time.
  alignas(64) Record Stage[Batch];
  uint64_t Staged = 0;
  uint64_t Head = 0;
  uint64_t CachedTail = 0;
  uint64_t WaitNs = 0;
  bool Finished = false;

  alignas(64) std::atomic<uint64_t> PublishedHead{0};
  std::atomic<bool> Closed{false};
  Bell DataBell;
  alignas(64) std::atomic<uint64_t> PublishedTail{0};
  Bell RoomBell;

  // Consumer side (the helper), read by the producer after the join.
  alignas(64) uint64_t SinkNs = 0;
  std::exception_ptr Error;
};

} // namespace gdse

#endif // GDSE_PROFILE_EVENTRING_H
