//===- Memory.h - VM memory and allocation registry -------------*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The VM's memory: allocations are real host blocks (so VM pointers are host
/// addresses and pointer arithmetic is native), plus a registry that maps any
/// address to its containing allocation. The registry provides:
///  - bounds checking for every VM access (on by default);
///  - allocation *generation* numbers so the dependence profiler does not
///    fabricate dependences between a freed block and an unrelated later
///    allocation reusing the same host address;
///  - allocation-site ids linking heap objects back to the static malloc
///    call they came from (used by expansion target selection and by the
///    runtime-privatization baseline's heap prefix);
///  - current/peak byte accounting (Figure 14).
///
/// The registry has two operating modes. In the default serial mode there is
/// no locking, and a lookup first checks the last four allocations the tree
/// probe returned, which catches accesses that alternate between a stack
/// frame and a few heap blocks; the same set answers the inline half of a
/// bounds check (inRecent). Inside a
/// host-threaded parallel loop (ThreadedLoop.cpp) the arena is in
/// *concurrent mode*:
///  - heap and global registry operations take a mutex, and the lookup
///    cache is neither read nor written (it is mutated on every lookup and
///    would race between concurrent readers);
///  - each worker pushes its call frames on a private LIFO arena (MemWorker)
///    carved from a chunk allocated before the workers start, so a call
///    takes neither the mutex nor the host allocator; the worker's own
///    lookups check its live frames first, with exact per-frame bounds;
///  - a block a worker frees is deleted at once when no lookup ever handed
///    it to another thread (the common case: allocated and freed by one
///    iteration). Any other freed block is marked dead at once (so lookups
///    say "not live") but host-deleted and erased only when the arena
///    leaves concurrent mode, so Allocation pointers other threads hold
///    stay dereferenceable;
///  - peak accounting is replaced by per-iteration deltas that the post-join
///    merge replays in serial iteration order, so peakBytes() is
///    bit-identical to a serial run (arena frames report +size and -size
///    like any other block).
///
//===----------------------------------------------------------------------===//

#ifndef GDSE_INTERP_MEMORY_H
#define GDSE_INTERP_MEMORY_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace gdse {

enum class AllocKind : uint8_t { Heap, Global, Frame };

struct Allocation {
  uint64_t Base = 0;
  uint64_t Size = 0;
  /// Monotonically increasing id; distinguishes reuses of a host address.
  uint32_t Generation = 0;
  /// Static allocation site (CallExpr site id for heap; VarDecl id for
  /// globals; 0 for frames).
  uint32_t SiteId = 0;
  AllocKind Kind = AllocKind::Heap;
  bool Live = true;
  /// Excluded from current/peak byte accounting: the per-worker frame copies
  /// of a host-threaded loop have no serial counterpart, so charging them
  /// would break the bit-identity of peakBytes() with the serial engines.
  bool Untracked = false;
  /// Concurrent-mode reclamation state (see VMMemory::deallocate): the
  /// worker slot that allocated the block (NoOwner outside a worker), and
  /// whether a lookup ever handed it to another thread. Set under the
  /// registry mutex, by const lookups too.
  static constexpr uint16_t NoOwner = UINT16_MAX;
  uint16_t Owner = NoOwner;
  mutable bool Shared = false;
};

/// Per-iteration allocation deltas recorded by a worker thread while the
/// arena is in concurrent mode. The post-join merge replays these in serial
/// iteration order to reconstruct the exact peak a serial execution would
/// have seen: peak = max over iterations of (bytes-live-before + MaxPrefix).
struct MemDeltaSink {
  int64_t Cur = 0;       ///< net bytes allocated so far this iteration
  int64_t MaxPrefix = 0; ///< running max of Cur within the iteration
  void note(int64_t Delta) {
    Cur += Delta;
    if (Cur > MaxPrefix)
      MaxPrefix = Cur;
  }
  void beginIter() {
    Cur = 0;
    MaxPrefix = 0;
  }
};

/// One host-threaded worker's private allocation state while the arena is
/// concurrent. Built on the calling thread before the workers start (its
/// chunk and frame records are allocated there) and attached to the thread
/// that runs it by VMMemory::attach().
class MemWorker {
public:
  /// \p Slot is the worker's index, unique among the loop's workers.
  explicit MemWorker(unsigned Slot);
  MemWorker(MemWorker &&) = default;

  /// The current iteration's allocation deltas (reset by the caller).
  MemDeltaSink Sink;

private:
  friend class VMMemory;

  /// Frame arena capacity: bytes of frame storage and live frames. A call
  /// beyond either falls back to the locked registry path.
  static constexpr uint64_t ChunkBytes = 32 * 1024;
  static constexpr size_t MaxFrames = 64;
  /// Generations are taken from the shared counter in batches of this size.
  static constexpr uint32_t GenBatch = 64;

  std::unique_ptr<uint8_t[]> Chunk;
  uint64_t Top = 0;
  /// Live frames, innermost last (capacity reserved up front, so records
  /// never move while live).
  std::vector<Allocation> Frames;
  uint32_t GenNext = 0, GenEnd = 0;
  unsigned Slot;

  uint64_t chunkBase() const { return reinterpret_cast<uint64_t>(Chunk.get()); }
  const Allocation *frameContaining(uint64_t Addr) const;
};

class VMMemory {
public:
  VMMemory() = default;
  ~VMMemory();
  VMMemory(const VMMemory &) = delete;
  VMMemory &operator=(const VMMemory &) = delete;

  /// Allocates \p Size bytes (zero-initialized), registers the block.
  /// Returns 0 when the host allocator fails (std::bad_alloc territory) or
  /// the tracked byte budget would be exceeded — callers convert 0 into an
  /// attributed out-of-memory trap instead of letting the process die. 0 is
  /// an unambiguous failure sentinel: real blocks always have a non-null
  /// host address (zero-size allocations get a 1-byte block).
  uint64_t allocate(uint64_t Size, AllocKind Kind, uint32_t SiteId);

  /// Caps tracked live bytes (currentBytes()); an allocation that would push
  /// past the cap fails like host OOM. 0 = unlimited.
  void setByteBudget(uint64_t Bytes) { ByteBudget = Bytes; }
  uint64_t byteBudget() const { return ByteBudget; }

  /// Frees the allocation whose base is \p Base. Returns false (and leaves
  /// memory untouched) when \p Base is not the base of a live allocation.
  bool deallocate(uint64_t Base);

  /// Returns the live allocation containing \p Addr, or null.
  const Allocation *containing(uint64_t Addr) const;

  /// True when [Addr, Addr+Size) lies within one of the allocations in the
  /// lookup cache. False says nothing: the caller asks inBounds(). Never
  /// reads the cache in concurrent mode.
  bool inRecent(uint64_t Addr, uint64_t Size) const {
    if (Concurrent)
      return false;
    for (const Allocation *A : Recent) {
      if (!A || !A->Live)
        continue;
      uint64_t Off = Addr - A->Base;
      if (Off < A->Size)
        return Size <= A->Size - Off;
    }
    return false;
  }

  /// Entries held by the lookup cache (for tests).
  unsigned cachedLookups() const {
    unsigned N = 0;
    for (const Allocation *A : Recent)
      N += A != nullptr;
    return N;
  }

  /// Returns the live allocation with base \p Base, or null.
  const Allocation *byBase(uint64_t Base) const;

  /// True when [Addr, Addr+Size) lies within one live allocation. Compares
  /// without forming Addr + Size: the sum can wrap around uint64_t (a huge
  /// Size from a corrupted length) and incorrectly pass an end-pointer check.
  /// containing() already guarantees Addr >= A->Base and Addr < A->Base +
  /// max(A->Size, 1), so Addr - A->Base is a valid in-block offset.
  bool inBounds(uint64_t Addr, uint64_t Size) const {
    const Allocation *A = containing(Addr);
    return A && Size <= A->Size && Addr - A->Base <= A->Size - Size;
  }

  uint64_t currentBytes() const {
    return CurBytes.load(std::memory_order_relaxed);
  }
  uint64_t peakBytes() const { return PeakBytes; }
  uint32_t liveAllocations() const { return NumLive; }

  /// Calls \p Fn on every live allocation, in base-address order.
  template <typename FnT> void forEachLive(FnT Fn) const {
    for (const auto &[Base, A] : ByBase)
      if (A.Live)
        Fn(A);
  }

  //===------------------------------------------------------------------===//
  // Concurrent mode (host-threaded parallel loops)
  //===------------------------------------------------------------------===//

  /// Enters concurrent mode: registry operations lock, the last-hit cache is
  /// bypassed, frees of blocks other threads may hold are quarantined, and
  /// peak accounting switches to the attached worker's MemDeltaSink.
  /// Must not be nested. May run *inside* a speculation checkpoint (the
  /// watchdog recovery path arms one around a threaded DOACROSS attempt);
  /// pre-checkpoint blocks freed while concurrent then stay resident so
  /// rollbackSpeculation() can resurrect them.
  void beginConcurrent();
  /// Leaves concurrent mode and reclaims quarantined blocks. The caller is
  /// responsible for replaying the workers' deltas (notePeak) first if peak
  /// accounting is to stay serial-exact, and for having detached every
  /// worker.
  void endConcurrent();
  bool concurrent() const { return Concurrent; }

  /// Attaches \p W (its frame arena and delta sink) to the calling thread,
  /// which runs that worker's iterations until detach().
  void attach(MemWorker &W);
  /// Detaches the calling thread's worker.
  void detach();

  /// Raises the peak high-water mark to \p Peak if higher — the post-join
  /// replay's output.
  void notePeak(uint64_t Peak) {
    if (Peak > PeakBytes)
      PeakBytes = Peak;
  }

  /// Registers a block excluded from byte accounting (worker frame copies):
  /// visible to containing()/bounds checks but invisible to currentBytes/
  /// peakBytes/liveAllocations. Serial-mode only (create worker frames
  /// before beginConcurrent()).
  uint64_t allocateUntracked(uint64_t Size);
  /// Releases a block created by allocateUntracked. Serial-mode only.
  void releaseUntracked(uint64_t Base);

  //===------------------------------------------------------------------===//
  // Speculation checkpoints (guarded execution's fallback mode)
  //===------------------------------------------------------------------===//
  //
  // beginSpeculation() snapshots every live allocation (registry metadata
  // and contents). While speculating, deallocate() of a pre-checkpoint block
  // only marks it dead and defers the host delete (so the address cannot be
  // reused and the block can be resurrected), while blocks both created and
  // freed during speculation are reclaimed eagerly. rollbackSpeculation()
  // restores the checkpoint exactly: contents, registry, CurBytes, NumLive,
  // and NextGeneration (so a re-execution hands out the same generation
  // numbers); only PeakBytes keeps the speculative high-water mark.
  // commitSpeculation() keeps the current state and reclaims the quarantine.

  /// Starts a checkpointed region; must not already be speculating.
  void beginSpeculation();
  /// Keeps all changes since beginSpeculation().
  void commitSpeculation();
  /// Reverts all changes since beginSpeculation().
  void rollbackSpeculation();
  bool speculating() const { return Speculating; }

private:
  struct SpecSaved {
    Allocation Meta;
    std::unique_ptr<uint8_t[]> Bytes;
  };
  std::vector<SpecSaved> SpecSnapshot;
  /// Bases of pre-checkpoint blocks freed during speculation (host delete
  /// deferred; registry entry kept with Live = false).
  std::vector<uint64_t> SpecQuarantine;
  bool Speculating = false;
  uint32_t SpecBeginGeneration = 0;
  uint64_t SpecCurBytes = 0;
  uint32_t SpecNumLive = 0;
  // The registry is a sorted interval structure keyed by base address
  // (allocations never overlap, so base order is interval order); lookup is
  // an upper_bound probe on the predecessor interval. std::map keeps node
  // addresses stable across inserts, which the lookup cache relies on.
  std::map<uint64_t, Allocation> ByBase;
  // Accesses are heavily clustered (a loop walking one array hits the same
  // allocation millions of times, and interleaves it with its frame and a
  // few other blocks), so containing() checks the allocations the tree
  // probe returned last, newest first, before probing the tree again. The
  // set is written by const lookups, so concurrent mode must not touch it
  // at all (reads and writes both race); an entry is dropped when its
  // allocation is freed, and the whole set when concurrent mode or a
  // speculation ends.
  static constexpr unsigned RecentSize = 4;
  mutable const Allocation *Recent[RecentSize] = {};
  /// Atomic because worker frame pushes charge it without Mu when a byte
  /// budget is set.
  std::atomic<uint64_t> CurBytes{0};
  uint64_t PeakBytes = 0;
  uint64_t ByteBudget = 0;
  /// Atomic because worker frame arenas take generation batches without Mu.
  std::atomic<uint32_t> NextGeneration{1};
  uint32_t NumLive = 0;

  // Concurrent-mode state. The mutex serializes registry structure; block
  // *contents* are the program's own to race (that is what the expansion
  // transformation exists to prevent, and what the tsan negative fixture
  // demonstrates when it is absent).
  bool Concurrent = false;
  mutable std::mutex Mu;
  /// Blocks freed while concurrent that another thread may still hold: marked
  /// dead immediately but host-deleted and erased only at endConcurrent().
  std::vector<uint64_t> ConcQuarantine;
  static thread_local MemWorker *TLWorker;

  /// Marks \p A shared unless the calling thread is its owning worker.
  /// Caller holds Mu.
  void noteHolder(const Allocation &A) const;
  /// The next generation, in serial mode (no other thread allocates).
  uint32_t takeGeneration();
  /// Adds \p Size to CurBytes unless the byte budget would be exceeded.
  bool chargeBytes(uint64_t Size);
  uint64_t pushFrame(MemWorker &W, uint64_t Size, uint32_t SiteId);
  /// Drops \p A from the lookup cache.
  void forget(const Allocation &A);
  void clearRecent() {
    for (const Allocation *&Slot : Recent)
      Slot = nullptr;
  }
};

} // namespace gdse

#endif // GDSE_INTERP_MEMORY_H
