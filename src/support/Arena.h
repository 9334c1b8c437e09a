//===- support/Arena.h - Bump-pointer arena and memory counters -*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Allocation support for the explorer's and fuzzer's hot paths:
///
///  * Arena — a bump-pointer allocator over malloc'd blocks with scoped
///    checkpoints (mark/rewind).  The explorer opens a scope per successor
///    expansion and builds its candidate scratch inside it; rewinding is a
///    pointer reset, so per-expansion allocation cost is amortized to zero.
///    Rewind runs no destructors: only trivially destructible scratch may
///    live in a scoped arena (ArenaVec enforces this).
///
///  * chunkAlloc/chunkFree — the allocator behind the copy-on-write log
///    chunks (support/Cow.h).  Chunks are recycled through thread-local
///    free lists that move whole to and from a process-wide pool (slabs
///    are never returned to the OS; peak usage bounds the footprint).
///    Chunks may be freed from a different thread than the one that
///    allocated them — explorer workers hand machines to each other — so
///    the free lists only cache, never own, and a thread returns its list
///    to the pool after a bounded number of frees.  Under AddressSanitizer
///    the pool is bypassed (plain operator new/delete) so poisoning and
///    use-after-free detection see every chunk individually; see DESIGN.md
///    section 11.
///
///  * memstats — process-wide relaxed atomic counters for snapshot/copy
///    traffic (SnapshotBytes, ChunkShares, DeepCopies, MachineCopies),
///    surfaced through sim/Stats into `pprun --stats`, ppfuzz and the
///    benches.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_SUPPORT_ARENA_H
#define PUSHPULL_SUPPORT_ARENA_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace pushpull {

/// Process-wide allocation/copy counters.  Monotone; consumers snapshot
/// before and after a run and report the delta.
namespace memstats {

extern std::atomic<uint64_t> SnapshotBytes; ///< Bytes carved into CoW chunks.
extern std::atomic<uint64_t> ChunkShares;   ///< O(1) log sharings (copies).
extern std::atomic<uint64_t> DeepCopies;    ///< Chunks cloned by a CoW write.
extern std::atomic<uint64_t> MachineCopies; ///< Whole-machine copies.
extern std::atomic<uint64_t> ArenaBytes;    ///< Bytes drawn from arenas.

/// One coherent reading of every counter.
struct Snapshot {
  uint64_t SnapshotBytes = 0;
  uint64_t ChunkShares = 0;
  uint64_t DeepCopies = 0;
  uint64_t MachineCopies = 0;
  uint64_t ArenaBytes = 0;

  Snapshot delta(const Snapshot &Before) const {
    return {SnapshotBytes - Before.SnapshotBytes,
            ChunkShares - Before.ChunkShares, DeepCopies - Before.DeepCopies,
            MachineCopies - Before.MachineCopies,
            ArenaBytes - Before.ArenaBytes};
  }
};

Snapshot read();

/// Counts whole-object copies of whatever struct embeds it: copying bumps
/// MachineCopies, moving does not.  Zero-size state, default-everything
/// otherwise, so embedding it never changes copy/move semantics.
struct CopyTick {
  CopyTick() = default;
  CopyTick(const CopyTick &) {
    MachineCopies.fetch_add(1, std::memory_order_relaxed);
  }
  CopyTick(CopyTick &&) noexcept = default;
  CopyTick &operator=(const CopyTick &) = default;
  CopyTick &operator=(CopyTick &&) noexcept = default;
};

} // namespace memstats

/// A bump-pointer arena: allocation is a pointer add within the current
/// block, falling back to a new (geometrically grown) block.  Individual
/// frees do not exist; Scope rewinds to a checkpoint.  Not thread-safe —
/// use one arena per thread (the explorer keeps a thread_local one).
class Arena {
public:
  Arena() = default;
  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;
  ~Arena();

  /// One backing block (opaque; exposed so the .cpp's helpers can name it).
  struct Block;

  void *allocate(size_t Bytes, size_t Align);

  template <typename T> T *allocateArray(size_t Count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is rewound without running destructors");
    return static_cast<T *>(allocate(Count * sizeof(T), alignof(T)));
  }

  /// Total bytes handed out since construction (not reduced by rewind).
  uint64_t allocated() const { return Allocated; }

  /// A checkpoint: (block, offset) pair.
  struct Mark {
    void *Block = nullptr;
    size_t Used = 0;
  };
  Mark mark() const { return {Current, Used}; }

  /// Return to \p M, freeing every block opened after it.  Memory allocated
  /// since \p M must no longer be referenced.
  void rewind(Mark M);

  /// RAII rewind-on-exit.
  class Scope {
  public:
    explicit Scope(Arena &A) : A(A), M(A.mark()) {}
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    ~Scope() { A.rewind(M); }

  private:
    Arena &A;
    Mark M;
  };

private:
  Block *newBlock(size_t MinBytes);

  void *Current = nullptr; ///< Block being bumped (Block*), null initially.
  size_t Used = 0;         ///< Bytes used within Current's payload.
  uint64_t Allocated = 0;
};

/// A push-only array in a (scoped) arena.  Growth copies into a fresh,
/// doubled allocation and abandons the old one — the scope rewind reclaims
/// both.  Element type must be trivially destructible (see Arena).
template <typename T> class ArenaVec {
public:
  explicit ArenaVec(Arena &A) : A(&A) {}

  bool empty() const { return Count == 0; }
  size_t size() const { return Count; }
  T &operator[](size_t I) { return Ptr[I]; }
  const T &operator[](size_t I) const { return Ptr[I]; }
  T *begin() { return Ptr; }
  T *end() { return Ptr + Count; }
  const T *begin() const { return Ptr; }
  const T *end() const { return Ptr + Count; }

  void push_back(const T &V) {
    if (Count == Cap)
      grow();
    ::new (static_cast<void *>(Ptr + Count)) T(V);
    ++Count;
  }

  /// Drop every element at or after index \p NewSize.
  void truncate(size_t NewSize) {
    if (NewSize < Count)
      Count = NewSize;
  }

private:
  void grow() {
    size_t NewCap = Cap ? Cap * 2 : 16;
    T *NewPtr = A->allocateArray<T>(NewCap);
    for (size_t I = 0; I < Count; ++I)
      ::new (static_cast<void *>(NewPtr + I)) T(Ptr[I]);
    Ptr = NewPtr;
    Cap = NewCap;
  }

  Arena *A;
  T *Ptr = nullptr;
  size_t Count = 0;
  size_t Cap = 0;
};

/// Allocate / recycle one CoW chunk of \p Bytes (see the file comment).
/// All chunks of one size class share a pool; \p Bytes must be the same
/// value at free as at alloc (Cow.h chunks are fixed-size per type).
void *chunkAlloc(size_t Bytes);
void chunkFree(void *P, size_t Bytes);

} // namespace pushpull

#endif // PUSHPULL_SUPPORT_ARENA_H
