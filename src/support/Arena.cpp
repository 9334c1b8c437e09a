//===- support/Arena.cpp - Bump-pointer arena and memory counters ----------===//

#include "support/Arena.h"

#include <cassert>
#include <cstdlib>
#include <mutex>
#include <new>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define PUSHPULL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PUSHPULL_ASAN 1
#endif
#endif

using namespace pushpull;

namespace pushpull::memstats {
std::atomic<uint64_t> SnapshotBytes{0};
std::atomic<uint64_t> ChunkShares{0};
std::atomic<uint64_t> DeepCopies{0};
std::atomic<uint64_t> MachineCopies{0};
std::atomic<uint64_t> ArenaBytes{0};

Snapshot read() {
  Snapshot S;
  S.SnapshotBytes = SnapshotBytes.load(std::memory_order_relaxed);
  S.ChunkShares = ChunkShares.load(std::memory_order_relaxed);
  S.DeepCopies = DeepCopies.load(std::memory_order_relaxed);
  S.MachineCopies = MachineCopies.load(std::memory_order_relaxed);
  S.ArenaBytes = ArenaBytes.load(std::memory_order_relaxed);
  return S;
}
} // namespace pushpull::memstats

//===----------------------------------------------------------------------===//
// Arena
//===----------------------------------------------------------------------===//

struct Arena::Block {
  Block *Prev;
  size_t Size; ///< Payload bytes.
};

static constexpr size_t FirstBlockBytes = 4096;
static constexpr size_t MaxBlockBytes = 256 * 1024;

namespace {
inline unsigned char *blockPayload(void *B) {
  return reinterpret_cast<unsigned char *>(B) + sizeof(Arena::Block);
}
} // namespace

struct Arena::Block *Arena::newBlock(size_t MinBytes) {
  size_t Payload = Current ? static_cast<Block *>(Current)->Size * 2
                           : FirstBlockBytes;
  if (Payload > MaxBlockBytes)
    Payload = MaxBlockBytes;
  if (Payload < MinBytes)
    Payload = MinBytes;
  auto *B = static_cast<Block *>(
      ::operator new(sizeof(Block) + Payload, std::align_val_t(alignof(std::max_align_t))));
  B->Prev = static_cast<Block *>(Current);
  B->Size = Payload;
  Current = B;
  Used = 0;
  return B;
}

void *Arena::allocate(size_t Bytes, size_t Align) {
  assert(Align <= alignof(std::max_align_t) && "over-aligned arena request");
  size_t Aligned = (Used + Align - 1) & ~(Align - 1);
  Block *B = static_cast<Block *>(Current);
  if (!B || Aligned + Bytes > B->Size) {
    B = newBlock(Bytes);
    Aligned = 0;
  }
  Used = Aligned + Bytes;
  Allocated += Bytes;
  memstats::ArenaBytes.fetch_add(Bytes, std::memory_order_relaxed);
  return blockPayload(B) + Aligned;
}

void Arena::rewind(Mark M) {
  Block *B = static_cast<Block *>(Current);
  while (B != M.Block) {
    assert(B && "rewind mark not from this arena");
    Block *Prev = B->Prev;
    ::operator delete(B, std::align_val_t(alignof(std::max_align_t)));
    B = Prev;
  }
  Current = B;
  Used = M.Used;
}

Arena::~Arena() { rewind(Mark{}); }

//===----------------------------------------------------------------------===//
// Chunk pool
//===----------------------------------------------------------------------===//
//
// Power-of-two size classes from 32 bytes to 16 KiB.  Each live thread
// keeps a free list per class.  Lists move whole between a thread and the
// process-wide pool: a thread whose list runs dry takes one returned list
// (or carves a fresh slab under the pool mutex), and a thread that has
// freed CacheLimit chunks of a class since it last took or returned a
// list returns its list, as does a thread that exits.  Chunks freed on a
// different thread than they were allocated on land in the freeing
// thread's list, so explorer workers that hand machines to each other
// shift chunks between threads; returning lists keeps those chunks
// reusable by every thread instead of growing the slab footprint.  Slab
// memory is never released, so no list ever points into freed storage.

#ifndef PUSHPULL_ASAN

namespace {

constexpr size_t MinClassLog2 = 5;  // 32 B
constexpr size_t MaxClassLog2 = 14; // 16 KiB
constexpr size_t NumClasses = MaxClassLog2 - MinClassLog2 + 1;
constexpr size_t SlabBytes = 64 * 1024;
constexpr uint32_t CacheLimit = 1024;

struct FreeNode {
  FreeNode *Next;
};

struct GlobalPool {
  std::mutex Mutex;
  Arena Slabs;
  /// Per class, the free lists threads returned.
  std::vector<FreeNode *> Lists[NumClasses];

  static GlobalPool &get() {
    static GlobalPool P;
    return P;
  }
};

/// Size class of \p Bytes, or NumClasses when too large to pool.
inline size_t classOf(size_t Bytes) {
  size_t C = MinClassLog2;
  while (C <= MaxClassLog2 && (size_t{1} << C) < Bytes)
    ++C;
  return C - MinClassLog2;
}

struct ThreadCache {
  FreeNode *Lists[NumClasses] = {};
  /// Chunks freed per class since the list was last taken or returned.
  uint32_t Frees[NumClasses] = {};

  /// Hand class \p C's list to the global pool.
  void giveBack(size_t C) {
    GlobalPool &G = GlobalPool::get();
    std::lock_guard<std::mutex> Lock(G.Mutex);
    G.Lists[C].push_back(Lists[C]);
    Lists[C] = nullptr;
    Frees[C] = 0;
  }

  ~ThreadCache() {
    for (size_t C = 0; C < NumClasses; ++C)
      if (Lists[C])
        giveBack(C);
  }
};

thread_local ThreadCache LocalCache;

} // namespace

void *pushpull::chunkAlloc(size_t Bytes) {
  size_t C = classOf(Bytes);
  if (C >= NumClasses)
    return ::operator new(Bytes);
  FreeNode *&Head = LocalCache.Lists[C];
  if (!Head) {
    size_t ClassBytes = size_t{1} << (C + MinClassLog2);
    GlobalPool &G = GlobalPool::get();
    std::lock_guard<std::mutex> Lock(G.Mutex);
    LocalCache.Frees[C] = 0;
    if (!G.Lists[C].empty()) {
      Head = G.Lists[C].back();
      G.Lists[C].pop_back();
    } else {
      size_t Count = SlabBytes / ClassBytes;
      auto *Slab = static_cast<unsigned char *>(
          G.Slabs.allocate(Count * ClassBytes, alignof(std::max_align_t)));
      for (size_t I = 0; I < Count; ++I) {
        auto *N = reinterpret_cast<FreeNode *>(Slab + I * ClassBytes);
        N->Next = Head;
        Head = N;
      }
    }
  }
  FreeNode *N = Head;
  Head = N->Next;
  return N;
}

void pushpull::chunkFree(void *P, size_t Bytes) {
  size_t C = classOf(Bytes);
  if (C >= NumClasses) {
    ::operator delete(P);
    return;
  }
  auto *N = static_cast<FreeNode *>(P);
  N->Next = LocalCache.Lists[C];
  LocalCache.Lists[C] = N;
  if (++LocalCache.Frees[C] == CacheLimit)
    LocalCache.giveBack(C);
}

#else // PUSHPULL_ASAN

// Under AddressSanitizer every chunk is an individual heap object so asan
// can poison freed chunks and catch stale CoW references precisely.
void *pushpull::chunkAlloc(size_t Bytes) { return ::operator new(Bytes); }
void pushpull::chunkFree(void *P, size_t) { ::operator delete(P); }

#endif // PUSHPULL_ASAN
