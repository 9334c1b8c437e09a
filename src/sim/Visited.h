//===- sim/Visited.h - Collapse-compressed visited map ----------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The explorer's visited map, stored by collapse compression (Holzmann,
/// *State Compression in SPIN*, 1997).  A configuration key
/// (PushPullMachine::renderKey) is a sequence of self-delimiting sections:
/// one per thread slot, the G section and the committed-content section.
/// Few distinct sections occur across millions of configurations, so each
/// is hash-consed once into an InternTable and a visited entry is the
/// tuple of section ids plus the configuration's shallowest depth and the
/// interned id of its stored sleep set.  Two tuples are equal exactly
/// when the two key strings are equal (ConfigKeySections), so the map
/// partitions configurations exactly like a map of key strings: there is
/// no hash-compaction loss.
///
/// Both tables are sharded like the explorer's workers: one unlocked shard
/// for a lone worker (64 locked shards cost it about 10% of its wall time,
/// EXPERIMENTS.md E15), 64 mutex-guarded shards otherwise.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_SIM_VISITED_H
#define PUSHPULL_SIM_VISITED_H

#include "core/Machine.h"
#include "sim/Reduction.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pushpull {

/// An open-addressing index of (32-bit hash tag, 1-based entry index)
/// slots with linear probing, doubled at 3/4 load.  The entries live with
/// the owner; the index only finds them.
class SlotIndex {
public:
  /// The index of the entry tagged \p Tag that \p Match accepts, or, when
  /// there is none, the index \p Make returns for a new one (then the
  /// second member is true).  Indices are nonzero.
  template <typename MatchFn, typename MakeFn>
  std::pair<uint32_t, bool> findOrInsert(uint32_t Tag, MatchFn &&Match,
                                         MakeFn &&Make) {
    if ((Used + 1) * 4 > Slots.size() * 3)
      grow();
    size_t Mask = Slots.size() - 1;
    for (size_t P = Tag & Mask;; P = (P + 1) & Mask) {
      Slot &S = Slots[P];
      if (S.Index == 0) {
        S.Tag = Tag;
        S.Index = Make();
        ++Used;
        return {S.Index, true};
      }
      if (S.Tag == Tag && Match(S.Index))
        return {S.Index, false};
    }
  }

  size_t bytes() const { return Slots.capacity() * sizeof(Slot); }

private:
  struct Slot {
    uint32_t Tag = 0;
    uint32_t Index = 0; ///< 0: empty.
  };
  void grow();

  std::vector<Slot> Slots;
  size_t Used = 0;
};

/// Hash-consing table of byte strings to dense 32-bit ids.  The empty
/// string is always id 0.  Equal ids are equal strings and vice versa.
class InternTable {
public:
  /// One unlocked shard for a lone worker, 64 locked ones otherwise.
  explicit InternTable(unsigned Workers);
  InternTable(const InternTable &) = delete;
  InternTable &operator=(const InternTable &) = delete;

  uint32_t intern(std::string_view Bytes);

  /// Call \p F with the string behind \p Id (an id this table returned),
  /// under its shard's lock.
  template <typename Fn> void with(uint32_t Id, Fn &&F) const {
    if (Id == 0) {
      F(std::string_view());
      return;
    }
    const Shard &S = Shards[Id & ShardMask];
    std::unique_lock<std::mutex> Lock(S.Mutex, std::defer_lock);
    if (ShardMask)
      Lock.lock();
    uint32_t Local = Id >> ShardBits;
    F(std::string_view(S.Data).substr(S.Ends[Local - 1],
                                      S.Ends[Local] - S.Ends[Local - 1]));
  }

  /// Memory held: string bytes, offsets and index slots.
  size_t bytes() const;

private:
  struct Shard {
    mutable std::mutex Mutex;
    SlotIndex Index;
    /// The strings back to back; string i (1-based) spans
    /// [Ends[i-1], Ends[i]).
    std::string Data;
    std::vector<uint32_t> Ends{0};
  };
  unsigned ShardBits;
  uint32_t ShardMask;
  std::vector<Shard> Shards;
};

/// The explorer's visited map: configuration key -> the shallowest depth
/// it was explored at and the intersection of the sleep sets it was
/// explored with.  The first claim is "fresh" and does the per-config
/// accounting (visit count, invariants, terminal verdict).  A later claim
/// re-explores, without re-accounting, iff it is shallower (part of the
/// stored subtree may have been depth-pruned) or its sleep set is not a
/// superset of the stored one (it could explore a transition every stored
/// visit pruned); the entry then absorbs it.  This is the classical
/// sleep-sets + state-caching protocol; with sleep sets off
/// (Reduction::None) it degenerates to a depth-only rule.
class VisitedSet {
public:
  struct Claim {
    bool Fresh;   ///< First time this config was ever seen.
    bool Explore; ///< Caller should expand its successors.
  };

  /// A map for \p Workers search workers over keys of \p Sections
  /// sections (thread slots + 2).
  VisitedSet(unsigned Workers, size_t Sections);

  /// Claim the configuration keyed \p Key, reached at \p Depth with the
  /// canonical sleep set \p Sleep (null when sleep sets are off).
  Claim claim(const ConfigKeySections &Key, uint32_t Depth,
              const StoredSleep *Sleep);

  /// The section ids of \p Key, interning each: the tuple a visited entry
  /// stores.
  void sectionIds(const ConfigKeySections &Key, SmallVec<uint32_t, 8> &Ids);

  /// Memory held by the entries, their index, the interned sections and
  /// the interned sleep sets.
  size_t bytes() const;

private:
  static constexpr size_t ChunkEntries = 1024;
  struct Shard {
    std::mutex Mutex;
    SlotIndex Index;
    /// Entries of Stride words, ChunkEntries per chunk.  Chunk 0 starts
    /// small and doubles up to ChunkEntries, so a near-empty shard costs
    /// little.
    std::vector<std::unique_ptr<uint32_t[]>> Chunks;
    size_t FirstChunkEntries = 0;
    uint32_t Count = 0;
  };
  uint32_t *entry(Shard &S, uint32_t Index) const {
    size_t J = Index - 1;
    return S.Chunks[J / ChunkEntries].get() + (J % ChunkEntries) * Stride;
  }
  uint32_t append(Shard &S, const SmallVec<uint32_t, 8> &Ids, uint32_t Depth,
                  uint32_t SleepId);

  /// Every section of every key, and every stored sleep set.
  InternTable Sections, Sleeps;
  /// Section ids per entry, and words per entry (ids, depth, sleep id).
  size_t Width, Stride;
  bool Concurrent;
  std::vector<Shard> Shards;
};

} // namespace pushpull

#endif // PUSHPULL_SIM_VISITED_H
