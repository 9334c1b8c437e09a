//===- sim/Visited.cpp - Collapse-compressed visited map ------------------===//

#include "sim/Visited.h"

#include <algorithm>
#include <cstring>
#include <functional>

using namespace pushpull;

namespace {

/// Shards of a table shared by more than one worker.
constexpr unsigned ConcurrentShardBits = 6;

/// Hash of an id tuple.  Ids are small dense integers, so every word is
/// mixed in and the result finalized (splitmix64) before its low bits pick
/// a shard and its high bits tag a slot.
uint64_t hashIds(const SmallVec<uint32_t, 8> &Ids) {
  uint64_t H = Ids.size();
  for (uint32_t Id : Ids)
    H = (H ^ Id) * 0x9e3779b97f4a7c15ull;
  H ^= H >> 30;
  H *= 0xbf58476d1ce4e5b9ull;
  H ^= H >> 27;
  H *= 0x94d049bb133111ebull;
  return H ^ (H >> 31);
}

uint32_t tagOf(uint64_t Hash) { return static_cast<uint32_t>(Hash >> 32); }

} // namespace

void SlotIndex::grow() {
  std::vector<Slot> Old = std::move(Slots);
  Slots.assign(Old.empty() ? 16 : Old.size() * 2, Slot());
  size_t Mask = Slots.size() - 1;
  for (const Slot &S : Old) {
    if (S.Index == 0)
      continue;
    size_t P = S.Tag & Mask;
    while (Slots[P].Index != 0)
      P = (P + 1) & Mask;
    Slots[P] = S;
  }
}

InternTable::InternTable(unsigned Workers)
    : ShardBits(Workers > 1 ? ConcurrentShardBits : 0),
      ShardMask((1u << ShardBits) - 1), Shards(size_t(1) << ShardBits) {}

uint32_t InternTable::intern(std::string_view Bytes) {
  if (Bytes.empty())
    return 0;
  uint64_t H = std::hash<std::string_view>{}(Bytes);
  uint32_t ShardNo = static_cast<uint32_t>(H) & ShardMask;
  Shard &S = Shards[ShardNo];
  std::unique_lock<std::mutex> Lock(S.Mutex, std::defer_lock);
  if (ShardMask)
    Lock.lock();
  uint32_t Local = S.Index.findOrInsert(
      tagOf(H),
      [&](uint32_t I) {
        return std::string_view(S.Data).substr(
                   S.Ends[I - 1], S.Ends[I] - S.Ends[I - 1]) == Bytes;
      },
      [&] {
        S.Data += Bytes;
        S.Ends.push_back(static_cast<uint32_t>(S.Data.size()));
        return static_cast<uint32_t>(S.Ends.size() - 1);
      }).first;
  return (Local << ShardBits) | ShardNo;
}

size_t InternTable::bytes() const {
  size_t B = Shards.capacity() * sizeof(Shard);
  for (const Shard &S : Shards)
    B += S.Data.capacity() + S.Ends.capacity() * sizeof(uint32_t) +
         S.Index.bytes();
  return B;
}

VisitedSet::VisitedSet(unsigned Workers, size_t Sections)
    : Sections(Workers), Sleeps(Workers), Width(Sections),
      Stride(Sections + 2), Concurrent(Workers > 1),
      Shards(Concurrent ? size_t(1) << ConcurrentShardBits : 1) {}

void VisitedSet::sectionIds(const ConfigKeySections &Key,
                            SmallVec<uint32_t, 8> &Ids) {
  Ids.clear();
  for (size_t I = 0; I < Key.size(); ++I)
    Ids.push_back(Sections.intern(Key.section(I)));
}

uint32_t VisitedSet::append(Shard &S, const SmallVec<uint32_t, 8> &Ids,
                            uint32_t Depth, uint32_t SleepId) {
  size_t J = S.Count;
  if (J / ChunkEntries == S.Chunks.size()) {
    S.Chunks.push_back(std::make_unique<uint32_t[]>(
        (J ? ChunkEntries : 32) * Stride));
    if (!J)
      S.FirstChunkEntries = 32;
  } else if (J == S.FirstChunkEntries && J < ChunkEntries) {
    size_t Cap = std::min(2 * S.FirstChunkEntries, ChunkEntries);
    auto Grown = std::make_unique<uint32_t[]>(Cap * Stride);
    std::memcpy(Grown.get(), S.Chunks[0].get(), J * Stride * sizeof(uint32_t));
    S.Chunks[0] = std::move(Grown);
    S.FirstChunkEntries = Cap;
  }
  uint32_t *E = entry(S, ++S.Count);
  std::copy(Ids.begin(), Ids.end(), E);
  E[Width] = Depth;
  E[Width + 1] = SleepId;
  return S.Count;
}

VisitedSet::Claim VisitedSet::claim(const ConfigKeySections &Key,
                                    uint32_t Depth,
                                    const StoredSleep *Sleep) {
  SmallVec<uint32_t, 8> Ids;
  sectionIds(Key, Ids);
  uint64_t H = hashIds(Ids);
  Shard &S = Shards[Concurrent ? H & (Shards.size() - 1) : 0];
  std::unique_lock<std::mutex> Lock(S.Mutex, std::defer_lock);
  if (Concurrent)
    Lock.lock();
  auto [Index, Fresh] = S.Index.findOrInsert(
      tagOf(H),
      [&](uint32_t I) {
        return std::equal(Ids.begin(), Ids.end(), entry(S, I));
      },
      [&] {
        uint32_t SleepId = Sleep ? Sleeps.intern(Sleep->bytes()) : 0;
        return append(S, Ids, Depth, SleepId);
      });
  if (Fresh)
    return {true, true};

  uint32_t *E = entry(S, Index);
  uint32_t &StoredDepth = E[Width], &StoredSleepId = E[Width + 1];
  StoredSleep Stored;
  if (Sleep && StoredSleepId != 0)
    Sleeps.with(StoredSleepId,
                [&](std::string_view Bytes) { Stored.assign(Bytes); });
  bool Shallower = Depth < StoredDepth;
  bool SleepCovered = !Sleep || Sleep->supersetOf(Stored);
  if (!Shallower && SleepCovered)
    return {false, false};
  StoredDepth = std::min(StoredDepth, Depth);
  if (Sleep && !Stored.empty()) {
    Stored.intersectWith(*Sleep);
    StoredSleepId = Sleeps.intern(Stored.bytes());
  }
  return {false, true};
}

size_t VisitedSet::bytes() const {
  size_t B = Sections.bytes() + Sleeps.bytes() +
             Shards.capacity() * sizeof(Shard);
  for (const Shard &S : Shards) {
    B += S.Index.bytes() +
         S.Chunks.capacity() * sizeof(std::unique_ptr<uint32_t[]>);
    if (!S.Chunks.empty())
      B += (S.FirstChunkEntries + (S.Chunks.size() - 1) * ChunkEntries) *
           Stride * sizeof(uint32_t);
  }
  return B;
}
