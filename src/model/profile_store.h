// Append-only store of all profiles ingested so far, indexed by their
// dense ProfileId. Shared by blocking, prioritization, and matching.
//
// Storage is chunked so profile addresses are *stable across Add*:
// once a profile is in the store, `Get(id)` returns the same reference
// forever. This is what lets the parallel match executor read profiles
// lock-free while an ingest thread appends new ones (the realtime
// pipeline's threading model, see stream/sharded_pipeline.h):
//
//  * single writer: Add must be called by one thread at a time (the
//    pipeline serializes ingest under its mutex);
//  * any number of readers may call Get(id) concurrently with Add,
//    provided `id` was ingested before the reader learned about it
//    (comparisons only ever reference already-ingested profiles).
//
// The chunk directory is a fixed-capacity array of atomic pointers, so
// publishing a new chunk never relocates memory a reader may be
// traversing; the size counter is released after the profile is fully
// constructed.

#ifndef PIER_MODEL_PROFILE_STORE_H_
#define PIER_MODEL_PROFILE_STORE_H_

#include <atomic>
#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "model/arena.h"
#include "model/entity_profile.h"
#include "model/types.h"
#include "util/check.h"

namespace pier {

class ProfileStore {
 public:
  ProfileStore()
      : chunks_(new std::atomic<EntityProfile*>[kMaxChunks]()) {}

  ~ProfileStore() {
    for (size_t i = 0; i < kMaxChunks; ++i) {
      EntityProfile* chunk = chunks_[i].load(std::memory_order_relaxed);
      if (chunk == nullptr) break;  // chunks are allocated densely
      delete[] chunk;
    }
  }

  ProfileStore(const ProfileStore&) = delete;
  ProfileStore& operator=(const ProfileStore&) = delete;

  // Appends a profile; its id must equal the current size (dense ids
  // in ingestion order). The profile's payloads (tokens, flat text,
  // attributes) are moved into this store's arenas, so the stored
  // record owns no heap memory of its own. Single writer only; the
  // arena writes happen-before the size_ release-store, which is what
  // makes the views safe for lock-free readers.
  void Add(EntityProfile profile) {
    const size_t n = size_.load(std::memory_order_relaxed);
    PIER_CHECK(profile.id == n);
    const size_t chunk_index = n >> kChunkShift;
    PIER_CHECK(chunk_index < kMaxChunks);
    EntityProfile* chunk = chunks_[chunk_index].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new EntityProfile[kChunkSize];
      chunks_[chunk_index].store(chunk, std::memory_order_release);
    }
    token_counts_.push_back(static_cast<uint32_t>(profile.tokens().size()));
    live_.push_back(1);
    ++num_live_;
    AdoptIntoArenas(&profile);
    chunk[n & kChunkMask] = std::move(profile);
    size_.store(n + 1, std::memory_order_release);
  }

  // Tombstones a profile: the id stays allocated (ids are dense and
  // never reused) but the record's content is cleared to reclaim heap
  // and the profile no longer counts as live. Writer-side only, and —
  // like Replace — only while no matcher thread holds a reference to
  // the record (the pipelines apply mutations quiesced).
  void Remove(ProfileId id) {
    PIER_CHECK(id < size_.load(std::memory_order_relaxed));
    PIER_CHECK(live_[id] != 0);
    EntityProfile& p = GetMutable(id);
    AbandonArenaSpans(p);
    EntityProfile cleared;
    cleared.id = p.id;
    cleared.source = p.source;
    p = std::move(cleared);
    token_counts_[id] = 0;
    live_[id] = 0;
    --num_live_;
  }

  // Replaces a record in place (correction); revives a tombstoned id.
  // The old record's arena spans are abandoned (ids are never reused
  // and a quiesced-out reader may still hold them); the new payloads
  // are appended to the arena tails. Same threading contract as
  // Remove.
  void Replace(EntityProfile profile) {
    const ProfileId id = profile.id;
    PIER_CHECK(id < size_.load(std::memory_order_relaxed));
    EntityProfile& p = GetMutable(id);
    AbandonArenaSpans(p);
    token_counts_[id] = static_cast<uint32_t>(profile.tokens().size());
    AdoptIntoArenas(&profile);
    p = std::move(profile);
    if (live_[id] == 0) {
      live_[id] = 1;
      ++num_live_;
    }
  }

  // False for tombstoned ids. Writer/ingest thread only (the liveness
  // sidecar relocates on growth, like token_counts_).
  bool IsLive(ProfileId id) const {
    PIER_DCHECK(id < live_.size());
    return live_[id] != 0;
  }

  size_t num_live() const { return num_live_; }

  const EntityProfile& Get(ProfileId id) const {
    PIER_DCHECK(id < size_.load(std::memory_order_acquire));
    return chunks_[id >> kChunkShift].load(std::memory_order_acquire)
        [id & kChunkMask];
  }

  // Writer-side only (derived-field fill during ingest). Note the
  // token-count sidecar snapshots |tokens| at Add time: profiles must
  // be tokenized before Add (all ingest paths do), not patched here.
  EntityProfile& GetMutable(ProfileId id) {
    PIER_DCHECK(id < size_.load(std::memory_order_relaxed));
    return chunks_[id >> kChunkShift].load(std::memory_order_relaxed)
        [id & kChunkMask];
  }

  // |tokens| of profile `id`, served from a contiguous sidecar so the
  // weighting kernel reads one cache-friendly uint32 per neighbour
  // instead of chasing into the (much larger) EntityProfile record.
  // Unlike Get, the sidecar's backing array relocates on growth:
  // callers must run on the ingest thread or be quiesced against Add.
  // All weighting call sites satisfy this (weighting happens during
  // ingest or in batch phases); matcher threads never read it.
  uint32_t TokenCount(ProfileId id) const {
    PIER_DCHECK(id < token_counts_.size());
    return token_counts_[id];
  }

  size_t size() const { return size_.load(std::memory_order_acquire); }
  bool empty() const { return size() == 0; }

  // Heap footprint: chunk directory, allocated chunks, the sidecars,
  // and the arenas' allocated bytes (which own every stored profile's
  // payload memory). Writer thread only.
  size_t ApproxMemoryBytes() const;

  // The arenas owning all stored payloads; exposed read-only for
  // memory accounting and the layout tests.
  const TokenArena& token_arena() const { return token_arena_; }
  const TextArena& text_arena() const { return text_arena_; }

  // Serializes all profiles in id order (little-endian; see
  // util/serial.h). Writer thread only. The wire format is identical
  // to the pre-arena layout (staged and arena-backed profiles
  // serialize the same bytes).
  void Snapshot(std::ostream& out) const;

  // Restores a Snapshot payload into this store, which must be empty.
  // Returns false on decode failure or non-dense ids, never aborts.
  bool Restore(std::istream& in);

 private:
  // Moves a staged (or foreign-arena) profile's payloads into this
  // store's arenas and rewires the record to view them.
  void AdoptIntoArenas(EntityProfile* profile) {
    const std::span<const TokenId> tokens = profile->tokens();
    const std::string_view text = profile->flat_text();
    attr_scratch_.clear();
    profile->EncodeAttributes(&attr_scratch_);
    const TokenId* token_data = token_arena_.Append(tokens.data(),
                                                    tokens.size());
    const char* text_data = text_arena_.Append(text.data(), text.size());
    const char* attrs_data =
        text_arena_.Append(attr_scratch_.data(), attr_scratch_.size());
    profile->AdoptArenaViews(
        token_data, static_cast<uint32_t>(tokens.size()), text_data,
        static_cast<uint32_t>(text.size()), attrs_data,
        static_cast<uint32_t>(attr_scratch_.size()),
        static_cast<uint32_t>(profile->num_attributes()));
  }

  void AbandonArenaSpans(const EntityProfile& profile) {
    token_arena_.Abandon(profile.arena_token_items());
    text_arena_.Abandon(profile.arena_text_items());
  }

  static constexpr size_t kChunkShift = 12;  // 4096 profiles per chunk
  static constexpr size_t kChunkSize = size_t{1} << kChunkShift;
  static constexpr size_t kChunkMask = kChunkSize - 1;
  static constexpr size_t kMaxChunks = size_t{1} << 16;  // 268M profiles

  std::unique_ptr<std::atomic<EntityProfile*>[]> chunks_;
  TokenArena token_arena_;
  TextArena text_arena_;
  std::string attr_scratch_;            // Add-path encode buffer
  std::vector<uint32_t> token_counts_;  // sidecar, writer-appended
  std::vector<uint8_t> live_;           // sidecar, 0 = tombstoned
  size_t num_live_ = 0;
  std::atomic<size_t> size_{0};
};

}  // namespace pier

#endif  // PIER_MODEL_PROFILE_STORE_H_
