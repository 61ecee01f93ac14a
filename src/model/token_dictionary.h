// Incremental token dictionary: interns token strings to dense
// TokenIds. The blocking layer keys its block collection by TokenId,
// so the dictionary is shared state between Data Reading and
// Incremental Blocking. It also tracks per-token document frequency,
// which is snapshotted with the spellings (no weighting scheme reads
// it).
//
// Memory layout (paper scale): spellings live in one append-only
// char arena (model/arena.h) instead of one std::string each, and the
// id map is a flat open-addressing table of (hash, id) slots probing
// linearly -- no per-token heap allocation, no duplicate copy of every
// spelling as a map key, and no pointer-chasing bucket chains on the
// tokenizer hot path (Intern is ~1 cache line per probe; a stored
// 64-bit hash rejects collisions before touching the arena).

#ifndef PIER_MODEL_TOKEN_DICTIONARY_H_
#define PIER_MODEL_TOKEN_DICTIONARY_H_

#include <iosfwd>
#include <string_view>
#include <vector>

#include "model/arena.h"
#include "model/types.h"

namespace pier {

class TokenDictionary {
 public:
  TokenDictionary() = default;

  // Not copyable (dictionaries are large and shared by reference).
  TokenDictionary(const TokenDictionary&) = delete;
  TokenDictionary& operator=(const TokenDictionary&) = delete;

  // Returns the id for `token`, interning it if new.
  TokenId Intern(std::string_view token);

  // Returns the id for `token` or kInvalidTokenId if never interned.
  TokenId Lookup(std::string_view token) const;

  // View into the spelling arena; valid for the dictionary's lifetime.
  std::string_view Spelling(TokenId id) const;

  // Number of profiles whose token set contains `id` (document
  // frequency); maintained by IncrementDocFrequency.
  uint32_t DocFrequency(TokenId id) const;
  void IncrementDocFrequency(TokenId id);
  // Retraction counterpart (mutable streams): a deleted profile gives
  // back one document per token. The spelling stays interned — ids are
  // dense and shard routing hashes spellings, so forgetting one would
  // break determinism.
  void DecrementDocFrequency(TokenId id);

  size_t size() const { return spellings_.size(); }

  // Serializes every interned token in id order together with its
  // document frequency (canonical: same dictionary, same bytes).
  void Snapshot(std::ostream& out) const;

  // Restores a Snapshot payload into this dictionary, which must be
  // empty. Returns false on decode failure.
  bool Restore(std::istream& in);

  // Heap footprint estimate: spelling arena, views, ids map, and
  // frequency vector.
  size_t ApproxMemoryBytes() const;

 private:
  // One open-addressing slot: id_plus_one == 0 marks an empty slot
  // (TokenId 0 is valid, so ids are stored shifted by one).
  struct Slot {
    uint64_t hash = 0;
    uint32_t id_plus_one = 0;
  };

  // Returns the slot holding `token` (hash `h`) or the empty slot
  // where it belongs. The table is never full (grown at 70% load).
  size_t FindSlot(uint64_t h, std::string_view token) const;
  void GrowTable();

  std::vector<Slot> table_;  // power-of-two size, linear probing
  std::vector<std::string_view> spellings_;  // id -> arena view
  TextArena spelling_arena_;
  std::vector<uint32_t> doc_frequency_;
};

}  // namespace pier

#endif  // PIER_MODEL_TOKEN_DICTIONARY_H_
