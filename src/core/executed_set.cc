#include "core/executed_set.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <vector>

#include "util/hashing.h"
#include "util/serial.h"

namespace pier {

ExecutedSet::ExecutedSet(bool exact, bool mutable_stream)
    : mutable_stream_(mutable_stream) {
  if (exact) {
    mode_ = Mode::kExact;
  } else if (mutable_stream) {
    mode_ = Mode::kCounting;
  }
}

bool ExecutedSet::Contains(ProfileId x, ProfileId y) const {
  const uint64_t key = PairKey(x, y);
  switch (mode_) {
    case Mode::kExact:
      return exact_.count(key) != 0;
    case Mode::kBloom:
      return bloom_.MayContain(key);
    case Mode::kCounting:
      return counting_.MayContain(key);
  }
  return false;
}

bool ExecutedSet::TestAndAdd(ProfileId x, ProfileId y) {
  const uint64_t key = PairKey(x, y);
  bool newly_added = false;
  switch (mode_) {
    case Mode::kExact:
      newly_added = exact_.insert(key).second;
      break;
    case Mode::kBloom:
      return bloom_.TestAndAdd(key);
    case Mode::kCounting:
      newly_added = !counting_.TestAndAdd(key);
      break;
  }
  // Record the pair exactly once per insert so Retract withdraws each
  // key once (counting-filter cells tolerate exactly one matching
  // Remove).
  if (newly_added && mutable_stream_) registry_.Add(x, y);
  return !newly_added;
}

size_t ExecutedSet::Retract(ProfileId id) {
  const std::vector<ProfileId> partners = registry_.Take(id);
  for (const ProfileId partner : partners) {
    const uint64_t key = PairKey(id, partner);
    if (mode_ == Mode::kExact) {
      exact_.erase(key);
    } else {
      counting_.Remove(key);
    }
  }
  return partners.size();
}

void ExecutedSet::Snapshot(std::ostream& out) const {
  switch (mode_) {
    case Mode::kExact: {
      // Sorted for canonical bytes (hash-set iteration order varies).
      std::vector<uint64_t> keys(exact_.begin(), exact_.end());
      std::sort(keys.begin(), keys.end());
      serial::WriteVec(out, keys, serial::WriteU64);
      break;
    }
    case Mode::kBloom:
      bloom_.Snapshot(out);
      break;
    case Mode::kCounting:
      counting_.Snapshot(out);
      break;
  }
  if (mutable_stream_) registry_.Snapshot(out);
}

bool ExecutedSet::Restore(std::istream& in) {
  switch (mode_) {
    case Mode::kExact: {
      std::vector<uint64_t> keys;
      if (!serial::ReadVec(in, &keys, serial::ReadU64)) return false;
      exact_.clear();
      exact_.insert(keys.begin(), keys.end());
      break;
    }
    case Mode::kBloom:
      if (!bloom_.Restore(in)) return false;
      break;
    case Mode::kCounting:
      if (!counting_.Restore(in)) return false;
      break;
  }
  return !mutable_stream_ || registry_.Restore(in);
}

size_t ExecutedSet::ApproxMemoryBytes() const {
  size_t bytes = 0;
  switch (mode_) {
    case Mode::kExact:
      // Bucket array plus one singly linked node per key.
      bytes = exact_.bucket_count() * sizeof(void*) +
              exact_.size() * (sizeof(void*) + sizeof(uint64_t));
      break;
    case Mode::kBloom:
      bytes = bloom_.ApproxMemoryBytes();
      break;
    case Mode::kCounting:
      bytes = counting_.ApproxMemoryBytes();
      break;
  }
  if (mutable_stream_) bytes += registry_.ApproxMemoryBytes();
  return bytes;
}

}  // namespace pier
