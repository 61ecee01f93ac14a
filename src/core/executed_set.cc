#include "core/executed_set.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <vector>

#include "util/hashing.h"
#include "util/serial.h"

namespace pier {

void ExecutedSet::ExactKeys::Snapshot(std::ostream& out) const {
  std::vector<uint64_t> keys(keys_.begin(), keys_.end());
  std::sort(keys.begin(), keys.end());
  serial::WriteVec(out, keys, serial::WriteU64);
}

bool ExecutedSet::ExactKeys::Restore(std::istream& in) {
  std::vector<uint64_t> keys;
  if (!serial::ReadVec(in, &keys, serial::ReadU64)) return false;
  keys_.clear();
  keys_.insert(keys.begin(), keys.end());
  return true;
}

size_t ExecutedSet::ExactKeys::ApproxMemoryBytes() const {
  // Bucket array plus one singly linked node per key.
  return keys_.bucket_count() * sizeof(void*) +
         keys_.size() * (sizeof(void*) + sizeof(uint64_t));
}

ExecutedSet::ExecutedSet(bool exact, bool mutable_stream)
    : mutable_stream_(mutable_stream) {
  if (exact) {
    keys_.emplace<ExactKeys>();
  } else if (mutable_stream) {
    keys_.emplace<ScalableCountingBloomFilter>();
  } else {
    keys_.emplace<ScalableBloomFilter>();
  }
}

bool ExecutedSet::Contains(ProfileId x, ProfileId y) const {
  const uint64_t key = PairKey(x, y);
  return std::visit([key](const auto& s) { return s.MayContain(key); }, keys_);
}

bool ExecutedSet::TestAndAdd(ProfileId x, ProfileId y) {
  const uint64_t key = PairKey(x, y);
  const bool present =
      std::visit([key](auto& s) { return s.TestAndAdd(key); }, keys_);
  // Record the pair exactly once per insert so Retract withdraws each
  // key once (counting-filter cells tolerate exactly one matching
  // Remove).
  if (!present && mutable_stream_) registry_.Add(x, y);
  return present;
}

size_t ExecutedSet::Retract(ProfileId id) {
  const std::vector<ProfileId> partners = registry_.Take(id);
  std::visit(
      [&](auto& s) {
        // The 1-bit filter serves append-only streams only, so its
        // registry is empty and there is nothing to withdraw.
        if constexpr (requires { s.Remove(uint64_t{}); }) {
          for (const ProfileId partner : partners) {
            s.Remove(PairKey(id, partner));
          }
        }
      },
      keys_);
  return partners.size();
}

void ExecutedSet::Snapshot(std::ostream& out) const {
  std::visit([&out](const auto& s) { s.Snapshot(out); }, keys_);
  if (mutable_stream_) registry_.Snapshot(out);
}

bool ExecutedSet::Restore(std::istream& in) {
  const bool restored =
      std::visit([&in](auto& s) { return s.Restore(in); }, keys_);
  return restored && (!mutable_stream_ || registry_.Restore(in));
}

size_t ExecutedSet::ApproxMemoryBytes() const {
  size_t bytes =
      std::visit([](const auto& s) { return s.ApproxMemoryBytes(); }, keys_);
  if (mutable_stream_) bytes += registry_.ApproxMemoryBytes();
  return bytes;
}

size_t ExecutedSet::num_slices() const {
  return std::visit([](const auto& s) { return s.num_slices(); }, keys_);
}

double ExecutedSet::FpEstimate() const {
  return std::visit([](const auto& s) { return s.FpEstimate(); }, keys_);
}

}  // namespace pier
