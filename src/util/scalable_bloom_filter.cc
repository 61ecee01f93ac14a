#include "util/scalable_bloom_filter.h"

#include <cmath>
#include <istream>
#include <optional>
#include <ostream>
#include <utility>

#include "util/check.h"
#include "util/serial.h"

namespace pier {

namespace {

// The constructor's ranges, shared with Restore (which rejects instead
// of aborting: a corrupt snapshot must never take the process down).
bool ValidOptions(const ScalableFilterOptions& options) {
  return options.initial_capacity > 0 && options.fp_rate > 0.0 &&
         options.fp_rate < 1.0 && options.growth > 1.0 &&
         options.tightening > 0.0 && options.tightening < 1.0;
}

// The growth schedule: slice i holds initial_capacity * growth^i keys
// at error fp_rate * (1 - r) * r^i. False when either leaves the range
// a slice can be built for; bounds on the doubles keep the cast
// defined.
bool SliceDesign(const ScalableFilterOptions& options, size_t i,
                 size_t* capacity, double* error) {
  const double c = static_cast<double>(options.initial_capacity) *
                   std::pow(options.growth, static_cast<double>(i));
  const double p0 = options.fp_rate * (1.0 - options.tightening);
  *error = p0 * std::pow(options.tightening, static_cast<double>(i));
  if (!(c >= 1.0) || c > 1e18) return false;
  *capacity = static_cast<size_t>(c);
  return *error > 0.0 && *error < 1.0;
}

}  // namespace

template <typename Slice>
ScalableFilter<Slice>::ScalableFilter(const Options& options)
    : options_(options) {
  PIER_CHECK(ValidOptions(options_));
  AddSlice();
}

template <typename Slice>
void ScalableFilter<Slice>::AddSlice() {
  size_t capacity = 0;
  double error = 0.0;
  PIER_CHECK(SliceDesign(options_, slices_.size(), &capacity, &error));
  slices_.push_back(std::make_unique<Slice>(capacity, error));
}

template <typename Slice>
void ScalableFilter<Slice>::Add(const BloomHash& hash) {
  if (slices_.back()->AtCapacity()) AddSlice();
  slices_.back()->Add(hash);
  ++num_insertions_;
}

template <typename Slice>
void ScalableFilter<Slice>::Add(uint64_t key) { Add(BloomHash::Of(key)); }

template <typename Slice>
bool ScalableFilter<Slice>::MayContain(const BloomHash& hash) const {
  for (auto it = slices_.rbegin(); it != slices_.rend(); ++it) {
    if ((*it)->MayContain(hash)) return true;
  }
  return false;
}

template <typename Slice>
bool ScalableFilter<Slice>::MayContain(uint64_t key) const {
  return MayContain(BloomHash::Of(key));
}

template <typename Slice>
bool ScalableFilter<Slice>::TestAndAdd(uint64_t key) {
  const BloomHash hash = BloomHash::Of(key);
  if (MayContain(hash)) return true;
  Add(hash);
  return false;
}

template <typename Slice>
bool ScalableFilter<Slice>::Remove(uint64_t key)
  requires Slice::kRemovable
{
  const BloomHash hash = BloomHash::Of(key);
  for (auto it = slices_.rbegin(); it != slices_.rend(); ++it) {
    if ((*it)->Remove(hash)) {
      ++num_removals_;
      return true;
    }
  }
  return false;
}

template <typename Slice>
size_t ScalableFilter<Slice>::MemoryBytes() const {
  size_t total = 0;
  for (const auto& slice : slices_) total += slice->MemoryBytes();
  return total;
}

template <typename Slice>
double ScalableFilter<Slice>::FpEstimate() const {
  double total = 0.0;
  for (const auto& slice : slices_) total += slice->FpEstimate();
  return total;
}

template <typename Slice>
size_t ScalableFilter<Slice>::ApproxMemoryBytes() const {
  return MemoryBytes() + slices_.capacity() * sizeof(std::unique_ptr<Slice>) +
         slices_.size() * sizeof(Slice);
}

template <typename Slice>
void ScalableFilter<Slice>::Snapshot(std::ostream& out) const {
  Slice::WriteStackHeader(out);
  serial::WriteU64(out, options_.initial_capacity);
  serial::WriteF64(out, options_.fp_rate);
  serial::WriteF64(out, options_.growth);
  serial::WriteF64(out, options_.tightening);
  serial::WriteU64(out, num_insertions_);
  if constexpr (Slice::kRemovable) serial::WriteU64(out, num_removals_);
  serial::WriteU64(out, slices_.size());
  for (const auto& slice : slices_) slice->Snapshot(out);
}

template <typename Slice>
bool ScalableFilter<Slice>::Restore(std::istream& in) {
  Options options;
  uint64_t initial_capacity = 0;
  uint64_t num_insertions = 0;
  uint64_t num_removals = 0;
  uint64_t num_slices = 0;
  if (!Slice::ReadStackHeader(in) || !serial::ReadU64(in, &initial_capacity) ||
      !serial::ReadF64(in, &options.fp_rate) ||
      !serial::ReadF64(in, &options.growth) ||
      !serial::ReadF64(in, &options.tightening) ||
      !serial::ReadU64(in, &num_insertions)) {
    return false;
  }
  if constexpr (Slice::kRemovable) {
    if (!serial::ReadU64(in, &num_removals) || num_removals > num_insertions) {
      return false;
    }
  }
  options.initial_capacity = initial_capacity;
  if (!serial::ReadU64(in, &num_slices) || !ValidOptions(options) ||
      num_slices == 0 || num_slices > 64) {
    return false;
  }
  std::vector<std::unique_ptr<Slice>> slices;
  slices.reserve(num_slices);
  uint64_t slice_insertions = 0;
  for (uint64_t i = 0; i < num_slices; ++i) {
    auto slice = Slice::FromSnapshot(in);
    if (slice == nullptr) return false;
    // Slice i must be sized exactly as AddSlice would have sized it,
    // otherwise the snapshot was not produced by this implementation.
    // Evaluated arithmetically (no reference slice is constructed) so
    // a hostile snapshot cannot force a huge allocation here.
    size_t capacity = 0;
    double error = 0.0;
    if (!SliceDesign(options, i, &capacity, &error)) return false;
    const std::optional<BloomSizing> sizing = SizeBloom(capacity, error);
    if (!sizing || slice->expected_items() != capacity ||
        slice->sizing() != *sizing) {
      return false;
    }
    // Add() only grows a new slice once the current one reached its
    // design capacity, so every non-final slice holds exactly its
    // expected_items insertions and the final slice at most that.
    if (i + 1 < num_slices) {
      if (slice->num_insertions() != capacity) return false;
    } else if (slice->num_insertions() > capacity) {
      return false;
    }
    slice_insertions += slice->num_insertions();
    slices.push_back(std::move(slice));
  }
  if (slice_insertions != num_insertions) return false;
  options_ = options;
  num_insertions_ = num_insertions;
  num_removals_ = num_removals;
  slices_ = std::move(slices);
  return true;
}

template class ScalableFilter<BlockedBloomFilter<1>>;
template class ScalableFilter<BlockedBloomFilter<2>>;

}  // namespace pier
