#include "util/scalable_bloom_filter.h"

#include <cmath>
#include <istream>
#include <ostream>
#include <utility>

#include "util/check.h"
#include "util/serial.h"

namespace pier {

namespace {
constexpr double kLn2 = 0.6931471805599453;
}  // namespace

ScalableBloomFilter::ScalableBloomFilter(const Options& options)
    : options_(options) {
  PIER_CHECK(options_.initial_capacity > 0);
  PIER_CHECK(options_.fp_rate > 0.0 && options_.fp_rate < 1.0);
  PIER_CHECK(options_.growth > 1.0);
  PIER_CHECK(options_.tightening > 0.0 && options_.tightening < 1.0);
  AddSlice();
}

void ScalableBloomFilter::AddSlice() {
  const size_t i = slices_.size();
  const double capacity = static_cast<double>(options_.initial_capacity) *
                          std::pow(options_.growth, static_cast<double>(i));
  const double p0 = options_.fp_rate * (1.0 - options_.tightening);
  const double error =
      p0 * std::pow(options_.tightening, static_cast<double>(i));
  slices_.push_back(std::make_unique<BloomFilter>(
      static_cast<size_t>(capacity), error, BloomLayout::kBlocked512));
}

void ScalableBloomFilter::Add(uint64_t key) {
  if (slices_.back()->AtCapacity()) AddSlice();
  slices_.back()->Add(key);
  ++num_insertions_;
}

bool ScalableBloomFilter::MayContain(uint64_t key) const {
  for (auto it = slices_.rbegin(); it != slices_.rend(); ++it) {
    if ((*it)->MayContain(key)) return true;
  }
  return false;
}

bool ScalableBloomFilter::TestAndAdd(uint64_t key) {
  if (MayContain(key)) return true;
  Add(key);
  return false;
}

size_t ScalableBloomFilter::MemoryBytes() const {
  size_t total = 0;
  for (const auto& slice : slices_) total += slice->MemoryBytes();
  return total;
}

size_t ScalableBloomFilter::ApproxMemoryBytes() const {
  return MemoryBytes() +
         slices_.capacity() * sizeof(std::unique_ptr<BloomFilter>) +
         slices_.size() * sizeof(BloomFilter);
}

void ScalableBloomFilter::Snapshot(std::ostream& out) const {
  serial::WriteU64(out, 0);  // sentinel
  serial::WriteU8(out, static_cast<uint8_t>(BloomLayout::kBlocked512));
  serial::WriteU64(out, options_.initial_capacity);
  serial::WriteF64(out, options_.fp_rate);
  serial::WriteF64(out, options_.growth);
  serial::WriteF64(out, options_.tightening);
  serial::WriteU64(out, num_insertions_);
  serial::WriteU64(out, slices_.size());
  for (const auto& slice : slices_) slice->Snapshot(out);
}

bool ScalableBloomFilter::Restore(std::istream& in) {
  Options options;
  uint64_t sentinel = 0;
  uint8_t layout = 0;
  uint64_t initial_capacity = 0;
  uint64_t num_insertions = 0;
  uint64_t num_slices = 0;
  if (!serial::ReadU64(in, &sentinel) || sentinel != 0 ||
      !serial::ReadU8(in, &layout) ||
      layout != static_cast<uint8_t>(BloomLayout::kBlocked512) ||
      !serial::ReadU64(in, &initial_capacity)) {
    return false;
  }
  if (!serial::ReadF64(in, &options.fp_rate) ||
      !serial::ReadF64(in, &options.growth) ||
      !serial::ReadF64(in, &options.tightening) ||
      !serial::ReadU64(in, &num_insertions) ||
      !serial::ReadU64(in, &num_slices)) {
    return false;
  }
  options.initial_capacity = initial_capacity;
  // Mirror the constructor's PIER_CHECKs, but reject instead of abort:
  // a corrupt snapshot must never take the process down.
  if (options.initial_capacity == 0 || !(options.fp_rate > 0.0) ||
      !(options.fp_rate < 1.0) || !(options.growth > 1.0) ||
      !(options.tightening > 0.0) || !(options.tightening < 1.0) ||
      num_slices == 0 || num_slices > 64) {
    return false;
  }
  std::vector<std::unique_ptr<BloomFilter>> slices;
  slices.reserve(num_slices);
  uint64_t slice_insertions = 0;
  for (uint64_t i = 0; i < num_slices; ++i) {
    auto slice = BloomFilter::FromSnapshot(in);
    if (slice == nullptr) return false;
    // Mirror AddSlice + the BloomFilter constructor: slice i must be
    // sized exactly as the growth schedule would have sized it,
    // otherwise the snapshot was not produced by this implementation.
    // Evaluated arithmetically (no reference filter is constructed) so
    // a hostile snapshot cannot force a huge allocation here; bounds
    // on the doubles keep the casts below defined.
    const double capacity = static_cast<double>(options.initial_capacity) *
                            std::pow(options.growth, static_cast<double>(i));
    const double p0 = options.fp_rate * (1.0 - options.tightening);
    const double error =
        p0 * std::pow(options.tightening, static_cast<double>(i));
    if (!(error > 0.0) || !(error < 1.0)) return false;
    if (!(capacity >= 1.0) || capacity > 1e18) return false;
    const size_t cap = static_cast<size_t>(capacity);
    const double n = static_cast<double>(cap);
    const double m = std::ceil(-n * std::log(error) / (kLn2 * kLn2));
    if (!(m >= 0.0) || m > 1e18) return false;
    size_t expect_bits = 0;
    int expect_hashes = 0;
    BloomFilter::ExpectedSizing(cap, error, BloomLayout::kBlocked512,
                                &expect_bits, &expect_hashes);
    if (slice->layout() != BloomLayout::kBlocked512 ||
        slice->expected_items() != cap ||
        slice->num_bits() != expect_bits ||
        slice->num_hashes() != expect_hashes) {
      return false;
    }
    // Add() only grows a new slice once the current one reached its
    // design capacity, so every non-final slice holds exactly its
    // expected_items insertions and the final slice at most that.
    if (i + 1 < num_slices) {
      if (slice->num_insertions() != slice->expected_items()) return false;
    } else if (slice->num_insertions() > slice->expected_items()) {
      return false;
    }
    slice_insertions += slice->num_insertions();
    slices.push_back(std::move(slice));
  }
  if (slice_insertions != num_insertions) return false;
  options_ = options;
  num_insertions_ = num_insertions;
  slices_ = std::move(slices);
  return true;
}

}  // namespace pier
