#include "util/counting_bloom_filter.h"

#include <cmath>
#include <istream>
#include <ostream>
#include <utility>

#include "util/check.h"
#include "util/hashing.h"
#include "util/serial.h"

namespace pier {

namespace {
constexpr double kLn2 = 0.6931471805599453;
}  // namespace

CountingBloomFilter::CountingBloomFilter(size_t expected_items, double fp_rate)
    : expected_items_(expected_items) {
  PIER_CHECK(expected_items > 0);
  PIER_CHECK(fp_rate > 0.0 && fp_rate < 1.0);
  // Identical sizing to BloomFilter so the memory ratio against the
  // append-only filter is exactly the 2-bit-per-cell factor.
  const double n = static_cast<double>(expected_items);
  const double m = std::ceil(-n * std::log(fp_rate) / (kLn2 * kLn2));
  num_cells_ = static_cast<size_t>(m);
  if (num_cells_ < 64) num_cells_ = 64;
  num_hashes_ = static_cast<int>(
      std::round(static_cast<double>(num_cells_) / n * kLn2));
  if (num_hashes_ < 1) num_hashes_ = 1;
  words_.assign((num_cells_ + 31) / 32, 0);
}

void CountingBloomFilter::Add(uint64_t key) {
  const uint64_t h1 = Mix64(key);
  const uint64_t h2 = Mix64(key ^ 0xa5a5a5a5a5a5a5a5ULL) | 1;
  for (int i = 0; i < num_hashes_; ++i) {
    const size_t cell = CellIndex(h1, h2, i);
    const uint32_t value = CellValue(cell);
    if (value < 3) SetCellValue(cell, value + 1);
  }
  ++num_insertions_;
}

bool CountingBloomFilter::Remove(uint64_t key) {
  if (!MayContain(key)) return false;
  const uint64_t h1 = Mix64(key);
  const uint64_t h2 = Mix64(key ^ 0xa5a5a5a5a5a5a5a5ULL) | 1;
  for (int i = 0; i < num_hashes_; ++i) {
    const size_t cell = CellIndex(h1, h2, i);
    const uint32_t value = CellValue(cell);
    // Saturated cells are sticky: we no longer know how many keys map
    // here, so decrementing could create a false negative.
    if (value > 0 && value < 3) SetCellValue(cell, value - 1);
  }
  ++num_removals_;
  return true;
}

bool CountingBloomFilter::MayContain(uint64_t key) const {
  const uint64_t h1 = Mix64(key);
  const uint64_t h2 = Mix64(key ^ 0xa5a5a5a5a5a5a5a5ULL) | 1;
  for (int i = 0; i < num_hashes_; ++i) {
    if (CellValue(CellIndex(h1, h2, i)) == 0) return false;
  }
  return true;
}

void CountingBloomFilter::Snapshot(std::ostream& out) const {
  serial::WriteU64(out, expected_items_);
  serial::WriteU64(out, num_cells_);
  serial::WriteU32(out, static_cast<uint32_t>(num_hashes_));
  serial::WriteU64(out, num_insertions_);
  serial::WriteU64(out, num_removals_);
  serial::WriteVec(out, words_, serial::WriteU64);
}

std::unique_ptr<CountingBloomFilter> CountingBloomFilter::FromSnapshot(
    std::istream& in) {
  auto filter =
      std::unique_ptr<CountingBloomFilter>(new CountingBloomFilter());
  uint64_t expected_items = 0;
  uint64_t num_cells = 0;
  uint32_t num_hashes = 0;
  uint64_t num_insertions = 0;
  uint64_t num_removals = 0;
  if (!serial::ReadU64(in, &expected_items) ||
      !serial::ReadU64(in, &num_cells) || !serial::ReadU32(in, &num_hashes) ||
      !serial::ReadU64(in, &num_insertions) ||
      !serial::ReadU64(in, &num_removals) ||
      !serial::ReadVec(in, &filter->words_, serial::ReadU64)) {
    return nullptr;
  }
  if (expected_items == 0 || num_cells < 64 || num_hashes < 1 ||
      num_hashes > 255 || num_removals > num_insertions ||
      filter->words_.size() != (num_cells + 31) / 32) {
    return nullptr;
  }
  filter->expected_items_ = expected_items;
  filter->num_cells_ = num_cells;
  filter->num_hashes_ = static_cast<int>(num_hashes);
  filter->num_insertions_ = num_insertions;
  filter->num_removals_ = num_removals;
  return filter;
}

ScalableCountingBloomFilter::ScalableCountingBloomFilter(
    const Options& options)
    : options_(options) {
  PIER_CHECK(options_.initial_capacity > 0);
  PIER_CHECK(options_.fp_rate > 0.0 && options_.fp_rate < 1.0);
  PIER_CHECK(options_.growth > 1.0);
  PIER_CHECK(options_.tightening > 0.0 && options_.tightening < 1.0);
  AddSlice();
}

void ScalableCountingBloomFilter::AddSlice() {
  const size_t i = slices_.size();
  const double capacity = static_cast<double>(options_.initial_capacity) *
                          std::pow(options_.growth, static_cast<double>(i));
  const double p0 = options_.fp_rate * (1.0 - options_.tightening);
  const double error =
      p0 * std::pow(options_.tightening, static_cast<double>(i));
  slices_.push_back(std::make_unique<CountingBloomFilter>(
      static_cast<size_t>(capacity), error));
}

void ScalableCountingBloomFilter::Add(uint64_t key) {
  if (slices_.back()->AtCapacity()) AddSlice();
  slices_.back()->Add(key);
  ++num_insertions_;
}

bool ScalableCountingBloomFilter::Remove(uint64_t key) {
  // A key was inserted into exactly one slice (the slice current at
  // insert time), so decrement exactly one: the newest slice that
  // claims the key. Decrementing every claiming slice would let a
  // false-positive hit in a sibling slice clear cells owned by live
  // keys -- a false negative. Picking one slice bounds the damage the
  // safe way: when the pick is itself a false positive (probability
  // bounded by the tightened per-slice error rates), the true slice
  // keeps the key and it merely lingers until the cells decay.
  for (auto it = slices_.rbegin(); it != slices_.rend(); ++it) {
    if ((*it)->Remove(key)) {
      ++num_removals_;
      return true;
    }
  }
  return false;
}

bool ScalableCountingBloomFilter::MayContain(uint64_t key) const {
  for (auto it = slices_.rbegin(); it != slices_.rend(); ++it) {
    if ((*it)->MayContain(key)) return true;
  }
  return false;
}

bool ScalableCountingBloomFilter::TestAndAdd(uint64_t key) {
  if (MayContain(key)) return true;
  Add(key);
  return false;
}

size_t ScalableCountingBloomFilter::MemoryBytes() const {
  size_t total = 0;
  for (const auto& slice : slices_) total += slice->MemoryBytes();
  return total;
}

size_t ScalableCountingBloomFilter::ApproxMemoryBytes() const {
  return MemoryBytes() +
         slices_.capacity() * sizeof(std::unique_ptr<CountingBloomFilter>) +
         slices_.size() * sizeof(CountingBloomFilter);
}

void ScalableCountingBloomFilter::Snapshot(std::ostream& out) const {
  serial::WriteU64(out, options_.initial_capacity);
  serial::WriteF64(out, options_.fp_rate);
  serial::WriteF64(out, options_.growth);
  serial::WriteF64(out, options_.tightening);
  serial::WriteU64(out, num_insertions_);
  serial::WriteU64(out, num_removals_);
  serial::WriteU64(out, slices_.size());
  for (const auto& slice : slices_) slice->Snapshot(out);
}

bool ScalableCountingBloomFilter::Restore(std::istream& in) {
  Options options;
  uint64_t initial_capacity = 0;
  uint64_t num_insertions = 0;
  uint64_t num_removals = 0;
  uint64_t num_slices = 0;
  if (!serial::ReadU64(in, &initial_capacity) ||
      !serial::ReadF64(in, &options.fp_rate) ||
      !serial::ReadF64(in, &options.growth) ||
      !serial::ReadF64(in, &options.tightening) ||
      !serial::ReadU64(in, &num_insertions) ||
      !serial::ReadU64(in, &num_removals) ||
      !serial::ReadU64(in, &num_slices)) {
    return false;
  }
  options.initial_capacity = initial_capacity;
  if (options.initial_capacity == 0 || !(options.fp_rate > 0.0) ||
      !(options.fp_rate < 1.0) || !(options.growth > 1.0) ||
      !(options.tightening > 0.0) || !(options.tightening < 1.0) ||
      num_slices == 0 || num_slices > 64 || num_removals > num_insertions) {
    return false;
  }
  std::vector<std::unique_ptr<CountingBloomFilter>> slices;
  slices.reserve(num_slices);
  uint64_t slice_insertions = 0;
  for (uint64_t i = 0; i < num_slices; ++i) {
    auto slice = CountingBloomFilter::FromSnapshot(in);
    if (slice == nullptr) return false;
    // Mirror AddSlice + the constructor's sizing, evaluated
    // arithmetically so a hostile snapshot cannot force a huge
    // reference allocation (same scheme as ScalableBloomFilter).
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
    size_t expect_cells = static_cast<size_t>(m);
    if (expect_cells < 64) expect_cells = 64;
    int expect_hashes = static_cast<int>(
        std::round(static_cast<double>(expect_cells) / n * kLn2));
    if (expect_hashes < 1) expect_hashes = 1;
    if (slice->expected_items() != cap || slice->num_cells() != expect_cells ||
        slice->num_hashes() != expect_hashes) {
      return false;
    }
    // A new slice only ever grows once the previous one reached its
    // design capacity, and insertions land in the newest slice.
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
  num_removals_ = num_removals;
  slices_ = std::move(slices);
  return true;
}

}  // namespace pier
