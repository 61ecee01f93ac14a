#include "util/bloom_filter.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "util/check.h"
#include "util/hashing.h"
#include "util/serial.h"

namespace pier {

namespace {
constexpr double kLn2 = 0.6931471805599453;
// Wire value of the split-block layout; 1 was the removed flat layout.
constexpr uint8_t kBlocked512Layout = 2;
}  // namespace

std::optional<BloomSizing> SizeBloom(size_t n, double p, size_t min_cells,
                                     size_t align) {
  if (n == 0 || !(p > 0.0) || !(p < 1.0)) return std::nullopt;
  const double items = static_cast<double>(n);
  const double m = std::ceil(-items * std::log(p) / (kLn2 * kLn2));
  if (!(m <= 1e18)) return std::nullopt;
  BloomSizing sizing;
  sizing.cells = (std::max(static_cast<size_t>(m), min_cells) + align - 1) /
                 align * align;
  const double k = std::round(static_cast<double>(sizing.cells) / items * kLn2);
  sizing.hashes = static_cast<int>(
      std::clamp(k, 1.0, static_cast<double>(kMaxBloomHashes)));
  return sizing;
}

std::optional<BloomSizing> BloomFilter::Sizing(size_t expected_items,
                                               double fp_rate) {
  // Whole cache-line blocks, so every block is fully addressable by a
  // 9-bit in-block offset.
  return SizeBloom(expected_items, fp_rate, kBlockBits, kBlockBits);
}

BloomFilter::BloomFilter(size_t expected_items, double fp_rate)
    : expected_items_(expected_items) {
  const std::optional<BloomSizing> sizing = Sizing(expected_items, fp_rate);
  PIER_CHECK(sizing.has_value());
  sizing_ = *sizing;
  bits_.assign(sizing_.cells / 64, 0);
}

void BloomFilter::Add(uint64_t key) {
  // One cache line per key: h1 picks the block, 9-bit slices of h2
  // pick the bits inside it (re-mixed when a word of slices runs out,
  // at most every 7 probes).
  const uint64_t h1 = Mix64(key);
  uint64_t* block = &bits_[FastRange(h1, sizing_.cells / kBlockBits) *
                           kBlockWords];
  uint64_t h = Mix64(key ^ 0xa5a5a5a5a5a5a5a5ULL) | 1;
  int avail = 7;
  for (int i = 0; i < sizing_.hashes; ++i) {
    if (avail == 0) {
      h = Mix64(h);
      avail = 7;
    }
    const size_t bit = h & (kBlockBits - 1);
    h >>= 9;
    --avail;
    block[bit >> 6] |= uint64_t{1} << (bit & 63);
  }
  ++num_insertions_;
}

bool BloomFilter::MayContain(uint64_t key) const {
  const uint64_t h1 = Mix64(key);
  const uint64_t* block = &bits_[FastRange(h1, sizing_.cells / kBlockBits) *
                                 kBlockWords];
  uint64_t h = Mix64(key ^ 0xa5a5a5a5a5a5a5a5ULL) | 1;
  int avail = 7;
  for (int i = 0; i < sizing_.hashes; ++i) {
    if (avail == 0) {
      h = Mix64(h);
      avail = 7;
    }
    const size_t bit = h & (kBlockBits - 1);
    h >>= 9;
    --avail;
    if ((block[bit >> 6] & (uint64_t{1} << (bit & 63))) == 0) return false;
  }
  return true;
}

void BloomFilter::WriteStackHeader(std::ostream& out) {
  serial::WriteU64(out, 0);  // sentinel
  serial::WriteU8(out, kBlocked512Layout);
}

bool BloomFilter::ReadStackHeader(std::istream& in) {
  uint64_t sentinel = 0;
  uint8_t layout = 0;
  return serial::ReadU64(in, &sentinel) && sentinel == 0 &&
         serial::ReadU8(in, &layout) && layout == kBlocked512Layout;
}

void BloomFilter::Snapshot(std::ostream& out) const {
  WriteStackHeader(out);
  serial::WriteU64(out, expected_items_);
  serial::WriteU64(out, sizing_.cells);
  serial::WriteU32(out, static_cast<uint32_t>(sizing_.hashes));
  serial::WriteU64(out, num_insertions_);
  serial::WriteVec(out, bits_, serial::WriteU64);
}

std::unique_ptr<BloomFilter> BloomFilter::FromSnapshot(std::istream& in) {
  auto filter = std::unique_ptr<BloomFilter>(new BloomFilter());
  uint64_t expected_items = 0;
  uint64_t num_bits = 0;
  uint32_t num_hashes = 0;
  uint64_t num_insertions = 0;
  if (!ReadStackHeader(in) || !serial::ReadU64(in, &expected_items) ||
      !serial::ReadU64(in, &num_bits) || !serial::ReadU32(in, &num_hashes) ||
      !serial::ReadU64(in, &num_insertions) ||
      !serial::ReadVec(in, &filter->bits_, serial::ReadU64)) {
    return nullptr;
  }
  if (expected_items == 0 || num_bits < kBlockBits ||
      num_bits % kBlockBits != 0 || num_hashes < 1 ||
      num_hashes > kMaxBloomHashes || filter->bits_.size() != num_bits / 64) {
    return nullptr;
  }
  filter->expected_items_ = expected_items;
  filter->sizing_ = {num_bits, static_cast<int>(num_hashes)};
  filter->num_insertions_ = num_insertions;
  return filter;
}

}  // namespace pier
