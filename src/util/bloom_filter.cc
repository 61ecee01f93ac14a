#include "util/bloom_filter.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "util/serial.h"

namespace pier {

namespace {
constexpr double kLn2 = 0.6931471805599453;
}  // namespace

void BloomFilter::ExpectedSizing(size_t expected_items, double fp_rate,
                                 BloomLayout layout, size_t* num_bits,
                                 int* num_hashes) {
  const double n = static_cast<double>(expected_items);
  const double m = std::ceil(-n * std::log(fp_rate) / (kLn2 * kLn2));
  size_t bits = static_cast<size_t>(m);
  if (layout == BloomLayout::kBlocked512) {
    // Whole cache-line blocks: round up so every block is fully
    // addressable by a 9-bit in-block offset.
    bits = (std::max(bits, kBlockBits) + kBlockBits - 1) / kBlockBits *
           kBlockBits;
  } else if (bits < 64) {
    bits = 64;
  }
  // k must be derived from the *actual* (clamped) bit count: for tiny
  // capacities (e.g. the first slice of a ScalableBloomFilter with a
  // small initial_capacity) the clamp would otherwise leave k sized
  // for the unclamped m and the realized FP rate off-design.
  int hashes =
      static_cast<int>(std::round(static_cast<double>(bits) / n * kLn2));
  if (hashes < 1) hashes = 1;
  *num_bits = bits;
  *num_hashes = hashes;
}

BloomFilter::BloomFilter(size_t expected_items, double fp_rate,
                         BloomLayout layout)
    : layout_(layout), expected_items_(expected_items) {
  PIER_CHECK(expected_items > 0);
  PIER_CHECK(fp_rate > 0.0 && fp_rate < 1.0);
  ExpectedSizing(expected_items, fp_rate, layout, &num_bits_, &num_hashes_);
  bits_.assign((num_bits_ + 63) / 64, 0);
}

void BloomFilter::Add(uint64_t key) {
  const uint64_t h1 = Mix64(key);
  const uint64_t h2 = Mix64(key ^ 0xa5a5a5a5a5a5a5a5ULL) | 1;
  if (layout_ == BloomLayout::kBlocked512) {
    // One cache line per key: h1 picks the block, 9-bit slices of h2
    // pick the bits inside it (re-mixed when a word of slices runs
    // out, at most every 7 probes).
    uint64_t* block = &bits_[FastRange(h1, num_bits_ / kBlockBits) *
                             kBlockWords];
    uint64_t h = h2;
    int avail = 7;
    for (int i = 0; i < num_hashes_; ++i) {
      if (avail == 0) {
        h = Mix64(h);
        avail = 7;
      }
      const size_t bit = h & (kBlockBits - 1);
      h >>= 9;
      --avail;
      block[bit >> 6] |= uint64_t{1} << (bit & 63);
    }
  } else {
    for (int i = 0; i < num_hashes_; ++i) {
      const size_t bit = BitIndex(h1, h2, i);
      bits_[bit >> 6] |= uint64_t{1} << (bit & 63);
    }
  }
  ++num_insertions_;
}

bool BloomFilter::MayContain(uint64_t key) const {
  const uint64_t h1 = Mix64(key);
  const uint64_t h2 = Mix64(key ^ 0xa5a5a5a5a5a5a5a5ULL) | 1;
  if (layout_ == BloomLayout::kBlocked512) {
    const uint64_t* block = &bits_[FastRange(h1, num_bits_ / kBlockBits) *
                                   kBlockWords];
    uint64_t h = h2;
    int avail = 7;
    for (int i = 0; i < num_hashes_; ++i) {
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
  for (int i = 0; i < num_hashes_; ++i) {
    const size_t bit = BitIndex(h1, h2, i);
    if ((bits_[bit >> 6] & (uint64_t{1} << (bit & 63))) == 0) return false;
  }
  return true;
}

void BloomFilter::Snapshot(std::ostream& out) const {
  serial::WriteU64(out, 0);  // sentinel
  serial::WriteU8(out, static_cast<uint8_t>(layout_));
  serial::WriteU64(out, expected_items_);
  serial::WriteU64(out, num_bits_);
  serial::WriteU32(out, static_cast<uint32_t>(num_hashes_));
  serial::WriteU64(out, num_insertions_);
  serial::WriteVec(out, bits_, serial::WriteU64);
}

std::unique_ptr<BloomFilter> BloomFilter::FromSnapshot(std::istream& in) {
  auto filter = std::unique_ptr<BloomFilter>(new BloomFilter());
  uint64_t sentinel = 0;
  uint8_t layout = 0;
  uint64_t expected_items = 0;
  if (!serial::ReadU64(in, &sentinel) || sentinel != 0 ||
      !serial::ReadU8(in, &layout) ||
      (layout != static_cast<uint8_t>(BloomLayout::kFlatFastrange) &&
       layout != static_cast<uint8_t>(BloomLayout::kBlocked512)) ||
      !serial::ReadU64(in, &expected_items)) {
    return nullptr;
  }
  filter->layout_ = static_cast<BloomLayout>(layout);
  uint64_t num_bits = 0;
  uint32_t num_hashes = 0;
  uint64_t num_insertions = 0;
  if (!serial::ReadU64(in, &num_bits) || !serial::ReadU32(in, &num_hashes) ||
      !serial::ReadU64(in, &num_insertions) ||
      !serial::ReadVec(in, &filter->bits_, serial::ReadU64)) {
    return nullptr;
  }
  const size_t min_bits =
      filter->layout_ == BloomLayout::kBlocked512 ? kBlockBits : 64;
  const bool aligned = filter->layout_ != BloomLayout::kBlocked512 ||
                       num_bits % kBlockBits == 0;
  if (expected_items == 0 || num_bits < min_bits || !aligned ||
      num_hashes < 1 || num_hashes > 255 ||
      filter->bits_.size() != (num_bits + 63) / 64) {
    return nullptr;
  }
  filter->expected_items_ = expected_items;
  filter->num_bits_ = num_bits;
  filter->num_hashes_ = static_cast<int>(num_hashes);
  filter->num_insertions_ = num_insertions;
  return filter;
}

}  // namespace pier
