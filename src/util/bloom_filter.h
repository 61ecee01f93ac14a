// A Bloom filter over 64-bit keys, used as building block of the
// scalable Bloom filter (see scalable_bloom_filter.h) that implements
// the comparison filter CF of the I-PBS algorithm (Algorithm 3 of the
// paper; technique from Gazzarri & Herschel, EDBT 2020 [16]).
//
// Two bit layouts share the class (see BloomLayout):
//
//  - kFlatFastrange: k double-hashed probes over the whole array, each
//    mapped with Lemire's fastrange ((h * num_bits) >> 64) -- a
//    multiply instead of a divide.
//  - kBlocked512: split-block layout. One fastrange hash picks a
//    512-bit block (one cache line); all k probe bits land inside
//    that block, addressed by 9-bit slices of the second hash. A
//    query touches exactly one cache line instead of k, at the cost
//    of a slightly higher false-positive rate for the same bit count
//    (~1.2-2x at typical k; the scalable wrapper's tightening
//    schedule absorbs it). This is the layout the executed-comparison
//    filter uses at paper scale.
//
// The layouts place bits differently, so the layout is part of the
// snapshot: a zero u64 sentinel, then the layout byte, then the
// sizing fields. FromSnapshot rejects any other leading word.

#ifndef PIER_UTIL_BLOOM_FILTER_H_
#define PIER_UTIL_BLOOM_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "util/check.h"
#include "util/hashing.h"

namespace pier {

// Wire values; 0 is unused.
enum class BloomLayout : uint8_t {
  kFlatFastrange = 1,
  kBlocked512 = 2,
};

class BloomFilter {
 public:
  // Sizes the filter for `expected_items` insertions at false-positive
  // probability `fp_rate` (0 < fp_rate < 1).
  BloomFilter(size_t expected_items, double fp_rate,
              BloomLayout layout = BloomLayout::kFlatFastrange);

  // Inserts a key. Counts insertions so the owner can detect when the
  // filter reaches its design capacity.
  void Add(uint64_t key);

  // True if the key *may* have been inserted; false means definitely
  // not inserted.
  bool MayContain(uint64_t key) const;

  size_t num_insertions() const { return num_insertions_; }
  size_t expected_items() const { return expected_items_; }
  bool AtCapacity() const { return num_insertions_ >= expected_items_; }

  size_t num_bits() const { return num_bits_; }
  int num_hashes() const { return num_hashes_; }
  BloomLayout layout() const { return layout_; }

  // Estimated memory footprint in bytes.
  size_t MemoryBytes() const { return bits_.size() * sizeof(uint64_t); }

  // Serializes the sentinel and layout, sizing parameters, insertion
  // count, and the bit array (little-endian; see util/serial.h).
  void Snapshot(std::ostream& out) const;

  // Reconstructs a filter from a Snapshot payload; null on any decode
  // failure or inconsistent field (e.g. word count not matching the
  // recorded bit count).
  static std::unique_ptr<BloomFilter> FromSnapshot(std::istream& in);

  // Mirror of the constructor's sizing, exposed so a snapshot reader
  // can validate recorded dimensions without allocating: the (bits,
  // hashes) this class picks for the given parameters.
  static void ExpectedSizing(size_t expected_items, double fp_rate,
                             BloomLayout layout, size_t* num_bits,
                             int* num_hashes);

 private:
  static constexpr size_t kBlockBits = 512;
  static constexpr size_t kBlockWords = kBlockBits / 64;

  BloomFilter() = default;  // for FromSnapshot

  // Lemire fastrange: maps a 64-bit hash onto [0, n) with a multiply
  // and shift instead of a modulo.
  static size_t FastRange(uint64_t h, size_t n) {
    return static_cast<size_t>(
        (static_cast<unsigned __int128>(h) * n) >> 64);
  }

  size_t BitIndex(uint64_t h1, uint64_t h2, int i) const {
    // Double hashing: g_i(x) = h1 + i * h2 (Kirsch & Mitzenmacher).
    const uint64_t g = h1 + static_cast<uint64_t>(i) * h2;
    // Fastrange keeps only the HIGH bits of its input, and those step
    // arithmetically across the probe sequence (step = top bits of
    // h2), clustering the probes whenever that step is small. One
    // extra mix decorrelates them and is still far cheaper than a
    // modulo divide.
    return FastRange(Mix64(g), num_bits_);
  }

  BloomLayout layout_ = BloomLayout::kFlatFastrange;
  size_t expected_items_ = 0;
  size_t num_bits_ = 0;
  int num_hashes_ = 0;
  size_t num_insertions_ = 0;
  std::vector<uint64_t> bits_;
};

}  // namespace pier

#endif  // PIER_UTIL_BLOOM_FILTER_H_
