// A Bloom filter over 64-bit keys, used as building block of the
// scalable Bloom filter (see scalable_bloom_filter.h) that implements
// the comparison filter CF of the I-PBS algorithm (Algorithm 3 of the
// paper; technique from Gazzarri & Herschel, EDBT 2020 [16]).
//
// Split-block layout: one fastrange hash picks a 512-bit block (one
// cache line); all k probe bits land inside that block, addressed by
// 9-bit slices of the second hash. A query touches exactly one cache
// line instead of k, at the cost of a slightly higher false-positive
// rate for the same bit count (~1.2-2x at typical k; the scalable
// wrapper's tightening schedule absorbs it). This is the layout the
// executed-comparison filter uses at paper scale.
//
// The snapshot opens with a zero u64 sentinel and the layout byte 2,
// then the sizing fields. Only the one layout exists; the two header
// fields are kept so the bytes stay those of earlier files, and
// FromSnapshot rejects any other leading word or layout byte.
//
// SizeBloom is the one sizing rule of every Bloom filter in the
// engine, this one and the counting filter (counting_bloom_filter.h).

#ifndef PIER_UTIL_BLOOM_FILTER_H_
#define PIER_UTIL_BLOOM_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <vector>

namespace pier {

// Cell (bit or counter) count and hash count of one Bloom filter.
struct BloomSizing {
  size_t cells = 0;
  int hashes = 0;

  bool operator==(const BloomSizing&) const = default;
};

// Snapshot readers accept at most this many hashes per key.
inline constexpr int kMaxBloomHashes = 255;

// The sizing rule: m = ceil(-n ln p / ln^2 2) cells for `n` keys at
// false-positive rate `p`, raised to at least `min_cells` and to a
// multiple of `align`; then k = round(m / n * ln 2) hashes from the
// raised m (deriving k from the unraised m under-hashes a tiny
// filter's clamped array), within [1, kMaxBloomHashes]. Returns
// nullopt when n is 0, p lies outside (0, 1), or m would exceed 1e18
// -- snapshot validators rely on that instead of allocating.
std::optional<BloomSizing> SizeBloom(size_t n, double p, size_t min_cells,
                                     size_t align);

class BloomFilter {
 public:
  // Sizes the filter for `expected_items` insertions at false-positive
  // probability `fp_rate` (0 < fp_rate < 1).
  BloomFilter(size_t expected_items, double fp_rate);

  // Inserts a key. Counts insertions so the owner can detect when the
  // filter reaches its design capacity.
  void Add(uint64_t key);

  // True if the key *may* have been inserted; false means definitely
  // not inserted.
  bool MayContain(uint64_t key) const;

  size_t num_insertions() const { return num_insertions_; }
  size_t expected_items() const { return expected_items_; }
  bool AtCapacity() const { return num_insertions_ >= expected_items_; }

  size_t num_bits() const { return sizing_.cells; }
  int num_hashes() const { return sizing_.hashes; }
  const BloomSizing& sizing() const { return sizing_; }

  // Estimated memory footprint in bytes.
  size_t MemoryBytes() const { return bits_.size() * sizeof(uint64_t); }

  // Serializes the sentinel and layout byte, sizing parameters,
  // insertion count, and the bit array (little-endian; see
  // util/serial.h).
  void Snapshot(std::ostream& out) const;

  // Reconstructs a filter from a Snapshot payload; null on any decode
  // failure or inconsistent field (e.g. word count not matching the
  // recorded bit count).
  static std::unique_ptr<BloomFilter> FromSnapshot(std::istream& in);

  // SizeBloom at whole 512-bit blocks: the sizing the constructor
  // picks, exposed so a snapshot reader can validate recorded
  // dimensions without allocating.
  static std::optional<BloomSizing> Sizing(size_t expected_items,
                                           double fp_rate);

  // Hooks for the scalable stack (scalable_bloom_filter.h): its
  // snapshot opens with the same sentinel and layout byte as a
  // slice's, and it has no Remove.
  static void WriteStackHeader(std::ostream& out);
  static bool ReadStackHeader(std::istream& in);
  static constexpr bool kRemovable = false;

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

  size_t expected_items_ = 0;
  BloomSizing sizing_;
  size_t num_insertions_ = 0;
  std::vector<uint64_t> bits_;
};

}  // namespace pier

#endif  // PIER_UTIL_BLOOM_FILTER_H_
