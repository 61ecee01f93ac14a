// The slices of the engine's scalable Bloom filters
// (scalable_bloom_filter.h): the comparison filter CF of the I-PBS
// algorithm (Algorithm 3 of the paper; technique from Gazzarri &
// Herschel, EDBT 2020 [16]) and the pipeline's executed-comparison
// set.
//
// One blocked layout serves both slice types. BlockedBloomFilter<1>
// (BloomFilter) stores a bit per cell; BlockedBloomFilter<2>
// (CountingBloomFilter, counting_bloom_filter.h) stores a 2-bit
// saturating counter per cell, so keys can be removed again. A 1-bit
// filter is the same structure with counters that saturate at 1.
//
// Block layout: a block holds 512 cells, one 64-byte cache line of
// bits or two adjacent lines of counters. The first hash of a
// BloomHash picks the block by fastrange; 9-bit fields of the second
// pick the k cells inside it, so a probe reads one block instead of k
// scattered cells. The cell arrays are allocated 128-byte aligned, so
// a block never straddles a line it does not own.
//
// Sizing (SizeBloom): both slice types get the same cell count and k,
// so a counting slice takes exactly twice the bytes of a 1-bit slice.
// Blocking raises the false-positive rate above the flat formula's
// (keys spread unevenly over blocks, and overloaded blocks dominate),
// so cells and k are solved from the blocked model of Putze, Sanders
// & Singler ("Cache-, Hash- and Space-Efficient Bloom Filters",
// WEA 2007), not from m = -n ln p / ln^2 2. The model takes a block's
// fill at its mean, which reads about 3-5% low at k = 9-12; the
// scalable stack's compound bound has room for that (0.0054 measured
// against 0.01 at 10^7 keys).
//
// Snapshot of one slice: for 1-bit slices a zero u64 sentinel and the
// layout byte 3 (2 was the blocked layout before cells were addressed
// from a shared BloomHash; FromSnapshot rejects any other sentinel or
// byte), then the capacity, the sizing, the insertion count, the
// removal count (counting slices only) and the cell words.

#ifndef PIER_UTIL_BLOOM_FILTER_H_
#define PIER_UTIL_BLOOM_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include "util/hashing.h"

namespace pier {

// Cell (bit or counter) count and hash count of one Bloom filter.
struct BloomSizing {
  size_t cells = 0;
  int hashes = 0;

  bool operator==(const BloomSizing&) const = default;
};

// Cells per block.
inline constexpr size_t kBloomBlockCells = 512;

// Snapshot readers accept at most this many hashes per key.
inline constexpr int kMaxBloomHashes = 255;

// The blocked model's false-positive rate of a filter of `cells`
// cells (a whole number of blocks) and `hashes` hashes holding `keys`
// keys: the keys per block are Poisson with mean keys * 512 / cells,
// and a block holding j keys answers a fresh probe positively with
// probability (1 - (1 - 1/512)^(k j))^k.
double BlockedBloomFpRate(double keys, size_t cells, int hashes);

// The sizing rule: the smallest whole-block cell count, and for it
// the k, at which the blocked model meets `p` for `n` keys. The search
// starts at the flat m = ceil(-n ln p / ln^2 2) and grows it in 2%
// steps (at least a block); at each m it tries k in
// [k_flat - 4, k_flat] with k_flat = round(m / n * ln 2), within
// [1, kMaxBloomHashes], and keeps the k of the lowest modelled rate.
// Returns nullopt when n is 0, p lies outside (0, 1), or no m up to
// 1e18 meets p -- snapshot validators rely on that instead of
// allocating.
std::optional<BloomSizing> SizeBloom(size_t n, double p);

// The hash pair of one key, computed once per stack operation and
// handed to every slice: `block` picks the block, `cells` the cells in
// it.
struct BloomHash {
  uint64_t block;
  uint64_t cells;

  static BloomHash Of(uint64_t key) {
    return {Mix64(key), Mix64(key ^ 0xa5a5a5a5a5a5a5a5ULL)};
  }
};

// Allocates cell arrays on 128-byte boundaries, the size of the
// largest block, so every block starts on a cache line.
template <typename T>
struct BlockAlignedAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlignment{128};

  BlockAlignedAllocator() = default;
  template <typename U>
  BlockAlignedAllocator(const BlockAlignedAllocator<U>&) {}

  T* allocate(size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlignment));
  }
  void deallocate(T* p, size_t) { ::operator delete(p, kAlignment); }

  template <typename U>
  bool operator==(const BlockAlignedAllocator<U>&) const { return true; }
};

template <int kCellBits>
class BlockedBloomFilter {
  static_assert(kCellBits == 1 || kCellBits == 2);

 public:
  // Counting slices (2-bit cells) support Remove.
  static constexpr bool kRemovable = kCellBits == 2;

  // Sizes the filter for `expected_items` insertions at false-positive
  // probability `fp_rate` (0 < fp_rate < 1) with SizeBloom.
  BlockedBloomFilter(size_t expected_items, double fp_rate);

  // Inserts a key (counting slices: increments its cells, which
  // saturate at 3 and then stick). Counts insertions so the owner can
  // detect when the filter reaches its design capacity.
  void Add(const BloomHash& hash);
  void Add(uint64_t key) { Add(BloomHash::Of(key)); }

  // True if the key *may* have been inserted; false means definitely
  // not inserted.
  bool MayContain(const BloomHash& hash) const;
  bool MayContain(uint64_t key) const { return MayContain(BloomHash::Of(key)); }

  // Decrements the key's cells, skipping saturated ones: we no longer
  // know how many keys map there, so decrementing could create a false
  // negative. Returns false without touching any cell when the key is
  // definitely absent.
  bool Remove(const BloomHash& hash)
    requires kRemovable;
  bool Remove(uint64_t key)
    requires kRemovable
  {
    return Remove(BloomHash::Of(key));
  }

  size_t num_insertions() const { return num_insertions_; }
  // Always 0 for 1-bit slices.
  size_t num_removals() const { return num_removals_; }
  size_t expected_items() const { return expected_items_; }
  // Capacity is gross insertions: removals do not reliably free cells
  // (saturated counters stick), so reusing freed capacity would let
  // the realized error rate drift above design.
  bool AtCapacity() const { return num_insertions_ >= expected_items_; }

  size_t num_bits() const
    requires(kCellBits == 1)
  {
    return sizing_.cells;
  }
  int num_hashes() const { return sizing_.hashes; }
  const BloomSizing& sizing() const { return sizing_; }

  // The block a probe of `hash` reads.
  const uint64_t* BlockOf(const BloomHash& hash) const {
    const size_t blocks = sizing_.cells / kBloomBlockCells;
    return words_.data() + FastRange(hash.block, blocks) * kBlockWords;
  }

  // Size of the cell array in bytes.
  size_t MemoryBytes() const { return words_.size() * sizeof(uint64_t); }

  // The blocked model's false-positive rate at the current gross
  // insertion count.
  double FpEstimate() const;

  // Serializes the header (1-bit slices), sizing parameters, counts
  // and the cell words (little-endian; see util/serial.h).
  void Snapshot(std::ostream& out) const;

  // Reconstructs a filter from a Snapshot payload; null on any decode
  // failure or inconsistent field (e.g. word count not matching the
  // recorded cell count).
  static std::unique_ptr<BlockedBloomFilter> FromSnapshot(std::istream& in);

  // Hooks for the scalable stack (scalable_bloom_filter.h): a 1-bit
  // stack's snapshot opens with the same sentinel and layout byte as
  // its slices'; counting stacks and slices have no header.
  static void WriteStackHeader(std::ostream& out);
  static bool ReadStackHeader(std::istream& in);

 private:
  static constexpr size_t kBlockWords = kBloomBlockCells * kCellBits / 64;
  static constexpr uint64_t kCellMax = (uint64_t{1} << kCellBits) - 1;

  BlockedBloomFilter() = default;  // for FromSnapshot

  // Lemire fastrange: maps a 64-bit hash onto [0, n) with a multiply
  // and shift instead of a modulo.
  static size_t FastRange(uint64_t h, size_t n) {
    return static_cast<size_t>(
        (static_cast<unsigned __int128>(h) * n) >> 64);
  }

  uint64_t* MutableBlockOf(const BloomHash& hash) {
    return const_cast<uint64_t*>(BlockOf(hash));
  }

  // Calls visit(bit offset of the cell within its block) for each of
  // the k cells in order: 9-bit fields of hash.cells, then of its
  // successive re-mixes, 7 fields per word. (Re-mixing the spent
  // remainder instead, which keeps a single bit, would give every key
  // one of two fixed patterns for cells 8 and on.) Stops at, and
  // returns false on, the first visit that returns false.
  template <typename Visit>
  bool ForEachCell(const BloomHash& hash, Visit visit) const {
    uint64_t word = hash.cells;
    uint64_t h = word;
    int avail = 7;
    for (int i = 0; i < sizing_.hashes; ++i) {
      if (avail == 0) {
        word = Mix64(word);
        h = word;
        avail = 7;
      }
      const size_t cell = h & (kBloomBlockCells - 1);
      h >>= 9;
      --avail;
      if (!visit(cell * kCellBits)) return false;
    }
    return true;
  }

  size_t expected_items_ = 0;
  BloomSizing sizing_;
  size_t num_insertions_ = 0;
  size_t num_removals_ = 0;
  std::vector<uint64_t, BlockAlignedAllocator<uint64_t>> words_;
};

using BloomFilter = BlockedBloomFilter<1>;

extern template class BlockedBloomFilter<1>;
extern template class BlockedBloomFilter<2>;

}  // namespace pier

#endif  // PIER_UTIL_BLOOM_FILTER_H_
