// Scalable Bloom filter (Almeida et al., 2007): a sequence of plain
// Bloom filters with geometrically growing capacity and geometrically
// tightening error probability, so the compound false-positive rate
// stays bounded no matter how many keys are inserted.
//
// ScalableFilter is that growth schedule, written once over its slice
// type; the engine instantiates it twice, over the two cell widths of
// the one blocked slice layout (bloom_filter.h):
//   * ScalableBloomFilter, over 1-bit slices: the comparison filter CF
//     of I-PBS (Algorithm 3) and the executed-comparison set of
//     append-only streams. On an unbounded stream the set of executed
//     comparisons grows without limit, so an exact hash set would
//     exhaust memory while this filter keeps a small, bounded-error
//     footprint.
//   * ScalableCountingBloomFilter, over 2-bit counting slices
//     (counting_bloom_filter.h), which adds Remove for mutable
//     streams.
// Every stack operation hashes its key once (BloomHash) and hands the
// pair to each slice it visits, so a probe costs one block read per
// slice.
//
// Wire format: the slice type's stack header (the 1-bit slices' zero
// sentinel and layout byte; nothing for counting slices), the options,
// the insertion count, the removal count (counting slices only), the
// slice count, and every slice's own snapshot.

#ifndef PIER_UTIL_SCALABLE_BLOOM_FILTER_H_
#define PIER_UTIL_SCALABLE_BLOOM_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "util/bloom_filter.h"

namespace pier {

struct ScalableFilterOptions {
  // Capacity of the first slice: 62 KiB of 1-bit cells (125 KiB of
  // counters) at the default error, so a small stream stays small
  // while a stream of 10^7 keys needs 9 slices.
  size_t initial_capacity = 32768;
  // Compound false-positive probability target.
  double fp_rate = 0.01;
  // Capacity growth factor between consecutive slices.
  double growth = 2.0;
  // Error-tightening ratio r: slice i gets error p0 * r^i with
  // p0 = fp_rate * (1 - r).
  double tightening = 0.9;
};

// `Slice` is a BlockedBloomFilter (bloom_filter.h): it provides the
// constructor (expected_items, fp_rate) sized by SizeBloom, Add and
// MayContain over a BloomHash, AtCapacity, expected_items,
// num_insertions, sizing, MemoryBytes, FpEstimate, Snapshot,
// FromSnapshot, the WriteStackHeader / ReadStackHeader hooks and
// kRemovable (with Remove when set).
template <typename Slice>
class ScalableFilter {
 public:
  using Options = ScalableFilterOptions;

  ScalableFilter() : ScalableFilter(Options()) {}
  explicit ScalableFilter(const Options& options);

  // Adds a key (always to the most recent slice, growing a new slice
  // when the current one reaches its design capacity).
  void Add(uint64_t key);

  // True if the key may have been added (checks newest slice first,
  // as recent keys are the most frequently re-queried in streaming
  // deduplication workloads).
  bool MayContain(uint64_t key) const;

  // Convenience: returns false and inserts if the key was (probably)
  // absent; returns true if it was (possibly) already present.
  // This mirrors the typical "have we executed this comparison?"
  // check-then-mark usage.
  bool TestAndAdd(uint64_t key);

  // Removes the key from the newest slice that may contain it (a key
  // lives in exactly one slice, and newer slices hold most keys).
  // Decrementing every claiming slice would let a false-positive hit
  // in a sibling slice clear cells owned by live keys -- a false
  // negative. When the picked slice is itself a false-positive hit
  // the true slice keeps the key -- it lingers, the safe direction --
  // at the cost of a few collateral cell decrements, with probability
  // bounded by the tightened per-slice error rates. Returns true if a
  // slice was decremented.
  bool Remove(uint64_t key)
    requires Slice::kRemovable;

  size_t num_slices() const { return slices_.size(); }
  size_t num_insertions() const { return num_insertions_; }
  // Always 0 for slices without Remove.
  size_t num_removals() const { return num_removals_; }
  size_t MemoryBytes() const;

  // The blocked model's false-positive rate of every slice at its
  // gross insertion count, summed: a bound on the chance that a fresh
  // key is reported present (removals are ignored, since saturated
  // counters keep their cells set, so the estimate errs high).
  double FpEstimate() const;

  // Heap footprint estimate: slice arrays plus the slice vector itself
  // (exported as a persist.state_bytes gauge).
  size_t ApproxMemoryBytes() const;

  void Snapshot(std::ostream& out) const;

  // Replaces this filter's entire state from a Snapshot payload
  // (including the options, which are validated against the
  // constructor's ranges), checking every slice against the growth
  // schedule: its sizing, that every non-final slice is full, and that
  // the slices' insertions sum to the recorded count. Returns false on
  // any decode failure, leaving the filter in an
  // unspecified-but-valid state.
  bool Restore(std::istream& in);

 private:
  void AddSlice();
  void Add(const BloomHash& hash);
  bool MayContain(const BloomHash& hash) const;

  Options options_;
  std::vector<std::unique_ptr<Slice>> slices_;
  size_t num_insertions_ = 0;
  size_t num_removals_ = 0;
};

using ScalableBloomFilter = ScalableFilter<BloomFilter>;

}  // namespace pier

#endif  // PIER_UTIL_SCALABLE_BLOOM_FILTER_H_
