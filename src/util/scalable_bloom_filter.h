// Scalable Bloom filter (Almeida et al., 2007): a sequence of plain
// Bloom filters with geometrically growing capacity and geometrically
// tightening error probability, so the compound false-positive rate
// stays bounded no matter how many keys are inserted.
//
// The PIER framework uses it as the comparison filter CF of I-PBS
// (Algorithm 3) and as the pipeline-level executed-comparison filter:
// on an unbounded stream the set of executed comparisons grows without
// limit, so an exact hash set would exhaust memory while this filter
// keeps a small, bounded-error footprint.
//
// Every slice uses the cache-line-blocked layout: the executed-
// comparison filter is probed once per emitted comparison, and one
// cache line per probe beats k scattered lines (see bloom_filter.h for
// the FP-rate trade).

#ifndef PIER_UTIL_SCALABLE_BLOOM_FILTER_H_
#define PIER_UTIL_SCALABLE_BLOOM_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "util/bloom_filter.h"

namespace pier {

class ScalableBloomFilter {
 public:
  struct Options {
    // Capacity of the first slice.
    size_t initial_capacity = 4096;
    // Compound false-positive probability target.
    double fp_rate = 0.01;
    // Capacity growth factor between consecutive slices.
    double growth = 2.0;
    // Error-tightening ratio r: slice i gets error p0 * r^i with
    // p0 = fp_rate * (1 - r).
    double tightening = 0.9;
  };

  ScalableBloomFilter() : ScalableBloomFilter(Options()) {}
  explicit ScalableBloomFilter(const Options& options);

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

  size_t num_slices() const { return slices_.size(); }
  size_t num_insertions() const { return num_insertions_; }
  size_t MemoryBytes() const;

  // Heap footprint estimate: slice bit arrays plus the slice vector
  // itself (exported as a persist.state_bytes gauge).
  size_t ApproxMemoryBytes() const;

  // Serializes a zero sentinel and the layout byte (kept so the bytes
  // match filters that recorded their layout), options, insertion
  // count, and every slice.
  void Snapshot(std::ostream& out) const;

  // Replaces this filter's entire state from a Snapshot payload
  // (including the options, which are validated against the
  // constructor's ranges). Returns false on any decode failure,
  // leaving the filter in an unspecified-but-valid state. A layout
  // byte other than kBlocked512 is a decode failure.
  bool Restore(std::istream& in);

 private:
  void AddSlice();

  Options options_;
  std::vector<std::unique_ptr<BloomFilter>> slices_;
  size_t num_insertions_ = 0;
};

}  // namespace pier

#endif  // PIER_UTIL_SCALABLE_BLOOM_FILTER_H_
