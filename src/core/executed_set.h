// The executed-comparison set: every pair already handed to the
// matcher. It backs the pipeline (one per PierPipeline, so one per
// shard engine), the sharded combiner, which keeps its own to drop a
// verdict a second shard delivers for the same pair (see
// stream/sharded_pipeline.h), and I-PBS's comparison filter CF over
// already-scheduled pairs (core/i_pbs.h). The pipeline consults it
// twice per pair:
//
//   * at scan time, read-only (Contains): the block scanner skips a
//     pair the set already holds before weighting it, so re-offering a
//     grown block costs one probe per old pair instead of a CBS
//     intersection plus a trip through the prioritizer queues;
//   * at dequeue time (TestAndAdd), which marks the pair executed and
//     suppresses pairs queued twice or generated again by a later
//     increment's delta.
//
// One of three representations backs it, fixed at construction; only
// that one is built:
//   * an exact hash set (the `exact_executed_filter` ablation: never
//     drops a pair, grows without bound);
//   * a scalable Bloom filter (append-only streams: bounded-error,
//     small footprint);
//   * a scalable 2-bit counting Bloom filter (mutable streams, so keys
//     can be withdrawn again).
// Mutable streams additionally keep a PairRegistry -- for the exact
// set too -- recording each inserted pair under both endpoints, so
// Retract(id) can find the keys to withdraw.

#ifndef PIER_CORE_EXECUTED_SET_H_
#define PIER_CORE_EXECUTED_SET_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <unordered_set>
#include <variant>

#include "model/pair_registry.h"
#include "model/types.h"
#include "util/counting_bloom_filter.h"
#include "util/scalable_bloom_filter.h"

namespace pier {

class ExecutedSet {
 public:
  // `exact` selects the exact hash set; otherwise a Bloom filter,
  // the counting variant when `mutable_stream` is set.
  ExecutedSet(bool exact, bool mutable_stream);

  // True if the pair was (possibly, for the Bloom variants) executed.
  // Read-only: a false positive here is one TestAndAdd would also
  // report, so skipping the pair never loses one the dequeue would
  // have kept.
  bool Contains(ProfileId x, ProfileId y) const;

  // Returns true if the pair was (possibly) already executed;
  // otherwise marks it executed and returns false.
  bool TestAndAdd(ProfileId x, ProfileId y);

  // Mutable streams: withdraws every executed pair with endpoint `id`,
  // so a corrected profile's comparisons pass the set again. Returns
  // the number of keys withdrawn.
  size_t Retract(ProfileId id);

  // Wire format: the sorted exact keys, or the active filter's own
  // snapshot; then, for mutable streams, the registry.
  void Snapshot(std::ostream& out) const;
  bool Restore(std::istream& in);

  // Heap footprint of the active representation plus the registry.
  size_t ApproxMemoryBytes() const;

  // The filter's slice count and its modelled false-positive rate
  // (ScalableFilter::FpEstimate): a bound on the chance that a pair
  // never executed is reported executed and skipped. Both 0 for the
  // exact set. Exported as the executed.slices and
  // executed.fp_estimate gauges.
  size_t num_slices() const;
  double FpEstimate() const;

 private:
  // The exact representation, with the filters' interface.
  class ExactKeys {
   public:
    bool MayContain(uint64_t key) const { return keys_.count(key) != 0; }
    bool TestAndAdd(uint64_t key) { return !keys_.insert(key).second; }
    bool Remove(uint64_t key) { return keys_.erase(key) != 0; }
    // The keys sorted, for canonical bytes (hash-set iteration order
    // varies).
    void Snapshot(std::ostream& out) const;
    bool Restore(std::istream& in);
    size_t ApproxMemoryBytes() const;
    size_t num_slices() const { return 0; }
    double FpEstimate() const { return 0.0; }

   private:
    std::unordered_set<uint64_t> keys_;
  };

  std::variant<ExactKeys, ScalableBloomFilter, ScalableCountingBloomFilter>
      keys_;
  bool mutable_stream_;
  PairRegistry registry_;
};

}  // namespace pier

#endif  // PIER_CORE_EXECUTED_SET_H_
