// GetComparisons(B) (Algorithm 2, line 11): when the stream is idle
// and the CmpIndex has been drained, the prioritizers fall back to
// scanning the block collection itself, emitting each block's
// comparisons from the smallest block to the biggest. This keeps the
// matcher busy ("continuing the computation even if the index becomes
// empty and the time budget is not yet exhausted") and is what lets
// PIER reach the eventual quality of batch ER.
//
// Incremental subtlety: blocks keep growing after they were scanned.
// The scanner therefore remembers the size at which it scanned each
// block and rescans any block that has since gained members. A rescan
// probes the pipeline's executed-comparison set (PrioritizerContext::
// executed) for each pair *before* weighting it and offers only the
// pairs the set does not contain. So the invariant is:
//   * the scanner never offers a pair the executed set contains at
//     scan time, and
//   * it re-offers every unexecuted pair of a grown block -- including
//     pairs an earlier scan offered that a full bounded queue evicted
//     before they were dequeued (their "second chance").
// Already-compared pairs thus cost one probe, not a CBS intersection
// and a trip through the prioritizer's queues. The dequeue-time check
// (ExecutedSet::TestAndAdd) still catches pairs queued twice.

#ifndef PIER_CORE_BLOCK_SCANNER_H_
#define PIER_CORE_BLOCK_SCANNER_H_

#include <iosfwd>
#include <utility>
#include <vector>

#include "core/prioritizer.h"
#include "model/comparison.h"
#include "obs/metrics.h"

namespace pier {

class BlockScanner {
 public:
  // `metrics`, when set, receives `pipeline.scan_skipped`: pairs the
  // scanner dropped because they were already executed.
  explicit BlockScanner(PrioritizerContext ctx,
                        obs::MetricsRegistry* metrics = nullptr);

  // Returns the unexecuted comparisons of the next block due for
  // (re)scanning (smallest first), weighted by CBS; empty when every
  // active block has been scanned at its current size. Blocks that
  // became active or grew after the current scan order was built are
  // picked up by a rebuild once the order is exhausted. Charges one
  // `index_ops` per executed-set probe.
  std::vector<Comparison> NextBlock(WorkStats* stats);

  // True when the last rebuild found no block due for scanning.
  bool Exhausted() const { return exhausted_; }

  // While the stream is live, a block is only rescanned after
  // meaningful growth (>= 2 members and >= 12.5%), which keeps rescan
  // work near-linear. Once the stream has ended, call this to lift the
  // throttle so one final pass covers every grown block.
  void AllowFullRescan() { full_rescan_ = true; }

  // Serializes scan progress (scanned sizes, pending order, flags).
  void Snapshot(std::ostream& out) const;

  // Restores a Snapshot payload. Returns false on decode failure.
  bool Restore(std::istream& in);

 private:
  void Rebuild();

  PrioritizerContext ctx_;
  obs::Counter* scan_skipped_ = nullptr;
  // Per token: the block size when last scanned (0 = never scanned).
  std::vector<uint32_t> scanned_size_;
  // (size, token) of blocks due for scanning, sorted descending so the
  // smallest block pops from the back.
  std::vector<std::pair<uint32_t, TokenId>> order_;
  bool exhausted_ = false;
  bool full_rescan_ = false;
};

}  // namespace pier

#endif  // PIER_CORE_BLOCK_SCANNER_H_
