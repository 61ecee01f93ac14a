#include "core/i_pcs.h"

#include <istream>
#include <ostream>
#include <utility>

#include "blocking/block_ghosting.h"
#include "metablocking/i_wnp.h"
#include "util/serial.h"

namespace pier {

IPcs::IPcs(PrioritizerContext ctx, PrioritizerOptions options)
    : ctx_(ctx),
      options_(options),
      index_(options.cmp_index_capacity),
      scanner_(ctx, options.metrics) {}

WorkStats IPcs::UpdateCmpIndex(const std::vector<ProfileId>& delta) {
  WorkStats stats;
  const WeightingContext wctx{ctx_.blocks, ctx_.profiles, options_.scheme};

  std::vector<Comparison> cmp_list;
  for (const ProfileId id : delta) {
    const EntityProfile& p = ctx_.profiles->Get(id);
    // Algorithm 2, lines 4-5: retained blocks after block ghosting.
    GhostBlocks(*ctx_.blocks, p, options_.beta, &retained_);
    // Lines 6-7: candidate generation (only_older_neighbors makes each
    // pair unique per increment); line 8: I-WNP comparison cleaning.
    std::vector<Comparison> candidates = GenerateWeightedComparisons(
        wctx, p, retained_, /*only_older_neighbors=*/true, /*visits=*/nullptr,
        &scratch_);
    stats.comparisons_generated += candidates.size();
    candidates = IWnpPrune(std::move(candidates));
    cmp_list.insert(cmp_list.end(), candidates.begin(), candidates.end());
  }

  // Lines 10-11: on an idle tick with a drained index, fall back to
  // scanning blocks smallest-first.
  if (delta.empty() && index_.empty()) {
    cmp_list = scanner_.NextBlock(&stats);
  }

  // Lines 12-13: fold into the global bounded index.
  for (auto& c : cmp_list) {
    index_.PushBounded(c);
    ++stats.index_ops;
  }
  return stats;
}

void IPcs::OnRetract(ProfileId id) {
  // Purge the CmpIndex of comparisons touching the retracted profile.
  // The interval heap has no positional erase, so rebuild it from the
  // surviving elements (Push re-establishes the heap invariant; the
  // dequeue order depends only on the comparator, which is total).
  std::vector<Comparison> kept;
  kept.reserve(index_.size());
  for (const Comparison& c : index_.data()) {
    if (c.x != id && c.y != id) kept.push_back(c);
  }
  if (kept.size() == index_.size()) return;
  index_.Clear();
  for (Comparison& c : kept) index_.Push(std::move(c));
}

bool IPcs::Dequeue(Comparison* out) {
  if (index_.empty()) return false;
  *out = index_.PopMax();
  return true;
}

void IPcs::Snapshot(std::ostream& out) const {
  // The heap's backing vector verbatim: restoring it reproduces the
  // exact interval-heap layout, hence the exact dequeue order.
  serial::WriteVec(out, index_.data(), SnapshotComparison);
  scanner_.Snapshot(out);
}

bool IPcs::Restore(std::istream& in) {
  std::vector<Comparison> data;
  if (!serial::ReadVec(in, &data, RestoreComparison)) return false;
  if (!index_.RestoreData(std::move(data))) return false;
  return scanner_.Restore(in);
}

}  // namespace pier
