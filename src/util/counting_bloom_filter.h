// Deletable set membership for mutable streams: a scalable Bloom
// filter (the one slice-growth / error-tightening schedule of
// scalable_bloom_filter.h) whose slices store 2-bit saturating
// counters instead of single bits, so keys can be removed again.
//
// The PIER pipeline uses this as the executed-comparison filter when
// `mutable_stream` is on: deleting a record must forget the
// comparisons it participated in, otherwise a corrected record that is
// re-ingested would have its comparisons suppressed forever and the
// delete-then-replay oracle would diverge.
//
// Counter layout: the 1-bit slices' blocked layout (bloom_filter.h)
// with 2 bits per cell, so a 512-cell block spans two adjacent cache
// lines (128 bytes) and a probe reads those two lines. Both slice
// types get the same cell count and k from SizeBloom, so a counting
// stack takes exactly twice the memory of a 1-bit stack over the same
// keys.
//
// A counter that reaches 3 saturates and becomes sticky: it is never
// decremented again, which preserves the no-false-negatives guarantee
// for keys still present at the cost of the filter slowly densifying
// under heavy churn (the fraction of cells reaching 3 is small at
// design load). Removing a key that was
// never added can clear cells shared with live keys -- the standard
// counting-filter caveat -- so callers must pair each Remove with a
// prior Add (the pipeline guarantees this via its executed-pair
// registry).

#ifndef PIER_UTIL_COUNTING_BLOOM_FILTER_H_
#define PIER_UTIL_COUNTING_BLOOM_FILTER_H_

#include "util/bloom_filter.h"
#include "util/scalable_bloom_filter.h"

namespace pier {

using CountingBloomFilter = BlockedBloomFilter<2>;

// The growth schedule over counting slices: ScalableBloomFilter's
// schedule and framing, plus Remove and a removal count.
using ScalableCountingBloomFilter = ScalableFilter<CountingBloomFilter>;

}  // namespace pier

#endif  // PIER_UTIL_COUNTING_BLOOM_FILTER_H_
