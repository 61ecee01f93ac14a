// Single-threaded replay of a workload's schedule, composed from the
// public calls the ShardedPipeline router, shard workers and combiner
// make, with a span around every call so the layer times add up to the
// replay's wall time.

#ifndef PIERBENCH_REPLAY_H_
#define PIERBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace pierbench {

// Layers of the replay, in pipeline order. Spans never nest, so each
// span's duration is its layer's self time.
enum ReplayLayer {
  kLayerTokenize,      // text: Tokenizer::TokenizeProfile
  kLayerRoute,         // stream: split tokens by owning shard
  kLayerStore,         // model: ProfileStore Add/Replace/Remove, doc freqs
  kLayerTrack,         // serve: ClusterIndex::TrackUpTo
  kLayerIngest,        // core: IngestPretokenized / UpdatePretokenized
  kLayerRetract,       // core: PierPipeline::Delete on every shard
  kLayerServeRetract,  // serve: RemoveProfile / ReviveAsSingleton
  kLayerEmit,          // core: EmitBatch
  kLayerMatch,         // similarity: ExecuteVerdicts
  kLayerVerdict,       // core: ReportBatchCost + RecordVerdict
  kLayerCombine,       // stream: cross-shard delivered filter
  kLayerRecord,        // serve: ClusterIndex::AddMatches
  kNumReplayLayers,
};

const char* ReplayLayerName(ReplayLayer layer);

struct ReplayResult {
  double wall_s = 0.0;
  double layer_s[kNumReplayLayers] = {};
  double covered_s = 0.0;  // sum of layer_s

  uint64_t tokens = 0;
  uint64_t block_updates = 0;
  uint64_t index_ops = 0;
  uint64_t comparisons_generated = 0;
  uint64_t emitted = 0;
  uint64_t suppressed = 0;
  uint64_t retracted_pairs = 0;  // dropped at dequeue (dead endpoint)
  uint64_t retracted_profiles = 0;
  uint64_t positives = 0;  // positive verdicts, before cross-shard dedup
  uint64_t matches = 0;    // delivered matches
  uint64_t true_matches = 0;
  uint64_t duplicates = 0;

  // Executed-filter replay (util): each shard's emitted pairs and
  // retractions, in order, through a fresh filter of the kind the
  // pipeline runs. ns_per_probe includes the retractions' time.
  double filter_ns_per_probe = 0.0;
  uint64_t filter_probes = 0;
  uint64_t filter_slices = 0;
  uint64_t filter_bytes = 0;
  uint64_t filter_false_positives = 0;

  // model: ApproxMemoryBytes of the global and shard state at the end.
  uint64_t profile_bytes = 0;
  uint64_t block_bytes = 0;
  uint64_t dictionary_bytes = 0;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
};

// `input` must come from MakeInput(spec, ...).
ReplayResult RunReplay(const WorkloadSpec& spec, const Input& input);

}  // namespace pierbench

#endif  // PIERBENCH_REPLAY_H_
