// End-to-end "production" walkthrough combining the library's
// extension features:
//   1. load a dataset from CSV (datagen/dataset_io, here produced by
//      the census generator and round-tripped through CSV),
//   2. let the strategy selector (the paper's future-work heuristic)
//      pick the prioritizer from a sample of the data,
//   3. stream the records through a one-shard, multi-threaded
//      ShardedPipeline,
//   4. consolidate discovered matches into resolved entities with the
//      union-find EntityClusters.

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/strategy_selector.h"
#include "datagen/dataset_io.h"
#include "datagen/generators.h"
#include "eval/entity_clusters.h"
#include "similarity/matcher.h"
#include "stream/sharded_pipeline.h"
#include "text/tokenizer.h"

int main() {
  // --- 1. Data: generate, export to CSV, load back (showing the IO
  // path a real deployment would use for its own files).
  pier::CensusOptions data_options;
  data_options.num_records = 3000;
  data_options.seed = 5;
  const pier::Dataset generated = pier::GenerateCensus(data_options);
  std::stringstream profiles_csv;
  std::stringstream truth_csv;
  pier::WriteProfilesCsv(generated, profiles_csv);
  pier::WriteGroundTruthCsv(generated, truth_csv);
  const auto dataset = pier::ReadDatasetCsv(profiles_csv, &truth_csv,
                                            "census-from-csv",
                                            pier::DatasetKind::kDirty);
  if (!dataset) {
    std::fprintf(stderr, "failed to load dataset CSV\n");
    return 1;
  }
  std::printf("loaded %zu records from CSV (%zu true duplicate pairs)\n",
              dataset->profiles.size(), dataset->truth.size());

  // --- 2. Strategy selection from a sample of the data.
  {
    pier::Tokenizer tokenizer;
    pier::TokenDictionary dict;
    pier::ProfileStore sample_store;
    pier::BlockCollection sample_blocks(dataset->kind);
    const size_t sample = std::min<size_t>(500, dataset->profiles.size());
    for (size_t i = 0; i < sample; ++i) {
      pier::EntityProfile p = dataset->profiles[i];
      tokenizer.TokenizeProfile(p, dict);
      sample_blocks.AddProfile(p);
      sample_store.Add(std::move(p));
    }
    const auto rec = pier::RecommendStrategy(sample_blocks, sample_store);
    std::printf("strategy selector: %s (%s)\n", ToString(rec.strategy),
                rec.rationale.c_str());
  }

  // --- 3. Real-time pipeline with entity consolidation.
  pier::PierOptions options;
  options.kind = dataset->kind;
  options.strategy = pier::PierStrategy::kIPbs;  // per the selector
  // Shard match execution across the machine's cores; verdict order
  // (and thus the callback stream per batch) stays deterministic.
  options.execution_threads =
      std::max(1u, std::thread::hardware_concurrency());
  const pier::JaccardMatcher matcher(0.45);

  pier::EntityClusters clusters;
  std::mutex clusters_mutex;
  pier::ShardedOptions sharded;
  sharded.pipeline = options;
  pier::ShardedPipeline pipeline(
      sharded, &matcher, [&](pier::ProfileId a, pier::ProfileId b) {
        std::lock_guard<std::mutex> lock(clusters_mutex);
        clusters.AddMatch(a, b);
      });

  const auto increments = pier::SplitIntoIncrements(*dataset, 30);
  for (const auto& inc : increments) {
    std::vector<pier::EntityProfile> batch(
        dataset->profiles.begin() + static_cast<ptrdiff_t>(inc.begin),
        dataset->profiles.begin() + static_cast<ptrdiff_t>(inc.end));
    pipeline.Ingest(std::move(batch));
  }
  pipeline.Drain();

  // --- 4. Report resolved entities.
  std::lock_guard<std::mutex> lock(clusters_mutex);
  const auto resolved = clusters.Clusters(2);
  std::printf("pipeline: %llu comparisons, %llu matched pairs\n",
              static_cast<unsigned long long>(
                  pipeline.comparisons_processed()),
              static_cast<unsigned long long>(pipeline.matches_found()));
  std::printf("resolved %zu multi-record entities; largest cluster has "
              "%zu records\n",
              resolved.size(),
              resolved.empty() ? 0
                               : std::max_element(
                                     resolved.begin(), resolved.end(),
                                     [](const auto& a, const auto& b) {
                                       return a.size() < b.size();
                                     })
                                     ->size());
  return 0;
}
