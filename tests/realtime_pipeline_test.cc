// Tests for the single-shard realtime deployment (a ShardedPipeline
// with the default shard_count of 1): matches are delivered via
// callback, Drain() waits for quiescence, and concurrent ingest is
// safe.

#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "datagen/generators.h"
#include "persist/checkpoint_manager.h"
#include "stream/sharded_pipeline.h"

namespace pier {
namespace {

PierOptions Options(DatasetKind kind) {
  PierOptions options;
  options.kind = kind;
  options.strategy = PierStrategy::kIPes;
  return options;
}

// The realtime deployment: a ShardedPipeline at its default one shard.
ShardedOptions OneShard(PierOptions pipeline) {
  ShardedOptions options;
  options.pipeline = std::move(pipeline);
  return options;
}

TEST(RealtimePipelineTest, FindsDuplicatesAcrossIncrements) {
  const JaccardMatcher matcher(0.5);
  std::mutex mu;
  std::set<uint64_t> found;
  ShardedPipeline pipeline(OneShard(Options(DatasetKind::kDirty)), &matcher,
                           [&](ProfileId a, ProfileId b) {
                             std::lock_guard<std::mutex> lock(mu);
                             found.insert(PairKey(a, b));
                           });
  pipeline.Ingest({EntityProfile(0, 0, {{"n", "john smith lives here"}})});
  pipeline.Ingest({EntityProfile(1, 0, {{"n", "john smith lives there"}}),
                   EntityProfile(2, 0, {{"n", "completely different"}})});
  pipeline.Drain();
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_TRUE(found.count(PairKey(0, 1)));
  EXPECT_FALSE(found.count(PairKey(0, 2)));
}

TEST(RealtimePipelineTest, DrainIsIdempotentAndCountsAreConsistent) {
  const JaccardMatcher matcher(0.5);
  std::atomic<int> callbacks{0};
  ShardedPipeline pipeline(OneShard(Options(DatasetKind::kDirty)), &matcher,
                           [&](ProfileId, ProfileId) { ++callbacks; });
  pipeline.Ingest({EntityProfile(0, 0, {{"n", "dup token alpha"}}),
                   EntityProfile(1, 0, {{"n", "dup token alpha"}})});
  pipeline.Drain();
  pipeline.Drain();
  EXPECT_EQ(pipeline.matches_found(), static_cast<uint64_t>(callbacks));
  EXPECT_GE(pipeline.comparisons_processed(), pipeline.matches_found());
  EXPECT_EQ(callbacks.load(), 1);
}

TEST(RealtimePipelineTest, StreamsGeneratedDataset) {
  BibliographicOptions data_options;
  data_options.source0_count = 150;
  data_options.source1_count = 120;
  const Dataset d = GenerateBibliographic(data_options);

  const JaccardMatcher matcher(0.35);
  std::atomic<uint64_t> matches{0};
  ShardedPipeline pipeline(OneShard(Options(d.kind)), &matcher,
                           [&](ProfileId, ProfileId) { ++matches; });
  const auto increments = SplitIntoIncrements(d, 12);
  for (const auto& inc : increments) {
    std::vector<EntityProfile> profiles(
        d.profiles.begin() + static_cast<ptrdiff_t>(inc.begin),
        d.profiles.begin() + static_cast<ptrdiff_t>(inc.end));
    pipeline.Ingest(std::move(profiles));
  }
  pipeline.Drain();
  // Most generated duplicates pass the Jaccard threshold.
  EXPECT_GT(matches.load(), d.truth.size() / 2);
  EXPECT_EQ(matches.load(), pipeline.matches_found());
}

TEST(RealtimePipelineTest, ParallelExecutionFindsDuplicates) {
  // Same workload as StreamsGeneratedDataset, but matched across 4
  // executor threads: quality must not regress. (Exact matched-set
  // equality across runs is not asserted here because batch boundaries
  // depend on wall-clock ingest timing; order determinism is covered
  // by parallel_executor_test.)
  BibliographicOptions data_options;
  data_options.source0_count = 150;
  data_options.source1_count = 120;
  const Dataset d = GenerateBibliographic(data_options);
  const JaccardMatcher matcher(0.35);

  PierOptions options = Options(d.kind);
  options.execution_threads = 4;
  std::mutex mu;
  std::set<uint64_t> found;
  ShardedPipeline pipeline(OneShard(options), &matcher,
                           [&](ProfileId a, ProfileId b) {
                             std::lock_guard<std::mutex> lock(mu);
                             found.insert(PairKey(a, b));
                           });
  EXPECT_EQ(pipeline.execution_threads(), 4u);
  const auto increments = SplitIntoIncrements(d, 12);
  for (const auto& inc : increments) {
    std::vector<EntityProfile> profiles(
        d.profiles.begin() + static_cast<ptrdiff_t>(inc.begin),
        d.profiles.begin() + static_cast<ptrdiff_t>(inc.end));
    pipeline.Ingest(std::move(profiles));
  }
  pipeline.Drain();
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_GT(found.size(), d.truth.size() / 2);
}

TEST(RealtimePipelineTest, ConcurrentIngestWhileMatchingInParallel) {
  // Ingest from the producer thread races the executor's lock-free
  // profile reads; run under TSan this exercises the chunked
  // ProfileStore's stable-address guarantee.
  CensusOptions data_options;
  data_options.num_records = 3000;
  const Dataset d = GenerateCensus(data_options);
  const JaccardMatcher matcher(0.35);
  PierOptions options = Options(d.kind);
  options.execution_threads = 4;
  std::atomic<uint64_t> matches{0};
  ShardedPipeline pipeline(OneShard(options), &matcher,
                           [&](ProfileId, ProfileId) { ++matches; });
  const auto increments = SplitIntoIncrements(d, 60);
  for (const auto& inc : increments) {
    std::vector<EntityProfile> profiles(
        d.profiles.begin() + static_cast<ptrdiff_t>(inc.begin),
        d.profiles.begin() + static_cast<ptrdiff_t>(inc.end));
    pipeline.Ingest(std::move(profiles));
  }
  pipeline.Drain();
  EXPECT_EQ(matches.load(), pipeline.matches_found());
  EXPECT_GT(matches.load(), 0u);
}

TEST(RealtimePipelineTest, DestructionWhileBusyIsSafe) {
  CensusOptions data_options;
  data_options.num_records = 2000;
  const Dataset d = GenerateCensus(data_options);
  const JaccardMatcher matcher(0.35);
  {
    ShardedPipeline pipeline(OneShard(Options(d.kind)), &matcher,
                             [](ProfileId, ProfileId) {});
    std::vector<EntityProfile> all = d.profiles;
    pipeline.Ingest(std::move(all));
    // Destructor runs while the worker may still be mid-stream.
  }
  SUCCEED();
}

TEST(RealtimePipelineTest, CheckpointAndRestoreAcrossInstances) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("pier_realtime_ckpt_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  BibliographicOptions data_options;
  data_options.source0_count = 80;
  data_options.source1_count = 70;
  const Dataset d = GenerateBibliographic(data_options);
  const JaccardMatcher matcher(0.35);
  const auto increments = SplitIntoIncrements(d, 10);
  const auto slice = [&](const Increment& inc) {
    return std::vector<EntityProfile>(
        d.profiles.begin() + static_cast<ptrdiff_t>(inc.begin),
        d.profiles.begin() + static_cast<ptrdiff_t>(inc.end));
  };

  // First instance: ingest half the stream with checkpointing on,
  // drain so the checkpointed state is quiescent (no in-flight batch
  // to lose), then checkpoint the 5th ingest and shut down.
  {
    ShardedPipeline pipeline(OneShard(Options(d.kind)), &matcher,
                             [](ProfileId, ProfileId) {});
    pipeline.EnableCheckpoints(dir.string(), /*every=*/5, /*keep=*/2);
    for (size_t i = 0; i + 1 < 5; ++i) pipeline.Ingest(slice(increments[i]));
    pipeline.Drain();
    pipeline.Ingest(slice(increments[4]));  // 5th ingest -> checkpoint
    pipeline.Drain();
  }
  const auto latest = persist::CheckpointManager::FindLatest(dir.string());
  ASSERT_TRUE(latest.has_value());

  // Second instance: restore, feed the rest, and find duplicates that
  // pair a pre-checkpoint profile with a post-checkpoint one -- the
  // restored blocking/prioritizer state is what makes them reachable.
  std::mutex mu;
  std::set<uint64_t> found;
  ShardedPipeline restored(OneShard(Options(d.kind)), &matcher,
                           [&](ProfileId a, ProfileId b) {
                             std::lock_guard<std::mutex> lock(mu);
                             found.insert(PairKey(a, b));
                           });
  {
    std::ifstream snapshot(*latest, std::ios::binary);
    std::string error;
    ASSERT_TRUE(restored.RestoreFromSnapshot(snapshot, &error)) << error;
  }
  const ProfileId boundary = static_cast<ProfileId>(increments[5].begin);
  for (size_t i = 5; i < increments.size(); ++i) {
    restored.Ingest(slice(increments[i]));
  }
  restored.Drain();
  size_t cross_matches = 0;
  {
    std::lock_guard<std::mutex> lock(mu);
    for (const uint64_t key : found) {
      const auto a = static_cast<ProfileId>(key >> 32);
      const auto b = static_cast<ProfileId>(key);
      if ((a < boundary) != (b < boundary)) ++cross_matches;
    }
  }
  EXPECT_GT(cross_matches, 0u);

  // A pipeline that already ingested refuses to restore.
  {
    std::ifstream snapshot(*latest, std::ios::binary);
    std::string error;
    EXPECT_FALSE(restored.RestoreFromSnapshot(snapshot, &error));
    EXPECT_FALSE(error.empty());
  }
  fs::remove_all(dir);
}

TEST(RealtimePipelineTest, IngestAfterStopIsRejected) {
  const JaccardMatcher matcher(0.5);
  ShardedPipeline pipeline(OneShard(Options(DatasetKind::kDirty)), &matcher,
                           [](ProfileId, ProfileId) {});
  EXPECT_TRUE(
      pipeline.Ingest({EntityProfile(0, 0, {{"n", "alpha beta gamma"}})}));
  pipeline.Drain();
  pipeline.Stop();
  // Regression test: a stopped pipeline must reject the increment (the
  // worker is gone; silently enqueueing it would drop it forever).
  EXPECT_FALSE(
      pipeline.Ingest({EntityProfile(1, 0, {{"n", "alpha beta gamma"}})}));
  EXPECT_EQ(pipeline.ingests(), 1u);
  pipeline.Drain();  // returns immediately, no deadlock
}

TEST(RealtimePipelineTest, IngestAfterFailedRestoreIsRejected) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("pier_realtime_poison_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const JaccardMatcher matcher(0.5);
  {
    PierOptions options = Options(DatasetKind::kDirty);
    options.strategy = PierStrategy::kIPes;
    ShardedPipeline pipeline(OneShard(options), &matcher,
                             [](ProfileId, ProfileId) {});
    pipeline.EnableCheckpoints(dir.string(), /*every=*/1, /*keep=*/1);
    pipeline.Ingest({EntityProfile(0, 0, {{"n", "alpha beta"}}),
                     EntityProfile(1, 0, {{"n", "alpha beta"}})});
    pipeline.Drain();
  }
  const auto latest = persist::CheckpointManager::FindLatest(dir.string());
  ASSERT_TRUE(latest.has_value());

  // Mismatched options: the snapshot's global sections restore, then
  // the engine fingerprint check fails mid-restore. The pipeline is
  // partially restored -- it must reject further ingests instead of
  // producing wrong verdicts from the half-restored state.
  PierOptions options = Options(DatasetKind::kDirty);
  options.strategy = PierStrategy::kIPcs;
  ShardedPipeline poisoned(OneShard(options), &matcher,
                           [](ProfileId, ProfileId) {});
  {
    std::ifstream snapshot(*latest, std::ios::binary);
    std::string error;
    EXPECT_FALSE(poisoned.RestoreFromSnapshot(snapshot, &error));
    EXPECT_NE(error.find("poisoned"), std::string::npos) << error;
  }
  EXPECT_FALSE(poisoned.Ingest({EntityProfile(0, 0, {{"n", "alpha beta"}})}));
  fs::remove_all(dir);
}

TEST(RealtimePipelineTest, QueueDepthAndFreshnessMetrics) {
  obs::MetricsRegistry registry;
  const JaccardMatcher matcher(0.5);
  PierOptions options = Options(DatasetKind::kDirty);
  options.metrics = &registry;
  ShardedPipeline pipeline(OneShard(options), &matcher,
                           [](ProfileId, ProfileId) {});
  pipeline.Ingest({EntityProfile(0, 0, {{"n", "dup token alpha"}}),
                   EntityProfile(1, 0, {{"n", "dup token alpha"}})});
  pipeline.Ingest({EntityProfile(2, 0, {{"n", "dup token alpha"}})});
  pipeline.Drain();
  // Quiescent: the microbatch queue is empty and every ingest has been
  // closed out with an ingest-to-first-verdict latency sample.
  EXPECT_EQ(registry.GetGauge("realtime.queue_depth")->Value(), 0.0);
  EXPECT_EQ(registry.GetGauge("realtime.pending_ingests")->Value(), 0.0);
  const obs::Histogram* latency =
      registry.GetHistogram("realtime.ingest_to_first_verdict_ns");
  EXPECT_EQ(latency->Count(), 2u);
  EXPECT_GT(latency->Sum(), 0u);
  EXPECT_EQ(registry.GetCounter("realtime.ingests")->Value(), 2u);
}

}  // namespace
}  // namespace pier
