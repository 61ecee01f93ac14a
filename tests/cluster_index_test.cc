// Tests for the online cluster serving path: ClusterIndex (seqlock
// union-find with canonical cluster ids) against a from-scratch
// connected-components oracle, snapshot/restore round-trips, the
// concurrent ingest-vs-query protocol, and the cluster-level recall
// tracker against a brute-force pair count.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/generators.h"
#include "eval/cluster_recall.h"
#include "eval/entity_clusters.h"
#include "model/ground_truth.h"
#include "obs/metrics.h"
#include "serve/cluster_index.h"
#include "stream/sharded_pipeline.h"
#include "util/rng.h"

namespace pier {
namespace {

// From-scratch oracle: replays all edges into a plain union-find and
// materializes canonical (min-member) ids and sorted member lists.
struct Oracle {
  EntityClusters uf;
  std::map<ProfileId, std::vector<ProfileId>> members_by_root;

  Oracle(size_t universe, const std::vector<std::pair<ProfileId, ProfileId>>&
                              edges) {
    for (const auto& e : edges) uf.AddMatch(e.first, e.second);
    for (ProfileId id = 0; id < universe; ++id) {
      members_by_root[uf.Find(id)].push_back(id);
    }
  }

  ProfileId CanonicalId(ProfileId id) {
    return members_by_root.at(uf.Find(id)).front();  // ascending insert
  }
  const std::vector<ProfileId>& Members(ProfileId id) {
    return members_by_root.at(uf.Find(id));
  }
};

void ExpectMatchesOracle(const serve::ClusterIndex& index, Oracle& oracle,
                         size_t universe) {
  ASSERT_EQ(index.universe_size(), universe);
  for (ProfileId id = 0; id < universe; ++id) {
    const serve::ClusterView view = index.ClusterOf(id);
    EXPECT_EQ(view.cluster_id, oracle.CanonicalId(id)) << "id " << id;
    EXPECT_EQ(view.members, oracle.Members(id)) << "id " << id;
    EXPECT_EQ(index.ClusterIdOf(id), view.cluster_id) << "id " << id;
    EXPECT_EQ(index.ClusterSizeOf(id), view.members.size()) << "id " << id;
  }
  EXPECT_EQ(index.NumNonTrivialClusters(),
            oracle.uf.NumNonTrivialClusters());
}

std::string SnapshotBytes(const serve::ClusterIndex& index) {
  std::ostringstream out(std::ios::binary);
  index.Snapshot(out);
  return out.str();
}

TEST(ClusterIndexTest, SingletonsAndUnknownIds) {
  serve::ClusterIndex index;
  index.TrackUpTo(5);
  EXPECT_EQ(index.universe_size(), 5u);
  EXPECT_EQ(index.NumNonTrivialClusters(), 0u);
  const serve::ClusterView view = index.ClusterOf(3);
  EXPECT_EQ(view.cluster_id, 3u);
  EXPECT_EQ(view.members, std::vector<ProfileId>{3});
  // Ids the index has never seen are reported as singletons without
  // growing the universe.
  const serve::ClusterView unknown = index.ClusterOf(100);
  EXPECT_EQ(unknown.cluster_id, 100u);
  EXPECT_EQ(unknown.members, std::vector<ProfileId>{100});
  EXPECT_EQ(index.ClusterSizeOf(100), 1u);
  EXPECT_EQ(index.universe_size(), 5u);
}

TEST(ClusterIndexTest, MergesUseCanonicalSmallestMemberId) {
  serve::ClusterIndex index;
  EXPECT_TRUE(index.AddMatch(4, 7));   // grows the universe to 8
  EXPECT_TRUE(index.AddMatch(7, 2));   // chains into {2,4,7}
  EXPECT_FALSE(index.AddMatch(2, 4));  // already connected
  EXPECT_EQ(index.universe_size(), 8u);
  EXPECT_EQ(index.merges(), 2u);
  EXPECT_EQ(index.NumNonTrivialClusters(), 1u);
  for (const ProfileId id : {2u, 4u, 7u}) {
    const serve::ClusterView view = index.ClusterOf(id);
    EXPECT_EQ(view.cluster_id, 2u);
    EXPECT_EQ(view.members, (std::vector<ProfileId>{2, 4, 7}));
  }
  EXPECT_EQ(index.ClusterIdOf(5), 5u);
}

// The core acceptance property: after every increment of a random
// edge stream -- including across Snapshot -> Restore cycles -- the
// index answers exactly like a connected-components oracle rebuilt
// from scratch.
TEST(ClusterIndexTest, RandomizedPropertyMatchesOracleAcrossRestores) {
  for (const uint64_t seed : {1u, 17u, 99u}) {
    Rng rng(seed);
    auto index = std::make_unique<serve::ClusterIndex>();
    std::vector<std::pair<ProfileId, ProfileId>> edges;
    size_t universe = 1 + rng.UniformInt(0, 7);
    index->TrackUpTo(universe);
    for (int step = 0; step < 320; ++step) {
      const uint64_t op = rng.UniformInt(0, 9);
      if (op == 0) {
        universe += rng.UniformInt(1, 9);
        index->TrackUpTo(universe);
      } else {
        const auto a = static_cast<ProfileId>(
            rng.UniformInt(0, universe - 1));
        const auto b = static_cast<ProfileId>(
            rng.UniformInt(0, universe - 1));
        if (a == b) continue;
        edges.emplace_back(a, b);
        EntityClusters replay;
        for (size_t i = 0; i + 1 < edges.size(); ++i) {
          replay.AddMatch(edges[i].first, edges[i].second);
        }
        const bool expect_merge = !replay.SameEntity(a, b);
        EXPECT_EQ(index->AddMatch(a, b), expect_merge);
      }
      if (step % 20 == 19) {
        Oracle oracle(universe, edges);
        ExpectMatchesOracle(*index, oracle, universe);
      }
      if (step % 80 == 79) {
        // Restore into a fresh index and keep going on the restored
        // one: the serving state must survive persistence mid-stream.
        const std::string bytes = SnapshotBytes(*index);
        auto restored = std::make_unique<serve::ClusterIndex>();
        std::istringstream in(bytes, std::ios::binary);
        ASSERT_TRUE(restored->Restore(in));
        EXPECT_EQ(SnapshotBytes(*restored), bytes);
        Oracle oracle(universe, edges);
        ExpectMatchesOracle(*restored, oracle, universe);
        index = std::move(restored);
      }
    }
    Oracle oracle(universe, edges);
    ExpectMatchesOracle(*index, oracle, universe);
  }
}

TEST(ClusterIndexTest, SnapshotBytesIndependentOfMergeOrder) {
  // Same partition {0,1,2,3} + {5,6} over universe 8, assembled via
  // different spanning edges in different orders.
  serve::ClusterIndex a;
  a.TrackUpTo(8);
  a.AddMatch(0, 1);
  a.AddMatch(2, 3);
  a.AddMatch(1, 3);
  a.AddMatch(5, 6);
  serve::ClusterIndex b;
  b.TrackUpTo(8);
  b.AddMatch(6, 5);
  b.AddMatch(3, 0);
  b.AddMatch(0, 2);
  b.AddMatch(2, 1);
  b.AddMatch(1, 0);  // redundant edge must not perturb the bytes
  EXPECT_EQ(SnapshotBytes(a), SnapshotBytes(b));
}

TEST(ClusterIndexTest, RestoreRejectsMalformedPayloads) {
  serve::ClusterIndex source;
  source.TrackUpTo(4);
  source.AddMatch(1, 3);
  const std::string good = SnapshotBytes(source);

  {
    // Truncated payload.
    serve::ClusterIndex index;
    std::istringstream in(good.substr(0, good.size() - 2),
                          std::ios::binary);
    EXPECT_FALSE(index.Restore(in));
  }
  {
    // Cluster id above the member id: never canonical.
    serve::ClusterIndex index;
    std::string bad = good;
    bad[8] = 3;  // cid[0] = 3 (> 0)
    std::istringstream in(bad, std::ios::binary);
    EXPECT_FALSE(index.Restore(in));
  }
  {
    // Cluster id whose own entry is not self-canonical.
    serve::ClusterIndex index;
    std::string bad = good;
    // good encodes cids {0,1,2,1}; point id 2 at 1's cluster but also
    // rewrite cid[1] to 0 without including 0's members -- id 3 now
    // names cluster 1 whose entry says cluster 0.
    bad[8 + 4] = 0;   // cid[1] = 0
    bad[8 + 8] = 1;   // cid[2] = 1
    std::istringstream in(bad, std::ios::binary);
    EXPECT_FALSE(index.Restore(in));
  }
  {
    // Universe beyond addressable capacity (2^31 cells): a corrupt
    // header must fail the decode, not abort in chunk allocation.
    serve::ClusterIndex index;
    std::string bad(8, '\0');
    bad[4] = 1;  // n = 2^32, little-endian
    std::istringstream in(bad, std::ios::binary);
    EXPECT_FALSE(index.Restore(in));
  }
  {
    // A well-formed payload still round-trips after the negative cases.
    serve::ClusterIndex index;
    std::istringstream in(good, std::ios::binary);
    ASSERT_TRUE(index.Restore(in));
    EXPECT_EQ(SnapshotBytes(index), good);
    EXPECT_EQ(index.ClusterIdOf(3), 1u);
  }
}

TEST(ClusterIndexTest, InstrumentationCountsQueriesAndMerges) {
  obs::MetricsRegistry registry;
  serve::ClusterIndex index;
  index.InstrumentWith(&registry);
  index.TrackUpTo(6);
  index.AddMatch(0, 1);
  index.AddMatch(0, 1);
  (void)index.ClusterOf(0);
  (void)index.ClusterIdOf(5);
  EXPECT_EQ(registry.GetCounter("serve.merges")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("serve.unions")->Value(), 2u);
  EXPECT_EQ(registry.GetCounter("serve.queries")->Value(), 2u);
  EXPECT_EQ(registry.GetHistogram("serve.query_ns")->Count(), 2u);
}

// ThreadSanitizer stress: one writer thread grows the universe and
// feeds match edges while reader threads hammer the query API. Readers
// assert the seqlock invariants on every answer -- canonical id is the
// minimum member, the queried id is in its own member list, members
// are sorted and unique -- i.e. no torn state is ever visible.
TEST(ClusterIndexTest, ConcurrentIngestVersusQueryStress) {
  serve::ClusterIndex index;
  constexpr size_t kUniverse = 20000;
  constexpr int kEdges = 6000;
  std::vector<std::pair<ProfileId, ProfileId>> edges;
  {
    Rng rng(1234);
    for (int i = 0; i < kEdges; ++i) {
      const auto a =
          static_cast<ProfileId>(rng.UniformInt(0, kUniverse - 1));
      const auto b =
          static_cast<ProfileId>(rng.UniformInt(0, kUniverse - 1));
      if (a != b) edges.emplace_back(a, b);
    }
  }

  std::atomic<bool> done{false};
  std::thread writer([&] {
    size_t tracked = 0;
    for (size_t i = 0; i < edges.size(); ++i) {
      if (i % 64 == 0 && tracked < kUniverse) {
        tracked = std::min(kUniverse, tracked + 512);
        index.TrackUpTo(tracked);
      }
      index.AddMatch(edges[i].first, edges[i].second);
    }
    index.TrackUpTo(kUniverse);
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  std::atomic<uint64_t> query_count{0};
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(500 + t);
      uint64_t local = 0;
      while (!done.load(std::memory_order_acquire) || local < 2000) {
        const size_t universe = index.universe_size();
        if (universe == 0) {
          std::this_thread::yield();
          continue;
        }
        const auto id = static_cast<ProfileId>(
            rng.UniformInt(0, universe - 1));
        const serve::ClusterView view = index.ClusterOf(id);
        ASSERT_FALSE(view.members.empty());
        ASSERT_LE(view.cluster_id, id);
        ASSERT_EQ(view.cluster_id, view.members.front());
        ASSERT_TRUE(std::binary_search(view.members.begin(),
                                       view.members.end(), id));
        ASSERT_TRUE(std::is_sorted(view.members.begin(),
                                   view.members.end()));
        ASSERT_TRUE(std::adjacent_find(view.members.begin(),
                                       view.members.end()) ==
                    view.members.end());
        ASSERT_GE(index.ClusterSizeOf(id), 1u);
        ++local;
      }
      query_count.fetch_add(local);
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_GE(query_count.load(), 4000u);

  // Once quiescent the index must agree with the oracle exactly.
  Oracle oracle(kUniverse, edges);
  for (ProfileId id = 0; id < kUniverse; id += 97) {
    EXPECT_EQ(index.ClusterIdOf(id), oracle.CanonicalId(id));
    EXPECT_EQ(index.ClusterSizeOf(id), oracle.Members(id).size());
  }
  EXPECT_EQ(index.NumNonTrivialClusters(),
            oracle.uf.NumNonTrivialClusters());
}

// ---------------------------------------------------------------------
// ClusterRecallTracker
// ---------------------------------------------------------------------

// Brute-force numerator: pairs co-clustered in both the ground-truth
// closure and the predicted partition.
uint64_t BruteForcePairs(const GroundTruth& truth, size_t universe,
                         const std::vector<std::pair<ProfileId, ProfileId>>&
                             matched) {
  EntityClusters gt;
  for (const uint64_t key : truth.pairs()) {
    gt.AddMatch(static_cast<ProfileId>(key >> 32),
                static_cast<ProfileId>(key & 0xffffffffu));
  }
  EntityClusters predicted;
  for (const auto& e : matched) predicted.AddMatch(e.first, e.second);
  uint64_t pairs = 0;
  for (ProfileId a = 0; a < universe; ++a) {
    for (ProfileId b = a + 1; b < universe; ++b) {
      if (gt.SameEntity(a, b) && predicted.SameEntity(a, b)) ++pairs;
    }
  }
  return pairs;
}

TEST(ClusterRecallTest, MatchesBruteForceAndIsMonotone) {
  for (const uint64_t seed : {3u, 42u}) {
    Rng rng(seed);
    constexpr size_t kUniverse = 60;
    GroundTruth truth;
    for (int i = 0; i < 40; ++i) {
      const auto a = static_cast<ProfileId>(rng.UniformInt(0, kUniverse - 1));
      const auto b = static_cast<ProfileId>(rng.UniformInt(0, kUniverse - 1));
      if (a != b) truth.AddMatch(a, b);
    }
    ClusterRecallTracker tracker(truth);
    EXPECT_EQ(tracker.connected_pairs(), 0u);
    EXPECT_GT(tracker.total_cluster_pairs(), 0u);

    std::vector<std::pair<ProfileId, ProfileId>> matched;
    uint64_t previous = 0;
    for (int i = 0; i < 80; ++i) {
      const auto a = static_cast<ProfileId>(rng.UniformInt(0, kUniverse - 1));
      const auto b = static_cast<ProfileId>(rng.UniformInt(0, kUniverse - 1));
      if (a == b) continue;
      matched.emplace_back(a, b);
      tracker.AddMatch(a, b);
      EXPECT_EQ(tracker.connected_pairs(),
                BruteForcePairs(truth, kUniverse, matched))
          << "seed " << seed << " step " << i;
      EXPECT_GE(tracker.connected_pairs(), previous);  // monotone
      previous = tracker.connected_pairs();
    }
    EXPECT_LE(tracker.Recall(), 1.0);
  }
}

TEST(ClusterRecallTest, ReachesOneWhenAllTruePairsFound) {
  GroundTruth truth;
  truth.AddMatch(0, 1);
  truth.AddMatch(1, 2);  // closure adds {0,2}
  truth.AddMatch(5, 6);
  ClusterRecallTracker tracker(truth);
  EXPECT_EQ(tracker.total_cluster_pairs(), 4u);  // C(3,2) + C(2,2)
  tracker.AddMatch(0, 1);
  EXPECT_EQ(tracker.connected_pairs(), 1u);
  tracker.AddMatch(2, 0);  // transitively connects {1,2} too
  EXPECT_EQ(tracker.connected_pairs(), 3u);
  tracker.AddMatch(3, 4);  // false positive: no recall credit
  EXPECT_EQ(tracker.connected_pairs(), 3u);
  tracker.AddMatch(6, 5);
  EXPECT_DOUBLE_EQ(tracker.Recall(), 1.0);
}

TEST(ClusterRecallTest, SnapshotRestoreResumesExactly) {
  Rng rng(7);
  constexpr size_t kUniverse = 50;
  GroundTruth truth;
  for (int i = 0; i < 30; ++i) {
    const auto a = static_cast<ProfileId>(rng.UniformInt(0, kUniverse - 1));
    const auto b = static_cast<ProfileId>(rng.UniformInt(0, kUniverse - 1));
    if (a != b) truth.AddMatch(a, b);
  }
  ClusterRecallTracker original(truth);
  for (int i = 0; i < 25; ++i) {
    original.AddMatch(
        static_cast<ProfileId>(rng.UniformInt(0, kUniverse - 1)),
        static_cast<ProfileId>(rng.UniformInt(0, kUniverse - 1)));
  }
  std::ostringstream out(std::ios::binary);
  original.Snapshot(out);

  ClusterRecallTracker restored(truth);
  std::istringstream in(out.str(), std::ios::binary);
  ASSERT_TRUE(restored.Restore(in));
  EXPECT_EQ(restored.connected_pairs(), original.connected_pairs());
  EXPECT_EQ(restored.total_cluster_pairs(), original.total_cluster_pairs());

  // Both must evolve identically from here on.
  for (int i = 0; i < 25; ++i) {
    const auto a = static_cast<ProfileId>(rng.UniformInt(0, kUniverse - 1));
    const auto b = static_cast<ProfileId>(rng.UniformInt(0, kUniverse - 1));
    original.AddMatch(a, b);
    restored.AddMatch(a, b);
    ASSERT_EQ(restored.connected_pairs(), original.connected_pairs());
  }
  std::ostringstream bytes_a(std::ios::binary);
  std::ostringstream bytes_b(std::ios::binary);
  original.Snapshot(bytes_a);
  restored.Snapshot(bytes_b);
  EXPECT_EQ(bytes_a.str(), bytes_b.str());
}

TEST(ClusterRecallTest, RestoreRejectsMalformedPayload) {
  GroundTruth truth;
  truth.AddMatch(0, 1);
  ClusterRecallTracker tracker(truth);
  std::istringstream in(std::string("\x01\x02"), std::ios::binary);
  EXPECT_FALSE(tracker.Restore(in));
}

// ---------------------------------------------------------------------
// End-to-end: the realtime pipeline feeds the index it serves from.
// ---------------------------------------------------------------------

TEST(ClusterIndexTest, RealtimePipelineServesItsOwnMatches) {
  BibliographicOptions data_options;
  data_options.source0_count = 60;
  data_options.source1_count = 50;
  const Dataset d = GenerateBibliographic(data_options);

  PierOptions options;
  options.kind = d.kind;
  options.strategy = PierStrategy::kIPes;
  const JaccardMatcher matcher(0.4);
  std::mutex mu;
  std::vector<std::pair<ProfileId, ProfileId>> found;
  ShardedOptions sharded;
  sharded.pipeline = options;
  ShardedPipeline realtime(sharded, &matcher,
                           [&](ProfileId a, ProfileId b) {
                             std::lock_guard<std::mutex> lock(mu);
                             found.emplace_back(a, b);
                           });
  const auto increments = SplitIntoIncrements(d, 4);
  for (const auto& inc : increments) {
    std::vector<EntityProfile> batch(
        d.profiles.begin() + static_cast<ptrdiff_t>(inc.begin),
        d.profiles.begin() + static_cast<ptrdiff_t>(inc.end));
    realtime.Ingest(std::move(batch));
  }
  realtime.Drain();

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_FALSE(found.empty());
  EXPECT_EQ(realtime.clusters().universe_size(), d.profiles.size());
  // Every delivered match must be co-clustered in the serving index,
  // and the index must agree with an oracle over exactly those edges.
  Oracle oracle(d.profiles.size(), found);
  for (const auto& e : found) {
    EXPECT_EQ(realtime.ClusterIdOf(e.first), realtime.ClusterIdOf(e.second));
  }
  for (ProfileId id = 0; id < d.profiles.size(); ++id) {
    EXPECT_EQ(realtime.ClusterIdOf(id), oracle.CanonicalId(id));
  }
  uint64_t expected_merges = 0;  // each cluster of size s took s-1 merges
  for (const auto& entry : oracle.members_by_root) {
    expected_merges += entry.second.size() - 1;
  }
  EXPECT_EQ(realtime.clusters().merges(), expected_merges);
}

}  // namespace
}  // namespace pier
