#include "replay.h"

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <utility>

#include "core/pier_pipeline.h"
#include "model/pair_registry.h"
#include "model/profile_store.h"
#include "model/token_dictionary.h"
#include "obs/metrics.h"
#include "serve/cluster_index.h"
#include "similarity/parallel_executor.h"
#include "stats.h"
#include "text/tokenizer.h"
#include "util/counting_bloom_filter.h"
#include "util/hashing.h"
#include "util/scalable_bloom_filter.h"

namespace pierbench {

namespace {

constexpr const char* kLayerNames[kNumReplayLayers] = {
    "text.tokenize", "stream.route",   "model.store",      "serve.track",
    "core.ingest",   "core.retract",   "serve.retract",    "core.emit",
    "similarity.match", "core.verdict", "stream.combine", "serve.record",
};

class LayerSpan {
 public:
  LayerSpan(ReplayResult& result, ReplayLayer layer)
      : result_(result), layer_(layer), start_(Clock::now()) {}
  ~LayerSpan() {
    result_.layer_s[layer_] += SecondsBetween(start_, Clock::now());
  }
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  ReplayResult& result_;
  ReplayLayer layer_;
  Clock::time_point start_;
};

// One step of a shard's executed-filter history: an emitted pair, or
// (y == kInvalidProfileId) the retraction of profile x.
struct FilterOp {
  pier::ProfileId x;
  pier::ProfileId y;
};

void Fail(ReplayResult& r, std::string note) {
  ++r.failed;
  if (r.failures.size() < 5) r.failures.push_back(std::move(note));
}

// The router, shard engines and combiner of a ShardedPipeline, driven
// from one thread.
class Replay {
 public:
  Replay(const WorkloadSpec& spec, const Input& input, ReplayResult& result)
      : input_(input),
        r_(result),
        matcher_(MakeWorkloadMatcher(spec)),
        options_(MakeShardedOptions(spec)),
        tokenizer_(options_.pipeline.tokenizer),
        executor_(matcher_.get(), 1),
        filter_ops_(spec.shards),
        open_loop_(spec.interval_s > 0.0) {
    if (options_.pipeline.mutable_stream) clusters_.EnableRetraction();
    for (size_t s = 0; s < spec.shards; ++s) {
      pier::PierOptions shard_options = options_.pipeline;
      shard_options.track_clusters = false;
      shard_options.token_shard_count = static_cast<uint32_t>(spec.shards);
      shard_options.token_shard_index = static_cast<uint32_t>(s);
      shard_options.metrics = &registry_;
      shards_.push_back(std::make_unique<pier::PierPipeline>(shard_options));
    }
  }

  // Shards drain where the threaded run's workers would catch up: after
  // every event of an open loop (the rate leaves them idle between
  // arrivals), and in a closed loop only where a mutation quiesces the
  // pipeline and at the end (the load thread routes ahead of them).
  void Run() {
    start_ = Clock::now();
    for (const Event& event : input_.events) {
      ++r_.attempted;
      switch (event.kind) {
        case Event::Kind::kIngest:
          Ingest(event);
          break;
        case Event::Kind::kDelete:
          DrainEngines();
          Delete(event.id);
          break;
        case Event::Kind::kUpdate:
          DrainEngines();
          Update(UpdateContent(input_, event));
          break;
      }
      if (open_loop_) DrainEngines();
    }
    DrainEngines();
    r_.wall_s = SecondsBetween(start_, Clock::now());
    for (const double s : r_.layer_s) r_.covered_s += s;
    r_.emitted = registry_.GetCounter("pipeline.comparisons_emitted")->Value();
    r_.suppressed =
        registry_.GetCounter("pipeline.comparisons_suppressed")->Value();
    r_.retracted_pairs =
        registry_.GetCounter("pipeline.comparisons_retracted")->Value();
    r_.true_matches = hits_.size();
    Check();
    ReplayFilter();
    MeasureModel();
  }

 private:
  using PerShard = std::vector<std::vector<pier::PretokenizedProfile>>;

  size_t OwnerOf(pier::TokenId id) {
    if (shards_.size() == 1) return 0;
    if (owner_.size() <= id) owner_.resize(dictionary_.size(), UINT32_MAX);
    uint32_t& owner = owner_[id];
    if (owner == UINT32_MAX) {
      owner = static_cast<uint32_t>(
          pier::Mix64(pier::HashString(dictionary_.Spelling(id))) %
          shards_.size());
    }
    return owner;
  }

  // Tokenizes one profile into the global dictionary and appends its
  // per-shard token slices to `per_shard`.
  void TokenizeAndRoute(pier::EntityProfile& profile, PerShard& per_shard) {
    {
      const LayerSpan span(r_, kLayerTokenize);
      tokenizer_.TokenizeProfile(profile, dictionary_);
    }
    r_.tokens += profile.tokens().size();
    const LayerSpan span(r_, kLayerRoute);
    for (auto& items : per_shard) {
      pier::PretokenizedProfile item;
      item.id = profile.id;
      item.source = profile.source;
      items.push_back(std::move(item));
    }
    for (const pier::TokenId token : profile.tokens()) {
      per_shard[OwnerOf(token)].back().tokens.emplace_back(
          dictionary_.Spelling(token));
    }
  }

  double ArrivalSeconds() const {
    return SecondsBetween(start_, Clock::now());
  }

  void AddStats(const pier::WorkStats& stats) {
    r_.block_updates += stats.block_updates;
    r_.index_ops += stats.index_ops;
    r_.comparisons_generated += stats.comparisons_generated;
  }

  void Ingest(const Event& event) {
    std::vector<pier::EntityProfile> batch(
        input_.dataset.profiles.begin() +
            static_cast<std::ptrdiff_t>(event.begin),
        input_.dataset.profiles.begin() +
            static_cast<std::ptrdiff_t>(event.end));
    PerShard per_shard(shards_.size());
    for (pier::EntityProfile& profile : batch) {
      TokenizeAndRoute(profile, per_shard);
      const LayerSpan span(r_, kLayerStore);
      store_.Add(std::move(profile));
    }
    {
      const LayerSpan span(r_, kLayerTrack);
      clusters_.TrackUpTo(store_.size());
    }
    const double arrival = ArrivalSeconds();
    const LayerSpan span(r_, kLayerIngest);
    for (size_t s = 0; s < shards_.size(); ++s) {
      shards_[s]->ReportArrival(arrival);
      AddStats(shards_[s]->IngestPretokenized(std::move(per_shard[s])));
    }
  }

  // ShardedPipeline::RetractLocked: withdraws a live profile from every
  // shard, the global doc frequencies, the delivered filter and the
  // serving index.
  void Retract(pier::ProfileId id) {
    {
      const LayerSpan span(r_, kLayerRetract);
      for (auto& shard : shards_) {
        const pier::WorkStats stats = shard->Delete({id});
        r_.retracted_profiles += stats.profiles;
        r_.block_updates += stats.block_updates;
      }
      for (auto& ops : filter_ops_) ops.push_back({id, pier::kInvalidProfileId});
    }
    {
      const LayerSpan span(r_, kLayerStore);
      for (const pier::TokenId token : store_.Get(id).tokens()) {
        dictionary_.DecrementDocFrequency(token);
      }
    }
    {
      const LayerSpan span(r_, kLayerCombine);
      for (const pier::ProfileId partner : delivered_pairs_.Take(id)) {
        delivered_counting_.Remove(pier::PairKey(id, partner));
      }
    }
    const LayerSpan span(r_, kLayerServeRetract);
    clusters_.RemoveProfile(id);
  }

  void Delete(pier::ProfileId id) {
    if (!store_.IsLive(id)) return;  // idempotent, as in ShardedPipeline
    Retract(id);
    {
      const LayerSpan span(r_, kLayerStore);
      store_.Remove(id);
    }
    if (clusters_.ClusterOf(id).cluster_id != pier::kInvalidProfileId) {
      Fail(r_, "replay: ClusterOf(" + std::to_string(id) +
                   ") still answers after delete");
    }
  }

  void Update(pier::EntityProfile profile) {
    const pier::ProfileId id = profile.id;
    if (store_.IsLive(id)) Retract(id);
    PerShard per_shard(shards_.size());
    TokenizeAndRoute(profile, per_shard);
    {
      const LayerSpan span(r_, kLayerStore);
      store_.Replace(std::move(profile));
    }
    {
      const LayerSpan span(r_, kLayerServeRetract);
      clusters_.ReviveAsSingleton(id);
    }
    const double arrival = ArrivalSeconds();
    const LayerSpan span(r_, kLayerIngest);
    for (size_t s = 0; s < shards_.size(); ++s) {
      AddStats(shards_[s]->UpdatePretokenized(std::move(per_shard[s])));
      shards_[s]->ReportArrival(arrival);
    }
  }

  // ShardedPipeline::AlreadyDelivered (combiner thread).
  bool AlreadyDelivered(const pier::Comparison& c) {
    const uint64_t key = c.Key();
    if (!options_.pipeline.mutable_stream) {
      return delivered_filter_.TestAndAdd(key);
    }
    if (delivered_counting_.TestAndAdd(key)) return true;
    delivered_pairs_.Add(c.x, c.y);
    return false;
  }

  // Shard workers and combiner, one batch per shard in turn, until
  // every shard's prioritizer is empty.
  void DrainEngines() {
    const pier::ParallelMatchExecutor::ProfileLookup lookup =
        [this](pier::ProfileId id) -> const pier::EntityProfile& {
      return store_.Get(id);
    };
    std::vector<std::pair<pier::ProfileId, pier::ProfileId>> matched;
    for (bool any = true; any;) {
      any = false;
      for (size_t s = 0; s < shards_.size(); ++s) {
        pier::PierPipeline& shard = *shards_[s];
        std::vector<pier::Comparison> batch;
        {
          const LayerSpan span(r_, kLayerEmit);
          pier::WorkStats tick;
          batch = shard.EmitBatch(shard.adaptive_k().FindK(), &tick);
          r_.comparisons_generated += tick.comparisons_generated;
        }
        if (batch.empty()) continue;
        any = true;
        std::vector<pier::MatchVerdict> verdicts;
        const Clock::time_point match_start = Clock::now();
        {
          const LayerSpan span(r_, kLayerMatch);
          verdicts = executor_.ExecuteVerdicts(batch, lookup);
        }
        {
          const LayerSpan span(r_, kLayerVerdict);
          shard.ReportBatchCost(batch.size(),
                                SecondsBetween(match_start, Clock::now()));
          for (size_t i = 0; i < batch.size(); ++i) {
            shard.RecordVerdict(batch[i].x, batch[i].y, verdicts[i].is_match);
            r_.positives += verdicts[i].is_match ? 1 : 0;
          }
        }
        matched.clear();
        {
          const LayerSpan span(r_, kLayerCombine);
          for (size_t i = 0; i < batch.size(); ++i) {
            if (shards_.size() > 1 && AlreadyDelivered(batch[i])) {
              ++r_.duplicates;
              continue;
            }
            if (verdicts[i].is_match) matched.emplace_back(batch[i].x, batch[i].y);
          }
        }
        {
          const LayerSpan span(r_, kLayerRecord);
          clusters_.AddMatches(matched.data(), matched.size());
        }
        std::vector<FilterOp>& ops = filter_ops_[s];
        for (const pier::Comparison& c : batch) ops.push_back({c.x, c.y});
        r_.filter_probes += batch.size();
        for (const auto& [a, b] : matched) {
          const uint64_t key = pier::PairKey(a, b);
          if (input_.truth.count(key) != 0) hits_.insert(key);
        }
        r_.matches += matched.size();
        if (!options_.pipeline.mutable_stream) {
          all_matches_.insert(all_matches_.end(), matched.begin(),
                              matched.end());
        }
      }
    }
  }

  void Check() {
    for (const auto& [a, b] : all_matches_) {
      const pier::serve::ClusterView view = clusters_.ClusterOf(a);
      if (!std::binary_search(view.members.begin(), view.members.end(), b)) {
        Fail(r_, "replay: ClusterOf(" + std::to_string(a) +
                     ") lacks matched " + std::to_string(b));
      }
    }
  }

  // util layer: the executed-comparison filter each shard builds, of
  // the kind PierPipeline::AlreadyExecuted picks (a counting filter
  // plus a PairRegistry on mutable streams), rebuilt from that shard's
  // emitted pairs and retractions in order. Only the miss path is
  // replayed: pairs the filter suppressed never leave EmitBatch.
  void ReplayFilter() {
    uint64_t present = 0;
    double seconds = 0.0;
    for (const std::vector<FilterOp>& ops : filter_ops_) {
      const Clock::time_point start = Clock::now();
      if (options_.pipeline.mutable_stream) {
        pier::ScalableCountingBloomFilter filter;
        pier::PairRegistry pairs;
        for (const FilterOp& op : ops) {
          if (op.y == pier::kInvalidProfileId) {
            for (const pier::ProfileId partner : pairs.Take(op.x)) {
              filter.Remove(pier::PairKey(op.x, partner));
            }
          } else if (filter.TestAndAdd(pier::PairKey(op.x, op.y))) {
            ++present;
          } else {
            pairs.Add(op.x, op.y);
          }
        }
        seconds += SecondsBetween(start, Clock::now());
        r_.filter_slices += filter.num_slices();
        r_.filter_bytes += filter.MemoryBytes() + pairs.ApproxMemoryBytes();
      } else {
        pier::ScalableBloomFilter filter;
        for (const FilterOp& op : ops) {
          present += filter.TestAndAdd(pier::PairKey(op.x, op.y));
        }
        seconds += SecondsBetween(start, Clock::now());
        r_.filter_slices += filter.num_slices();
        r_.filter_bytes += filter.MemoryBytes();
      }
    }
    // Every emitted key was new to its shard's own filter when emitted
    // (or withdrawn since), so the replay reports each as absent unless
    // it is a false positive; the count keeps the probes from being
    // optimised away.
    r_.filter_false_positives = present;
    r_.filter_ns_per_probe =
        r_.filter_probes == 0 ? 0.0
                              : seconds * 1e9 /
                                    static_cast<double>(r_.filter_probes);
  }

  void MeasureModel() {
    r_.profile_bytes = store_.ApproxMemoryBytes();
    r_.dictionary_bytes = dictionary_.ApproxMemoryBytes();
    for (const auto& shard : shards_) {
      r_.profile_bytes += shard->profiles().ApproxMemoryBytes();
      r_.block_bytes += shard->blocks().ApproxMemoryBytes();
      r_.dictionary_bytes += shard->dictionary().ApproxMemoryBytes();
    }
  }

  const Input& input_;
  ReplayResult& r_;
  std::unique_ptr<pier::Matcher> matcher_;
  pier::ShardedOptions options_;
  pier::obs::MetricsRegistry registry_;
  pier::Tokenizer tokenizer_;
  pier::TokenDictionary dictionary_;
  pier::ProfileStore store_;
  pier::serve::ClusterIndex clusters_;
  std::vector<std::unique_ptr<pier::PierPipeline>> shards_;
  pier::ParallelMatchExecutor executor_;
  std::vector<uint32_t> owner_;
  pier::ScalableBloomFilter delivered_filter_;
  pier::ScalableCountingBloomFilter delivered_counting_;
  pier::PairRegistry delivered_pairs_;
  std::vector<std::vector<FilterOp>> filter_ops_;
  std::vector<std::pair<pier::ProfileId, pier::ProfileId>> all_matches_;
  std::unordered_set<uint64_t> hits_;
  bool open_loop_;
  Clock::time_point start_;
};

}  // namespace

const char* ReplayLayerName(ReplayLayer layer) { return kLayerNames[layer]; }

ReplayResult RunReplay(const WorkloadSpec& spec, const Input& input) {
  ReplayResult result;
  Replay(spec, input, result).Run();
  return result;
}

}  // namespace pierbench
