#include "workload.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "datagen/generators.h"
#include "util/hashing.h"
#include "util/rng.h"

namespace pierbench {

namespace {

// Sizes are set so that one repetition takes a few seconds on a 4-core
// x86 box and the pooled repetitions of a 45-second run deliver well
// over 1000 true matches. census-paced uses ED 0.7: at 0.8 its final PC
// stays below 0.5 and tt_pc50 would be undefined. pc_floor sits a few
// points under the lowest per-repetition final_pc seen at the commit
// that introduced the benchmark.
constexpr WorkloadSpec kWorkloads[] = {
    {"dbpedia-burst", "dbpedia", 0.035, pier::PierStrategy::kIPes, "JS", 0.5,
     100, 1, 0.0, 0.0, 20, 0.78},
    {"census-paced", "census", 0.1, pier::PierStrategy::kIPbs, "ED", 0.7,
     300, 1, 0.0, 0.010, 40, 0.57},
    {"dbpedia-mutable", "dbpedia", 0.035, pier::PierStrategy::kIPes, "JS",
     0.5, 100, 2, 0.02, 0.0, 80, 0.78},
};

size_t Scaled(size_t count, double scale) {
  const auto scaled = static_cast<size_t>(static_cast<double>(count) * scale);
  return std::max<size_t>(scaled, 2);
}

pier::Dataset Generate(const WorkloadSpec& spec, uint64_t seed) {
  if (std::string_view(spec.dataset) == "census") {
    pier::CensusOptions options;
    options.num_records = Scaled(options.num_records, spec.scale);
    options.seed = seed;
    return pier::GenerateCensus(options);
  }
  pier::DbpediaOptions options;
  options.source0_count = Scaled(options.source0_count, spec.scale);
  options.source1_count = Scaled(options.source1_count, spec.scale);
  options.seed = seed;
  return pier::GenerateDbpedia(options);
}

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string names;
  for (const WorkloadSpec& spec : kWorkloads) {
    if (!names.empty()) names += ", ";
    names += spec.name;
  }
  return names;
}

uint64_t InputSeed(uint64_t run_seed, size_t rep) {
  return pier::Mix64(run_seed) + rep;
}

Input MakeInput(const WorkloadSpec& spec, uint64_t seed) {
  Input input;
  input.dataset = Generate(spec, seed);
  // Every workload treats its data as Dirty ER (all pairs compared),
  // as pier_cli does by default.
  input.dataset.kind = pier::DatasetKind::kDirty;

  // The mutation schedule replicates pier_cli's MutationDriver: after
  // each increment, rate * increment_size mutations (budgeted
  // fractionally) against uniformly random already-ingested ids,
  // alternating deletes with corrections that splice another record's
  // attributes under the victim's id.
  pier::Rng rng(pier::Mix64(seed ^ 0x6d75746174696f6eULL));
  std::unordered_set<pier::ProfileId> mutated;
  double budget = 0.0;
  bool next_is_delete = true;
  const size_t n = input.dataset.profiles.size();
  size_t ingests = 0;
  for (const pier::Increment& inc :
       pier::SplitIntoIncrements(input.dataset, spec.increments)) {
    Event ingest;
    ingest.kind = Event::Kind::kIngest;
    ingest.begin = inc.begin;
    ingest.end = inc.end;
    ingest.due_s = static_cast<double>(ingests) * spec.interval_s;
    input.events.push_back(ingest);
    ++ingests;
    budget += spec.mutation_rate * static_cast<double>(inc.size());
    while (budget >= 1.0) {
      budget -= 1.0;
      Event mutation;
      mutation.kind =
          next_is_delete ? Event::Kind::kDelete : Event::Kind::kUpdate;
      mutation.id =
          static_cast<pier::ProfileId>(rng.UniformInt(0, inc.end - 1));
      mutation.content = (static_cast<size_t>(mutation.id) * 7 + 13) % n;
      mutation.due_s = ingest.due_s;
      input.events.push_back(mutation);
      mutated.insert(mutation.id);
      next_is_delete = !next_is_delete;
    }
  }
  for (const uint64_t key : input.dataset.truth.pairs()) {
    const auto a = static_cast<pier::ProfileId>(key >> 32);
    const auto b = static_cast<pier::ProfileId>(key & 0xffffffffu);
    if (mutated.count(a) == 0 && mutated.count(b) == 0) input.truth.insert(key);
  }
  return input;
}

pier::EntityProfile UpdateContent(const Input& input, const Event& event) {
  pier::EntityProfile profile = input.dataset.profiles[event.content];
  profile.id = event.id;
  return profile;
}

pier::ShardedOptions MakeShardedOptions(const WorkloadSpec& spec) {
  pier::ShardedOptions options;
  options.pipeline.kind = pier::DatasetKind::kDirty;
  options.pipeline.strategy = spec.strategy;
  options.pipeline.mutable_stream = spec.mutation_rate > 0.0;
  options.shard_count = spec.shards;
  return options;
}

std::unique_ptr<pier::Matcher> MakeWorkloadMatcher(const WorkloadSpec& spec) {
  return pier::MakeMatcher(spec.matcher, spec.threshold);
}

}  // namespace pierbench
