// Workload definitions and seed-deterministic input generation for the
// end-to-end benchmark. A workload is a dataset recipe, a pipeline
// configuration and an operation schedule; README.md says why each of
// the three exists.

#ifndef PIERBENCH_WORKLOAD_H_
#define PIERBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "core/pier_pipeline.h"
#include "model/dataset.h"
#include "similarity/matcher.h"
#include "stream/sharded_pipeline.h"

namespace pierbench {

struct WorkloadSpec {
  const char* name;
  const char* dataset;  // "dbpedia" or "census"
  // Multiplies the generator's default record counts (as pier_datagen
  // --scale does).
  double scale;
  pier::PierStrategy strategy;
  const char* matcher;
  double threshold;
  size_t increments;
  size_t shards;
  // Mutations per ingested profile, alternating deletes and
  // corrections after each increment (pier_cli --mutation-rate).
  double mutation_rate;
  // Open loop: increment i is due at i * interval_s after the first.
  // Closed loop (interval_s == 0): each operation is due when the
  // previous call returned.
  double interval_s;
  // ClusterOf point queries issued after each operation returns.
  size_t queries_per_op;
  // final_pc floor recorded at the commit that introduced the
  // benchmark; a run below it fails its output check.
  double pc_floor;
};

// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(std::string_view name);
// Comma-separated list of workload names, for diagnostics.
std::string WorkloadNames();

// One scheduled call into the pipeline.
struct Event {
  enum class Kind { kIngest, kDelete, kUpdate };
  Kind kind = Kind::kIngest;
  size_t begin = 0;  // kIngest: profile range [begin, end)
  size_t end = 0;
  pier::ProfileId id = pier::kInvalidProfileId;  // kDelete / kUpdate
  size_t content = 0;  // kUpdate: index of the record spliced in
  double due_s = 0.0;  // open loop: due offset from the first event
};

struct Input {
  pier::Dataset dataset;
  std::vector<Event> events;
  // Scored ground truth: pairs whose endpoints are never deleted or
  // corrected (all pairs on append-only workloads).
  std::unordered_set<uint64_t> truth;
};

// Repetition `rep` of a run with seed `run_seed` uses its own input, so
// one run's medians span several datasets and depend less on any one.
uint64_t InputSeed(uint64_t run_seed, size_t rep);

Input MakeInput(const WorkloadSpec& spec, uint64_t seed);

// The corrected content an Update event carries.
pier::EntityProfile UpdateContent(const Input& input, const Event& event);

pier::ShardedOptions MakeShardedOptions(const WorkloadSpec& spec);
std::unique_ptr<pier::Matcher> MakeWorkloadMatcher(const WorkloadSpec& spec);

}  // namespace pierbench

#endif  // PIERBENCH_WORKLOAD_H_
