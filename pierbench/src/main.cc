// pierbench: end-to-end benchmark for pier's realtime path.
//
//   pierbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 repeats the workload on the production ShardedPipeline
// until S seconds are used (at least three repetitions) and reports the
// end-to-end metrics. --trace 1 alternates untraced and traced
// repetitions, then replays the schedule single-threaded with a span
// around every layer call, and reports the per-layer metrics. Report
// lines come first; the last line of standard output is one JSON
// object. README.md defines every metric.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "replay.h"
#include "stats.h"
#include "threaded.h"
#include "workload.h"

namespace pierbench {
namespace {

constexpr size_t kMinReps = 3;
// Set-up-only rounds before each repetition. One set-up takes 10 to
// 50 ms, and the machine's speed drifts over seconds, so setup_s is the
// median over set-ups spread across the whole run: these rounds and
// every repetition's own set-up.
constexpr size_t kSetupRoundsPerRep = 4;

struct Args {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

int Usage(const char* problem) {
  std::fprintf(stderr,
               "pierbench: %s\n"
               "usage: pierbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n"
               "workloads: %s\n",
               problem, WorkloadNames().c_str());
  return 2;
}

bool ParseUnsigned(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  *out = v;
  return true;
}

// Returns 0 on success, else the exit code.
int ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value after a flag");
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      args->spec = FindWorkload(value);
      if (args->spec == nullptr) return Usage("unknown workload");
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, &args->seed)) return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, &number) || number == 0 || number > 3600) {
        return Usage("--seconds must be a whole number in [1, 3600]");
      }
      args->seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!ParseUnsigned(value, &number) || number > 1) {
        return Usage("--trace must be 0 or 1");
      }
      args->trace = number == 1;
      have_trace = true;
    } else {
      return Usage("unknown flag");
    }
  }
  if (args->spec == nullptr || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  return 0;
}

size_t AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<size_t>(CPU_COUNT(&set));
}

std::string SampleNote(size_t n, double q) {
  return std::to_string(n) + " samples, " + std::to_string(SamplesBeyond(n, q)) +
         " beyond";
}

// Pools one sample vector of every repetition.
std::vector<double> Pool(const std::vector<RepResult>& reps,
                         std::vector<double> RepResult::*field) {
  std::vector<double> all;
  for (const RepResult& rep : reps) {
    all.insert(all.end(), (rep.*field).begin(), (rep.*field).end());
  }
  return all;
}

// Median over repetitions of each repetition's q-quantile of `field`:
// one repetition disturbed by the machine moves it less than it moves
// a quantile of the pooled samples. `note` receives the sample counts.
double MedianOfRepQuantiles(const std::vector<RepResult>& reps,
                            std::vector<double> RepResult::*field, double q,
                            std::string* note) {
  std::vector<double> values;
  size_t total = 0;
  size_t fewest = SIZE_MAX;
  for (const RepResult& rep : reps) {
    std::vector<double> samples = rep.*field;
    total += samples.size();
    fewest = std::min(fewest, samples.size());
    values.push_back(Quantile(samples, q));
  }
  *note = "(median over " + std::to_string(reps.size()) +
          " repetitions; " + std::to_string(total) + " samples, >= " +
          std::to_string(SamplesBeyond(fewest, q)) +
          " beyond in every repetition)";
  return Median(values);
}

std::vector<double> PerRep(const std::vector<RepResult>& reps,
                           double RepResult::*field) {
  std::vector<double> values;
  for (const RepResult& rep : reps) values.push_back(rep.*field);
  return values;
}

struct Totals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  void Add(uint64_t a, uint64_t f, const std::vector<std::string>& notes) {
    attempted += a;
    failed += f;
    for (const std::string& note : notes) {
      if (failures.size() < 10) failures.push_back(note);
    }
  }
};

void PrintFailures(const Totals& totals) {
  for (const std::string& note : totals.failures) {
    std::printf("# check failed: %s\n", note.c_str());
  }
  const double rate = static_cast<double>(totals.failed) /
                      static_cast<double>(totals.attempted);
  std::printf("%-34s %16s %-6s (%llu failed of %llu attempted operations)\n",
              "error_rate", FormatNumber(rate).c_str(), "ratio",
              static_cast<unsigned long long>(totals.failed),
              static_cast<unsigned long long>(totals.attempted));
}

void PrintRepLine(const char* label, const RepResult& rep) {
  std::printf(
      "# %s rep: setup %.3fs makespan %.3fs cpu %.3fs tt_pc50 %.4fs "
      "cmp_to_pc50 %.0f final_pc %.4f (%llu/%llu) comparisons %llu matches "
      "%llu heap %.2fMiB\n",
      label, rep.setup_s, rep.makespan_s, rep.cpu_s, rep.tt_pc50_s,
      rep.cmp_to_pc50, rep.final_pc,
      static_cast<unsigned long long>(rep.true_matches),
      static_cast<unsigned long long>(rep.truth_pairs),
      static_cast<unsigned long long>(rep.delivered_comparisons),
      static_cast<unsigned long long>(rep.delivered_matches), rep.heap_mb);
}

int RunEndToEnd(const Args& args) {
  const WorkloadSpec& spec = *args.spec;
  const Clock::time_point start = Clock::now();
  std::vector<RepResult> reps;
  Totals totals;
  std::vector<double> setups;
  for (;;) {
    const Clock::time_point rep_start = Clock::now();
    for (size_t i = 0; i < kSetupRoundsPerRep; ++i) {
      setups.push_back(TimeSetup(spec, InputSeed(args.seed, reps.size())));
    }
    reps.push_back(RunThreaded(
        spec, InputSeed(args.seed, reps.size()), /*traced=*/false));
    const RepResult& rep = reps.back();
    totals.Add(rep.attempted, rep.failed, rep.failures);
    setups.push_back(rep.setup_s);
    PrintRepLine("untraced", rep);
    const double rep_s = SecondsBetween(rep_start, Clock::now());
    const double used_s = SecondsBetween(start, Clock::now());
    if (reps.size() >= kMinReps && used_s + rep_s > args.seconds) break;
  }

  std::vector<double> latency = Pool(reps, &RepResult::match_latency_ms);
  std::vector<double> mutation = Pool(reps, &RepResult::mutation_ms);
  const std::string reps_note = "(median of " + std::to_string(reps.size()) +
                                " repetitions)";
  std::string note;
  std::vector<Metric> metrics;
  metrics.push_back({"setup_s", Median(setups), "s",
                     "(median of " + std::to_string(setups.size()) +
                         " set-ups, " + std::to_string(kSetupRoundsPerRep + 1) +
                         " before each repetition)"});
  metrics.push_back({"makespan_s", Median(PerRep(reps, &RepResult::makespan_s)),
                     "s", reps_note});
  metrics.push_back({"cpu_s", Median(PerRep(reps, &RepResult::cpu_s)), "s",
                     reps_note});
  metrics.push_back({"tt_pc50_s", Median(PerRep(reps, &RepResult::tt_pc50_s)),
                     "s", reps_note});
  // cmp_to_pc50 and heap_mb use the mean, not the median: their values
  // fall on a few levels (on dbpedia-mutable, PC reaches 50% after
  // about 235k or about 268k comparisons; the executed-comparison
  // filter grows by whole slices), and a median would jump between two
  // levels from one run to the next.
  const std::string mean_note =
      "(mean of " + std::to_string(reps.size()) + " repetitions)";
  metrics.push_back({"cmp_to_pc50", Mean(PerRep(reps, &RepResult::cmp_to_pc50)),
                     "count", mean_note});
  metrics.push_back({"final_pc", Median(PerRep(reps, &RepResult::final_pc)),
                     "ratio", reps_note});
  double value = MedianOfRepQuantiles(reps, &RepResult::query_ns, 0.5, &note);
  metrics.push_back({"query_p50_ns", value, "ns", note});
  value = MedianOfRepQuantiles(reps, &RepResult::query_ns, 0.99, &note);
  metrics.push_back({"query_p99_ns", value, "ns", note});
  metrics.push_back({"heap_mb", Mean(PerRep(reps, &RepResult::heap_mb)),
                     "MiB", mean_note});

  // Reported, but not part of the result object; README.md gives the
  // measured spreads behind each choice. The match latencies spread too
  // far from seed to seed to gate on. The mutation latencies exist on
  // one workload only. The process peak RSS includes heap the allocator
  // keeps after earlier repetitions. error_rate (printed below) is zero
  // when the program is correct.
  std::vector<Metric> extra;
  value = MedianOfRepQuantiles(reps, &RepResult::match_latency_ms, 0.5, &note);
  extra.push_back({"match_latency_p50_ms", value, "ms", note});
  extra.push_back({"match_latency_p99_ms", Quantile(latency, 0.99), "ms",
                   "(pooled: " + SampleNote(latency.size(), 0.99) + ")"});
  if (mutation.empty()) {
    const char* na = "n/a: append-only workload, no Delete/Update calls";
    extra.push_back({"mutation_p50_ms", 0.0, "ms", na});
    extra.push_back({"mutation_p90_ms", 0.0, "ms", na});
  } else {
    extra.push_back({"mutation_p50_ms", Quantile(mutation, 0.5), "ms",
                     "(pooled: " + SampleNote(mutation.size(), 0.5) + ")"});
    extra.push_back({"mutation_p90_ms", Quantile(mutation, 0.9), "ms",
                     "(pooled: " + SampleNote(mutation.size(), 0.9) + ")"});
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  extra.push_back({"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
                   "MiB", "(process peak over all repetitions)"});
  PrintLines(extra);
  PrintFailures(totals);
  PrintResult(metrics, totals.failed == 0, totals.attempted, totals.failed);
  return 0;
}

int RunTraced(const Args& args) {
  const WorkloadSpec& spec = *args.spec;
  const Clock::time_point start = Clock::now();
  std::vector<RepResult> untraced;
  std::vector<RepResult> traced;
  Totals totals;
  for (;;) {
    const Clock::time_point pair_start = Clock::now();
    // Both halves of a pair run the same input.
    const uint64_t seed = InputSeed(args.seed, traced.size());
    untraced.push_back(RunThreaded(spec, seed, /*traced=*/false));
    traced.push_back(RunThreaded(spec, seed, /*traced=*/true));
    for (const RepResult* rep : {&untraced.back(), &traced.back()}) {
      totals.Add(rep->attempted, rep->failed, rep->failures);
    }
    PrintRepLine("untraced", untraced.back());
    PrintRepLine("traced", traced.back());
    const double pair_s = SecondsBetween(pair_start, Clock::now());
    // The replay runs the shards' work on one thread.
    const double replay_estimate_s =
        traced.back().makespan_s * static_cast<double>(spec.shards);
    const double used_s = SecondsBetween(start, Clock::now());
    if (used_s + pair_s + replay_estimate_s > args.seconds) break;
  }

  const Input input = MakeInput(spec, InputSeed(args.seed, 0));
  const ReplayResult replay = RunReplay(spec, input);
  totals.Add(replay.attempted, replay.failed, replay.failures);
  const double coverage = replay.covered_s / replay.wall_s;
  if (coverage < 0.95) {
    totals.Add(0, 1, {"replay spans cover " + FormatNumber(coverage) +
                      " of the replay's wall time (need >= 0.95)"});
  }

  std::printf("# replay: %.3fs wall, spans cover %.4f; %llu comparisons, "
              "%llu cross-shard duplicates, %llu matches (%llu true of %zu); "
              "filter replay found %llu false positives\n",
              replay.wall_s, coverage,
              static_cast<unsigned long long>(replay.emitted),
              static_cast<unsigned long long>(replay.duplicates),
              static_cast<unsigned long long>(replay.matches),
              static_cast<unsigned long long>(replay.true_matches),
              input.truth.size(),
              static_cast<unsigned long long>(replay.filter_false_positives));
  for (int l = 0; l < kNumReplayLayers; ++l) {
    const auto layer = static_cast<ReplayLayer>(l);
    std::printf("#   %-18s %10.4fs %6.2f%%\n", ReplayLayerName(layer),
                replay.layer_s[l], 100.0 * replay.layer_s[l] / replay.wall_s);
  }

  const auto traced_median = [&](auto get) {
    std::vector<double> values;
    for (const RepResult& rep : traced) values.push_back(get(rep));
    return Median(values);
  };
  const auto span_s = [](ThreadedSpan s) {
    return [s](const RepResult& rep) { return rep.spans[s].seconds; };
  };
  std::printf("# threaded spans (last traced rep):\n");
  for (int i = 0; i < kNumThreadedSpans; ++i) {
    const SpanTotal& total = traced.back().spans[i];
    std::printf("#   %-18s %10.4fs %8llu calls\n",
                ThreadedSpanName(static_cast<ThreadedSpan>(i)), total.seconds,
                static_cast<unsigned long long>(total.count));
  }
  const RegistrySums& last = traced.back().registry;
  std::printf(
      "# threaded registry (last traced rep): pipeline.emit_ns %.3fs, "
      "realtime.match_ns %.3fs, shard.backpressure_wait_ns %.3fs, "
      "shard.duplicates_suppressed %llu, pipeline.comparisons_emitted %llu, "
      "_suppressed %llu, _retracted %llu\n",
      last.emit_s, last.match_s, last.backpressure_wait_s,
      static_cast<unsigned long long>(last.duplicates),
      static_cast<unsigned long long>(last.emitted),
      static_cast<unsigned long long>(last.suppressed),
      static_cast<unsigned long long>(last.retracted));

  const bool append_only = spec.mutation_rate <= 0.0;
  const bool open_loop = spec.interval_s > 0.0;
  const char* na_append = "n/a: append-only workload";
  const char* na_closed = "n/a: closed loop, every call is due when sent";
  const char* na_one_shard = "n/a: one shard, the combiner has nothing to dedup";
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  const double dequeued =
      d(replay.emitted + replay.suppressed + replay.retracted_pairs);

  std::vector<double> lateness = Pool(untraced, &RepResult::lateness_ms);
  std::vector<double> backlog;
  for (const RepResult& rep : untraced) backlog.push_back(d(rep.backlog_at_end));
  const double overhead =
      Median(PerRep(traced, &RepResult::makespan_s)) /
      Median(PerRep(untraced, &RepResult::makespan_s));
  const std::string traced_note =
      "(median of " + std::to_string(traced.size()) + " traced repetitions)";

  // `m` goes into the result object. `extra` is reported only: each of
  // its metrics is zero by construction on some workload (no
  // mutations, one shard, a closed loop, no full queue), and the result
  // object must carry the same metrics on every workload.
  std::vector<Metric> m;
  std::vector<Metric> extra;
  m.push_back({"text.tokenize_s", replay.layer_s[kLayerTokenize], "s", ""});
  m.push_back({"text.tokens", d(replay.tokens), "count", ""});
  m.push_back({"core.ingest_s", replay.layer_s[kLayerIngest], "s", ""});
  m.push_back({"core.block_updates", d(replay.block_updates), "count", ""});
  m.push_back({"core.index_ops", d(replay.index_ops), "count", ""});
  m.push_back({"core.emit_s", replay.layer_s[kLayerEmit], "s", ""});
  m.push_back({"core.dequeued", dequeued, "count", ""});
  m.push_back({"core.suppressed_ratio",
               dequeued == 0 ? 0.0 : d(replay.suppressed) / dequeued, "ratio",
               "(suppressed / dequeued)"});
  m.push_back({"core.comparisons_generated", d(replay.comparisons_generated),
               "count", ""});
  extra.push_back({"core.retract_s", replay.layer_s[kLayerRetract], "s",
               append_only ? na_append : ""});
  extra.push_back({"core.retracted", d(replay.retracted_profiles), "count",
               append_only ? na_append : "(profiles withdrawn from shards)"});
  m.push_back({"similarity.match_s", replay.layer_s[kLayerMatch], "s", ""});
  m.push_back({"similarity.ns_per_cmp",
               replay.emitted == 0
                   ? 0.0
                   : replay.layer_s[kLayerMatch] * 1e9 / d(replay.emitted),
               "ns", ""});
  m.push_back({"similarity.positive_ratio",
               replay.emitted == 0 ? 0.0 : d(replay.positives) / d(replay.emitted),
               "ratio", ""});
  m.push_back({"util.filter_ns_per_probe", replay.filter_ns_per_probe, "ns",
               "(" + std::to_string(replay.filter_probes) + " probes)"});
  m.push_back({"util.filter_slices", d(replay.filter_slices), "count", ""});
  m.push_back({"util.filter_bytes", d(replay.filter_bytes), "bytes", ""});
  m.push_back({"serve.record_s", replay.layer_s[kLayerRecord], "s", ""});
  m.push_back({"serve.unions",
               traced_median([&](const RepResult& r) { return d(r.registry.unions); }),
               "count", traced_note});
  m.push_back({"serve.query_retries", traced_median([&](const RepResult& r) {
                 return d(r.registry.query_retries);
               }),
               "count", traced_note});
  m.push_back({"stream.ingest_call_s", traced_median(span_s(kSpanIngestCall)),
               "s", traced_note});
  extra.push_back({"stream.backpressure_wait_s", traced_median([](const RepResult& r) {
                 return r.registry.backpressure_wait_s;
               }),
               "s", traced_note});
  extra.push_back({"stream.duplicates_ratio", traced_median([&](const RepResult& r) {
                 const double executed =
                     d(r.delivered_comparisons + r.registry.duplicates);
                 return executed == 0 ? 0.0 : d(r.registry.duplicates) / executed;
               }),
               "ratio", spec.shards == 1 ? na_one_shard : traced_note});
  extra.push_back({"stream.quiesce_s", traced_median(span_s(kSpanQuiesce)), "s",
               append_only ? na_append : traced_note});
  m.push_back({"stream.shard_emit_s", traced_median([](const RepResult& r) {
                 return r.registry.emit_s;
               }),
               "s", traced_note});
  m.push_back({"stream.shard_match_s", traced_median([](const RepResult& r) {
                 return r.registry.match_s;
               }),
               "s", traced_note});
  m.push_back({"model.profile_bytes", d(replay.profile_bytes), "bytes", ""});
  m.push_back({"model.block_bytes", d(replay.block_bytes), "bytes", ""});
  m.push_back({"model.dictionary_bytes", d(replay.dictionary_bytes), "bytes", ""});
  extra.push_back({"loadgen.lateness_p99_ms",
               open_loop ? Quantile(lateness, 0.99) : 0.0, "ms",
               open_loop ? "(pooled: " + SampleNote(lateness.size(), 0.99) + ")"
                         : std::string(na_closed)});
  extra.push_back({"loadgen.backlog_at_end", open_loop ? Median(backlog) : 0.0,
               "count", open_loop ? "(median over untraced repetitions)" : na_closed});
  m.push_back({"trace.overhead_ratio", overhead, "ratio",
               "(traced / untraced makespan, " + std::to_string(traced.size()) +
                   " pairs)"});
  m.push_back({"trace.replay_coverage", coverage, "ratio",
               "(replay span time / replay wall time)"});

  PrintLines(extra);
  PrintFailures(totals);
  PrintResult(m, totals.failed == 0, totals.attempted, totals.failed);
  return 0;
}

}  // namespace
}  // namespace pierbench

int main(int argc, char** argv) {
  using namespace pierbench;
  Args args;
  if (const int code = ParseArgs(argc, argv, &args); code != 0) return code;
  std::printf(
      "# pierbench workload=%s seed=%llu seconds=%g trace=%d\n"
      "# machine: nproc=%zu build=%s PIER_SIMD=%s PIER_OBS=%s compiler=%s\n",
      args.spec->name, static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, AvailableCpus(), PIERBENCH_BUILD_TYPE, PIERBENCH_SIMD,
      PIERBENCH_OBS, PIERBENCH_COMPILER);
  return args.trace ? RunTraced(args) : RunEndToEnd(args);
}
