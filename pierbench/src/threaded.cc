#include "threaded.h"

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <unordered_set>
#include <utility>

#include "obs/metrics.h"
#include "stats.h"
#include "stream/sharded_pipeline.h"
#include "util/hashing.h"
#include "util/rng.h"

namespace pierbench {

namespace {

constexpr size_t kMaxFailureNotes = 5;

void Fail(RepResult& r, std::string note) {
  ++r.failed;
  if (r.failures.size() < kMaxFailureNotes) r.failures.push_back(std::move(note));
}

// Adds the elapsed time of one call to a span total when tracing.
class SpanTimer {
 public:
  explicit SpanTimer(SpanTotal* total) : total_(total) {
    if (total_ != nullptr) start_ = Clock::now();
  }
  ~SpanTimer() {
    if (total_ == nullptr) return;
    ++total_->count;
    total_->seconds += SecondsBetween(start_, Clock::now());
  }
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

 private:
  SpanTotal* total_;
  Clock::time_point start_;
};

// State shared with the combiner-thread callbacks. The load thread sets
// the inputs (and each id's due time) before the Ingest call that makes
// them reachable; the results are written only by the combiner and
// read after Drain() returns, which orders the two.
struct Collector {
  const Input* input = nullptr;
  Clock::time_point epoch;
  // Due time (ns after epoch) of the increment that carried each id.
  // Written by the load thread before the Ingest call that hands the
  // ids over; read only for matches on those ids.
  std::vector<int64_t> due_ns;
  std::atomic<uint32_t> ingested{0};
  size_t half = 0;

  uint64_t delivered = 0;
  uint64_t delivered_matches = 0;
  std::unordered_set<uint64_t> hits;
  double tt_pc50_s = std::nan("");
  double cmp_to_pc50 = std::nan("");
  std::vector<double> latency_ms;
  std::vector<std::pair<pier::ProfileId, pier::ProfileId>> matches;
  uint64_t bad_ids = 0;
  SpanTotal* match_span = nullptr;    // set when traced
  SpanTotal* verdict_span = nullptr;  // set when traced

  void OnVerdict(pier::ProfileId a, pier::ProfileId b, bool is_match) {
    const SpanTimer span(verdict_span);
    ++delivered;
    if (!is_match) return;
    const uint64_t key = pier::PairKey(a, b);
    if (input->truth.count(key) == 0 || !hits.insert(key).second) return;
    if (hits.size() == half) {
      tt_pc50_s = SecondsBetween(epoch, Clock::now());
      cmp_to_pc50 = static_cast<double>(delivered);
    }
  }

  void OnMatch(pier::ProfileId a, pier::ProfileId b) {
    const SpanTimer span(match_span);
    ++delivered_matches;
    const uint32_t known = ingested.load(std::memory_order_acquire);
    if (a == b || a >= known || b >= known) {
      ++bad_ids;
      return;
    }
    matches.emplace_back(a, b);
    if (input->truth.count(pier::PairKey(a, b)) == 0) return;
    const int64_t now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               Clock::now() - epoch)
                               .count();
    const int64_t due = std::max(due_ns[a], due_ns[b]);
    latency_ms.push_back(static_cast<double>(now_ns - due) / 1e6);
  }
};

double HistogramSeconds(pier::obs::MetricsRegistry& registry,
                        const char* name) {
  return static_cast<double>(registry.GetHistogram(name)->Sum()) / 1e9;
}

uint64_t CounterValue(pier::obs::MetricsRegistry& registry, const char* name) {
  return registry.GetCounter(name)->Value();
}

// Heap bytes in use, over every malloc arena.
size_t HeapBytes() {
  const struct mallinfo2 heap = mallinfo2();
  return heap.uordblks + heap.hblkhd;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

void NoMatch(pier::ProfileId /*a*/, pier::ProfileId /*b*/) {}

constexpr const char* kSpanNames[kNumThreadedSpans] = {
    "Ingest", "Delete/Update", "quiesce Drain", "final Drain",
    "ClusterOf", "match callback", "verdict callback",
};

}  // namespace

const char* ThreadedSpanName(ThreadedSpan span) { return kSpanNames[span]; }

double TimeSetup(const WorkloadSpec& spec, uint64_t seed) {
  const Clock::time_point start = Clock::now();
  const Input input = MakeInput(spec, seed);
  const auto matcher = MakeWorkloadMatcher(spec);
  const pier::ShardedPipeline pipeline(MakeShardedOptions(spec), matcher.get(),
                                       NoMatch);
  return SecondsBetween(start, Clock::now());
}

RepResult RunThreaded(const WorkloadSpec& spec, uint64_t seed, bool traced) {
  RepResult r;
  const Clock::time_point setup_start = Clock::now();
  const Input input = MakeInput(spec, seed);
  const auto matcher = MakeWorkloadMatcher(spec);
  const double input_s = SecondsBetween(setup_start, Clock::now());
  pier::ShardedOptions options = MakeShardedOptions(spec);
  pier::obs::MetricsRegistry registry;
  if (traced) options.pipeline.metrics = &registry;
  std::array<SpanTotal, kNumThreadedSpans>& spans = r.spans;
  const auto span = [&](ThreadedSpan s) {
    return traced ? &spans[s] : nullptr;
  };

  // Declared before the pipeline: the pipeline's destructor joins the
  // combiner thread that calls into it.
  Collector collector;
  collector.input = &input;
  collector.due_ns.assign(input.dataset.profiles.size(), 0);
  collector.half = (input.truth.size() + 1) / 2;
  // Every buffer the benchmark fills during the run is reserved before
  // the heap baseline, so heap_mb counts the pipeline's memory only.
  collector.latency_ms.reserve(input.truth.size());
  collector.hits.reserve(input.truth.size());
  collector.matches.reserve(2 * input.truth.size());
  r.query_ns.reserve(input.events.size() * spec.queries_per_op);
  r.mutation_ms.reserve(input.events.size());
  r.lateness_ms.reserve(input.events.size());
  // deleted[id]: the id's latest mutation was a Delete, so ClusterOf
  // reports absence. sent[i]: when event i was sent.
  std::vector<uint8_t> deleted(input.dataset.profiles.size(), 0);
  std::vector<Clock::time_point> sent(input.events.size());
  collector.match_span = span(kSpanMatchCallback);
  collector.verdict_span = span(kSpanVerdictCallback);
  options.on_verdict = [&collector](pier::ProfileId a, pier::ProfileId b,
                                    bool is_match) {
    collector.OnVerdict(a, b, is_match);
  };
  const size_t heap_baseline = HeapBytes();
  const Clock::time_point construct_start = Clock::now();
  pier::ShardedPipeline pipeline(
      options, matcher.get(),
      [&collector](pier::ProfileId a, pier::ProfileId b) {
        collector.OnMatch(a, b);
      });
  r.setup_s = input_s + SecondsBetween(construct_start, Clock::now());
  size_t heap_peak = HeapBytes();

  pier::Rng query_rng(pier::Mix64(seed ^ 0x7175657279ULL));
  const bool open_loop = spec.interval_s > 0.0;
  const bool append_only = spec.mutation_rate <= 0.0;
  const double cpu_start = ProcessCpuSeconds();
  collector.epoch = Clock::now();
  const Clock::time_point epoch = collector.epoch;

  for (size_t i = 0; i < input.events.size(); ++i) {
    const Event& event = input.events[i];
    Clock::time_point due = Clock::now();
    if (open_loop) {
      due = epoch + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(event.due_s));
      std::this_thread::sleep_until(due);
    }
    sent[i] = Clock::now();
    if (open_loop) r.lateness_ms.push_back(SecondsBetween(due, sent[i]) * 1e3);
    ++r.attempted;
    bool ok = true;
    switch (event.kind) {
      case Event::Kind::kIngest: {
        const int64_t due_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(due - epoch)
                .count();
        for (size_t id = event.begin; id < event.end; ++id) {
          collector.due_ns[id] = due_ns;
        }
        collector.ingested.store(static_cast<uint32_t>(event.end),
                                 std::memory_order_release);
        std::vector<pier::EntityProfile> batch(
            input.dataset.profiles.begin() +
                static_cast<std::ptrdiff_t>(event.begin),
            input.dataset.profiles.begin() +
                static_cast<std::ptrdiff_t>(event.end));
        const SpanTimer timer(span(kSpanIngestCall));
        ok = pipeline.Ingest(std::move(batch));
        break;
      }
      case Event::Kind::kDelete:
      case Event::Kind::kUpdate: {
        if (traced) {
          const SpanTimer timer(span(kSpanQuiesce));
          pipeline.Drain();
        }
        const bool is_delete = event.kind == Event::Kind::kDelete;
        std::vector<pier::EntityProfile> content;
        if (!is_delete) content.push_back(UpdateContent(input, event));
        const Clock::time_point start = Clock::now();
        {
          const SpanTimer timer(span(kSpanMutateCall));
          ok = is_delete ? pipeline.Delete({event.id})
                         : pipeline.Update(std::move(content));
        }
        r.mutation_ms.push_back(SecondsBetween(start, Clock::now()) * 1e3);
        if (ok) deleted[event.id] = is_delete ? 1 : 0;
        if (ok && is_delete &&
            pipeline.ClusterOf(event.id).cluster_id != pier::kInvalidProfileId) {
          Fail(r, "ClusterOf(" + std::to_string(event.id) +
                      ") still answers after Delete");
        }
        break;
      }
    }
    if (!ok) Fail(r, "call rejected at event " + std::to_string(i));

    const uint32_t universe = collector.ingested.load(std::memory_order_relaxed);
    for (size_t q = 0; q < spec.queries_per_op; ++q) {
      const auto id =
          static_cast<pier::ProfileId>(query_rng.UniformInt(0, universe - 1));
      const SpanTimer timer(span(kSpanQuery));
      const Clock::time_point start = Clock::now();
      const pier::serve::ClusterView view = pipeline.ClusterOf(id);
      r.query_ns.push_back(SecondsBetween(start, Clock::now()) * 1e9);
      const bool present = std::binary_search(view.members.begin(),
                                              view.members.end(), id);
      if (present == (deleted[id] != 0)) {
        Fail(r, "ClusterOf(" + std::to_string(id) + ") answered " +
                    (present ? "a deleted id" : "without the queried id"));
      }
    }
    heap_peak = std::max(heap_peak, HeapBytes());
  }
  {
    const SpanTimer timer(span(kSpanDrain));
    pipeline.Drain();
  }
  r.makespan_s = SecondsBetween(epoch, Clock::now());
  r.cpu_s = ProcessCpuSeconds() - cpu_start;
  heap_peak = std::max(heap_peak, HeapBytes());
  r.heap_mb = static_cast<double>(heap_peak - std::min(heap_peak, heap_baseline)) /
              (1024.0 * 1024.0);

  if (open_loop) {
    const Clock::time_point last_due =
        epoch + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(input.events.back().due_s));
    for (const Clock::time_point t : sent) {
      if (t > last_due + std::chrono::milliseconds(1)) ++r.backlog_at_end;
    }
  }

  // Output checks.
  if (collector.bad_ids > 0) {
    Fail(r, std::to_string(collector.bad_ids) +
                " delivered matches named ids never ingested");
    r.failed += collector.bad_ids - 1;
  }
  if (append_only) {
    for (const auto& [a, b] : collector.matches) {
      const pier::serve::ClusterView view = pipeline.ClusterOf(a);
      if (!std::binary_search(view.members.begin(), view.members.end(), b)) {
        Fail(r, "ClusterOf(" + std::to_string(a) + ") lacks matched " +
                    std::to_string(b));
      }
    }
  }
  r.truth_pairs = input.truth.size();
  r.true_matches = collector.hits.size();
  r.final_pc = input.truth.empty()
                   ? 0.0
                   : static_cast<double>(collector.hits.size()) /
                         static_cast<double>(input.truth.size());
  if (r.final_pc < spec.pc_floor) {
    Fail(r, "final_pc " + FormatNumber(r.final_pc) + " below floor " +
                FormatNumber(spec.pc_floor));
  }
  if (std::isnan(collector.tt_pc50_s)) Fail(r, "PC never reached 50%");
  r.tt_pc50_s = collector.tt_pc50_s;
  r.cmp_to_pc50 = collector.cmp_to_pc50;
  r.delivered_comparisons = collector.delivered;
  r.delivered_matches = collector.delivered_matches;
  r.match_latency_ms = std::move(collector.latency_ms);

  if (traced) {
    RegistrySums& s = r.registry;
    s.emit_s = HistogramSeconds(registry, "pipeline.emit_ns");
    s.match_s = HistogramSeconds(registry, "realtime.match_ns");
    s.backpressure_wait_s =
        HistogramSeconds(registry, "shard.backpressure_wait_ns");
    s.duplicates = pipeline.duplicates_suppressed();
    s.emitted = CounterValue(registry, "pipeline.comparisons_emitted");
    s.suppressed = CounterValue(registry, "pipeline.comparisons_suppressed");
    s.retracted = CounterValue(registry, "pipeline.comparisons_retracted");
    s.unions = CounterValue(registry, "serve.unions");
    s.query_retries = CounterValue(registry, "serve.query_retries");
  }
  return r;
}

}  // namespace pierbench
