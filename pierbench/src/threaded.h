// One repetition of a workload on the production realtime path: a
// ShardedPipeline driven by a single load thread, with the match and
// verdict callbacks collecting quality and freshness samples.

#ifndef PIERBENCH_THREADED_H_
#define PIERBENCH_THREADED_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace pierbench {

// Spans recorded around the public ShardedPipeline calls and the
// delivery callbacks when a repetition is traced.
enum ThreadedSpan {
  kSpanIngestCall,
  kSpanMutateCall,
  kSpanQuiesce,
  kSpanDrain,
  kSpanQuery,
  kSpanMatchCallback,
  kSpanVerdictCallback,
  kNumThreadedSpans,
};

const char* ThreadedSpanName(ThreadedSpan span);

struct SpanTotal {
  uint64_t count = 0;
  double seconds = 0.0;
};

// Sums read from the program's own metrics registry after a traced
// repetition drains.
struct RegistrySums {
  double emit_s = 0.0;               // pipeline.emit_ns
  double match_s = 0.0;              // realtime.match_ns
  double backpressure_wait_s = 0.0;  // shard.backpressure_wait_ns
  uint64_t duplicates = 0;           // shard.duplicates_suppressed
  uint64_t emitted = 0;              // pipeline.comparisons_emitted
  uint64_t suppressed = 0;           // pipeline.comparisons_suppressed
  uint64_t retracted = 0;            // pipeline.comparisons_retracted
  uint64_t unions = 0;               // serve.unions
  uint64_t query_retries = 0;        // serve.query_retries
};

struct RepResult {
  // Input generation plus pipeline construction.
  double setup_s = 0.0;
  double makespan_s = 0.0;
  // Process CPU seconds from the first due time until Drain() returns:
  // the pipeline's threads, the load thread's calls and the callbacks.
  // Unlike makespan_s it does not include the open loop's idle waits.
  double cpu_s = 0.0;
  double tt_pc50_s = 0.0;   // NaN when PC never reached 50%
  double cmp_to_pc50 = 0.0;  // NaN when PC never reached 50%
  double final_pc = 0.0;
  // Heap in use (mallinfo2) above the baseline taken just before the
  // pipeline is built, once the input exists and the benchmark's own
  // buffers are reserved: the largest of the readings taken after every
  // operation and after the drain. It excludes what the allocator
  // retains but does not use.
  double heap_mb = 0.0;
  uint64_t truth_pairs = 0;
  uint64_t true_matches = 0;
  uint64_t delivered_comparisons = 0;
  uint64_t delivered_matches = 0;
  std::vector<double> match_latency_ms;
  std::vector<double> query_ns;
  std::vector<double> mutation_ms;
  std::vector<double> lateness_ms;  // open loop only
  uint64_t backlog_at_end = 0;      // open loop only
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the report
  // Traced repetitions only.
  std::array<SpanTotal, kNumThreadedSpans> spans{};
  RegistrySums registry;
};

// Generates the input from `seed`, builds the pipeline (together, the
// set-up), runs the schedule, drains and checks the outputs. A traced
// repetition sets PierOptions::metrics, records spans, and quiesces
// with Drain() before each Delete/Update so the quiesce wait is its
// own span.
RepResult RunThreaded(const WorkloadSpec& spec, uint64_t seed, bool traced);

// Set-up alone, as RunThreaded performs it: generates the input from
// `seed` and builds the pipeline. Returns the seconds it took.
double TimeSetup(const WorkloadSpec& spec, uint64_t seed);

}  // namespace pierbench

#endif  // PIERBENCH_THREADED_H_
