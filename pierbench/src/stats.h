// Order statistics and the result printer shared by the benchmark's
// run modes.

#ifndef PIERBENCH_STATS_H_
#define PIERBENCH_STATS_H_

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace pierbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Nearest-rank q-quantile of `samples` (sorted in place); NaN when
// empty.
inline double Quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return std::nan("");
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

// Samples strictly beyond the nearest-rank q-quantile.
inline size_t SamplesBeyond(size_t n, double q) {
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

inline double Median(std::vector<double> samples) {
  return Quantile(samples, 0.5);
}

inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return std::nan("");
  double sum = 0.0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

// Shortest decimal form that round-trips, so values keep every digit.
inline std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, result.ptr);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  // Human-readable context for the report line (sample counts, or why
  // the metric does not apply to this workload).
  std::string note;
};

// One human-readable report line per metric.
inline void PrintLines(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %16s %-6s %s\n", m.name.c_str(),
                FormatNumber(m.value).c_str(), m.unit.c_str(),
                m.note.c_str());
  }
}

// Report lines for `metrics`, then the result object holding them as
// the last line of standard output.
inline void PrintResult(const std::vector<Metric>& metrics, bool correct,
                        uint64_t attempted, uint64_t failed) {
  PrintLines(metrics);
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace pierbench

#endif  // PIERBENCH_STATS_H_
