// One benchmark run's result record and the small statistics helpers every
// workload shares.
//
// The record is printed as one JSON object (the last line of the binary's
// stdout); run.py adds the host record and turns it into the benchmark's
// result line. Metric groups:
//   end_to_end — the metrics named in BENCHMARK.json (untraced runs);
//   named      — the same measurements under their workload-specific
//                names (periods_per_s, decide_p99_ms, ...);
//   per_layer  — the traced run's layer breakdown;
//   counters   — exact work counts that must repeat run to run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // how it was measured, or why it is unavailable
};

struct Oracle {
  std::string name;
  bool passed = false;
  std::string detail;
};

struct Record {
  std::string workload;
  std::uint64_t seed = 0;
  std::string gemm_backend;
  bool traced = false;
  double run_seconds = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> named;
  std::vector<Metric> per_layer;
  std::vector<Metric> counters;
  std::vector<Oracle> oracles;
  /// Output digests that must repeat run to run for the same seed.
  std::map<std::string, std::string> digests;

  void oracle(std::string name, bool passed, std::string detail);
  bool oracles_passed() const;
  void write_json(std::ostream& out) const;
};

/// Median of `xs` (0 when empty).
double median(std::vector<double> xs);
/// Linear-interpolated percentile, p in [0, 100] (0 when empty).
double percentile_or_zero(std::vector<double> xs, double p);
/// Peak resident set size of this process, in MiB.
double peak_rss_mb();
/// "0x" + 16 lower-case hex digits.
std::string hex64(std::uint64_t value);

/// FNV-1a over raw bytes, chained through `hash`.
inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t hash = kFnvOffset);

}  // namespace perfbench
