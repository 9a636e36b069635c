// Bench regression ledger: append BENCH_*.json runs to a JSONL history
// and diff two entries with tolerance bands (ROADMAP: "wire
// BENCH_city.json into regression tracking").
//
// Every ledger entry is one flat JSON line keyed by git SHA and a config
// fingerprint (FNV-1a over the run's configuration fields), so entries
// are only meaningfully comparable when their fingerprints match — a
// throughput drop measured at a different scale is not a regression.
// Metric direction is a fixed table (periods/second up is good, p99
// solve latency down is good); metrics the table does not know are
// reported but never gate.
//
// The library is separate from the CLI (tools/bench_ledger.cpp) so the
// append/diff/fingerprint logic is unit-testable in-process.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/json.h"

namespace edgeslice::tools {

/// One ledger entry: identity + raw config fields + numeric metrics.
struct BenchEntry {
  std::string sha;          // git SHA of the measured tree ("unknown" ok)
  std::string label;        // free-form run label ("city", "training", ...)
  std::string fingerprint;  // config_fingerprint() of the config fields
  std::map<std::string, std::string> config;  // raw JSON value tokens
  std::map<std::string, double> metrics;
};

/// The flat-report reader shared with the benches' BenchReport writer.
using edgeslice::parse_flat_json;

/// True for fields that describe the run's configuration (scale, seed,
/// thread count, backend) rather than its measured outcome.
bool is_config_key(const std::string& key);

/// FNV-1a 64 (common/hash.h) over the sorted "key=value\n" config pairs,
/// "0x%016x"-formatted.
std::string config_fingerprint(const std::map<std::string, std::string>& config);

/// Build an entry from a BENCH_*.json document: config keys are
/// fingerprinted, every other numeric field becomes a metric.
BenchEntry make_entry(const std::string& bench_json, const std::string& sha,
                      const std::string& label);

/// One JSONL line: {"sha":..., "label":..., "fingerprint":...,
/// "config.<k>":..., "metric.<k>":...} — flat on purpose, so
/// decode_entry reuses parse_flat_json. Strings are escaped per RFC 8259
/// (write_json_escaped) and metrics rendered exactly (json_number).
std::string encode_entry(const BenchEntry& entry);
BenchEntry decode_entry(const std::string& line);

/// All entries of a JSONL history file, oldest first. Blank lines are
/// skipped; a malformed line throws. A missing file returns empty.
std::vector<BenchEntry> load_history(const std::string& path);

/// +1: higher is better; -1: lower is better; 0: unknown (never gates).
/// Directions assume positive-valued metrics (all known ones are).
int metric_direction(const std::string& key);

struct DiffRow {
  std::string key;
  double a = 0.0;
  double b = 0.0;
  double delta_frac = 0.0;  // (b - a) / |a|, 0 when a == 0
  int direction = 0;
  bool regression = false;
};

struct DiffResult {
  std::vector<DiffRow> rows;       // metrics present in both entries
  bool fingerprint_match = false;  // comparing different configs is advisory
  bool regression = false;         // any directed metric worsened past tolerance
};

/// Compare entry `b` (candidate) against `a` (baseline). A directed
/// metric regresses when it is worse than the baseline by more than
/// `tolerance` (a fraction, e.g. 0.05 = 5%).
DiffResult diff_entries(const BenchEntry& a, const BenchEntry& b, double tolerance);

}  // namespace edgeslice::tools
