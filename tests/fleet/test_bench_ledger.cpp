// Bench regression ledger tests (ctest label: fleet): the flat-JSON
// scanner, config fingerprinting, JSONL round-trip, tolerance-band diff
// semantics, and the real CLI's exit codes — zero on identical entries,
// nonzero on a synthetic 20% periods/second regression.
#include "bench_ledger_lib.h"

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/hash.h"

namespace edgeslice::tools {
namespace {

/// A miniature BENCH_city.json: config fields, metrics, a nested array
/// and a non-numeric digest the ledger must skip.
std::string city_doc(double periods_per_second, double p99_solve) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"ras\": 100, \"slices_per_ra\": 4, \"periods\": 24,\n"
                " \"seed\": 1, \"threads\": 4,\n"
                " \"slice_violation_rates\": [0.1, 0.2, [0.3]],\n"
                " \"trajectory_digest\": \"abc123\",\n"
                " \"periods_per_second\": %.17g,\n"
                " \"p99_coordinator_solve_seconds\": %.17g,\n"
                " \"wall_seconds\": 10.5}",
                periods_per_second, p99_solve);
  return buf;
}

TEST(BenchLedger, ParseFlatJsonReadsScalarsAndSkipsNested) {
  const auto fields = parse_flat_json(city_doc(640.0, 0.002));
  EXPECT_EQ(fields.at("ras"), "100");
  EXPECT_EQ(fields.at("trajectory_digest"), "abc123");
  EXPECT_EQ(fields.at("wall_seconds"), "10.5");
  EXPECT_EQ(fields.count("slice_violation_rates"), 0u);  // nested: skipped
  EXPECT_THROW(parse_flat_json("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(parse_flat_json("[1, 2]"), std::runtime_error);
  EXPECT_THROW(parse_flat_json("{\"a\": 1"), std::runtime_error);
}

TEST(BenchLedger, FingerprintCoversConfigOnly) {
  const BenchEntry a = make_entry(city_doc(640.0, 0.002), "sha1", "city");
  const BenchEntry b = make_entry(city_doc(320.0, 0.009), "sha2", "city");
  EXPECT_EQ(a.fingerprint, b.fingerprint);  // metrics differ, config equal

  std::string other = city_doc(640.0, 0.002);
  const std::size_t pos = other.find("\"ras\": 100");
  other.replace(pos, 10, "\"ras\": 200");
  EXPECT_NE(make_entry(other, "sha1", "city").fingerprint, a.fingerprint);
}

// Regression: the ledger once seeded its hash with 1469598103934665603
// (a digit short of the FNV-1a offset basis), so every fingerprint
// differed from the FNV-1a that FORMATS.md documents.
TEST(BenchLedger, FingerprintIsReferenceFnv1a) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
  EXPECT_EQ(config_fingerprint({}), "0xcbf29ce484222325");
  char expected[32];
  std::snprintf(expected, sizeof(expected), "0x%016llx",
                static_cast<unsigned long long>(fnv1a64("ras=100\nseed=1\n")));
  EXPECT_EQ(config_fingerprint({{"seed", "1"}, {"ras", "100"}}), expected);
}

// Regression: labels were escaped only for '"', '\\' and '\n', so a tab
// or another control byte wrote a line that is not RFC 8259 JSON, and
// the reader decoded \b, \f and \uXXXX wrongly.
TEST(BenchLedger, ControlBytesInLabelsRoundTrip) {
  BenchEntry entry = make_entry(city_doc(640.0, 0.002), "sha\b", "a\tb\x01" "c\f");
  entry.config["gemm_backend"] = "x\x1fy";
  const std::string line = encode_entry(entry);
  for (const char c : line) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << "raw control byte in " << line;
  }
  const BenchEntry back = decode_entry(line);
  EXPECT_EQ(back.sha, "sha\b");
  EXPECT_EQ(back.label, "a\tb\x01" "c\f");
  EXPECT_EQ(back.config, entry.config);
  EXPECT_EQ(back.metrics, entry.metrics);
}

TEST(BenchLedger, MakeEntrySplitsConfigFromMetrics) {
  const BenchEntry entry = make_entry(city_doc(640.0, 0.002), "deadbeef", "city");
  EXPECT_EQ(entry.sha, "deadbeef");
  EXPECT_EQ(entry.config.at("ras"), "100");
  EXPECT_EQ(entry.config.at("threads"), "4");
  EXPECT_EQ(entry.metrics.at("periods_per_second"), 640.0);
  EXPECT_EQ(entry.metrics.at("wall_seconds"), 10.5);
  EXPECT_EQ(entry.metrics.count("trajectory_digest"), 0u);  // non-numeric
  EXPECT_EQ(entry.config.count("periods_per_second"), 0u);
}

TEST(BenchLedger, EncodeDecodeRoundTrips) {
  const BenchEntry entry = make_entry(city_doc(640.0, 0.002), "deadbeef", "ci ty\"x");
  const BenchEntry back = decode_entry(encode_entry(entry));
  EXPECT_EQ(back.sha, entry.sha);
  EXPECT_EQ(back.label, entry.label);
  EXPECT_EQ(back.fingerprint, entry.fingerprint);
  EXPECT_EQ(back.config, entry.config);
  EXPECT_EQ(back.metrics, entry.metrics);
  EXPECT_THROW(decode_entry("{\"sha\": \"x\"}"), std::runtime_error);  // no fingerprint
  EXPECT_THROW(decode_entry("{\"fingerprint\": \"f\", \"bogus\": 1}"),
               std::runtime_error);
}

TEST(BenchLedger, LoadHistoryHandlesMissingBlankAndMalformed) {
  const std::string path = ::testing::TempDir() + "ledger_history.jsonl";
  std::remove(path.c_str());
  EXPECT_TRUE(load_history(path).empty());  // missing file: nothing recorded yet

  {
    std::ofstream out(path);
    out << encode_entry(make_entry(city_doc(640.0, 0.002), "a", "city")) << "\n";
    out << "\n";  // blank lines are fine
    out << encode_entry(make_entry(city_doc(650.0, 0.002), "b", "city")) << "\n";
  }
  EXPECT_EQ(load_history(path).size(), 2u);

  {
    std::ofstream out(path, std::ios::app);
    out << "{broken\n";
  }
  EXPECT_THROW(load_history(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(BenchLedger, DiffDirectionsAndTolerance) {
  const BenchEntry base = make_entry(city_doc(640.0, 0.002), "a", "city");

  // Identical entries: no regression, every delta zero.
  const DiffResult same = diff_entries(base, base, 0.05);
  EXPECT_TRUE(same.fingerprint_match);
  EXPECT_FALSE(same.regression);
  for (const DiffRow& row : same.rows) EXPECT_EQ(row.delta_frac, 0.0);

  // 20% throughput drop: regression (higher-is-better, beyond 5%).
  const BenchEntry slower = make_entry(city_doc(640.0 * 0.8, 0.002), "b", "city");
  const DiffResult drop = diff_entries(base, slower, 0.05);
  EXPECT_TRUE(drop.regression);
  bool flagged = false;
  for (const DiffRow& row : drop.rows) {
    if (row.key == "periods_per_second") {
      EXPECT_TRUE(row.regression);
      EXPECT_EQ(row.direction, 1);
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged);
  // The same drop passes under a 25% tolerance.
  EXPECT_FALSE(diff_entries(base, slower, 0.25).regression);

  // 20% p99 increase: regression (lower-is-better).
  const BenchEntry laggier = make_entry(city_doc(640.0, 0.002 * 1.2), "c", "city");
  EXPECT_TRUE(diff_entries(base, laggier, 0.05).regression);

  // Improvement in a directed metric never gates.
  const BenchEntry faster = make_entry(city_doc(640.0 * 1.3, 0.002 * 0.5), "d", "city");
  EXPECT_FALSE(diff_entries(base, faster, 0.05).regression);
}

TEST(BenchLedger, UnknownMetricsAreReportedButNeverGate) {
  BenchEntry a;
  a.fingerprint = "0x0";
  a.metrics["total_performance"] = 100.0;  // direction unknown
  BenchEntry b = a;
  b.metrics["total_performance"] = 1.0;  // collapsed, but not a gate
  const DiffResult result = diff_entries(a, b, 0.05);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].direction, 0);
  EXPECT_FALSE(result.rows[0].regression);
  EXPECT_FALSE(result.regression);
}

#ifdef EDGESLICE_BENCH_LEDGER_PATH
/// Exit code of one bench_ledger CLI invocation.
int run_cli(const std::string& args) {
  const std::string command =
      std::string("\"") + EDGESLICE_BENCH_LEDGER_PATH + "\" " + args + " >/dev/null";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(BenchLedgerCli, DiffExitCodesGateOnRegression) {
  const std::string dir = ::testing::TempDir();
  const std::string history = dir + "cli_history.jsonl";
  const std::string good = dir + "cli_bench_good.json";
  const std::string bad = dir + "cli_bench_bad.json";
  std::remove(history.c_str());
  {
    std::ofstream out(good);
    out << city_doc(640.0, 0.002);
  }
  {
    std::ofstream out(bad);  // the synthetic 20% periods/second regression
    out << city_doc(640.0 * 0.8, 0.002);
  }

  // check on a missing ledger: fine, nothing recorded yet.
  EXPECT_EQ(run_cli("check --history \"" + history + "\""), 0);

  EXPECT_EQ(run_cli("append \"" + good + "\" --history \"" + history +
                    "\" --sha aaa --label city"),
            0);
  EXPECT_EQ(run_cli("append \"" + good + "\" --history \"" + history +
                    "\" --sha bbb --label city"),
            0);
  // Identical entries: exit 0.
  EXPECT_EQ(run_cli("diff --history \"" + history + "\""), 0);

  EXPECT_EQ(run_cli("append \"" + bad + "\" --history \"" + history +
                    "\" --sha ccc --label city"),
            0);
  // Last two entries now differ by -20% periods/second: exit 1.
  EXPECT_EQ(run_cli("diff --history \"" + history + "\""), 1);
  // Explicit indices work the same.
  EXPECT_EQ(run_cli("diff --history \"" + history + "\" --a 0 --b 2"), 1);
  // A generous tolerance admits it.
  EXPECT_EQ(run_cli("diff --history \"" + history + "\" --tolerance 0.3"), 0);

  // The ledger validates; usage errors exit 2.
  EXPECT_EQ(run_cli("check --history \"" + history + "\""), 0);
  EXPECT_EQ(run_cli("frobnicate"), 2);
  EXPECT_EQ(run_cli("diff --history \"" + history + "\" --a"), 2);

  std::remove(history.c_str());
  std::remove(good.c_str());
  std::remove(bad.c_str());
}
#endif  // EDGESLICE_BENCH_LEDGER_PATH

}  // namespace
}  // namespace edgeslice::tools
