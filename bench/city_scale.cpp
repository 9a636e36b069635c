// City-scale Milan-day bench.
//
// Replays one full simulated day — 24 orchestration periods of 6
// ten-minute bins by default — over a city grid of RAs (hundreds) each
// hosting several slices (thousands of slice queues total), with the SLA
// watchdog and flight recorder live, and reports throughput
// (periods/second), p99 coordinator-solve latency, and per-slice SLA
// violation rates into BENCH_city.json.
//
// Acceptance legs:
//   * scale:   city_scale --ras 128 --slices-per-ra 8   (1024 slice queues)
//   * crash:   city_scale --crash-at-period 12 --checkpoint-every 4
//              --checkpoint-out day.ckpt --checkpoint-keep 2 --events-out ...
//   * resume:  city_scale --resume day.ckpt --checkpoint-keep 2
// The per-period digest lines let the resumed run be diffed bit-for-bit
// against an uncrashed one (tests/core/test_city_scale.cpp automates it).
#include "city_common.h"

#include <cstdio>
#include <string>

#include "common.h"
#include "common/json.h"

using namespace edgeslice;
using namespace edgeslice::bench;

namespace {

/// Every field BENCH_city.json carries, in emission order. The docs check
/// (tests/docs_check.cmake) pins each name to EXPERIMENTS.md, and
/// BenchReport::write refuses a document that does not match it exactly —
/// so a field cannot be added, renamed, or dropped without the docs
/// following.
constexpr const char* kCityBenchFields[] = {
    "ras",
    "slices_per_ra",
    "periods",
    "intervals_per_period",
    "seed",
    "threads",
    "start_period",
    "periods_run",
    "wall_seconds",
    "periods_per_second",
    "p99_coordinator_solve_seconds",
    "total_performance",
    "sla_violations",
    "sla_violation_rate",
    "slice_violation_rates",
    "arena_upstream_allocations",
    "arena_high_water_bytes",
    "trajectory_digest",
};

/// Write the report, field order and names exactly per kCityBenchFields.
bool write_city_json(const std::string& path, const city::CityConfig& config,
                     std::size_t threads, const city::CityRun& run) {
  BenchReport report(kCityBenchFields);
  report.number("ras", config.ras);
  report.number("slices_per_ra", config.slices_per_ra);
  report.number("periods", config.periods);
  report.number("intervals_per_period", config.intervals_per_period);
  report.number("seed", config.seed);
  report.number("threads", threads);
  report.number("start_period", run.start_period);
  report.number("periods_run", run.periods_run);
  report.number("wall_seconds", run.wall_seconds);
  report.number("periods_per_second", run.periods_per_second);
  report.number("p99_coordinator_solve_seconds", run.p99_solve_seconds);
  report.number("total_performance", run.total_performance);
  report.number("sla_violations", run.sla_violations);
  report.number("sla_violation_rate", run.sla_violation_rate);
  report.numbers("slice_violation_rates", run.slice_violation_rates);
  report.number("arena_upstream_allocations", run.arena.upstream_allocations);
  report.number("arena_high_water_bytes", run.arena.high_water_bytes);
  report.text("trajectory_digest", city::digest_hex(run.trajectory_digest));
  std::string error;
  if (!report.write(path, error)) {
    std::fprintf(stderr, "[city] %s\n", error.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Setup defaults;
  defaults.eval_periods = 24;
  const Setup setup = parse_common_flags(
      argc, argv, defaults,
      {"ras", "slices-per-ra", "intervals", "peak-rate", "crash-at-period", "out"});
  const CliArgs args(
      argc, argv,
      {"steps", "seed", "periods", "threads", "metrics-out", "telemetry-port",
       "metrics-interval", "events-out", "checkpoint-every", "checkpoint-out",
       "resume", "checkpoint-keep", "workers", "gemm", "telemetry-interval",
       "ras", "slices-per-ra", "intervals", "peak-rate", "crash-at-period",
       "out"});

  city::CityConfig config;
  config.ras = static_cast<std::size_t>(
      args.get_int("ras", static_cast<std::int64_t>(config.ras)));
  config.slices_per_ra = static_cast<std::size_t>(args.get_int(
      "slices-per-ra", static_cast<std::int64_t>(config.slices_per_ra)));
  config.periods = setup.eval_periods;
  config.intervals_per_period = static_cast<std::size_t>(args.get_int(
      "intervals", static_cast<std::int64_t>(config.intervals_per_period)));
  config.peak_rate = args.get_double("peak-rate", config.peak_rate);
  config.seed = setup.seed;
  config.checkpoint_every = setup.checkpoint_every;
  config.checkpoint_out = setup.checkpoint_out;
  config.resume_path = setup.resume_path;
  config.checkpoint_keep = setup.checkpoint_keep;
  const std::int64_t crash_at = args.get_int("crash-at-period", -1);
  if (crash_at >= 0) config.crash_at_period = static_cast<std::size_t>(crash_at);
  const std::string out_path = args.get("out", "BENCH_city.json");
  config.print_digests = true;

  ThreadPool pool(setup.threads == 0 ? 1 : setup.threads);
  config.pool = setup.threads > 1 ? &pool : nullptr;

  print_header("City-scale Milan day",
               "periods/second, p99 coordinator solve, SLA violation rates");
  std::printf("# %zu RAs x %zu slices (%zu slice queues), %zu periods x %zu bins, "
              "peak rate %.2f, seed %llu, %zu threads\n",
              config.ras, config.slices_per_ra, config.ras * config.slices_per_ra,
              config.periods, config.intervals_per_period, config.peak_rate,
              static_cast<unsigned long long>(config.seed), setup.threads);

  // run_city streams one digest line per period (flushed, so the crash
  // leg keeps its pre-abort lines): the crash/resume test diffs them
  // against an uncrashed run's lines.
  const city::CityRun run = city::run_city(config);

  print_series_header({"periods/s", "p99-solve-ms", "sla-viol-rate", "perf-total"});
  print_row({run.periods_per_second, run.p99_solve_seconds * 1e3,
             run.sla_violation_rate, run.total_performance});
  std::printf("# arena: %zu upstream allocations (%zu after warm-up), "
              "high water %zu bytes\n",
              run.arena.upstream_allocations, run.arena_upstream_after_warmup,
              run.arena.high_water_bytes);

  if (!write_city_json(out_path, config, setup.threads, run)) return 2;
  std::printf("# wrote %s\n", out_path.c_str());
  return 0;
}
