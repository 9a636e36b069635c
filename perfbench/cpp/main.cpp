// perfbench: runs one benchmark workload and prints its result record as
// one JSON line on stdout (run.py is the user-facing entry point).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --scratch <dir>
//
// Exit status: 0 when every oracle passed, 1 on an oracle mismatch or a
// failed run, 2 on an unknown workload or malformed flag.
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common/cli.h"
#include "nn/gemm.h"
#include "workloads.h"

namespace perfbench {

std::vector<Metric> per_layer_sheet() {
  static const std::pair<const char*, const char*> kSheet[] = {
      {"core.period_ms", "ms"},
      {"core.ra_intervals_ms", "ms"},
      {"core.pool_wait_ms", "ms"},
      {"core.coordinate_ms", "ms"},
      {"core.unattributed_ms", "ms"},
      {"opt.solve_ms", "ms"},
      {"rl.decide_us", "us"},
      {"rl.decide_calls", "count"},
      {"nn.infer_flops_per_period", "flop"},
      {"rl.act_us", "us"},
      {"rl.observe_ms", "ms"},
      {"rl.train_batch_ms", "ms"},
      {"nn.train_flops_per_step", "flop"},
      {"env.service_model_us", "us"},
      {"env.service_model_calls", "count"},
      {"env.perf_us", "us"},
      {"env.step_us", "us"},
      {"ipc.run_intervals_ms", "ms"},
      {"ipc.worker_compute_ms", "ms"},
      {"ipc.wait_ms", "ms"},
      {"ipc.coordination_ms", "ms"},
      {"ipc.end_period_ms", "ms"},
      {"ipc.frames_per_period", "count"},
      {"ipc.bytes_per_period", "B"},
      {"ipc.send_retries", "count"},
      {"ckpt.save_p50_ms", "ms"},
      {"ckpt.save_max_ms", "ms"},
      {"ckpt.bytes", "B"},
      {"serve.server_p50_ms", "ms"},
      {"serve.server_p99_ms", "ms"},
      {"serve.outside_p50_ms", "ms"},
      {"serve.tick_ms", "ms"},
      {"serve.batch_rows_mean", "count"},
      {"serve.queue_depth_max", "count"},
      {"serve.shed", "count"},
      {"loadgen.late_p99_ms", "ms"},
      {"loadgen.send_us", "us"},
      {"trace_overhead_share", "ratio"},
  };
  std::vector<Metric> sheet;
  for (const auto& [name, unit] : kSheet) {
    sheet.push_back({name, 0.0, unit, "not exercised by this workload"});
  }
  return sheet;
}

void set_layer(std::vector<Metric>& sheet, const std::string& name, double value,
               const std::string& note) {
  for (Metric& metric : sheet) {
    if (metric.name == name) {
      metric.value = value;
      metric.note = note;
      return;
    }
  }
  throw std::logic_error("unknown per-layer metric " + name);
}

double overhead_share(const std::vector<double>& traced_cost,
                      const std::vector<double>& untraced_cost) {
  const double base = median(untraced_cost);
  if (traced_cost.empty() || base <= 0.0) return 0.0;
  return median(traced_cost) / base - 1.0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const edgeslice::CliArgs args(argc, argv,
                                  {"workload", "seed", "seconds", "trace", "scratch"});
    RunOptions options;
    options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    options.seconds = args.get_double("seconds", 10.0);
    options.traced = args.get_int("trace", 0) != 0;
    options.scratch_dir = args.get("scratch", ".");
    const std::string workload = args.get("workload", "");
    // Pin the GEMM backend explicitly (not through EDGESLICE_GEMM): the
    // same binary on the same host must time the same kernels.
    edgeslice::nn::set_gemm_backend(edgeslice::nn::cpu_supports_avx2_fma()
                                        ? edgeslice::nn::GemmBackend::Avx2
                                        : edgeslice::nn::GemmBackend::Scalar);

    Record record;
    if (workload == "city_drl") {
      record = run_city_drl(options);
    } else if (workload == "city_workers_ckpt") {
      record = run_city_workers_ckpt(options);
    } else if (workload == "ddpg_train") {
      record = run_ddpg_train(options);
    } else if (workload == "serve_open_loop") {
      record = run_serve_open_loop(options);
    } else {
      std::fprintf(stderr, "perfbench: unknown --workload '%s'\n", workload.c_str());
      return 2;
    }
    record.gemm_backend =
        edgeslice::nn::gemm_backend_name(edgeslice::nn::active_gemm_backend());
    record.write_json(std::cout);
    std::cout << std::endl;
    return record.oracles_passed() ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
