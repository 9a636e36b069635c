#include "bench_ledger_lib.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/hash.h"

namespace edgeslice::tools {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("bench_ledger: " + what);
}

bool parse_double(const std::string& token, double& out) {
  if (token.empty()) return false;
  char* end = nullptr;
  out = std::strtod(token.c_str(), &end);
  return end != nullptr && *end == '\0' && std::isfinite(out);
}

}  // namespace

bool is_config_key(const std::string& key) {
  static const char* kConfigKeys[] = {
      "ras", "slices_per_ra", "periods", "intervals_per_period", "seed",
      "threads", "threads_timed", "hardware_threads", "start_period",
      "timing_jobs", "timing_steps_per_job", "gemm_backend", "workers",
      "telemetry_interval", "state_dim", "action_dim", "hidden_dim",
      "batch_max", "queue_limit", "connections", "offered_rate", "requests",
  };
  for (const char* k : kConfigKeys) {
    if (key == k) return true;
  }
  return false;
}

std::string config_fingerprint(const std::map<std::string, std::string>& config) {
  std::string text;
  for (const auto& [key, value] : config) {  // std::map: sorted keys
    text += key + "=" + value + "\n";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(fnv1a64(text)));
  return buf;
}

BenchEntry make_entry(const std::string& bench_json, const std::string& sha,
                      const std::string& label) {
  BenchEntry entry;
  entry.sha = sha;
  entry.label = label;
  for (const auto& [key, value] : parse_flat_json(bench_json)) {
    if (is_config_key(key)) {
      entry.config[key] = value;
      continue;
    }
    double v = 0.0;
    if (parse_double(value, v)) entry.metrics[key] = v;
    // Non-numeric non-config fields (digests, bools-as-flags) are
    // identity/config-adjacent but unlisted: leave them out.
  }
  entry.fingerprint = config_fingerprint(entry.config);
  return entry;
}

std::string encode_entry(const BenchEntry& entry) {
  std::ostringstream out;
  const char* separator = "{";
  const auto key = [&](std::string_view name) {
    out << separator;
    separator = ", ";
    write_json_escaped(out, name);
    out << ": ";
  };
  key("sha");
  write_json_escaped(out, entry.sha);
  key("label");
  write_json_escaped(out, entry.label);
  key("fingerprint");
  write_json_escaped(out, entry.fingerprint);
  for (const auto& [name, value] : entry.config) {
    key("config." + name);
    write_json_escaped(out, value);
  }
  for (const auto& [name, value] : entry.metrics) {
    key("metric." + name);
    out << json_number(value);
  }
  out << "}";
  return out.str();
}

BenchEntry decode_entry(const std::string& line) {
  BenchEntry entry;
  for (const auto& [key, value] : parse_flat_json(line)) {
    if (key == "sha") {
      entry.sha = value;
    } else if (key == "label") {
      entry.label = value;
    } else if (key == "fingerprint") {
      entry.fingerprint = value;
    } else if (key.rfind("config.", 0) == 0) {
      entry.config[key.substr(7)] = value;
    } else if (key.rfind("metric.", 0) == 0) {
      double v = 0.0;
      if (!parse_double(value, v)) fail("non-numeric metric " + key);
      entry.metrics[key.substr(7)] = v;
    } else {
      fail("unknown ledger field " + key);
    }
  }
  if (entry.fingerprint.empty()) fail("ledger line without fingerprint");
  return entry;
}

std::vector<BenchEntry> load_history(const std::string& path) {
  std::vector<BenchEntry> entries;
  std::ifstream in(path);
  if (!in) return entries;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;  // blank
    try {
      entries.push_back(decode_entry(line));
    } catch (const std::exception& e) {
      fail(path + ":" + std::to_string(line_no) + ": " + e.what());
    }
  }
  return entries;
}

int metric_direction(const std::string& key) {
  static const char* kHigherBetter[] = {
      "periods_per_second", "matmul_gflops", "matmul_gflops_scalar",
      "matmul_gflops_avx2", "inference_steps_per_second_batched",
      "inference_steps_per_second_unbatched", "speedup",
      "inference_batched_speedup", "achieved_rate",
  };
  static const char* kLowerBetter[] = {
      "p99_coordinator_solve_seconds", "wall_seconds", "sequential_seconds",
      "parallel_seconds", "shed_rate", "p50_decision_seconds",
      "p99_decision_seconds", "p999_decision_seconds", "p50_server_seconds",
      "p99_server_seconds",
  };
  for (const char* k : kHigherBetter) {
    if (key == k) return 1;
  }
  for (const char* k : kLowerBetter) {
    if (key == k) return -1;
  }
  return 0;
}

DiffResult diff_entries(const BenchEntry& a, const BenchEntry& b, double tolerance) {
  DiffResult result;
  result.fingerprint_match = a.fingerprint == b.fingerprint;
  for (const auto& [key, va] : a.metrics) {
    const auto it = b.metrics.find(key);
    if (it == b.metrics.end()) continue;
    DiffRow row;
    row.key = key;
    row.a = va;
    row.b = it->second;
    row.delta_frac = va == 0.0 ? 0.0 : (row.b - row.a) / std::abs(va);
    row.direction = metric_direction(key);
    if (row.direction > 0) {
      row.regression = row.b < row.a * (1.0 - tolerance);
    } else if (row.direction < 0) {
      row.regression = row.b > row.a * (1.0 + tolerance);
    }
    result.regression = result.regression || row.regression;
    result.rows.push_back(row);
  }
  return result;
}

}  // namespace edgeslice::tools
