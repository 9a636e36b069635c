#include "record.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/json.h"
#include "common/stats.h"

namespace perfbench {

namespace {

void write_number(std::ostream& out, double value) {
  if (!std::isfinite(value)) {
    out << "null";
    return;
  }
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out << buffer;
}

void write_string(std::ostream& out, const std::string& s) {
  edgeslice::write_json_escaped(out, s);  // quotes included
}

void write_metrics(std::ostream& out, const char* key, const std::vector<Metric>& metrics) {
  out << ",\"" << key << "\":[";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out << (i ? "," : "") << "{\"name\":";
    write_string(out, m.name);
    out << ",\"value\":";
    write_number(out, m.value);
    out << ",\"unit\":";
    write_string(out, m.unit);
    if (!m.note.empty()) {
      out << ",\"note\":";
      write_string(out, m.note);
    }
    out << "}";
  }
  out << "]";
}

}  // namespace

void Record::oracle(std::string name, bool passed, std::string detail) {
  oracles.push_back({std::move(name), passed, std::move(detail)});
}

bool Record::oracles_passed() const {
  return !oracles.empty() &&
         std::all_of(oracles.begin(), oracles.end(), [](const Oracle& o) { return o.passed; });
}

void Record::write_json(std::ostream& out) const {
  out << "{\"workload\":";
  write_string(out, workload);
  out << ",\"seed\":" << seed << ",\"gemm_backend\":";
  write_string(out, gemm_backend);
  out << ",\"traced\":" << (traced ? "true" : "false") << ",\"run_seconds\":";
  write_number(out, run_seconds);
  out << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"correct\":" << (oracles_passed() ? "true" : "false");
  write_metrics(out, "end_to_end", end_to_end);
  write_metrics(out, "named", named);
  write_metrics(out, "per_layer", per_layer);
  write_metrics(out, "counters", counters);
  out << ",\"digests\":{";
  bool first = true;
  for (const auto& [name, digest] : digests) {
    out << (first ? "" : ",");
    first = false;
    write_string(out, name);
    out << ":";
    write_string(out, digest);
  }
  out << "}";
  out << ",\"oracles\":[";
  for (std::size_t i = 0; i < oracles.size(); ++i) {
    out << (i ? "," : "") << "{\"name\":";
    write_string(out, oracles[i].name);
    out << ",\"passed\":" << (oracles[i].passed ? "true" : "false") << ",\"detail\":";
    write_string(out, oracles[i].detail);
    out << "}";
  }
  out << "]}";
}

double median(std::vector<double> xs) { return percentile_or_zero(std::move(xs), 50.0); }

double percentile_or_zero(std::vector<double> xs, double p) {
  return xs.empty() ? 0.0 : edgeslice::percentile(std::move(xs), p);
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives exec, so it would report the
  // launching interpreter's peak whenever that was larger.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

std::string hex64(std::uint64_t value) {
  char buffer[2 + 16 + 1];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace perfbench
