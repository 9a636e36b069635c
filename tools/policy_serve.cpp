// policy-serve: the policy-serving daemon (EXPERIMENTS.md "Policy
// serving").
//
// Loads a trained policy out of the content-addressed agent cache (or a
// bare ESCK file) and serves allocation decisions over the ESFR framed
// protocol until SIGINT/SIGTERM:
//
//   policy_serve --cache-dir .edgeslice_policies --digest 9f2a...
//       --port 7070 --telemetry-port 9090
//
// --port 0 (the default) picks an ephemeral port; --port-file publishes
// the bound port atomically for scripts and tests to discover. The
// /metrics endpoint (--telemetry-port) exposes the serve.* family:
// decision-latency histogram, queue-depth gauge, shed counter.
#include <csignal>
#include <cstdio>
#include <ctime>
#include <exception>
#include <string>

#include "common/binio.h"
#include "common/cli.h"
#include "common/metrics.h"
#include "ipc/telemetry_server.h"
#include "nn/gemm.h"
#include "serve/policy_loader.h"
#include "serve/server.h"

using namespace edgeslice;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv,
                     {"cache-dir", "digest", "policy-file", "port", "bind",
                      "port-file", "batch-max", "queue-limit", "poll-ms",
                      "telemetry-port", "gemm", "status-every"});

  if (args.has("gemm")) {
    nn::set_gemm_backend(args.get("gemm", "auto").c_str());
  }

  serve::LoadedPolicy loaded = [&] {
    try {
      if (args.has("policy-file")) {
        return serve::load_policy_file(args.get("policy-file", ""));
      }
      if (!args.has("digest")) {
        std::fprintf(stderr,
                     "policy_serve: need --digest <hex16> (with --cache-dir) "
                     "or --policy-file <path>\n");
        std::exit(2);
      }
      return serve::load_policy_by_digest(
          args.get("cache-dir", ".edgeslice_policies"), args.get("digest", ""));
    } catch (const std::exception& error) {
      std::fprintf(stderr, "policy_serve: %s\n", error.what());
      std::exit(1);
    }
  }();

  serve::PolicyServerConfig config;
  config.port = static_cast<std::uint16_t>(args.get_int("port", 0));
  config.bind_address = args.get("bind", config.bind_address);
  config.batch_max = static_cast<std::size_t>(
      args.get_int("batch-max", static_cast<std::int64_t>(config.batch_max)));
  config.queue_limit = static_cast<std::size_t>(
      args.get_int("queue-limit", static_cast<std::int64_t>(config.queue_limit)));
  config.poll_ms = static_cast<int>(args.get_int("poll-ms", config.poll_ms));
  config.policy_digest = loaded.digest;

  serve::PolicyServer server(std::move(loaded.policy), config);
  if (!server.start()) {
    std::fprintf(stderr, "policy_serve: cannot bind %s:%u\n",
                 config.bind_address.c_str(), config.port);
    return 1;
  }

  const std::int64_t telemetry_port = args.get_int("telemetry-port", -1);
  obs::TelemetryServerConfig telemetry_config;
  telemetry_config.port =
      telemetry_port >= 0 ? static_cast<std::uint16_t>(telemetry_port) : 0;
  obs::TelemetryServer telemetry(telemetry_config);
  if (telemetry_port >= 0 && telemetry.start()) {
    std::fprintf(stderr, "policy_serve: telemetry on http://127.0.0.1:%u/metrics\n",
                 telemetry.port());
  }

  std::fprintf(stderr,
               "policy_serve: serving policy %s (%zu -> %zu) on %s:%u "
               "(batch-max %zu, queue-limit %zu, gemm %s)\n",
               server.config().policy_digest.c_str(), server.policy().in_dim(),
               server.policy().out_dim(), config.bind_address.c_str(),
               server.port(), config.batch_max, config.queue_limit,
               nn::gemm_backend_name(nn::active_gemm_backend()));
  if (args.has("port-file")) {
    // Atomic so a watcher never reads a half-written port number.
    if (!atomic_write_file(args.get("port-file", ""),
                           std::to_string(server.port()) + "\n")) {
      std::fprintf(stderr, "policy_serve: cannot write --port-file\n");
      server.stop();
      return 1;
    }
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  const std::int64_t status_every = args.get_int("status-every", 10);
  std::uint64_t last_decided = 0;
  std::int64_t slept_ms = 0;
  while (g_stop == 0) {
    struct timespec slice = {0, 100 * 1000 * 1000};
    nanosleep(&slice, nullptr);
    slept_ms += 100;
    if (status_every > 0 && slept_ms >= status_every * 1000) {
      slept_ms = 0;
      const serve::ServeCounters counters = server.counters();
      std::fprintf(stderr,
                   "policy_serve: decided %llu (+%llu), shed %llu, rejected %llu, "
                   "ticks %llu, connections accepted %llu\n",
                   static_cast<unsigned long long>(counters.decided),
                   static_cast<unsigned long long>(counters.decided - last_decided),
                   static_cast<unsigned long long>(counters.shed),
                   static_cast<unsigned long long>(counters.rejected),
                   static_cast<unsigned long long>(counters.ticks),
                   static_cast<unsigned long long>(counters.accepted));
      last_decided = counters.decided;
    }
  }

  std::fprintf(stderr, "policy_serve: shutting down\n");
  telemetry.stop();
  server.stop();
  return 0;
}
