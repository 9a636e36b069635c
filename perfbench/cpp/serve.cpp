// serve_open_loop: an in-process serve::PolicyServer serving the city_drl
// actor to an open-loop Poisson client.
//
// One client thread (this one) holds 4 connections. Each repetition starts
// a server and connects (the set-up sample), then runs three rungs of
// 0.25 s each:
//   low      — 2000 req/s: the latency rung (decide p50 / p99);
//   mid      — 8000 req/s: the tail rung. The accepted sockets lack
//              TCP_NODELAY, so a response can wait for the client's
//              delayed ACK (40 ms); at this rate such stalls reliably make
//              up more than 0.1% of requests, so p99.9 reads that timer
//              run after run, where the low rung's tail flips with the
//              connections' ACK state;
//   overload — 32000 req/s, about the client/server pair's capacity, where
//              achieved decisions/s is read and the bounded queue sheds
//              any excess.
// Repetitions are short so a run pools the fresh connections of dozens of
// them. The arrival schedule and the observations of a rung are drawn up
// front from the seed; a request's latency runs from its *due* time, so a
// stall also charges the requests queued behind it. Requests still
// unanswered at the drain deadline count as lost.
#include <poll.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace_span.h"
#include "nn/mlp.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {

namespace es = edgeslice;

namespace {

constexpr std::size_t kStateDim = 16;   // the city RA state (8 slices, traffic in state)
constexpr std::size_t kActionDim = 24;  // 8 slices x 3 resources
constexpr std::size_t kConnections = 4;
constexpr std::size_t kBatchMax = 64;
constexpr std::size_t kQueueLimit = 256;
constexpr double kRungSeconds = 0.25;
constexpr double kLowRate = 2000.0;
constexpr double kMidRate = 8000.0;
constexpr double kOverloadRate = 32000.0;
constexpr double kDrainSeconds = 2.0;
/// A rung is invalid when its generator sends this late at p99 (low, mid)
/// or reaches less than this share of the offered rate (overload).
constexpr double kLateLimitMs = 1.0;
constexpr double kSendShareLimit = 0.9;

struct RungResult {
  std::size_t requests = 0;
  std::size_t sent = 0, decided = 0, shed = 0, rejected = 0, lost = 0;
  std::size_t mismatched = 0;
  std::vector<double> latency_s;  // decided requests, from due time
  std::vector<double> late_s;     // send time minus due time
  double send_s = 0.0;            // total time inside send_decide
  double wall_s = 0.0;            // first due to last answer
  double send_span_s = 0.0;       // first due to last send
  double queue_depth_max = 0.0;   // sampled serve.queue_depth gauge
};

/// Run one open-loop rung against `clients`, then check every decided
/// action against the network (outside the timed loop).
RungResult run_rung(std::vector<es::serve::ServeClient>& clients, const es::nn::Mlp& network,
                    double rate, double seconds, std::uint64_t seed, bool sample_queue) {
  RungResult rung;
  rung.requests = static_cast<std::size_t>(rate * seconds);
  es::Rng rng(seed);
  std::vector<double> due(rung.requests);
  double t = 0.0;
  for (double& at : due) {
    t += rng.exponential(rate);
    at = t;
  }
  std::vector<std::vector<double>> observations(rung.requests);
  for (auto& observation : observations) observation = rng.uniforms(kStateDim);
  std::vector<double> actions(rung.requests * kActionDim, 0.0);
  std::vector<char> decided(rung.requests, 0);
  rung.latency_s.reserve(rung.requests);
  rung.late_s.reserve(rung.requests);
  es::Gauge& queue_depth = es::global_metrics().gauge("serve.queue_depth");

  std::size_t next = 0;
  std::size_t answered = 0;
  double last_answer = 0.0;
  const auto start = Clock::now();
  const auto drain = [&](int wait_ms) {
    std::vector<pollfd> pfds;
    pfds.reserve(clients.size());
    for (const auto& client : clients) pfds.push_back({client.fd(), POLLIN, 0});
    if (::poll(pfds.data(), pfds.size(), wait_ms) <= 0) return;
    const double now = seconds_since(start);
    for (std::size_t i = 0; i < clients.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      for (es::serve::DecideResponsePayload& response : clients[i].poll_decisions(0)) {
        const std::size_t id = response.request_id;
        if (id >= rung.requests) throw std::runtime_error("serve: unknown request id");
        ++answered;
        last_answer = now;
        if (response.status == es::serve::kDecideOk) {
          ++rung.decided;
          rung.latency_s.push_back(now - due[id]);
          if (response.action.size() == kActionDim) {
            std::copy(response.action.begin(), response.action.end(),
                      actions.begin() + static_cast<std::ptrdiff_t>(id * kActionDim));
            decided[id] = 1;
          } else {
            ++rung.mismatched;
          }
        } else if (response.status == es::serve::kDecideShed) {
          ++rung.shed;
        } else {
          ++rung.rejected;
        }
      }
    }
  };

  double drain_deadline = -1.0;
  while (answered < rung.sent || next < rung.requests) {
    if (sample_queue) rung.queue_depth_max = std::max(rung.queue_depth_max, queue_depth.value());
    const double now = seconds_since(start);
    if (next < rung.requests && now >= due[next]) {
      const auto send_start = Clock::now();
      clients[next % clients.size()].send_decide(next, observations[next]);
      rung.send_s += seconds_since(send_start);
      rung.late_s.push_back(seconds_between(start, send_start) - due[next]);
      ++rung.sent;
      ++next;
      if (next == rung.requests) rung.send_span_s = seconds_since(start);
      continue;
    }
    if (next >= rung.requests) {
      if (drain_deadline < 0.0) drain_deadline = now + kDrainSeconds;
      if (now >= drain_deadline) break;
      drain(20);
      continue;
    }
    const double until = due[next] - now;
    drain(until > 0.001 ? static_cast<int>(until * 1000.0) : 0);
  }
  rung.wall_s = last_answer;
  rung.lost = rung.sent - answered;

  // Oracle (untimed): every decided action is the network's own answer.
  for (std::size_t id = 0; id < rung.requests; ++id) {
    if (!decided[id]) continue;
    const std::vector<double> expected = network.infer_vector(observations[id]);
    if (std::memcmp(expected.data(), actions.data() + id * kActionDim,
                    kActionDim * sizeof(double)) != 0) {
      ++rung.mismatched;
    }
  }
  return rung;
}

/// Server-side decision-latency quantile of the samples a histogram
/// gained between two snapshots of its state.
double histogram_delta_quantile(const es::HistogramState& before, const es::HistogramState& after,
                                double q) {
  es::HistogramState delta = after;
  delta.count = after.count - before.count;
  delta.zero_count = after.zero_count - before.zero_count;
  const auto subtract = [](auto& buckets, const auto& base) {
    for (auto& [bucket, count] : buckets) {
      for (const auto& [base_bucket, base_count] : base) {
        if (base_bucket == bucket) count -= base_count;
      }
    }
  };
  subtract(delta.positive, before.positive);
  subtract(delta.negative, before.negative);
  es::Histogram scratch;
  scratch.load_state(delta);
  return scratch.quantile(q);
}

struct Rep {
  double setup_s = 0.0;
  RungResult low, mid, overload;
  double server_p50_s = 0.0, server_p99_s = 0.0;
  std::uint64_t overload_ticks = 0;
  std::uint64_t overload_decided = 0;
  es::SpanStats tick;
};

/// One repetition; with `setup_only`, stop right after the set-up.
Rep run_rep(const es::nn::Mlp& network, std::uint64_t seed, bool probed, bool setup_only) {
  Rep rep;
  es::global_tracer().clear();
  auto& latency = es::global_metrics().histogram("serve.decision_seconds");

  const auto setup_start = Clock::now();
  es::serve::PolicyServerConfig config;
  config.batch_max = kBatchMax;
  config.queue_limit = kQueueLimit;
  es::serve::PolicyServer server(network, config);
  if (!server.start()) throw std::runtime_error("serve: cannot start the policy server");
  std::vector<es::serve::ServeClient> clients;
  for (std::size_t i = 0; i < kConnections; ++i) {
    clients.push_back(es::serve::ServeClient::connect("127.0.0.1", server.port()));
  }
  rep.setup_s = seconds_since(setup_start);
  if (setup_only) return rep;

  const es::HistogramState before_low = latency.state();
  rep.low = run_rung(clients, network, kLowRate, kRungSeconds, seed * 3 + 1, probed);
  const es::HistogramState after_low = latency.state();
  rep.server_p50_s = histogram_delta_quantile(before_low, after_low, 0.5);
  rep.server_p99_s = histogram_delta_quantile(before_low, after_low, 0.99);

  rep.mid = run_rung(clients, network, kMidRate, kRungSeconds, seed * 3 + 2, probed);

  const es::serve::ServeCounters before = server.counters();
  const es::SpanStats tick_before = es::global_tracer().overall("serve.tick");
  rep.overload =
      run_rung(clients, network, kOverloadRate, kRungSeconds, seed * 3 + 3, probed);
  const es::serve::ServeCounters after = server.counters();
  const es::SpanStats tick_after = es::global_tracer().overall("serve.tick");
  rep.overload_ticks = after.ticks - before.ticks;
  rep.overload_decided = after.decided - before.decided;
  rep.tick.count = tick_after.count - tick_before.count;
  rep.tick.total_s = tick_after.total_s - tick_before.total_s;

  clients.clear();
  server.stop();
  return rep;
}

}  // namespace

Record run_serve_open_loop(const RunOptions& options) {
  Record record;
  record.workload = "serve_open_loop";
  record.seed = options.seed;
  record.traced = options.traced;
  const es::nn::Mlp network = city_actor(options.seed, kStateDim, kActionDim);

  std::vector<double> setup_s, decisions_per_s, low_latency_ms, mid_latency_ms;
  std::vector<double> untraced_cost, traced_cost;
  std::vector<double> late_ms, server_p50_ms, server_p99_ms, client_p50_ms;
  std::size_t mismatched = 0, decided = 0, shed = 0;
  std::size_t invalid_rungs = 0;
  double send_s = 0.0, sends = 0.0, queue_depth_max = 0.0, shed_probed = 0.0;
  double tick_s = 0.0, ticks = 0.0, rows = 0.0;

  const auto window = Clock::now();
  double rep_cost = 0.0;
  for (std::size_t index = 0;; ++index) {
    const std::size_t min_reps = options.traced ? 2 : 1;
    if (index >= min_reps && seconds_since(window) + rep_cost > options.seconds) break;
    const auto rep_start = Clock::now();
    const bool probed = options.traced && index % 2 == 1;
    const Rep rep = run_rep(network, options.seed * 1000 + index, probed, false);
    for (const RungResult* rung : {&rep.low, &rep.mid, &rep.overload}) {
      record.attempted += rung->requests;
      mismatched += rung->mismatched;
      decided += rung->decided;
      // A request fails when it got no valid answer: unsent, lost or
      // rejected. A shed is the server's designed answer under load (a
      // fast 429), counted in failed_share and serve.shed instead.
      record.failed += (rung->requests - rung->sent) + rung->lost + rung->rejected;
      shed += rung->shed;
    }
    const double low_late_p99 = percentile_or_zero(rep.low.late_s, 99.0) * 1e3;
    const double mid_late_p99 = percentile_or_zero(rep.mid.late_s, 99.0) * 1e3;
    invalid_rungs += (low_late_p99 > kLateLimitMs) + (mid_late_p99 > kLateLimitMs);
    if (rep.overload.send_span_s > 0.0 &&
        static_cast<double>(rep.overload.sent) / rep.overload.send_span_s <
            kSendShareLimit * kOverloadRate) {
      ++invalid_rungs;
    }
    const double low_p50 = median(rep.low.latency_s);
    // Seconds per decision at overload: the probing cost shows here, where
    // the client's loop is busiest (low-rung latency flips regime anyway).
    const double decision_s =
        rep.overload.decided ? rep.overload.wall_s / static_cast<double>(rep.overload.decided)
                             : 0.0;
    if (probed) {
      traced_cost.push_back(decision_s);
      client_p50_ms.push_back(low_p50 * 1e3);
      late_ms.push_back(low_late_p99);
      server_p50_ms.push_back(rep.server_p50_s * 1e3);
      server_p99_ms.push_back(rep.server_p99_s * 1e3);
      send_s += rep.low.send_s + rep.mid.send_s + rep.overload.send_s;
      sends += static_cast<double>(rep.low.sent + rep.mid.sent + rep.overload.sent);
      queue_depth_max = std::max(queue_depth_max, rep.overload.queue_depth_max);
      shed_probed += static_cast<double>(rep.overload.shed);
      tick_s += rep.tick.total_s;
      ticks += static_cast<double>(rep.tick.count);
      rows += static_cast<double>(rep.overload_decided);
    } else {
      setup_s.push_back(rep.setup_s);
      if (decision_s > 0.0) decisions_per_s.push_back(1.0 / decision_s);
      for (double s : rep.low.latency_s) low_latency_ms.push_back(s * 1e3);
      for (double s : rep.mid.latency_s) mid_latency_ms.push_back(s * 1e3);
      untraced_cost.push_back(decision_s);
    }
    std::fprintf(stderr,
                 "[perfbench] serve_open_loop rep %zu%s: setup %.3f ms, low p50 %.3f ms "
                 "p99 %.3f ms, mid p99 %.3f ms, overload %.0f decisions/s\n",
                 index, probed ? " (probed)" : "", rep.setup_s * 1e3, low_p50 * 1e3,
                 percentile_or_zero(rep.low.latency_s, 99.0) * 1e3,
                 percentile_or_zero(rep.mid.latency_s, 99.0) * 1e3,
                 decision_s > 0.0 ? 1.0 / decision_s : 0.0);
    rep_cost = std::max(rep_cost, seconds_since(rep_start));
  }
  record.run_seconds = seconds_since(window);
  while (setup_s.size() < kMinSetupSamples) {
    setup_s.push_back(run_rep(network, options.seed, false, true).setup_s);
  }
  record.oracle("served_actions_bit_identical", mismatched == 0 && decided > 0,
                std::to_string(decided) + " decided actions vs Mlp::infer_vector, " +
                    std::to_string(mismatched) + " differ");

  const double p50 = median(low_latency_ms);
  const double p99 = percentile_or_zero(low_latency_ms, 99.0);
  const double p999 = percentile_or_zero(low_latency_ms, 99.9);
  const double mid_p999 = percentile_or_zero(mid_latency_ms, 99.9);
  const double capacity = median(decisions_per_s);
  const double setup = median(setup_s);
  const auto samples_at = [](const std::vector<double>& latencies, double rate) {
    return std::to_string(latencies.size()) + " requests at " +
           std::to_string(static_cast<int>(rate)) + " req/s";
  };
  const std::string samples = samples_at(low_latency_ms, kLowRate);
  const std::string mid_samples = samples_at(mid_latency_ms, kMidRate);
  record.end_to_end = {
      {"setup_s", setup, "s", "median server start + 4 connects"},
      {"throughput_per_s", capacity, "1/s",
       "decisions_per_s at the overload rung, median over repetitions"},
      {"peak_rss_mb", peak_rss_mb(), "MiB", "this process (client and server)"},
  };
  const double attempted = static_cast<double>(record.attempted);
  record.named = {
      {"decide_p50_ms", p50, "ms", samples},
      {"decide_p99_ms", p99, "ms", samples},
      {"decide_p999_ms", p999, "ms", samples},
      {"mid_p50_ms", median(mid_latency_ms), "ms", mid_samples},
      {"mid_p99_ms", percentile_or_zero(mid_latency_ms, 99.0), "ms", mid_samples},
      {"mid_p999_ms", mid_p999, "ms", mid_samples},
      {"decisions_per_s", capacity, "1/s",
       std::to_string(static_cast<int>(kOverloadRate)) + " req/s offered"},
      {"setup_s", setup, "s", ""},
      {"failed_share", (static_cast<double>(record.failed + shed)) / attempted, "ratio",
       "shed + rejected + lost (+ unsent) / attempted, all rungs"},
      {"shed_share", static_cast<double>(shed) / attempted, "ratio",
       "429 answers / attempted, all rungs"},
      {"invalid_rungs", static_cast<double>(invalid_rungs), "count",
       "low, mid: send lateness p99 > 1 ms; overload: < 90% of the offered rate sent"},
      {"peak_rss_mb", peak_rss_mb(), "MiB", ""},
  };

  if (options.traced) {
    std::vector<Metric> sheet = per_layer_sheet();
    const double server_p50 = median(server_p50_ms);
    set_layer(sheet, "serve.server_p50_ms", server_p50,
              "serve.decision_seconds (enqueue to answer), low rung");
    set_layer(sheet, "serve.server_p99_ms", median(server_p99_ms),
              "serve.decision_seconds, low rung");
    set_layer(sheet, "serve.outside_p50_ms", median(client_p50_ms) - server_p50,
              "client p50 minus server p50, low rung");
    set_layer(sheet, "serve.tick_ms", ticks > 0.0 ? tick_s / ticks * 1e3 : 0.0,
              "serve.tick span, overload rung");
    set_layer(sheet, "serve.batch_rows_mean", ticks > 0.0 ? rows / ticks : 0.0,
              "decided / ticks, overload rung");
    set_layer(sheet, "serve.queue_depth_max", queue_depth_max,
              "serve.queue_depth gauge sampled by the client, overload rung");
    set_layer(sheet, "serve.shed", shed_probed / static_cast<double>(traced_cost.size()),
              "per repetition, overload rung");
    set_layer(sheet, "loadgen.late_p99_ms", median(late_ms), "send time minus due time, low rung");
    set_layer(sheet, "loadgen.send_us", sends > 0.0 ? send_s / sends * 1e6 : 0.0,
              "time inside send_decide, per request");
    set_layer(sheet, "trace_overhead_share", overhead_share(traced_cost, untraced_cost),
              "time per decision at overload, probed vs unprobed repetitions");
    record.per_layer = std::move(sheet);
  }
  return record;
}

}  // namespace perfbench
