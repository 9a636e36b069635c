// ESFR wire-frame codec and deadline-bounded fd I/O (ctest label: ipc).
//
// The contract under test (FORMATS.md "ESFR wire frame"): both CRC
// levels and strict seq monotonicity are enforced before a frame is
// surfaced, corruption tears the connection down instead of being parsed
// past, and the fd helpers survive partial transfers, full socket
// buffers (bounded backoff, then a Deadline verdict) and dead peers
// (Closed, never SIGPIPE).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <functional>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "common/binio.h"
#include "ipc/event_loop.h"
#include "ipc/frame.h"
#include "ipc/wire.h"

namespace edgeslice::ipc {
namespace {

Frame make_frame(FrameType type, std::uint64_t seq, std::string payload,
                 std::uint32_t ra = kConnectionScope) {
  Frame frame;
  frame.type = type;
  frame.ra = ra;
  frame.seq = seq;
  frame.payload = std::move(payload);
  return frame;
}

/// A connected socketpair that closes whatever the test leaves open.
struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
  void close_reader() {
    ::close(fds[1]);
    fds[1] = -1;
  }
};

// ---- codec ----------------------------------------------------------------

TEST(FrameCodec, RoundTripPreservesEveryField) {
  const Frame sent = make_frame(FrameType::Trace, 7, "trace payload bytes", 3);
  const std::string bytes = encode_frame(sent);
  ASSERT_EQ(bytes.size(), kFrameHeaderSize + sent.payload.size());

  Frame got;
  std::uint64_t payload_len = 0;
  decode_frame_header(bytes.data(), got, payload_len);
  EXPECT_EQ(got.type, FrameType::Trace);
  EXPECT_EQ(got.ra, 3u);
  EXPECT_EQ(got.seq, 7u);
  EXPECT_EQ(payload_len, sent.payload.size());
  // Payload CRC travels in the header; the body verifies against it.
  const std::string body = bytes.substr(kFrameHeaderSize);
  EXPECT_NO_THROW(verify_frame_payload(crc32(sent.payload), body));
}

TEST(FrameCodec, EncodeMatchesGoldenBytes) {
  // Produced by the byte-at-a-time CRC-32 encoder of wire format v3 with
  // the version field set to 4 and the header CRC recomputed by that
  // encoder; python's zlib.crc32 agrees (payload 0xe51f5ff0, header
  // 0x5545d631). The 77-byte payload covers nine eight-byte blocks and a
  // five-byte tail of the CRC kernel.
  std::string payload;
  for (int i = 0; i < 77; ++i) payload.push_back(static_cast<char>((i * 37 + 11) & 0xff));
  const Frame frame = make_frame(FrameType::EnvState, 0x0102030405060708ull, payload, 3);
  const unsigned char golden[] = {
      0x45, 0x53, 0x46, 0x52, 0x04, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
      0x03, 0x00, 0x00, 0x00, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
      0x4d, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x5f, 0x1f, 0xe5,
      0x31, 0xd6, 0x45, 0x55, 0x0b, 0x30, 0x55, 0x7a, 0x9f, 0xc4, 0xe9, 0x0e,
      0x33, 0x58, 0x7d, 0xa2, 0xc7, 0xec, 0x11, 0x36, 0x5b, 0x80, 0xa5, 0xca,
      0xef, 0x14, 0x39, 0x5e, 0x83, 0xa8, 0xcd, 0xf2, 0x17, 0x3c, 0x61, 0x86,
      0xab, 0xd0, 0xf5, 0x1a, 0x3f, 0x64, 0x89, 0xae, 0xd3, 0xf8, 0x1d, 0x42,
      0x67, 0x8c, 0xb1, 0xd6, 0xfb, 0x20, 0x45, 0x6a, 0x8f, 0xb4, 0xd9, 0xfe,
      0x23, 0x48, 0x6d, 0x92, 0xb7, 0xdc, 0x01, 0x26, 0x4b, 0x70, 0x95, 0xba,
      0xdf, 0x04, 0x29, 0x4e, 0x73, 0x98, 0xbd, 0xe2, 0x07,
  };
  EXPECT_EQ(encode_frame(frame),
            std::string(reinterpret_cast<const char*>(golden), sizeof(golden)));
}

TEST(FrameCodec, EmptyPayloadRoundTrips) {
  const std::string bytes = encode_frame(make_frame(FrameType::Ping, 0, ""));
  ASSERT_EQ(bytes.size(), kFrameHeaderSize);
  Frame got;
  std::uint64_t payload_len = 1;
  decode_frame_header(bytes.data(), got, payload_len);
  EXPECT_EQ(payload_len, 0u);
}

TEST(FrameCodec, HeaderCorruptionIsDetected) {
  const std::string clean = encode_frame(make_frame(FrameType::Hello, 0, "x"));
  // Every header byte is covered by either the magic check or header_crc.
  for (std::size_t i = 0; i < kFrameHeaderSize; ++i) {
    std::string bytes = clean;
    bytes[i] = static_cast<char>(bytes[i] ^ 0x40);
    Frame got;
    std::uint64_t payload_len = 0;
    EXPECT_THROW(decode_frame_header(bytes.data(), got, payload_len),
                 std::runtime_error)
        << "flip at offset " << i;
  }
}

TEST(FrameCodec, PayloadCorruptionIsDetected) {
  const std::string payload = "the payload under protection";
  std::string tampered = payload;
  tampered[5] = static_cast<char>(tampered[5] ^ 1);
  EXPECT_THROW(verify_frame_payload(crc32(payload), tampered), std::runtime_error);
  EXPECT_NO_THROW(verify_frame_payload(crc32(payload), payload));
}

TEST(FrameCodec, HostilePayloadLengthIsRejectedBeforeAllocation) {
  // Craft a header that passes both magic and CRC but declares an absurd
  // payload length: patch the length field, then recompute header_crc the
  // way a hostile (or differently-versioned) peer could.
  std::string bytes = encode_frame(make_frame(FrameType::Ping, 0, ""));
  const std::uint64_t huge = kMaxFramePayload + 1;
  std::memcpy(&bytes[24], &huge, sizeof(huge));  // payload_len, little-endian host
  const std::uint32_t header_crc = crc32(bytes.data(), 36);
  std::memcpy(&bytes[36], &header_crc, sizeof(header_crc));
  Frame got;
  std::uint64_t payload_len = 0;
  EXPECT_THROW(decode_frame_header(bytes.data(), got, payload_len),
               std::runtime_error);
}

// ---- assembler ------------------------------------------------------------

TEST(FrameAssembler, ReassemblesByteByByteDelivery) {
  const Frame first = make_frame(FrameType::RunPeriod, 0, "first body", 1);
  const Frame second = make_frame(FrameType::Coordination, 1, "", 2);
  const std::string stream = encode_frame(first) + encode_frame(second);

  FrameAssembler assembler;
  std::vector<Frame> out;
  for (char byte : stream) {
    for (Frame& frame : assembler.feed(&byte, 1)) out.push_back(std::move(frame));
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].type, FrameType::RunPeriod);
  EXPECT_EQ(out[0].payload, "first body");
  EXPECT_EQ(out[1].type, FrameType::Coordination);
  EXPECT_EQ(out[1].seq, 1u);
  EXPECT_EQ(assembler.pending_bytes(), 0u);
}

TEST(FrameAssembler, SequenceBreakTearsTheConnectionDown) {
  FrameAssembler assembler;
  const std::string ok = encode_frame(make_frame(FrameType::Ping, 0, ""));
  EXPECT_EQ(assembler.feed(ok.data(), ok.size()).size(), 1u);
  // seq 2 after seq 0: a frame was lost; parsing past it would desync
  // every later payload boundary.
  const std::string skipped = encode_frame(make_frame(FrameType::Ping, 2, ""));
  EXPECT_THROW(assembler.feed(skipped.data(), skipped.size()), std::runtime_error);
}

TEST(FrameAssembler, CorruptBytesMidStreamThrow) {
  FrameAssembler assembler;
  std::string bytes = encode_frame(make_frame(FrameType::Ping, 0, "abc"));
  bytes[kFrameHeaderSize + 1] ^= 0x10;  // payload flip
  EXPECT_THROW(assembler.feed(bytes.data(), bytes.size()), std::runtime_error);
}

// ---- fd I/O ---------------------------------------------------------------

TEST(FrameIo, SocketRoundTrip) {
  SocketPair pair;
  const Frame sent = make_frame(FrameType::EnvState, 0, std::string(100000, 'e'), 9);
  ASSERT_EQ(write_frame(pair.fds[0], sent), IoResult::Ok);
  FrameReader reader;
  Frame got;
  ASSERT_EQ(reader.read(pair.fds[1], got, 2000), IoResult::Ok);
  EXPECT_EQ(got.type, sent.type);
  EXPECT_EQ(got.ra, sent.ra);
  EXPECT_EQ(got.seq, sent.seq);
  EXPECT_EQ(got.payload, sent.payload);
}

TEST(FrameIo, ReadDeadlineOnSilentPeer) {
  SocketPair pair;
  FrameReader reader;
  Frame got;
  EXPECT_EQ(reader.read(pair.fds[1], got, 50), IoResult::Deadline);
}

TEST(FrameIo, ReadClosedOnEof) {
  SocketPair pair;
  ::close(pair.fds[0]);
  pair.fds[0] = -1;
  FrameReader reader;
  Frame got;
  EXPECT_EQ(reader.read(pair.fds[1], got, 1000), IoResult::Closed);
}

TEST(FrameIo, TruncatedFrameSurfacesAsClosed) {
  SocketPair pair;
  const std::string bytes =
      encode_frame(make_frame(FrameType::Restore, 0, "half of this never arrives"));
  // Header + a sliver of payload, then the peer dies.
  ASSERT_EQ(::write(pair.fds[0], bytes.data(), kFrameHeaderSize + 4),
            static_cast<ssize_t>(kFrameHeaderSize + 4));
  ::close(pair.fds[0]);
  pair.fds[0] = -1;
  FrameReader reader;
  Frame got;
  EXPECT_EQ(reader.read(pair.fds[1], got, 1000), IoResult::Closed);
}

TEST(FrameIo, ReadAfterMidFrameDeadlineResumesTheFrame) {
  SocketPair pair;
  const Frame sent = make_frame(FrameType::Restore, 0, "the rest arrives late");
  const std::string bytes = encode_frame(sent);
  // Header + a sliver of payload, then the peer stalls past the deadline.
  const std::size_t first = kFrameHeaderSize + 4;
  ASSERT_EQ(::write(pair.fds[0], bytes.data(), first), static_cast<ssize_t>(first));
  FrameReader reader;
  Frame got;
  ASSERT_EQ(reader.read(pair.fds[1], got, 50), IoResult::Deadline);
  // The buffered bytes are kept: the retry reads the whole frame instead
  // of parsing payload bytes as a header.
  ASSERT_EQ(::write(pair.fds[0], bytes.data() + first, bytes.size() - first),
            static_cast<ssize_t>(bytes.size() - first));
  ASSERT_EQ(reader.read(pair.fds[1], got, 2000), IoResult::Ok);
  EXPECT_EQ(got.type, sent.type);
  EXPECT_EQ(got.seq, sent.seq);
  EXPECT_EQ(got.payload, sent.payload);
}

TEST(FrameIo, WriteBacksOffThenReportsDeadlineWhenPeerNeverDrains) {
  SocketPair pair;
  const int small = 4096;
  ASSERT_EQ(::setsockopt(pair.fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small)), 0);
  // Non-blocking, as the supervisor's sockets are: a full buffer must
  // surface as EAGAIN + backoff, not a blocked send().
  ASSERT_EQ(::fcntl(pair.fds[0], F_SETFL,
                    ::fcntl(pair.fds[0], F_GETFL, 0) | O_NONBLOCK), 0);
  SendOptions options;
  options.deadline_ms = 200;
  options.max_attempts = 3;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 8;
  // Nobody reads fds[1]: the buffers fill, the send path polls with
  // bounded backoff, and the verdict is Deadline — not a hang, not a
  // partial silent success.
  const Frame big = make_frame(FrameType::EnvState, 0, std::string(1 << 20, 'b'));
  IoResult last = IoResult::Ok;
  for (std::uint64_t seq = 0; seq < 64 && last == IoResult::Ok; ++seq) {
    Frame frame = big;
    frame.seq = seq;
    last = write_frame(pair.fds[0], frame, options);
  }
  EXPECT_EQ(last, IoResult::Deadline);
}

TEST(FrameIo, WriteToDeadPeerIsClosedNotSigpipe) {
  SocketPair pair;
  pair.close_reader();
  // Two writes: the first may succeed into the kernel buffer of a
  // half-dead socket; the second must observe EPIPE. Either way the
  // process must survive (MSG_NOSIGNAL) — the test failing by signal IS
  // the regression.
  const Frame frame = make_frame(FrameType::Ping, 0, std::string(1 << 16, 'p'));
  IoResult result = write_frame(pair.fds[0], frame);
  if (result == IoResult::Ok) {
    Frame second = frame;
    second.seq = 1;
    result = write_frame(pair.fds[0], second);
  }
  EXPECT_EQ(result, IoResult::Closed);
}

TEST(PollLoop, AcceptedConnectionsDisableNagle) {
  // A non-blocking loopback listener on an ephemeral port, as the serve
  // daemon registers it.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 4), 0);
  ASSERT_EQ(::fcntl(listener, F_SETFL, ::fcntl(listener, F_GETFL, 0) | O_NONBLOCK), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &addr_len), 0);

  const int client = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);
  ASSERT_EQ(::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  PollLoop loop;
  int nodelay = -1;
  loop.add_listener(listener, [&](int fd) {
    socklen_t len = sizeof(nodelay);
    if (::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len) != 0) nodelay = -2;
    ::close(fd);
  });
  EXPECT_TRUE(loop.run_until([&] { return nodelay != -1; }, 2000));
  EXPECT_EQ(nodelay, 1);
  ::close(client);
  ::close(listener);
}

// ---- payload codecs -------------------------------------------------------

TEST(WireCodec, RunPeriodDirectivesRoundTrip) {
  RunPeriodPayload payload;
  payload.period = 12;
  payload.ras = {1, 3};
  core::RaPeriodDirective run;
  run.run = true;
  run.has_derate = true;
  run.derate = {0.5, 1.0, 0.25};
  core::RaPeriodDirective skip;
  skip.run = false;
  skip.stall_ms = 40;
  skip.abort_run = true;
  payload.directives = {run, skip};

  const RunPeriodPayload got = decode_run_period(encode_run_period(payload));
  EXPECT_EQ(got.period, 12u);
  EXPECT_EQ(got.ras, payload.ras);
  ASSERT_EQ(got.directives.size(), 2u);
  EXPECT_TRUE(got.directives[0].run);
  EXPECT_TRUE(got.directives[0].has_derate);
  EXPECT_EQ(got.directives[0].derate, run.derate);
  EXPECT_FALSE(got.directives[1].run);
  EXPECT_EQ(got.directives[1].stall_ms, 40u);
  EXPECT_TRUE(got.directives[1].abort_run);
  // The supervisor-side physical action never crosses the wire.
  EXPECT_EQ(got.directives[1].fault, ProcessFaultKind::None);
}

TEST(WireCodec, TraceRoundTripIsExact) {
  TracePayload payload;
  payload.period = 3;
  payload.trace.ran = true;
  env::StepResult step;
  step.state = {0.125, -2.5};
  step.next_state = {1.0, 3.0};
  step.reward = -17.25;
  step.performance = {-8.5, -0.25};
  step.queue_lengths = {4.0, 0.0};
  step.service_rates = {2.5, 3.5};
  step.constraint_violation = 0.75;
  payload.trace.steps = {step};
  payload.trace.actions = {{0.1, 0.9, 0.4}};

  const TracePayload got = decode_trace(encode_trace(payload));
  EXPECT_EQ(got.period, 3u);
  ASSERT_TRUE(got.trace.ran);
  ASSERT_EQ(got.trace.steps.size(), 1u);
  // Doubles as bit patterns: equality must be exact, not approximate.
  EXPECT_EQ(got.trace.steps[0].state, step.state);
  EXPECT_EQ(got.trace.steps[0].next_state, step.next_state);
  EXPECT_EQ(got.trace.steps[0].reward, step.reward);
  EXPECT_EQ(got.trace.steps[0].performance, step.performance);
  EXPECT_EQ(got.trace.steps[0].queue_lengths, step.queue_lengths);
  EXPECT_EQ(got.trace.steps[0].service_rates, step.service_rates);
  EXPECT_EQ(got.trace.steps[0].constraint_violation, step.constraint_violation);
  EXPECT_EQ(got.trace.actions, payload.trace.actions);
}

TEST(WireCodec, HelloAndCoordinationRoundTrip) {
  HelloPayload hello;
  hello.worker_index = 2;
  hello.hosted_ras = {2, 5, 8};
  const HelloPayload hello_got = decode_hello(encode_hello(hello));
  EXPECT_EQ(hello_got.worker_index, 2u);
  EXPECT_EQ(hello_got.hosted_ras, hello.hosted_ras);

  CoordinationPayload coordination;
  coordination.period = 9;
  coordination.z_minus_y = {-0.5, 0.0, 12.25};
  const CoordinationPayload coordination_got =
      decode_coordination(encode_coordination(coordination));
  EXPECT_EQ(coordination_got.period, 9u);
  EXPECT_EQ(coordination_got.z_minus_y, coordination.z_minus_y);

  EXPECT_EQ(decode_u64(encode_u64(0xDEADBEEFull), "test"), 0xDEADBEEFull);
  EXPECT_THROW(decode_u64("abc", "test"), std::runtime_error);
}

TEST(WireCodec, TruncatedPayloadsThrowInsteadOfMisparse) {
  RunPeriodPayload payload;
  payload.period = 1;
  payload.ras = {0};
  payload.directives = {core::RaPeriodDirective{}};
  const std::string bytes = encode_run_period(payload);
  EXPECT_THROW(decode_run_period(bytes.substr(0, bytes.size() / 2)),
               std::runtime_error);
  const std::string hello = encode_hello(HelloPayload{1, {1, 2}});
  EXPECT_THROW(decode_hello(hello.substr(0, hello.size() - 1)), std::runtime_error);
}

TEST(WireCodec, TelemetrySnapshotRoundTripIsExact) {
  TelemetrySnapshotPayload payload;
  payload.period = 41;
  payload.metrics.counters = {{"worker.periods", 7}, {"worker.intervals{worker=\"1\"}", 70}};
  payload.metrics.gauges = {{"system.crashed_ras", 0.0}, {"bus.in_flight", -1.0 / 3.0}};
  HistogramState state;
  state.count = 3;
  state.mean = 0.1;
  state.m2 = 1e-9;
  state.min = 0.03125;
  state.max = 0.2;
  state.total = 0.3;
  state.zero_count = 1;
  state.positive = {{4, 1}, {9, 2}};
  state.negative = {{2, 5}};
  payload.metrics.histograms = {{"worker.ra_period_seconds", state}};
  SpanPeriodStats span;
  span.path = "worker.ra_period";
  span.period = 40;
  span.stats = {3, 0.75, 0.125, 0.5};
  payload.spans = {span};

  const TelemetrySnapshotPayload got =
      decode_telemetry_snapshot(encode_telemetry_snapshot(payload));
  EXPECT_EQ(got.period, 41u);
  EXPECT_EQ(got.metrics.counters, payload.metrics.counters);
  EXPECT_EQ(got.metrics.gauges, payload.metrics.gauges);
  ASSERT_EQ(got.metrics.histograms.size(), 1u);
  EXPECT_EQ(got.metrics.histograms[0].first, "worker.ra_period_seconds");
  const HistogramState& h = got.metrics.histograms[0].second;
  EXPECT_EQ(h.count, state.count);
  EXPECT_EQ(h.mean, state.mean);
  EXPECT_EQ(h.m2, state.m2);
  EXPECT_EQ(h.min, state.min);
  EXPECT_EQ(h.max, state.max);
  EXPECT_EQ(h.total, state.total);
  EXPECT_EQ(h.zero_count, state.zero_count);
  EXPECT_EQ(h.positive, state.positive);
  EXPECT_EQ(h.negative, state.negative);
  ASSERT_EQ(got.spans.size(), 1u);
  EXPECT_EQ(got.spans[0].path, span.path);
  EXPECT_EQ(got.spans[0].period, span.period);
  EXPECT_EQ(got.spans[0].stats.count, span.stats.count);
  EXPECT_EQ(got.spans[0].stats.total_s, span.stats.total_s);
  EXPECT_EQ(got.spans[0].stats.min_s, span.stats.min_s);
  EXPECT_EQ(got.spans[0].stats.max_s, span.stats.max_s);
}

TEST(WireCodec, TelemetryEventsRoundTripAndCrashFlushFrameMatch) {
  TelemetryEventsPayload payload;
  obs::Event first;
  first.seq = 11;
  first.ts_s = 123456.789012345;
  first.period = 3;
  first.ra = 2;
  first.kind = obs::EventKind::CheckpointSaved;
  first.value = 1234567.0;
  obs::Event second;
  second.seq = 12;
  second.ts_s = 0.1;
  second.interval = 9;
  second.slice = 1;
  second.worker = 4;
  second.kind = obs::EventKind::TelemetryGap;
  second.value = -0.5;
  payload.events = {first, second};

  const std::string bytes = encode_telemetry_events(payload);
  const TelemetryEventsPayload got = decode_telemetry_events(bytes);
  ASSERT_EQ(got.events.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const obs::Event& a = payload.events[i];
    const obs::Event& b = got.events[i];
    EXPECT_EQ(b.seq, a.seq);
    EXPECT_EQ(b.ts_s, a.ts_s);
    EXPECT_EQ(b.period, a.period);
    EXPECT_EQ(b.interval, a.interval);
    EXPECT_EQ(b.ra, a.ra);
    EXPECT_EQ(b.slice, a.slice);
    EXPECT_EQ(b.worker, a.worker);
    EXPECT_EQ(b.kind, a.kind);
    EXPECT_EQ(b.value, a.value);
  }

  // The crash-flush encoder writes the same payload inside a complete
  // frame, byte for byte what encode_frame makes of the normal payload.
  char buf[1024];
  const std::size_t total =
      encode_telemetry_events_frame(buf, sizeof(buf), 17, payload.events.data(), 2);
  EXPECT_EQ(std::string(buf, total),
            encode_frame(make_frame(FrameType::TelemetryEvents, 17, bytes)));
  EXPECT_EQ(encode_telemetry_events_frame(buf, total - 1, 17, payload.events.data(), 2),
            0u);
}

/// Runs `decode` and expects the count check's runtime_error (not a
/// bad_alloc from reserving, nor a truncation error past the count).
void expect_count_rejected(const std::function<void()>& decode) {
  try {
    decode();
    ADD_FAILURE() << "oversized count accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("exceeds the payload"), std::string::npos)
        << error.what();
  }
}

TEST(WireCodec, OversizedCountsThrowBeforeAllocating) {
  // Each payload is well-formed up to one element count, which claims
  // 2^40 elements while only a few bytes follow: every decoder must
  // refuse it with a runtime_error instead of reserving for it.
  using Prefix = std::function<void(std::ostream&)>;
  const auto hostile = [](const Prefix& prefix) {
    std::ostringstream out;
    prefix(out);
    write_u64(out, std::uint64_t{1} << 40);
    out << std::string(16, '\0');
    return out.str();
  };
  const auto u64s = [](std::initializer_list<std::uint64_t> values) -> Prefix {
    return [values](std::ostream& out) {
      for (std::uint64_t v : values) write_u64(out, v);
    };
  };
  const Prefix trace_steps = [](std::ostream& out) {
    write_u64(out, 0);  // period
    write_u8(out, 1);   // ran
  };
  const Prefix trace_actions = [&](std::ostream& out) {
    trace_steps(out);
    write_u64(out, 0);  // no steps
  };
  // Snapshot with no counters or gauges and one histogram "h", up to its
  // positive bucket count.
  const Prefix positive_buckets = [](std::ostream& out) {
    for (std::uint64_t v : {0, 0, 0, 1}) write_u64(out, v);
    write_string(out, "h");
    write_u64(out, 1);                                // count
    for (int i = 0; i < 5; ++i) write_f64(out, 0.0);  // mean m2 min max total
    write_u64(out, 0);                                // zero_count
  };
  const Prefix negative_buckets = [&](std::ostream& out) {
    positive_buckets(out);
    write_u64(out, 0);  // no positive buckets
  };

  expect_count_rejected([&] { decode_hello(hostile(u64s({0}))); });
  expect_count_rejected([&] { decode_run_period(hostile(u64s({0, 1}))); });
  expect_count_rejected([&] { decode_trace(hostile(trace_steps)); });
  expect_count_rejected([&] { decode_trace(hostile(trace_actions)); });
  expect_count_rejected([&] { decode_telemetry_snapshot(hostile(u64s({0}))); });
  expect_count_rejected([&] { decode_telemetry_snapshot(hostile(u64s({0, 0}))); });
  expect_count_rejected([&] { decode_telemetry_snapshot(hostile(u64s({0, 0, 0}))); });
  expect_count_rejected([&] { decode_telemetry_snapshot(hostile(positive_buckets)); });
  expect_count_rejected([&] { decode_telemetry_snapshot(hostile(negative_buckets)); });
  expect_count_rejected([&] { decode_telemetry_snapshot(hostile(u64s({0, 0, 0, 0}))); });
  expect_count_rejected([&] { decode_telemetry_events(hostile(u64s({}))); });
}

}  // namespace
}  // namespace edgeslice::ipc
