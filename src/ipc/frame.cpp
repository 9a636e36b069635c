#include "ipc/frame.h"

#include <cstring>
#include <stdexcept>

#include "common/binio.h"
#include "common/metrics.h"

namespace edgeslice::ipc {

const char* frame_type_name(FrameType type) {
  switch (type) {
    case FrameType::Hello: return "hello";
    case FrameType::RunPeriod: return "run_period";
    case FrameType::Trace: return "trace";
    case FrameType::EnvState: return "env_state";
    case FrameType::Coordination: return "coordination";
    case FrameType::Ping: return "ping";
    case FrameType::Pong: return "pong";
    case FrameType::Restore: return "restore";
    case FrameType::Ack: return "ack";
    case FrameType::Shutdown: return "shutdown";
    case FrameType::TelemetrySnapshot: return "telemetry_snapshot";
    case FrameType::TelemetryEvents: return "telemetry_events";
    case FrameType::DecideRequest: return "decide_request";
    case FrameType::DecideResponse: return "decide_response";
    case FrameType::ServeStatus: return "serve_status";
  }
  return "unknown";
}

void put_frame_header(char* header, FrameType type, std::uint32_t ra, std::uint64_t seq,
                      const char* payload, std::size_t payload_size) {
  std::memcpy(header, kFrameMagic, 4);
  put_u32le(header + 4, kFrameFormatVersion);
  put_u32le(header + 8, static_cast<std::uint32_t>(type));
  put_u32le(header + 12, ra);
  put_u64le(header + 16, seq);
  put_u64le(header + 24, payload_size);
  put_u32le(header + 32, crc32(payload, payload_size));
  put_u32le(header + 36, crc32(header, 36));
}

std::string encode_frame(const Frame& frame) {
  std::string out(kFrameHeaderSize + frame.payload.size(), '\0');
  put_frame_header(out.data(), frame.type, frame.ra, frame.seq, frame.payload.data(),
                   frame.payload.size());
  std::memcpy(out.data() + kFrameHeaderSize, frame.payload.data(),
              frame.payload.size());
  return out;
}

void decode_frame_header(const char* bytes, Frame& out, std::uint64_t& payload_len) {
  if (std::memcmp(bytes, kFrameMagic, 4) != 0)
    throw std::runtime_error("ipc frame: bad magic");
  const std::uint32_t header_crc = get_u32le(bytes + 36);
  if (crc32(bytes, 36) != header_crc)
    throw std::runtime_error("ipc frame: header CRC mismatch");
  const std::uint32_t version = get_u32le(bytes + 4);
  if (version != kFrameFormatVersion)
    throw std::runtime_error("ipc frame: unsupported version " +
                             std::to_string(version));
  out.type = static_cast<FrameType>(get_u32le(bytes + 8));
  out.ra = get_u32le(bytes + 12);
  out.seq = get_u64le(bytes + 16);
  payload_len = get_u64le(bytes + 24);
  if (payload_len > kMaxFramePayload)
    throw std::runtime_error("ipc frame: absurd payload length " +
                             std::to_string(payload_len));
}

void verify_frame_payload(std::uint32_t expected_crc, const std::string& payload) {
  if (crc32(payload) != expected_crc)
    throw std::runtime_error("ipc frame: payload CRC mismatch");
}

std::vector<Frame> FrameAssembler::feed(const char* data, std::size_t size) {
  buffer_.append(data, size);
  std::vector<Frame> frames;
  // Frames are consumed through a read offset; the buffer is compacted
  // once, after the last whole frame, not once per frame.
  std::size_t head = 0;
  for (;;) {
    const std::size_t available = buffer_.size() - head;
    if (available < kFrameHeaderSize) break;
    const char* bytes = buffer_.data() + head;
    Frame frame;
    std::uint64_t payload_len = 0;
    decode_frame_header(bytes, frame, payload_len);  // throws
    if (available < kFrameHeaderSize + payload_len) break;
    frame.payload.assign(bytes + kFrameHeaderSize, static_cast<std::size_t>(payload_len));
    verify_frame_payload(get_u32le(bytes + 32), frame.payload);
    if (frame.seq != next_seq_) {
      throw std::runtime_error("ipc frame: seq break (expected " +
                               std::to_string(next_seq_) + ", got " +
                               std::to_string(frame.seq) + ")");
    }
    ++next_seq_;
    head += kFrameHeaderSize + static_cast<std::size_t>(payload_len);
    frames.push_back(std::move(frame));
  }
  buffer_.erase(0, head);
  return frames;
}

IoResult write_frame(int fd, const Frame& frame, const SendOptions& options) {
  const std::string bytes = encode_frame(frame);
  int retries = 0;
  const IoResult result = write_all(fd, bytes.data(), bytes.size(), options, &retries);
  // Workers run with metrics disabled (the registry mutex is not
  // fork-safe against the parent's observer threads); guard every touch.
  if (metrics_enabled()) {
    if (retries > 0) global_metrics().counter("ipc.send_retries").add(retries);
    if (result == IoResult::Ok) {
      global_metrics().counter("ipc.frames_sent").add();
      global_metrics().counter("ipc.bytes_sent").add(bytes.size());
    }
  }
  return result;
}

IoResult FrameReader::read(int fd, Frame& out, int deadline_ms) {
  const std::int64_t deadline = now_ms() + deadline_ms;
  char chunk[65536];
  while (ready_.empty()) {
    std::size_t got = 0;
    const IoResult io = read_some(fd, chunk, sizeof(chunk), deadline, got);
    if (io != IoResult::Ok) return io;
    for (Frame& frame : assembler_.feed(chunk, got)) ready_.push_back(std::move(frame));
  }
  out = std::move(ready_.front());
  ready_.pop_front();
  return IoResult::Ok;
}

}  // namespace edgeslice::ipc
