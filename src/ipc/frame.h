// The ESFR wire frame — the unit of coordinator <-> worker traffic
// (FORMATS.md "ESFR wire frame").
//
// Layout (all integers little-endian, like every on-disk format here):
//
//   offset size field
//   0      4    magic 'E' 'S' 'F' 'R'
//   4      4    u32 version (kFrameFormatVersion)
//   8      4    u32 type (FrameType)
//   12     4    u32 ra (RA index the frame addresses; kConnectionScope
//               for connection-scoped frames)
//   16     8    u64 seq (per-connection send counter, 0, 1, 2, ...)
//   24     8    u64 payload_len
//   32     4    u32 payload_crc (CRC-32 of the payload bytes)
//   36     4    u32 header_crc (CRC-32 of bytes [0, 36))
//   40     -    payload
//
// Payloads are either empty, small binio-serialized structures (wire.h),
// or existing ESCK section blobs verbatim (an EnvState payload's body IS
// an Environment section payload — FORMATS.md cross-links the field
// tables instead of duplicating them). Both CRCs must verify and seq must
// be exactly the previous frame's seq + 1; any violation means the
// channel is corrupt and the connection is torn down, never parsed past.
//
// Frame I/O rides the shared socket layer (socket.h): write_frame is its
// one write loop, with bounded exponential backoff while the socket
// buffer is full (a stalled peer surfaces as a Deadline verdict, not a
// blocked control plane), and FrameReader is its one deadline-bounded
// read feeding the one decoder, FrameAssembler.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "ipc/socket.h"

namespace edgeslice::ipc {

inline constexpr char kFrameMagic[4] = {'E', 'S', 'F', 'R'};

/// Wire frame format version. Bump on ANY change to the header layout or
/// a frame payload, and update FORMATS.md in the same commit (the
/// docs-check test cross-checks the two).
inline constexpr std::uint32_t kFrameFormatVersion = 4;

inline constexpr std::size_t kFrameHeaderSize = 40;

/// `ra` value for frames that address the connection, not one RA.
inline constexpr std::uint32_t kConnectionScope = 0xFFFFFFFFu;

/// Hostile-peer cap, checked before any allocation.
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 28;  // 256 MiB

/// Frame types. Codes are part of the wire format: never renumber, only
/// append.
enum class FrameType : std::uint32_t {
  Hello = 1,       // worker -> sup on start: u64 worker index, u64 hosted RA count
  RunPeriod = 2,   // sup -> worker: period directives for its hosted RAs
  Trace = 3,       // worker -> sup: one RA's per-interval steps + actions
  EnvState = 4,    // worker -> sup: one RA's environment blob (ESCK payload)
  Coordination = 5,  // sup -> worker: RC-L z - y vector for one RA
  Ping = 6,        // either direction: u64 nonce
  Pong = 7,        // reply: the same nonce
  // Code 8 is reserved: the Snapshot request, retired in v4 (checkpoints
  // are built from the supervisor's cached EnvState blobs).
  Restore = 9,     // sup -> worker: load this blob into one RA's environment
  Ack = 10,        // worker -> sup: Restore applied (u64 code, 0 = ok)
  Shutdown = 11,   // sup -> worker: exit cleanly
  TelemetrySnapshot = 12,  // worker -> sup: cumulative metrics + span deltas
  TelemetryEvents = 13,    // worker -> sup: drained flight-recorder events
  // Policy-serving plane (src/serve/): the same envelope carries
  // allocation-decision traffic between policy-serve and its clients.
  DecideRequest = 14,   // client -> serve: u64 request_id + observation vector
  DecideResponse = 15,  // serve -> client: u64 request_id + u32 status + action
  ServeStatus = 16,     // client -> serve: empty request; reply carries stats
};

const char* frame_type_name(FrameType type);

struct Frame {
  FrameType type = FrameType::Ping;
  std::uint32_t ra = kConnectionScope;
  std::uint64_t seq = 0;
  std::string payload;
};

/// Encode header + payload into one contiguous buffer.
std::string encode_frame(const Frame& frame);

/// Write the 40-byte header of a frame whose `payload_size` payload bytes
/// are at `payload` (both CRCs included) to `header`. No allocation, no
/// locks: the worker's crash-flush frame is built with it too.
void put_frame_header(char* header, FrameType type, std::uint32_t ra, std::uint64_t seq,
                      const char* payload, std::size_t payload_size);

/// Decode and fully validate a frame header (40 bytes). Returns the
/// declared payload length via `payload_len`. Throws std::runtime_error
/// on bad magic/version/CRC or an absurd length — the caller must treat
/// the connection as corrupt.
void decode_frame_header(const char* bytes, Frame& out, std::uint64_t& payload_len);

/// Verify a received payload against the header's CRC; throws
/// std::runtime_error on mismatch.
void verify_frame_payload(std::uint32_t expected_crc, const std::string& payload);

// --- Frame I/O ---------------------------------------------------------------

/// Incremental frame reassembly for one connection's byte stream: the one
/// ESFR decoder. feed() throws std::runtime_error on any protocol
/// violation (bad magic/CRC/version, absurd length, seq break) — the
/// connection is corrupt and must be torn down.
class FrameAssembler {
 public:
  /// Append raw bytes; returns every frame completed by them, in order.
  std::vector<Frame> feed(const char* data, std::size_t size);

  /// Bytes buffered waiting for the rest of a frame.
  std::size_t pending_bytes() const { return buffer_.size(); }

 private:
  std::string buffer_;
  std::uint64_t next_seq_ = 0;
};

/// Encode `frame` and write it whole to `fd` under `options`
/// (socket.h write_all); counts ipc.frames_sent, ipc.bytes_sent and
/// ipc.send_retries while metrics are enabled.
IoResult write_frame(int fd, const Frame& frame, const SendOptions& options = {});

/// Blocking-style frame reads from one fd: a FrameAssembler fed by
/// deadline-bounded read_some() calls. Bytes of a partial frame and
/// frames completed by the same read stay buffered across calls, so a
/// read that hits its deadline mid-frame loses nothing.
class FrameReader {
 public:
  /// The next frame from `fd`, waiting at most `deadline_ms` for it.
  /// Ok fills `out`; Deadline when no whole frame arrived in time;
  /// Closed on EOF (also mid-frame: that peer can never resynchronize);
  /// Error on a read error. Throws std::runtime_error on a protocol
  /// violation. A buffered frame is returned without a system call.
  IoResult read(int fd, Frame& out, int deadline_ms);

  /// Frames already received and not yet returned by read().
  bool has_buffered_frame() const { return !ready_.empty(); }

 private:
  FrameAssembler assembler_;
  std::deque<Frame> ready_;
};

}  // namespace edgeslice::ipc
