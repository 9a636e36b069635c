#include "ckpt/container.h"

#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/binio.h"
#include "common/metrics.h"
#include "common/trace_span.h"
#include "obs/event_log.h"

namespace edgeslice::ckpt {

namespace {

/// Sanity bounds a hostile header must not be able to exceed: a
/// checkpoint never has thousands of sections, and no single payload
/// (the replay buffer dominates) approaches a gigabyte.
constexpr std::uint64_t kMaxSections = 4096;
constexpr std::uint64_t kMaxFingerprintBytes = 1ull << 20;
constexpr std::uint64_t kMaxPayloadBytes = 1ull << 30;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("CheckpointReader: " + what);
}

}  // namespace

const char* section_kind_name(SectionKind kind) {
  switch (kind) {
    case SectionKind::Meta: return "meta";
    case SectionKind::DdpgAgent: return "ddpg_agent";
    case SectionKind::TrainLoop: return "train_loop";
    case SectionKind::Environment: return "environment";
    case SectionKind::Coordinator: return "coordinator";
    case SectionKind::MessageBus: return "message_bus";
    case SectionKind::SystemLoop: return "system_loop";
    case SectionKind::Policy: return "policy";
  }
  return "unknown";
}

CheckpointWriter::CheckpointWriter(std::string config_fingerprint)
    : fingerprint_(std::move(config_fingerprint)) {
  if (fingerprint_.size() > kMaxFingerprintBytes)
    throw std::invalid_argument("CheckpointWriter: fingerprint too large");
}

void CheckpointWriter::add_section(SectionKind kind, std::uint32_t index,
                                   std::string payload) {
  if (payload.size() > kMaxPayloadBytes)
    throw std::invalid_argument("CheckpointWriter: section payload too large");
  if (sections_.size() >= kMaxSections)
    throw std::invalid_argument("CheckpointWriter: too many sections");
  sections_.push_back(Section{kind, index, std::move(payload)});
}

std::string CheckpointWriter::bytes() const {
  // The image is sized up front and written in place: one allocation, no
  // stream growth and no final copy.
  constexpr std::size_t kSectionHeaderSize = 4 + 4 + 8 + 4;
  const std::size_t header_size =
      sizeof(kCkptMagic) + 4 + 8 + fingerprint_.size() + 8;
  std::size_t total = header_size + 4;
  for (const Section& s : sections_) total += kSectionHeaderSize + s.payload.size();
  std::string image(total, '\0');
  char* p = image.data();
  std::memcpy(p, kCkptMagic, sizeof(kCkptMagic));
  p = put_u32le(p + sizeof(kCkptMagic), kCkptFormatVersion);
  p = put_u64le(p, fingerprint_.size());
  std::memcpy(p, fingerprint_.data(), fingerprint_.size());
  p = put_u64le(p + fingerprint_.size(), sections_.size());
  p = put_u32le(p, crc32(image.data(), header_size));
  for (const Section& s : sections_) {
    p = put_u32le(p, static_cast<std::uint32_t>(s.kind));
    p = put_u32le(p, s.index);
    p = put_u64le(p, s.payload.size());
    p = put_u32le(p, crc32(s.payload));
    std::memcpy(p, s.payload.data(), s.payload.size());
    p += s.payload.size();
  }
  return image;
}

bool CheckpointWriter::write_file(const std::string& path) const {
  const auto span = global_tracer().span("ckpt.save");
  const std::string image = bytes();
  if (!atomic_write_file(path, image)) return false;
  auto& metrics = global_metrics();
  metrics.counter("ckpt.saves").add();
  metrics.gauge("ckpt.last_save_bytes").set(static_cast<double>(image.size()));
  obs::Event event;
  event.kind = obs::EventKind::CheckpointSaved;
  event.value = static_cast<double>(image.size());
  obs::global_event_log().record(event);
  return true;
}

CheckpointReader CheckpointReader::from_bytes(const std::string& bytes) {
  std::istringstream in(bytes);
  constexpr const char* kContext = "CheckpointReader";

  char magic[sizeof(kCkptMagic)] = {};
  in.read(magic, sizeof(magic));
  if (!in || std::string(magic, sizeof(magic)) !=
                 std::string(kCkptMagic, sizeof(kCkptMagic))) {
    fail("bad magic (not an ESCK checkpoint)");
  }
  const std::uint32_t version = read_u32(in, kContext);
  if (version != kCkptFormatVersion) {
    fail("unsupported format version " + std::to_string(version) + " (expected " +
         std::to_string(kCkptFormatVersion) + ")");
  }

  CheckpointReader reader;
  reader.fingerprint_ = read_string(in, kContext, kMaxFingerprintBytes);
  const std::uint64_t section_count = read_u64(in, kContext);
  if (section_count > kMaxSections) fail("absurd section count");
  const auto header_end = static_cast<std::size_t>(in.tellg());
  const std::uint32_t stored_header_crc = read_u32(in, kContext);
  if (crc32(bytes.data(), header_end) != stored_header_crc) {
    fail("header CRC mismatch");
  }

  reader.sections_.reserve(static_cast<std::size_t>(section_count));
  for (std::uint64_t i = 0; i < section_count; ++i) {
    Section section;
    section.kind = static_cast<SectionKind>(read_u32(in, kContext));
    section.index = read_u32(in, kContext);
    const std::uint64_t payload_len = read_u64(in, kContext);
    if (payload_len > kMaxPayloadBytes) {
      fail("section " + std::to_string(i) + " declares absurd payload size");
    }
    const std::uint32_t stored_crc = read_u32(in, kContext);
    section.payload.resize(static_cast<std::size_t>(payload_len));
    in.read(section.payload.data(), static_cast<std::streamsize>(payload_len));
    if (!in || static_cast<std::uint64_t>(in.gcount()) != payload_len) {
      fail("truncated payload in section " + std::to_string(i) + " (" +
           section_kind_name(section.kind) + ")");
    }
    if (crc32(section.payload) != stored_crc) {
      fail("payload CRC mismatch in section " + std::to_string(i) + " (" +
           section_kind_name(section.kind) + ")");
    }
    reader.sections_.push_back(std::move(section));
  }
  if (in.peek() != std::istringstream::traits_type::eof()) {
    fail("trailing bytes after last section");
  }
  return reader;
}

CheckpointReader CheckpointReader::from_file(const std::string& path) {
  const auto span = global_tracer().span("ckpt.load");
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) fail("I/O error reading " + path);
  const std::string image = buffer.str();

  CheckpointReader reader = from_bytes(image);
  auto& metrics = global_metrics();
  metrics.counter("ckpt.loads").add();
  metrics.gauge("ckpt.last_load_bytes").set(static_cast<double>(image.size()));
  obs::Event event;
  event.kind = obs::EventKind::CheckpointLoaded;
  event.value = static_cast<double>(image.size());
  obs::global_event_log().record(event);
  return reader;
}

const Section* CheckpointReader::find(SectionKind kind, std::uint32_t index) const {
  for (const Section& s : sections_) {
    if (s.kind == kind && s.index == index) return &s;
  }
  return nullptr;
}

const std::string& CheckpointReader::require(SectionKind kind,
                                             std::uint32_t index) const {
  const Section* section = find(kind, index);
  if (section == nullptr) {
    fail(std::string("missing required section ") + section_kind_name(kind) +
         "[" + std::to_string(index) + "]");
  }
  return section->payload;
}

}  // namespace edgeslice::ckpt
