// The versioned, CRC-checked checkpoint container (FORMATS.md Sec. 2).
//
// Layout (all integers little-endian, see common/binio.h):
//
//   magic "ESCK" | u32 version | string fingerprint | u64 section_count
//   | u32 header_crc | section*
//
//   section := u32 kind | u32 index | u64 payload_len | u32 payload_crc
//              | payload bytes
//
// header_crc covers every byte before it; each payload_crc covers its
// payload. The fingerprint is a canonical text rendering of the
// experiment configuration — load paths compare it against the running
// config so a checkpoint can never be restored into a system of a
// different shape by accident.
//
// Writers assemble in memory and publish via atomic_write_file (tmp,
// fsync, rename, directory fsync), so a crash (or a reader racing the
// writer) never observes a torn checkpoint. Readers
// validate magic, version, both CRC levels, and every length prefix
// before allocating; corruption of any kind throws std::runtime_error —
// never UB (the hostile-file tests drive these paths under the
// sanitizers).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/format.h"

namespace edgeslice::ckpt {

/// One decoded container section. `index` disambiguates repeated kinds
/// (e.g. one Environment section per RA).
struct Section {
  SectionKind kind = SectionKind::Meta;
  std::uint32_t index = 0;
  std::string payload;
};

class CheckpointWriter {
 public:
  /// `config_fingerprint` is the canonical configuration text stored in
  /// the header (see CheckpointReader::fingerprint).
  explicit CheckpointWriter(std::string config_fingerprint);

  /// Append one section. Sections are written in add order; (kind, index)
  /// pairs should be unique — find() on the reader returns the first.
  void add_section(SectionKind kind, std::uint32_t index, std::string payload);

  /// Assemble the complete container image.
  std::string bytes() const;

  /// Assemble and atomically publish to `path` (tmp + rename). Emits the
  /// ckpt.save span, ckpt.saves / ckpt.last_save_bytes metrics, and a
  /// CheckpointSaved flight-recorder event. Returns false on I/O failure.
  bool write_file(const std::string& path) const;

 private:
  std::string fingerprint_;
  std::vector<Section> sections_;
};

class CheckpointReader {
 public:
  /// Decode and fully validate a container image. Throws
  /// std::runtime_error naming the failure (bad magic, unsupported
  /// version, CRC mismatch, truncation, trailing bytes).
  static CheckpointReader from_bytes(const std::string& bytes);

  /// Read and decode `path`. Emits the ckpt.load span, ckpt.loads /
  /// ckpt.last_load_bytes metrics, and a CheckpointLoaded event. Throws
  /// std::runtime_error when the file is missing or invalid.
  static CheckpointReader from_file(const std::string& path);

  /// The canonical configuration text the checkpoint was taken under.
  const std::string& fingerprint() const { return fingerprint_; }

  const std::vector<Section>& sections() const { return sections_; }

  /// First section matching (kind, index), or nullptr.
  const Section* find(SectionKind kind, std::uint32_t index = 0) const;

  /// Like find(), but throws std::runtime_error naming the missing
  /// section. Returns the payload.
  const std::string& require(SectionKind kind, std::uint32_t index = 0) const;

 private:
  CheckpointReader() = default;

  std::string fingerprint_;
  std::vector<Section> sections_;
};

}  // namespace edgeslice::ckpt
