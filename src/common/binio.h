// Endian-explicit binary serialization primitives for on-disk state.
//
// Every multi-byte value is written little-endian regardless of host
// byte order, so a checkpoint taken on one machine restores on any
// other (FORMATS.md "Conventions"). Doubles are serialized as their
// IEEE-754 bit pattern — round-trips are exact, which is what the
// bit-identical-resume contract of the checkpoint subsystem rests on.
//
// Readers validate as they go: a truncated stream or an absurd length
// prefix throws std::runtime_error before any allocation larger than
// the declared budget, never UB (the corrupted-checkpoint tests drive
// these paths under ASan/UBSan).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string>
#include <vector>

namespace edgeslice {

// --- Writers ---------------------------------------------------------------

void write_u8(std::ostream& out, std::uint8_t v);
void write_u32(std::ostream& out, std::uint32_t v);
void write_u64(std::ostream& out, std::uint64_t v);
/// IEEE-754 bit pattern, little-endian (exact round-trip).
void write_f64(std::ostream& out, double v);
/// u64 length prefix + raw bytes.
void write_string(std::ostream& out, const std::string& s);
/// u64 element count + packed f64s, the block in one stream write.
void write_f64_vector(std::ostream& out, const std::vector<double>& v);

// --- Readers ---------------------------------------------------------------
//
// All readers throw std::runtime_error("<context>: truncated ...") on a
// short stream. `context` names the caller in the message so a corrupt
// file reports *where* it broke.

std::uint8_t read_u8(std::istream& in, const char* context);
std::uint32_t read_u32(std::istream& in, const char* context);
std::uint64_t read_u64(std::istream& in, const char* context);
double read_f64(std::istream& in, const char* context);
/// Rejects length prefixes above `max_bytes` before allocating.
std::string read_string(std::istream& in, const char* context,
                        std::uint64_t max_bytes = 1ull << 30);
/// Rejects element counts above `max_elements` before allocating; reads
/// the block in one stream read.
std::vector<double> read_f64_vector(std::istream& in, const char* context,
                                    std::uint64_t max_elements = 1ull << 27);

// --- Raw little-endian stores and loads -------------------------------------
//
// The same byte layout as the stream writers above, at a caller-owned
// pointer: no allocation, no locks, async-signal-safe. Each put returns
// the pointer just past what it wrote.

inline char* put_u32le(char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  return p + 4;
}

inline char* put_u64le(char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  return p + 8;
}

inline char* put_f64le(char* p, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return put_u64le(p, bits);
}

namespace detail {
template <typename T>
inline T get_le(const char* p) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(v));  // one load: the CRC kernel's hot path
  } else {
    for (int i = sizeof(T) - 1; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}
}  // namespace detail

inline std::uint32_t get_u32le(const char* p) { return detail::get_le<std::uint32_t>(p); }
inline std::uint64_t get_u64le(const char* p) { return detail::get_le<std::uint64_t>(p); }

// --- Integrity -------------------------------------------------------------

/// CRC-32 (IEEE 802.3 polynomial, reflected), as used by zip/png. The
/// checkpoint container stores one per section payload and one over the
/// file header; every ESFR frame carries one over its header and one over
/// its payload. Slicing-by-8 over tables built at compile time, so it
/// allocates nothing, takes no lock and is async-signal-safe from the
/// first call.
std::uint32_t crc32(const void* data, std::size_t size);
std::uint32_t crc32(const std::string& bytes);

// --- Atomic file replacement ----------------------------------------------

/// The repo's one way to publish a file. Writes `bytes` to "<path>.tmp",
/// fsyncs it, renames it over `path`, then fsyncs the parent directory,
/// so a crash (or a reader racing the writer) observes either the old
/// complete file or the new one, never a truncation, and a true return
/// means the new file survives power loss. Returns false when any step
/// fails; a failure before the rename leaves `path` untouched and
/// removes the tmp file.
bool atomic_write_file(const std::string& path, const std::string& bytes);

}  // namespace edgeslice
