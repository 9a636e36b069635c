#include "common/binio.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace edgeslice {

namespace {

// The low `bytes` bytes of v, little-endian.
void write_le(std::ostream& out, std::uint64_t v, std::size_t bytes) {
  char buf[8];
  put_u64le(buf, v);
  out.write(buf, static_cast<std::streamsize>(bytes));
}

std::uint64_t read_le(std::istream& in, std::size_t bytes, const char* context) {
  char buf[8] = {};
  in.read(buf, static_cast<std::streamsize>(bytes));
  if (static_cast<std::size_t>(in.gcount()) != bytes) {
    throw std::runtime_error(std::string(context) + ": truncated stream");
  }
  return get_u64le(buf);
}

}  // namespace

void write_u8(std::ostream& out, std::uint8_t v) { write_le(out, v, 1); }
void write_u32(std::ostream& out, std::uint32_t v) { write_le(out, v, 4); }
void write_u64(std::ostream& out, std::uint64_t v) { write_le(out, v, 8); }

void write_f64(std::ostream& out, double v) {
  char buf[8];
  put_f64le(buf, v);
  out.write(buf, sizeof(buf));
}

void write_string(std::ostream& out, const std::string& s) {
  write_u64(out, s.size());
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

void write_f64_vector(std::ostream& out, const std::vector<double>& v) {
  write_u64(out, v.size());
  if constexpr (std::endian::native == std::endian::little) {
    // The in-memory block already is the little-endian bit patterns.
    out.write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(double)));
  } else {
    for (double x : v) write_f64(out, x);
  }
}

std::uint8_t read_u8(std::istream& in, const char* context) {
  return static_cast<std::uint8_t>(read_le(in, 1, context));
}

std::uint32_t read_u32(std::istream& in, const char* context) {
  return static_cast<std::uint32_t>(read_le(in, 4, context));
}

std::uint64_t read_u64(std::istream& in, const char* context) {
  return read_le(in, 8, context);
}

double read_f64(std::istream& in, const char* context) {
  const std::uint64_t bits = read_le(in, 8, context);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string read_string(std::istream& in, const char* context, std::uint64_t max_bytes) {
  const std::uint64_t n = read_u64(in, context);
  if (n > max_bytes) {
    throw std::runtime_error(std::string(context) + ": string length " +
                             std::to_string(n) + " exceeds limit");
  }
  std::string s(static_cast<std::size_t>(n), '\0');
  in.read(s.data(), static_cast<std::streamsize>(n));
  if (static_cast<std::uint64_t>(in.gcount()) != n) {
    throw std::runtime_error(std::string(context) + ": truncated string");
  }
  return s;
}

std::vector<double> read_f64_vector(std::istream& in, const char* context,
                                    std::uint64_t max_elements) {
  const std::uint64_t n = read_u64(in, context);
  if (n > max_elements) {
    throw std::runtime_error(std::string(context) + ": vector length " +
                             std::to_string(n) + " exceeds limit");
  }
  std::vector<double> v(static_cast<std::size_t>(n));
  if constexpr (std::endian::native == std::endian::little) {
    const auto bytes = static_cast<std::streamsize>(n * sizeof(double));
    if (n > 0 && !in.read(reinterpret_cast<char*>(v.data()), bytes)) {
      throw std::runtime_error(std::string(context) + ": truncated stream");
    }
  } else {
    for (auto& x : v) x = read_f64(in, context);
  }
  return v;
}

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the byte-at-a-time table of the reflected polynomial
/// 0xEDB88320; tables[k][b] is the CRC of byte b followed by k zero bytes,
/// so eight table lookups advance the CRC over eight bytes at once.
constexpr CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = make_crc_tables();

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
  const CrcTables& t = kCrcTables;
  const auto* p = static_cast<const char*>(data);
  std::uint32_t c = 0xffffffffu;
  for (; size >= 8; size -= 8, p += 8) {
    const std::uint32_t lo = get_u32le(p) ^ c;
    const std::uint32_t hi = get_u32le(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
        t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; size > 0; --size, ++p) {
    c = t[0][(c ^ static_cast<unsigned char>(*p)) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

std::uint32_t crc32(const std::string& bytes) { return crc32(bytes.data(), bytes.size()); }

namespace {

/// write(2) all of `bytes`, resuming after short writes and EINTR.
bool write_all(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

bool fsync_retrying(int fd) {
  int rc = 0;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  return rc == 0;
}

/// Make a completed rename durable: fsync the directory holding `path`.
bool fsync_parent_dir(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool synced = fsync_retrying(fd);
  ::close(fd);
  return synced;
}

}  // namespace

bool atomic_write_file(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) return false;
  const bool written = write_all(fd, bytes) && fsync_retrying(fd);
  const bool closed = ::close(fd) == 0;
  if (!written || !closed || std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  return fsync_parent_dir(path);
}

}  // namespace edgeslice
