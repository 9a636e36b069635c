#include "common/binio.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace edgeslice {

namespace {

void write_le(std::ostream& out, std::uint64_t v, std::size_t bytes) {
  char buf[8];
  for (std::size_t i = 0; i < bytes; ++i) {
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xffu);
  }
  out.write(buf, static_cast<std::streamsize>(bytes));
}

std::uint64_t read_le(std::istream& in, std::size_t bytes, const char* context) {
  char buf[8];
  in.read(buf, static_cast<std::streamsize>(bytes));
  if (static_cast<std::size_t>(in.gcount()) != bytes) {
    throw std::runtime_error(std::string(context) + ": truncated stream");
  }
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[i])) << (8 * i);
  }
  return v;
}

}  // namespace

void write_u8(std::ostream& out, std::uint8_t v) { write_le(out, v, 1); }
void write_u32(std::ostream& out, std::uint32_t v) { write_le(out, v, 4); }
void write_u64(std::ostream& out, std::uint64_t v) { write_le(out, v, 8); }

void write_f64(std::ostream& out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  write_le(out, bits, 8);
}

void write_string(std::ostream& out, const std::string& s) {
  write_u64(out, s.size());
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

void write_f64_vector(std::ostream& out, const std::vector<double>& v) {
  write_u64(out, v.size());
  for (double x : v) write_f64(out, x);
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
  for (auto& x : v) x = read_f64(in, context);
  return v;
}

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xffffffffu;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ bytes[i]) & 0xffu] ^ (c >> 8);
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
