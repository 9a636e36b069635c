// binio codecs: the CRC-32 kernel and the f64 vector block codecs
// (FORMATS.md Sec. 1). Both are on every frame and checkpoint byte path,
// so the fast forms are pinned against known answers, a bit-at-a-time
// reference and golden bytes.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/binio.h"

namespace edgeslice {
namespace {

/// CRC-32 computed one bit at a time straight from the reflected
/// polynomial: the definition the table-driven kernel must agree with.
std::uint32_t crc32_bitwise(const unsigned char* p, std::size_t n) {
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1u)));
  }
  return ~c;
}

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
  EXPECT_EQ(crc32(std::string()), 0u);
}

TEST(Crc32, AgreesWithTheBitwiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0-257 cover an empty input, every tail length after the
  // eight-byte blocks and several blocks; offsets 0-7 cover every
  // alignment of the block loads.
  std::vector<unsigned char> buffer(257 + 8);
  std::uint32_t state = 12345;
  for (unsigned char& b : buffer) {
    state = state * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(state >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 257; ++length) {
      const unsigned char* p = buffer.data() + offset;
      ASSERT_EQ(crc32(p, length), crc32_bitwise(p, length))
          << "offset " << offset << " length " << length;
    }
  }
}

double from_bits(std::uint64_t bits) { return std::bit_cast<double>(bits); }

std::vector<std::uint64_t> bit_patterns(const std::vector<double>& v) {
  std::vector<std::uint64_t> bits;
  for (double x : v) bits.push_back(std::bit_cast<std::uint64_t>(x));
  return bits;
}

/// 1.0, -0.0, a quiet NaN with a payload, the smallest and the largest
/// denormal, -2.5: the bit patterns a value-based codec would lose.
const std::vector<double>& awkward_values() {
  static const std::vector<double> values = {
      1.0,
      -0.0,
      from_bits(0x7FF8000000000001ull),
      from_bits(0x0000000000000001ull),
      from_bits(0x000FFFFFFFFFFFFFull),
      -2.5,
  };
  return values;
}

std::string bytes_of(std::initializer_list<unsigned char> list) {
  return std::string(list.begin(), list.end());
}

TEST(F64Vector, WritesGoldenBytes) {
  std::ostringstream out;
  write_f64_vector(out, awkward_values());
  const std::string golden = bytes_of({
      0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // u64 count
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f,  // 1.0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,  // -0.0
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x7f,  // NaN, payload 1
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // smallest denormal
      0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f, 0x00,  // largest denormal
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0xc0,  // -2.5
  });
  EXPECT_EQ(out.str(), golden);

  std::ostringstream empty;
  write_f64_vector(empty, {});
  EXPECT_EQ(empty.str(), std::string(8, '\0'));
}

TEST(F64Vector, RoundTripIsBitExact) {
  std::ostringstream out;
  write_f64_vector(out, awkward_values());
  write_f64_vector(out, {});
  write_u8(out, 0x5a);  // a trailing field after the vectors
  std::istringstream in(out.str());
  EXPECT_EQ(bit_patterns(read_f64_vector(in, "test")), bit_patterns(awkward_values()));
  EXPECT_TRUE(read_f64_vector(in, "test").empty());
  EXPECT_EQ(read_u8(in, "test"), 0x5a);
}

TEST(F64Vector, TruncationAtEveryByteThrows) {
  std::ostringstream out;
  write_f64_vector(out, awkward_values());
  const std::string full = out.str();
  for (std::size_t size = 0; size < full.size(); ++size) {
    std::istringstream in(full.substr(0, size));
    EXPECT_THROW(read_f64_vector(in, "test"), std::runtime_error) << "size " << size;
  }
}

TEST(F64Vector, RejectsACountAboveTheLimitBeforeAllocating) {
  std::ostringstream out;
  write_u64(out, 1ull << 40);
  std::istringstream in(out.str());
  EXPECT_THROW(read_f64_vector(in, "test", 1024), std::runtime_error);
}

}  // namespace
}  // namespace edgeslice
