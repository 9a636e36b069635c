// The shared persistence primitives: FNV-1a reference vectors, exact
// number rendering, the BenchReport writer against parse_flat_json, and
// atomic_write_file's failure paths (old content survives, no stray tmp).
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/binio.h"
#include "common/hash.h"
#include "common/json.h"

namespace edgeslice {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class PersistenceDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("es_persistence_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST(Fnv1a64, MatchesReferenceVectors) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64(""), kFnv1a64OffsetBasis);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(Fnv1a64, ChainingEqualsOneCallOverTheConcatenation) {
  EXPECT_EQ(fnv1a64("bar", fnv1a64("foo")), fnv1a64("foobar"));
  const std::vector<double> xs{1.5, -2.25};
  const std::string raw(reinterpret_cast<const char*>(xs.data()),
                        xs.size() * sizeof(double));
  EXPECT_EQ(fnv1a64(std::as_bytes(std::span(xs))), fnv1a64(raw));
}

TEST(JsonNumber, RoundTripsExactly) {
  EXPECT_EQ(json_number(4.0), "4");
  EXPECT_EQ(json_number(0.1), "0.10000000000000001");
  for (const double v : {0.1, 1.0 / 3.0, 6.02214076e23, -2.5e-308, 1e300}) {
    EXPECT_EQ(std::stod(json_number(v)), v) << json_number(v);
  }
}

constexpr const char* kSchema[] = {"count", "rates", "name", "ok"};

BenchReport filled_report() {
  BenchReport report(kSchema);
  report.number("count", 128);
  report.numbers("rates", {0.5, 0.25});
  report.text("name", "a\tb\"c");
  report.flag("ok", true);
  return report;
}

TEST(BenchReport, RendersFieldsInOrderAndParsesBack) {
  const std::string text = filled_report().render();
  EXPECT_EQ(text,
            "{\n"
            "  \"count\": 128,\n"
            "  \"rates\": [0.5, 0.25],\n"
            "  \"name\": \"a\\tb\\\"c\",\n"
            "  \"ok\": true\n"
            "}\n");
  const auto fields = parse_flat_json(text);
  EXPECT_EQ(fields.at("count"), "128");
  EXPECT_EQ(fields.at("name"), "a\tb\"c");
  EXPECT_EQ(fields.at("ok"), "true");
  EXPECT_EQ(fields.count("rates"), 0u);  // arrays are skipped
}

TEST_F(PersistenceDir, BenchReportRefusesASchemaMismatch) {
  const std::string path = (dir_ / "BENCH_test.json").string();
  std::string error;

  BenchReport short_report(kSchema);
  short_report.number("count", 1);
  EXPECT_FALSE(short_report.write(path, error));
  EXPECT_NE(error.find("schema lists 4"), std::string::npos) << error;

  BenchReport renamed(kSchema);
  renamed.number("count", 1);
  renamed.numbers("rates", {});
  renamed.text("title", "x");
  renamed.flag("ok", false);
  EXPECT_FALSE(renamed.write(path, error));
  EXPECT_NE(error.find("field 2 is \"title\""), std::string::npos) << error;
  EXPECT_FALSE(fs::exists(path));

  ASSERT_TRUE(filled_report().write(path, error)) << error;
  EXPECT_EQ(read_file(path), filled_report().render());
}

TEST(ParseFlatJson, DecodesEveryEscape) {
  const auto fields = parse_flat_json(
      R"({"s": "q\" b\\ s\/ \b\f\n\r\t \u0001 \u00e9 \ud83d\ude00"})");
  EXPECT_EQ(fields.at("s"),
            "q\" b\\ s/ \b\f\n\r\t \x01 \xc3\xa9 \xf0\x9f\x98\x80");
  EXPECT_THROW(parse_flat_json(R"({"s": "\x"})"), std::runtime_error);
  EXPECT_THROW(parse_flat_json(R"({"s": "\u12"})"), std::runtime_error);
  EXPECT_THROW(parse_flat_json(R"({"s": "\ud83d"})"), std::runtime_error);
  EXPECT_THROW(parse_flat_json(R"({"s": "\ude00"})"), std::runtime_error);
}

TEST_F(PersistenceDir, AtomicWriteReplacesAndLeavesNoTmp) {
  const fs::path path = dir_ / "state.bin";
  ASSERT_TRUE(atomic_write_file(path.string(), "old"));
  ASSERT_TRUE(atomic_write_file(path.string(), std::string("new\0bytes", 9)));
  EXPECT_EQ(read_file(path), std::string("new\0bytes", 9));
  EXPECT_FALSE(fs::exists(path.string() + ".tmp"));
}

TEST_F(PersistenceDir, AtomicWriteFailsWhenTmpIsADirectory) {
  const fs::path path = dir_ / "state.bin";
  ASSERT_TRUE(atomic_write_file(path.string(), "old"));
  fs::create_directory(path.string() + ".tmp");
  EXPECT_FALSE(atomic_write_file(path.string(), "new"));
  EXPECT_EQ(read_file(path), "old");
  EXPECT_TRUE(fs::is_directory(path.string() + ".tmp"));  // not clobbered
}

TEST_F(PersistenceDir, AtomicWriteFailsOnANonEmptyDirectoryTarget) {
  const fs::path path = dir_ / "occupied";
  fs::create_directories(path / "child");
  EXPECT_FALSE(atomic_write_file(path.string(), "new"));
  EXPECT_TRUE(fs::is_directory(path / "child"));
  EXPECT_FALSE(fs::exists(path.string() + ".tmp"));
}

TEST_F(PersistenceDir, AtomicWriteFailsInAMissingDirectory) {
  EXPECT_FALSE(atomic_write_file((dir_ / "missing" / "state.bin").string(), "x"));
}

}  // namespace
}  // namespace edgeslice
