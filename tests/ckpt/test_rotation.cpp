// Keep-last-N checkpoint rotation (ctest label: ckpt).
//
// The crash-safety invariant under test: once the first checkpoint has
// been published, NO crash point in the save-then-prune sequence leaves
// zero valid checkpoints on disk. A crash mid-save leaves only a .tmp
// (not a rotation sibling); a torn/corrupt newest file is skipped by
// latest() in favour of the next-newest valid one; a crash mid-prune
// leaves extra files, never fewer.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/container.h"
#include "ckpt/rotation.h"

namespace edgeslice::ckpt {
namespace {

namespace fs = std::filesystem;

class RotationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test and process: ctest runs each test as its own
    // process, possibly concurrently, and they must not share files.
    dir_ = fs::temp_directory_path() /
           ("esck_rotation_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()) +
            "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    base_ = (dir_ / "run.ckpt").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Publish a small but fully valid container as period `p`'s sibling.
  std::string publish(std::size_t period) {
    CheckpointWriter writer("rotation-test");
    writer.add_section(SectionKind::Meta, 0, "period " + std::to_string(period));
    const std::string path = CheckpointRotation(base_, 1).path_for(period);
    EXPECT_TRUE(writer.write_file(path));
    return path;
  }

  void write_garbage(const std::string& path) {
    std::ofstream out(path, std::ios::binary);
    out << "ESCK but not really; truncated hostile bytes";
  }

  fs::path dir_;
  std::string base_;
};

TEST_F(RotationTest, RejectsDegenerateConfig) {
  EXPECT_THROW(CheckpointRotation("", 3), std::invalid_argument);
  EXPECT_THROW(CheckpointRotation(base_, 0), std::invalid_argument);
}

TEST_F(RotationTest, PathNamingAndListOrder) {
  const CheckpointRotation rotation(base_, 2);
  EXPECT_EQ(rotation.path_for(12), base_ + ".p12");
  publish(10);
  publish(2);
  publish(6);
  // Non-sibling files must be ignored: a stale tmp, a non-numeric suffix,
  // an unrelated file.
  write_garbage(base_ + ".p8.tmp");
  write_garbage(base_ + ".pX");
  write_garbage((dir_ / "other.ckpt.p3").string());
  const auto siblings = rotation.list();
  ASSERT_EQ(siblings.size(), 3u);
  EXPECT_EQ(siblings[0].first, 2u);
  EXPECT_EQ(siblings[1].first, 6u);
  EXPECT_EQ(siblings[2].first, 10u);
}

TEST_F(RotationTest, ForeignAndOverflowingSiblingsAreSkippedNotThrown) {
  // Regression: the directory scan used std::stoull on anything matching
  // "<base>.p*", so a foreign sibling with an all-digit-but-huge suffix
  // threw std::out_of_range out of list()/latest()/prune(). Hostile
  // neighbours of every kind must be skipped silently.
  const CheckpointRotation rotation(base_, 2);
  publish(5);
  write_garbage(base_ + ".pbak");                          // backup file
  write_garbage(base_ + ".p12.tmp");                       // torn save
  write_garbage(base_ + ".p99999999999999999999999999");   // > uint64 max
  write_garbage(base_ + ".p-3");                           // signed garbage
  write_garbage(base_ + ".p");                             // empty suffix
  std::vector<std::pair<std::size_t, std::string>> siblings;
  ASSERT_NO_THROW(siblings = rotation.list());
  ASSERT_EQ(siblings.size(), 1u);
  EXPECT_EQ(siblings[0].first, 5u);
  ASSERT_NO_THROW(rotation.prune(5));
  ASSERT_TRUE(rotation.latest().has_value());
  EXPECT_EQ(*rotation.latest(), rotation.path_for(5));
  // The foreign files were skipped, not deleted.
  EXPECT_TRUE(fs::exists(base_ + ".pbak"));
  EXPECT_TRUE(fs::exists(base_ + ".p99999999999999999999999999"));
}

TEST_F(RotationTest, PruneKeepsTheNewestNAndReportsRemovals) {
  const CheckpointRotation rotation(base_, 2);
  for (const std::size_t p : {1u, 2u, 3u, 4u, 5u}) publish(p);
  EXPECT_EQ(rotation.prune(5), 3u);
  const auto siblings = rotation.list();
  ASSERT_EQ(siblings.size(), 2u);
  EXPECT_EQ(siblings[0].first, 4u);
  EXPECT_EQ(siblings[1].first, 5u);
  // Idempotent: nothing more to remove.
  EXPECT_EQ(rotation.prune(5), 0u);
}

TEST_F(RotationTest, PruneNeverDeletesTheJustPublishedFile) {
  // Pathological but possible after crash-recovery interleavings: the
  // just-published period is not the numerically newest sibling. It must
  // survive the prune regardless.
  const CheckpointRotation rotation(base_, 1);
  publish(3);
  publish(9);
  publish(7);
  rotation.prune(7);
  EXPECT_TRUE(fs::exists(rotation.path_for(7)));
  EXPECT_TRUE(rotation.latest().has_value());
}

TEST_F(RotationTest, LatestReturnsNewestValidAndSkipsCorrupt) {
  const CheckpointRotation rotation(base_, 3);
  EXPECT_FALSE(rotation.latest().has_value());
  const std::string p2 = publish(2);
  const std::string p4 = publish(4);
  EXPECT_EQ(rotation.latest(), p4);
  // Torn newest (bad sector, partial rename): fall back, don't fail.
  write_garbage(p4);
  EXPECT_EQ(rotation.latest(), p2);
  // The corrupt file is left in place for post-mortems.
  EXPECT_TRUE(fs::exists(p4));
}

TEST_F(RotationTest, MidRotationCrashNeverLeavesZeroValidCheckpoints) {
  const CheckpointRotation rotation(base_, 2);

  // Crash point A: mid-save of the very next checkpoint. Only a .tmp
  // exists for it; the published history is untouched.
  publish(2);
  write_garbage(rotation.path_for(4) + ".tmp");
  ASSERT_TRUE(rotation.latest().has_value());
  EXPECT_EQ(*rotation.latest(), rotation.path_for(2));

  // Crash point B: published but not yet pruned. Extra files, never
  // fewer — latest() is the new checkpoint, a later prune converges.
  publish(4);
  publish(6);
  publish(8);  // crash happened before prune(6) and prune(8) ran
  ASSERT_TRUE(rotation.latest().has_value());
  EXPECT_EQ(*rotation.latest(), rotation.path_for(8));
  rotation.prune(8);
  EXPECT_EQ(rotation.list().size(), 2u);
  EXPECT_EQ(*rotation.latest(), rotation.path_for(8));

  // Crash point C: the rename itself tore the newest file. Every suffix
  // of the sequence still resolves to SOME valid checkpoint.
  write_garbage(rotation.path_for(8));
  ASSERT_TRUE(rotation.latest().has_value());
  EXPECT_EQ(*rotation.latest(), rotation.path_for(6));
}

}  // namespace
}  // namespace edgeslice::ckpt
