// The ESCK container and every serialized component, round-tripped and
// attacked: corrupted, truncated, and hostile inputs must throw clean
// std::runtime_errors (never UB — these tests also run under the
// sanitizer presets via the "ckpt" label).
#include "ckpt/container.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>

#include "common/binio.h"
#include "common/rng.h"
#include "common/stats.h"
#include "nn/adam.h"
#include "nn/mlp.h"
#include "rl/ddpg.h"
#include "rl/replay_buffer.h"

namespace edgeslice::ckpt {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// --- Container -------------------------------------------------------------

std::string two_section_image() {
  CheckpointWriter writer("experiment = test\nseed = 7\n");
  writer.add_section(SectionKind::Meta, 0, "hello");
  writer.add_section(SectionKind::Environment, 3, std::string("\x00\x01\xff", 3));
  return writer.bytes();
}

TEST(Container, ImageMatchesTheStreamWrittenLayout) {
  // The writer sizes the image up front and fills it in place; the bytes
  // must be exactly the Sec. 2.1 layout written field by field.
  std::ostringstream out;
  out.write(kCkptMagic, 4);
  write_u32(out, kCkptFormatVersion);
  write_string(out, "experiment = test\nseed = 7\n");
  write_u64(out, 2);
  write_u32(out, crc32(out.str()));
  const auto section = [&](SectionKind kind, std::uint32_t index, const std::string& payload) {
    write_u32(out, static_cast<std::uint32_t>(kind));
    write_u32(out, index);
    write_u64(out, payload.size());
    write_u32(out, crc32(payload));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  };
  section(SectionKind::Meta, 0, "hello");
  section(SectionKind::Environment, 3, std::string("\x00\x01\xff", 3));
  EXPECT_EQ(two_section_image(), out.str());

  CheckpointWriter empty("");
  EXPECT_EQ(CheckpointReader::from_bytes(empty.bytes()).sections().size(), 0u);
}

TEST(Container, RoundTripsSectionsAndFingerprint) {
  const auto reader = CheckpointReader::from_bytes(two_section_image());
  EXPECT_EQ(reader.fingerprint(), "experiment = test\nseed = 7\n");
  ASSERT_EQ(reader.sections().size(), 2u);
  EXPECT_EQ(reader.require(SectionKind::Meta), "hello");
  EXPECT_EQ(reader.require(SectionKind::Environment, 3),
            std::string("\x00\x01\xff", 3));
  EXPECT_EQ(reader.find(SectionKind::Policy), nullptr);
  EXPECT_THROW(reader.require(SectionKind::Policy), std::runtime_error);
}

TEST(Container, WriteFilePublishesAtomically) {
  const std::string path = temp_path("esck_container_test.ckpt");
  CheckpointWriter writer("fp\n");
  writer.add_section(SectionKind::Meta, 0, "payload");
  ASSERT_TRUE(writer.write_file(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  const auto reader = CheckpointReader::from_file(path);
  EXPECT_EQ(reader.require(SectionKind::Meta), "payload");
  std::filesystem::remove(path);
  EXPECT_THROW(CheckpointReader::from_file(path), std::runtime_error);
}

TEST(Container, RejectsBadMagic) {
  std::string bytes = two_section_image();
  bytes[0] = 'X';
  EXPECT_THROW(CheckpointReader::from_bytes(bytes), std::runtime_error);
}

TEST(Container, RejectsUnsupportedVersion) {
  std::string bytes = two_section_image();
  bytes[4] = static_cast<char>(kCkptFormatVersion + 1);  // u32 LE low byte
  EXPECT_THROW(CheckpointReader::from_bytes(bytes), std::runtime_error);
}

TEST(Container, RejectsHeaderAndPayloadCorruption) {
  const std::string good = two_section_image();
  // A flipped bit in the fingerprint trips the header CRC; one in a
  // payload trips that section's CRC.
  const std::size_t fingerprint_byte = 4 + 4 + 8 + 3;  // inside "experiment..."
  const std::size_t payload_byte = good.size() - 2;    // inside the last payload
  for (const std::size_t at : {fingerprint_byte, payload_byte}) {
    std::string bytes = good;
    bytes[at] = static_cast<char>(bytes[at] ^ 0x40);
    EXPECT_THROW(CheckpointReader::from_bytes(bytes), std::runtime_error)
        << "flipped byte " << at;
  }
}

TEST(Container, RejectsEveryTruncation) {
  const std::string good = two_section_image();
  // Every strict prefix must be rejected — there is no length at which a
  // torn write parses as a valid (shorter) checkpoint.
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_THROW(CheckpointReader::from_bytes(good.substr(0, len)),
                 std::runtime_error)
        << "prefix of " << len << " bytes";
  }
}

TEST(Container, RejectsTrailingBytes) {
  EXPECT_THROW(CheckpointReader::from_bytes(two_section_image() + "x"),
               std::runtime_error);
}

TEST(Container, RejectsAbsurdSectionCountBeforeAllocating) {
  // Hand-built hostile header with a VALID CRC but an absurd section
  // count: the cap must fire before any per-section work.
  std::ostringstream out;
  out.write(kCkptMagic, 4);
  write_u32(out, kCkptFormatVersion);
  write_string(out, "fp");
  write_u64(out, 1ull << 60);
  const std::string head = out.str();
  write_u32(out, crc32(head));
  EXPECT_THROW(CheckpointReader::from_bytes(out.str()), std::runtime_error);
}

TEST(Container, RejectsAbsurdPayloadLengthBeforeAllocating) {
  std::ostringstream out;
  out.write(kCkptMagic, 4);
  write_u32(out, kCkptFormatVersion);
  write_string(out, "fp");
  write_u64(out, 1);
  const std::string head = out.str();
  write_u32(out, crc32(head));
  // One section whose declared payload is 1 TiB; no bytes follow.
  write_u32(out, static_cast<std::uint32_t>(SectionKind::Meta));
  write_u32(out, 0);
  write_u64(out, 1ull << 40);
  write_u32(out, 0);
  EXPECT_THROW(CheckpointReader::from_bytes(out.str()), std::runtime_error);
}

// --- Rng streams -----------------------------------------------------------

TEST(RngSerialization, RoundTripsStreamExactly) {
  Rng a(42);
  a.normal();
  a.uniform(0.0, 5.0);
  (void)a.spawn();  // advance the spawn counter too
  Rng b = Rng::deserialize(a.serialize());
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(a.normal(), b.normal()) << "draw " << i;
  }
  // Spawned children continue identically as well.
  Rng ca = a.spawn();
  Rng cb = b.spawn();
  for (int i = 0; i < 50; ++i) ASSERT_EQ(ca.uniform(), cb.uniform());
}

TEST(RngSerialization, RejectsMalformedBlobs) {
  EXPECT_THROW(Rng::deserialize(""), std::runtime_error);
  EXPECT_THROW(Rng::deserialize("not an rng"), std::runtime_error);
}

// --- RunningStat -----------------------------------------------------------

TEST(RunningStatSerialization, RestoreContinuesExactly) {
  RunningStat a;
  Rng rng(3);
  for (int i = 0; i < 37; ++i) a.add(rng.normal(0.0, 4.0));
  RunningStat b;
  b.restore(a.count(), a.mean(), a.m2(), a.min(), a.max());
  for (int i = 0; i < 20; ++i) {
    const double x = rng.uniform(-3.0, 3.0);
    a.add(x);
    b.add(x);
  }
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.m2(), b.m2());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

// --- Adam moments ----------------------------------------------------------

TEST(AdamSerialization, RestoredOptimizerStepsBitIdentically) {
  Rng rng(5);
  nn::Mlp net_a({3, 8, 2}, nn::Activation::LeakyRelu, nn::Activation::Identity, rng);
  nn::Mlp net_b = net_a;  // deep clone
  nn::Adam opt_a;
  nn::Adam opt_b;
  net_a.attach_to(opt_a);
  net_b.attach_to(opt_b);

  const auto train_step = [](nn::Mlp& net, nn::Adam& opt, Rng& data) {
    nn::Matrix x(4, 3);
    for (auto& v : x.data()) v = data.normal();
    net.zero_grad();
    net.forward(x);
    net.backward(nn::Matrix(4, 2, 1.0));
    opt.step();
  };

  Rng data_a(9);
  for (int i = 0; i < 10; ++i) train_step(net_a, opt_a, data_a);

  // Restore A's moments + parameters into B (the exact flow load_checkpoint
  // uses: parameters in place, then restore_state).
  net_b.set_flat_parameters(net_a.flat_parameters());
  opt_b.restore_state(opt_a.export_state());

  // The bias correction depends on t, the update on m/v — one more
  // identical step must produce bit-identical parameters.
  Rng data_b = Rng::deserialize(data_a.serialize());
  train_step(net_a, opt_a, data_a);
  train_step(net_b, opt_b, data_b);
  EXPECT_EQ(net_a.flat_parameters(), net_b.flat_parameters());
}

TEST(AdamSerialization, RestoreRejectsMomentLengthMismatch) {
  Rng rng(6);
  nn::Mlp small({2, 3, 1}, nn::Activation::Relu, nn::Activation::Identity, rng);
  nn::Mlp large({4, 9, 2}, nn::Activation::Relu, nn::Activation::Identity, rng);
  nn::Adam opt_small;
  nn::Adam opt_large;
  small.attach_to(opt_small);
  large.attach_to(opt_large);
  EXPECT_THROW(opt_large.restore_state(opt_small.export_state()),
               std::invalid_argument);
}

// --- Replay buffer ---------------------------------------------------------

rl::Transition make_transition(double tag) {
  rl::Transition t;
  t.state = {tag, tag + 0.5};
  t.action = {tag * 0.1};
  t.reward = -tag;
  t.next_state = {tag + 1.0, tag + 1.5};
  t.done = false;
  return t;
}

TEST(ReplayBufferSerialization, RoundTripsWrapAroundExactly) {
  rl::ReplayBuffer buffer(4);
  for (int i = 0; i < 7; ++i) buffer.push(make_transition(i));  // wrapped
  ASSERT_EQ(buffer.size(), 4u);
  ASSERT_EQ(buffer.next_index(), 3u);

  std::stringstream stream;
  buffer.save_state(stream);
  rl::ReplayBuffer loaded(4);
  loaded.load_state(stream);

  EXPECT_EQ(loaded.size(), buffer.size());
  EXPECT_EQ(loaded.next_index(), buffer.next_index());
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    EXPECT_EQ(loaded.at(i).state, buffer.at(i).state);
    EXPECT_EQ(loaded.at(i).action, buffer.at(i).action);
    EXPECT_EQ(loaded.at(i).reward, buffer.at(i).reward);
    EXPECT_EQ(loaded.at(i).next_state, buffer.at(i).next_state);
    EXPECT_EQ(loaded.at(i).done, buffer.at(i).done);
  }
  // Identical sampling from identical Rng streams.
  Rng rng_a(11);
  Rng rng_b(11);
  const auto batch_a = buffer.sample(3, rng_a);
  const auto batch_b = loaded.sample(3, rng_b);
  EXPECT_EQ(batch_a.states.data(), batch_b.states.data());
  EXPECT_EQ(batch_a.rewards, batch_b.rewards);
}

TEST(ReplayBufferSerialization, RejectsCapacityMismatch) {
  rl::ReplayBuffer buffer(4);
  buffer.push(make_transition(1));
  std::stringstream stream;
  buffer.save_state(stream);
  rl::ReplayBuffer wrong(8);
  EXPECT_THROW(wrong.load_state(stream), std::runtime_error);
}

TEST(ReplayBufferSerialization, RejectsTruncation) {
  rl::ReplayBuffer buffer(4);
  for (int i = 0; i < 3; ++i) buffer.push(make_transition(i));
  std::stringstream stream;
  buffer.save_state(stream);
  std::string raw = stream.str();
  raw.resize(raw.size() / 2);
  std::istringstream truncated(raw);
  rl::ReplayBuffer loaded(4);
  EXPECT_THROW(loaded.load_state(truncated), std::runtime_error);
}

// --- Mlp binary form -------------------------------------------------------

TEST(MlpBinary, RoundTripsBitExactly) {
  Rng rng(13);
  nn::Mlp net({3, 7, 2}, nn::Activation::LeakyRelu, nn::Activation::Sigmoid, rng);
  std::stringstream stream;
  net.save_binary(stream);
  const nn::Mlp loaded = nn::Mlp::load_binary(stream);
  EXPECT_EQ(loaded.layer_sizes(), net.layer_sizes());
  EXPECT_EQ(loaded.flat_parameters(), net.flat_parameters());
}

TEST(MlpBinary, RejectsNonFiniteParameterNamingOffset) {
  Rng rng(14);
  nn::Mlp net({2, 3, 1}, nn::Activation::Relu, nn::Activation::Identity, rng);
  std::stringstream stream;
  net.save_binary(stream);
  std::string raw = stream.str();
  // Overwrite the LAST parameter with a quiet NaN (IEEE-754 LE bytes).
  const unsigned char nan_bytes[8] = {0, 0, 0, 0, 0, 0, 0xf8, 0x7f};
  for (int i = 0; i < 8; ++i) {
    raw[raw.size() - 8 + i] = static_cast<char>(nan_bytes[i]);
  }
  std::istringstream bad(raw);
  try {
    nn::Mlp::load_binary(bad);
    FAIL() << "non-finite parameter accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite parameter"), std::string::npos)
        << e.what();
  }
}

TEST(MlpBinary, RejectsTruncationNamingOffset) {
  Rng rng(15);
  nn::Mlp net({2, 3, 1}, nn::Activation::Relu, nn::Activation::Identity, rng);
  std::stringstream stream;
  net.save_binary(stream);
  std::string raw = stream.str();
  raw.resize(raw.size() - 12);  // mid-parameter
  std::istringstream bad(raw);
  try {
    nn::Mlp::load_binary(bad);
    FAIL() << "truncated parameters accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated parameters"), std::string::npos)
        << e.what();
  }
}

TEST(MlpBinary, RejectsHostileLayerWidthBeforeAllocating) {
  // A header declaring a 2 x 2^40 network must be rejected by the size
  // caps, not die allocating terabytes.
  std::ostringstream out;
  write_u32(out, 2);
  write_u64(out, 2);
  write_u64(out, 1ull << 40);
  write_u8(out, 0);
  std::istringstream bad(out.str());
  EXPECT_THROW(nn::Mlp::load_binary(bad), std::runtime_error);
}

// --- DDPG agent blob -------------------------------------------------------

rl::DdpgConfig small_ddpg_config() {
  rl::DdpgConfig config;
  config.base.state_dim = 4;
  config.base.action_dim = 2;
  config.base.hidden = 16;
  config.replay_capacity = 64;
  config.batch_size = 8;
  config.warmup = 16;
  config.noise_decay = 0.99;
  config.noise_min = 0.05;
  return config;
}

/// Drive `agent` through `steps` interactions fed from `data` (the same
/// stream produces the same inputs, so two agents in the same state stay
/// in lockstep).
void drive(rl::Ddpg& agent, Rng& data, int steps,
           std::vector<std::vector<double>>* actions_out = nullptr) {
  std::vector<double> state(4);
  for (auto& v : state) v = data.uniform(-1.0, 1.0);
  for (int t = 0; t < steps; ++t) {
    const auto action = agent.act(state, /*explore=*/true);
    std::vector<double> next(4);
    for (auto& v : next) v = data.uniform(-1.0, 1.0);
    agent.observe(state, action, data.normal(), next, false);
    if (actions_out != nullptr) actions_out->push_back(action);
    state = next;
  }
}

TEST(DdpgCheckpoint, ResavedBlobIsByteIdentical) {
  Rng rng_a(21);
  rl::Ddpg a(small_ddpg_config(), rng_a);
  Rng data(22);
  drive(a, data, 40);  // past warmup: Adam moments + replay populated
  ASSERT_GT(a.update_count(), 0u);

  std::stringstream blob;
  a.save_checkpoint(blob);

  Rng rng_b(999);  // deliberately different construction stream
  rl::Ddpg b(small_ddpg_config(), rng_b);
  b.load_checkpoint(blob);

  std::stringstream resaved;
  b.save_checkpoint(resaved);
  EXPECT_EQ(blob.str(), resaved.str());
}

TEST(DdpgCheckpoint, RestoredAgentContinuesBitIdentically) {
  Rng rng_a(23);
  rl::Ddpg a(small_ddpg_config(), rng_a);
  Rng data(24);
  drive(a, data, 40);

  std::stringstream blob;
  a.save_checkpoint(blob);
  Rng rng_b(1234);
  rl::Ddpg b(small_ddpg_config(), rng_b);
  b.load_checkpoint(blob);

  // Both agents see the same future inputs (cloned data stream).
  Rng data_b = Rng::deserialize(data.serialize());
  std::vector<std::vector<double>> actions_a;
  std::vector<std::vector<double>> actions_b;
  drive(a, data, 30, &actions_a);
  drive(b, data_b, 30, &actions_b);
  EXPECT_EQ(actions_a, actions_b);  // exploration noise included — bit-exact

  std::stringstream final_a;
  std::stringstream final_b;
  a.save_checkpoint(final_a);
  b.save_checkpoint(final_b);
  EXPECT_EQ(final_a.str(), final_b.str());
}

TEST(DdpgCheckpoint, RejectsHyperparameterMismatch) {
  Rng rng_a(25);
  rl::Ddpg a(small_ddpg_config(), rng_a);
  std::stringstream blob;
  a.save_checkpoint(blob);

  auto wrong = small_ddpg_config();
  wrong.batch_size = 16;  // silently resuming onto a different trajectory
  Rng rng_b(26);
  rl::Ddpg b(wrong, rng_b);
  try {
    b.load_checkpoint(blob);
    FAIL() << "hyperparameter mismatch accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("mismatch"), std::string::npos) << e.what();
  }
}

TEST(DdpgCheckpoint, RejectsArchitectureMismatchWithoutPartialApply) {
  Rng rng_a(27);
  rl::Ddpg a(small_ddpg_config(), rng_a);
  std::stringstream blob;
  a.save_checkpoint(blob);

  auto wrong = small_ddpg_config();
  wrong.base.hidden = 8;
  Rng rng_b(28);
  rl::Ddpg b(wrong, rng_b);
  const std::vector<double> probe{0.1, -0.2, 0.3, -0.4};
  const auto before = b.act(probe, /*explore=*/false);
  EXPECT_THROW(b.load_checkpoint(blob), std::runtime_error);
  // The failed load must not have touched the agent.
  EXPECT_EQ(b.act(probe, /*explore=*/false), before);
}

TEST(DdpgCheckpoint, RejectsTruncatedBlob) {
  Rng rng_a(29);
  rl::Ddpg a(small_ddpg_config(), rng_a);
  Rng data(30);
  drive(a, data, 20);
  std::stringstream blob;
  a.save_checkpoint(blob);
  std::string raw = blob.str();
  raw.resize(raw.size() * 2 / 3);
  std::istringstream truncated(raw);
  Rng rng_b(31);
  rl::Ddpg b(small_ddpg_config(), rng_b);
  EXPECT_THROW(b.load_checkpoint(truncated), std::runtime_error);
}

}  // namespace
}  // namespace edgeslice::ckpt
