#include "rl/frozen.h"

#include <gtest/gtest.h>

#include <sstream>

#include "rl/ddpg.h"

namespace edgeslice::rl {
namespace {

nn::Mlp make_actor(Rng& rng) {
  return nn::Mlp({3, 8, 2}, nn::Activation::LeakyRelu, nn::Activation::Sigmoid, rng);
}

TEST(FrozenActor, ActsLikeItsNetwork) {
  Rng rng(1);
  nn::Mlp actor = make_actor(rng);
  FrozenActor frozen(actor, "test");
  const std::vector<double> s{0.1, 0.5, -0.3};
  EXPECT_EQ(frozen.act(s, false), actor.infer_vector(s));
  EXPECT_EQ(frozen.act(s, true), actor.infer_vector(s));  // never explores
  EXPECT_EQ(frozen.name(), "test");
  EXPECT_EQ(frozen.state_dim(), 3u);
  EXPECT_EQ(frozen.action_dim(), 2u);
}

TEST(FrozenActor, ObserveIsNoOp) {
  Rng rng(2);
  FrozenActor frozen(make_actor(rng));
  const std::vector<double> s{0, 0, 0};
  const auto before = frozen.act(s, false);
  frozen.observe(s, {0.5, 0.5}, -1.0, s, false);
  EXPECT_EQ(frozen.act(s, false), before);
  EXPECT_EQ(frozen.update_count(), 0u);
}

TEST(FrozenActor, RoundTripsThroughSerialization) {
  // The bench cache path: train -> save policy network -> load -> freeze.
  Rng rng(3);
  DdpgConfig config;
  config.base.state_dim = 3;
  config.base.action_dim = 2;
  config.base.hidden = 8;
  Ddpg agent(config, rng);
  ASSERT_NE(agent.policy_network(), nullptr);

  std::stringstream stream;
  agent.policy_network()->save_binary(stream);
  FrozenActor frozen(nn::Mlp::load_binary(stream), agent.name());

  const std::vector<double> s{0.4, -0.2, 0.9};
  EXPECT_EQ(frozen.act(s, false), agent.act(s, false));
}

TEST(FrozenActor, AllAgentsExposePolicyNetworks) {
  Rng rng(4);
  AgentConfig config;
  config.state_dim = 3;
  config.action_dim = 2;
  config.hidden = 8;
  for (const Algorithm algorithm : {Algorithm::Ddpg, Algorithm::Sac, Algorithm::Ppo,
                                    Algorithm::Trpo, Algorithm::Vpg}) {
    const auto agent = make_agent(algorithm, config, rng);
    ASSERT_NE(agent->policy_network(), nullptr) << algorithm_name(algorithm);
    EXPECT_EQ(agent->policy_network()->in_dim(), 3u);
    EXPECT_EQ(agent->policy_network()->out_dim(), 2u);
  }
}

}  // namespace
}  // namespace edgeslice::rl
