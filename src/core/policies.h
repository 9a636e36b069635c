// Resource orchestration policies: the learned EdgeSlice agent and the
// comparison algorithms of Sec. VII-B.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "env/environment.h"
#include "rl/agent.h"

namespace edgeslice::core {

/// A per-RA policy mapping the RA's observable state to an orchestration
/// action (slice-major resource fractions).
class RaPolicy {
 public:
  virtual ~RaPolicy() = default;
  virtual std::vector<double> decide(const env::RaEnvironment& environment) = 0;
  /// decide() into a caller-owned buffer (resized to action_dim), so hot
  /// loops reusing one buffer avoid the per-interval allocation. The
  /// default wraps decide(); allocation-free policies override this and
  /// implement decide() on top of it. Bit-identical to decide().
  virtual void decide_into(const env::RaEnvironment& environment,
                           std::vector<double>& action) {
    action = decide(environment);
  }
  /// Learning hook, called after the environment advanced.
  virtual void feedback(const env::StepResult& /*result*/) {}
  virtual std::string name() const = 0;

  /// When decide() is exactly network->infer_vector(environment.state())
  /// — no exploration, no learning side effects — return that network so
  /// the system can batch this policy's inference with every other policy
  /// sharing the same network (one forward pass per network per interval;
  /// bit-identical per row, see rl/batched_actor.h). Policies with any
  /// other decide() semantics must return null (the default).
  virtual const nn::Mlp* inference_network() const { return nullptr; }
};

/// EdgeSlice / EdgeSlice-NT: a DRL agent over the environment state.
/// (EdgeSlice-NT is obtained by building the environment with
/// include_traffic_in_state = false; the policy code is identical.)
class LearnedPolicy final : public RaPolicy {
 public:
  /// `learn` controls whether transitions are fed back to the agent and
  /// whether actions are exploratory.
  LearnedPolicy(std::shared_ptr<rl::Agent> agent, bool learn);

  std::vector<double> decide(const env::RaEnvironment& environment) override;
  void feedback(const env::StepResult& result) override;
  std::string name() const override;

  /// Batchable only in deployment: with learn_ set, decide() explores and
  /// feedback() consumes the pending action, neither of which batches.
  const nn::Mlp* inference_network() const override {
    return learn_ ? nullptr : agent_->inference_actor();
  }

  rl::Agent& agent() { return *agent_; }
  void set_learning(bool learn) { learn_ = learn; }
  bool learning() const { return learn_; }

 private:
  std::shared_ptr<rl::Agent> agent_;
  bool learn_;
  std::vector<double> pending_action_;
};

/// Forwards every call to `inner` but withholds its inference_network(),
/// so the system decides this RA with a per-RA decide_into() instead of a
/// batched row — the unbatched reference that batched inference is checked
/// and timed against. `inner` is non-owning and must outlive the decorator.
class UnbatchedPolicy final : public RaPolicy {
 public:
  explicit UnbatchedPolicy(RaPolicy& inner) : inner_(&inner) {}

  std::vector<double> decide(const env::RaEnvironment& environment) override {
    return inner_->decide(environment);
  }
  void decide_into(const env::RaEnvironment& environment,
                   std::vector<double>& action) override {
    inner_->decide_into(environment, action);
  }
  void feedback(const env::StepResult& result) override { inner_->feedback(result); }
  std::string name() const override { return inner_->name(); }

 private:
  RaPolicy* inner_;
};

/// TARO — Traffic-Aware Resource Orchestration (the baseline): every
/// resource is shared proportionally to current queue lengths,
/// x_{i,j} = R_j^tot * l_i / sum_i' l_i'.
class TaroPolicy final : public RaPolicy {
 public:
  std::vector<double> decide(const env::RaEnvironment& environment) override;
  void decide_into(const env::RaEnvironment& environment,
                   std::vector<double>& action) override;
  std::string name() const override { return "TARO"; }
};

/// Equal static split — a sanity baseline used by tests and ablations
/// (not in the paper): x_{i,k} = 1 / I.
class EqualSharePolicy final : public RaPolicy {
 public:
  std::vector<double> decide(const env::RaEnvironment& environment) override;
  void decide_into(const env::RaEnvironment& environment,
                   std::vector<double>& action) override;
  std::string name() const override { return "EqualShare"; }
};

}  // namespace edgeslice::core
