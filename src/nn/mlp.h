// Multi-layer perceptron: a stack of Dense layers.
//
// Matches the paper's actor/critic architecture (Sec. VI-A): two hidden
// layers of 128 LeakyReLU units, with a configurable output head
// (sigmoid for the actor, identity for the critic).
#pragma once

#include <iosfwd>
#include <vector>

#include "common/rng.h"
#include "nn/adam.h"
#include "nn/dense.h"

namespace edgeslice::nn {

class Mlp {
 public:
  /// `sizes` = {in, hidden..., out}. Hidden layers use `hidden`,
  /// the final layer uses `output`.
  Mlp(const std::vector<std::size_t>& sizes, Activation hidden, Activation output,
      Rng& rng);

  /// Forward pass caching intermediate state for backward().
  Matrix forward(const Matrix& x);
  /// Stateless inference (does not disturb cached training state).
  Matrix infer(const Matrix& x) const;
  /// Convenience: single input vector -> single output vector.
  std::vector<double> infer_vector(const std::vector<double>& x) const;

  /// Allocation-free inference: layer i's output lands in workspace[i]
  /// (resized to layer count / reshaped on batch change; steady-state
  /// calls allocate nothing), and the returned reference is
  /// workspace.back(). Bit-identical to infer(x) — this is the hot-path
  /// variant batched cross-agent inference runs every interval.
  const Matrix& infer_into(const Matrix& x, std::vector<Matrix>& workspace) const;

  /// Backprop dL/dOutput through the whole stack; accumulates parameter
  /// gradients and returns dL/dInput.
  Matrix backward(const Matrix& grad_out);

  void zero_grad();

  /// Register all parameters with an optimizer.
  void attach_to(Adam& optimizer);

  /// Polyak soft update: this <- tau * source + (1 - tau) * this.
  /// Used for the DDPG target networks.
  void soft_update_from(const Mlp& source, double tau);

  /// Hard copy of parameters.
  void copy_parameters_from(const Mlp& source);

  /// Flattened parameter vector (for TRPO's natural-gradient updates).
  std::vector<double> flat_parameters() const;
  void set_flat_parameters(const std::vector<double>& theta);
  /// Flattened accumulated gradient (same ordering as flat_parameters()).
  std::vector<double> flat_gradients() const;
  std::size_t parameter_count() const;

  std::size_t in_dim() const { return layers_.front().in_dim(); }
  std::size_t out_dim() const { return layers_.back().out_dim(); }
  std::vector<Dense>& layers() { return layers_; }
  const std::vector<Dense>& layers() const { return layers_; }

  /// Layer sizes {in, hidden..., out} (the constructor's `sizes`).
  std::vector<std::size_t> layer_sizes() const;

  /// Binary serialization via common/binio (little-endian, exact f64 bit
  /// patterns): architecture (sizes + activations), then parameters — the
  /// "mlp network blob" embedded in checkpoint sections (FORMATS.md).
  /// load_binary() validates the header (size and activation ranges)
  /// before allocating, rejects non-finite parameters, and names the
  /// layer/offset at which a truncated parameter block ends.
  void save_binary(std::ostream& out) const;
  static Mlp load_binary(std::istream& in);

 private:
  std::vector<Dense> layers_;
};

}  // namespace edgeslice::nn
