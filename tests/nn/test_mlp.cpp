#include "nn/mlp.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/binio.h"
#include "common/rng.h"

namespace edgeslice::nn {
namespace {

Mlp make_net(Rng& rng) {
  return Mlp({3, 8, 8, 2}, Activation::LeakyRelu, Activation::Identity, rng);
}

TEST(Mlp, RequiresAtLeastTwoSizes) {
  Rng rng(1);
  EXPECT_THROW(Mlp({4}, Activation::Relu, Activation::Identity, rng),
               std::invalid_argument);
}

TEST(Mlp, ShapesAndDims) {
  Rng rng(1);
  Mlp net = make_net(rng);
  EXPECT_EQ(net.in_dim(), 3u);
  EXPECT_EQ(net.out_dim(), 2u);
  EXPECT_EQ(net.layers().size(), 3u);
  const auto y = net.infer(Matrix(5, 3, 0.5));
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 2u);
}

TEST(Mlp, InferVectorMatchesInfer) {
  Rng rng(2);
  Mlp net = make_net(rng);
  const std::vector<double> x{0.1, -0.4, 0.9};
  const auto a = net.infer_vector(x);
  const auto b = net.infer(Matrix::row(x)).row_vector(0);
  EXPECT_EQ(a, b);
}

// Full-stack numerical gradient check: L = sum(net(x)).
TEST(Mlp, BackwardMatchesFiniteDifference) {
  Rng rng(3);
  Mlp net({2, 5, 3}, Activation::Tanh, Activation::Sigmoid, rng);
  Matrix x(3, 2);
  Rng data(4);
  for (auto& v : x.data()) v = data.normal();

  net.zero_grad();
  net.forward(x);
  net.backward(Matrix(3, 3, 1.0));
  const auto analytic = net.flat_gradients();

  const auto theta = net.flat_parameters();
  const double eps = 1e-6;
  for (std::size_t i = 0; i < theta.size(); i += 7) {  // sample every 7th param
    auto up = theta;
    auto down = theta;
    up[i] += eps;
    down[i] -= eps;
    net.set_flat_parameters(up);
    const double lu = net.infer(x).total();
    net.set_flat_parameters(down);
    const double ld = net.infer(x).total();
    net.set_flat_parameters(theta);
    EXPECT_NEAR(analytic[i], (lu - ld) / (2 * eps), 1e-5) << "param " << i;
  }
}

TEST(Mlp, LearnsLinearRegression) {
  // y = 2 x0 - x1; MSE descent should reach near-zero loss.
  Rng rng(5);
  Mlp net({2, 16, 1}, Activation::LeakyRelu, Activation::Identity, rng);
  Adam opt(AdamConfig{.learning_rate = 0.01});
  net.attach_to(opt);
  Rng data(6);
  double loss = 0.0;
  for (int step = 0; step < 3000; ++step) {
    Matrix x(16, 2);
    for (auto& v : x.data()) v = data.uniform(-1, 1);
    Matrix target(16, 1);
    for (std::size_t r = 0; r < 16; ++r) target(r, 0) = 2 * x(r, 0) - x(r, 1);
    const auto y = net.forward(x);
    Matrix grad(16, 1);
    loss = 0.0;
    for (std::size_t r = 0; r < 16; ++r) {
      const double e = y(r, 0) - target(r, 0);
      loss += e * e / 16.0;
      grad(r, 0) = 2.0 * e / 16.0;
    }
    net.backward(grad);
    opt.step();
  }
  EXPECT_LT(loss, 1e-3);
}

TEST(Mlp, SoftUpdateInterpolates) {
  Rng rng(7);
  Mlp a({2, 4, 1}, Activation::Relu, Activation::Identity, rng);
  Mlp b({2, 4, 1}, Activation::Relu, Activation::Identity, rng);
  const double wa = a.layers()[0].weights()(0, 0);
  const double wb = b.layers()[0].weights()(0, 0);
  b.soft_update_from(a, 0.25);
  EXPECT_NEAR(b.layers()[0].weights()(0, 0), 0.25 * wa + 0.75 * wb, 1e-12);
}

TEST(Mlp, CopyParametersMakesIdentical) {
  Rng rng(8);
  Mlp a({2, 4, 1}, Activation::Relu, Activation::Identity, rng);
  Mlp b({2, 4, 1}, Activation::Relu, Activation::Identity, rng);
  b.copy_parameters_from(a);
  const std::vector<double> x{0.3, -0.7};
  EXPECT_EQ(a.infer_vector(x), b.infer_vector(x));
}

TEST(Mlp, SoftUpdateArchitectureMismatchThrows) {
  Rng rng(9);
  Mlp a({2, 4, 1}, Activation::Relu, Activation::Identity, rng);
  Mlp b({2, 4, 4, 1}, Activation::Relu, Activation::Identity, rng);
  EXPECT_THROW(b.soft_update_from(a, 0.5), std::invalid_argument);
}

TEST(Mlp, FlatParameterRoundTrip) {
  Rng rng(10);
  Mlp net = make_net(rng);
  auto theta = net.flat_parameters();
  EXPECT_EQ(theta.size(), net.parameter_count());
  for (auto& v : theta) v += 0.5;
  net.set_flat_parameters(theta);
  EXPECT_EQ(net.flat_parameters(), theta);
  theta.pop_back();
  EXPECT_THROW(net.set_flat_parameters(theta), std::invalid_argument);
}

std::string save_bytes(const Mlp& net) {
  std::ostringstream out;
  net.save_binary(out);
  return out.str();
}

Mlp load_bytes(const std::string& bytes) {
  std::istringstream in(bytes);
  return Mlp::load_binary(in);
}

/// A load_binary header declaring `sizes` and `activations`, no parameters.
std::string header_bytes(const std::vector<std::uint64_t>& sizes,
                         const std::vector<std::uint8_t>& activations) {
  std::ostringstream out;
  write_u32(out, static_cast<std::uint32_t>(sizes.size()));
  for (const std::uint64_t s : sizes) write_u64(out, s);
  for (const std::uint8_t a : activations) write_u8(out, a);
  return out.str();
}

/// load_binary must throw a runtime_error whose message has every needle.
void expect_load_error(const std::string& bytes,
                       const std::vector<std::string>& needles) {
  try {
    load_bytes(bytes);
    ADD_FAILURE() << "load_binary accepted invalid input";
  } catch (const std::runtime_error& e) {
    for (const std::string& needle : needles) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  }
}

TEST(Mlp, SaveLoadRoundTripsExactly) {
  Rng rng(21);
  Mlp net({3, 7, 2}, Activation::LeakyRelu, Activation::Sigmoid, rng);
  const Mlp loaded = load_bytes(save_bytes(net));
  EXPECT_EQ(loaded.in_dim(), 3u);
  EXPECT_EQ(loaded.out_dim(), 2u);
  EXPECT_EQ(loaded.layers()[0].activation(), Activation::LeakyRelu);
  EXPECT_EQ(loaded.layers()[1].activation(), Activation::Sigmoid);
  EXPECT_EQ(loaded.flat_parameters(), net.flat_parameters());
  const std::vector<double> x{0.31, -0.87, 1.44};
  EXPECT_EQ(net.infer_vector(x), loaded.infer_vector(x));  // bit-exact
}

TEST(Mlp, LoadRejectsGarbage) {
  expect_load_error("", {"truncated"});
  // "not " read as a little-endian layer count is ~5e8 layers.
  expect_load_error("not an mlp", {"bad layer count"});
  Rng rng(30);
  const std::string blob =
      save_bytes(Mlp({2, 4, 1}, Activation::Relu, Activation::Identity, rng));
  expect_load_error(blob.substr(0, 10), {"truncated"});  // inside the header
  std::string bad_activation = header_bytes({2, 4, 1}, {0, 200});
  expect_load_error(bad_activation, {"bad activation code 200", "layer 1"});
}

// Regression: the loader once accepted NaN/inf weights "successfully" —
// the deployed policy then produced NaN allocations with no hint of why.
// It now rejects them, naming the layer and offset that broke.
TEST(Mlp, LoadRejectsNonFiniteParameterNamingLayer) {
  Rng rng(31);
  std::string blob =
      save_bytes(Mlp({2, 3, 1}, Activation::Relu, Activation::Identity, rng));
  // Overwrite the final parameter (the output layer's bias) with +inf.
  std::ostringstream inf;
  write_f64(inf, std::numeric_limits<double>::infinity());
  blob.replace(blob.size() - 8, 8, inf.str());
  expect_load_error(blob, {"non-finite parameter", "layer 1", "offset 3 of 4"});
}

TEST(Mlp, LoadRejectsTruncationNamingOffset) {
  Rng rng(33);
  const std::string blob =
      save_bytes(Mlp({2, 3, 1}, Activation::Relu, Activation::Identity, rng));
  // Drop the final parameter entirely, then cut one mid-way.
  expect_load_error(blob.substr(0, blob.size() - 8),
                    {"truncated parameters", "layer 1", "offset 3 of 4"});
  expect_load_error(blob.substr(0, blob.size() - 12),
                    {"truncated parameters", "layer 1", "offset 2 of 4"});
}

TEST(Mlp, LoadRejectsHostileHeaderBeforeAllocating) {
  // Each header would demand a multi-gigabyte allocation if the caps did
  // not fire first; none carries a single parameter byte.
  expect_load_error(header_bytes({1048577, 2, 1}, {0, 0}), {"bad layer size"});
  expect_load_error(header_bytes({1u << 20, 1u << 20}, {0}), {"parameter count"});
  expect_load_error(header_bytes(std::vector<std::uint64_t>(65, 2), {}),
                    {"bad layer count"});
}

TEST(Mlp, CopyConstructorClones) {
  Rng rng(11);
  Mlp a = make_net(rng);
  Mlp b = a;  // Dense/Matrix are value types: this is a deep clone
  const std::vector<double> x{1.0, 2.0, 3.0};
  EXPECT_EQ(a.infer_vector(x), b.infer_vector(x));
  b.layers()[0].weights()(0, 0) += 1.0;
  EXPECT_NE(a.infer_vector(x), b.infer_vector(x));
}

}  // namespace
}  // namespace edgeslice::nn
