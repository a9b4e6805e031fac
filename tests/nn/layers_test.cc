#include "fedscope/nn/layers.h"

#include <gtest/gtest.h>

#include "fedscope/nn/grad_check.h"
#include "fedscope/nn/loss.h"
#include "fedscope/nn/model.h"
#include "fedscope/tensor/tensor_ops.h"

namespace fedscope {
namespace {

// ---------------------------------------------------------------------------
// Forward-pass semantics
// ---------------------------------------------------------------------------

TEST(LinearTest, ForwardMatchesManualComputation) {
  Rng rng(1);
  Linear fc(2, 2, &rng);
  // Set known weights via the model parameter interface.
  std::vector<ParamRef> params;
  fc.CollectParams("fc", &params);
  ASSERT_EQ(params.size(), 2u);
  *params[0].value = Tensor({2, 2}, {1, 2, 3, 4});  // W
  *params[1].value = Tensor({2}, {0.5f, -0.5f});    // b
  Tensor x({1, 2}, {1, 1});
  Tensor y = fc.Forward(x, true);
  EXPECT_FLOAT_EQ(y.at(0, 0), 1 + 3 + 0.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 2 + 4 - 0.5f);
}

TEST(ReLUTest, ForwardClampsAndBackwardMasks) {
  ReLU relu;
  Tensor x = Tensor::FromVector({-1.0f, 0.0f, 2.0f});
  Tensor y = relu.Forward(x, true);
  EXPECT_EQ(y.at(0), 0.0f);
  EXPECT_EQ(y.at(2), 2.0f);
  Tensor g = relu.Backward(Tensor::FromVector({1, 1, 1}));
  EXPECT_EQ(g.at(0), 0.0f);
  EXPECT_EQ(g.at(1), 0.0f);  // gradient at exactly 0 is 0 (subgradient)
  EXPECT_EQ(g.at(2), 1.0f);
}

TEST(TanhTest, ForwardRange) {
  Tanh tanh_layer;
  Tensor x = Tensor::FromVector({-10.0f, 0.0f, 10.0f});
  Tensor y = tanh_layer.Forward(x, true);
  EXPECT_NEAR(y.at(0), -1.0f, 1e-4);
  EXPECT_EQ(y.at(1), 0.0f);
  EXPECT_NEAR(y.at(2), 1.0f, 1e-4);
}

TEST(MaxPoolTest, ForwardPicksMaxAndBackwardRoutes) {
  MaxPool2d pool;
  Tensor x({1, 1, 2, 2}, {1, 5, 3, 2});
  Tensor y = pool.Forward(x, true);
  EXPECT_EQ(y.numel(), 1);
  EXPECT_EQ(y.at(0), 5.0f);
  Tensor g = pool.Backward(Tensor({1, 1, 1, 1}, {7.0f}));
  EXPECT_EQ(g.at(0), 0.0f);
  EXPECT_EQ(g.at(1), 7.0f);  // gradient flows only to the argmax
  EXPECT_EQ(g.at(2), 0.0f);
}

TEST(FlattenTest, RoundTripsShape) {
  Flatten flatten;
  Tensor x({2, 3, 2, 2});
  Tensor y = flatten.Forward(x, true);
  EXPECT_EQ(y.dim(0), 2);
  EXPECT_EQ(y.dim(1), 12);
  Tensor g = flatten.Backward(y);
  EXPECT_EQ(g.shape(), x.shape());
}

TEST(DropoutTest, EvalModeIsIdentity) {
  Dropout drop(0.5, 42);
  Tensor x = Tensor::Full({100}, 1.0f);
  Tensor y = drop.Forward(x, /*train=*/false);
  EXPECT_TRUE(x == y);
}

TEST(DropoutTest, TrainModeZeroesAndRescales) {
  Dropout drop(0.5, 42);
  Tensor x = Tensor::Full({2000}, 1.0f);
  Tensor y = drop.Forward(x, /*train=*/true);
  int zeros = 0;
  double sum = 0.0;
  for (int64_t i = 0; i < y.numel(); ++i) {
    if (y.at(i) == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(y.at(i), 2.0f);  // inverted dropout scale 1/(1-p)
    }
    sum += y.at(i);
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y.numel(), 0.5, 0.05);
  EXPECT_NEAR(sum / y.numel(), 1.0, 0.1);  // expectation preserved
}

TEST(DropoutTest, BackwardUsesSameMask) {
  Dropout drop(0.3, 7);
  Tensor x = Tensor::Full({50}, 1.0f);
  Tensor y = drop.Forward(x, true);
  Tensor g = drop.Backward(Tensor::Full({50}, 1.0f));
  for (int64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(g.at(i) == 0.0f, y.at(i) == 0.0f);
  }
}

TEST(BatchNormTest, NormalizesBatchStatistics) {
  BatchNorm bn(2);
  Tensor x({4, 2}, {1, 10, 2, 20, 3, 30, 4, 40});
  Tensor y = bn.Forward(x, /*train=*/true);
  // Per-feature mean ~0, var ~1.
  for (int f = 0; f < 2; ++f) {
    double mean = 0.0, var = 0.0;
    for (int i = 0; i < 4; ++i) mean += y.at(i, f);
    mean /= 4;
    for (int i = 0; i < 4; ++i) {
      var += (y.at(i, f) - mean) * (y.at(i, f) - mean);
    }
    var /= 4;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNormTest, RunningStatsUpdateAndEvalMode) {
  BatchNorm bn(1);
  Tensor x({4, 1}, {10, 10, 10, 10});
  // EMA with momentum 0.1: after ~200 identical batches, running mean has
  // converged to 10 and running var to ~0.
  for (int i = 0; i < 200; ++i) bn.Forward(x, /*train=*/true);
  Tensor y = bn.Forward(x, /*train=*/false);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(y.at(i, 0), 0.0f, 0.05f);
}

TEST(BatchNormTest, ParamsSplitTrainableAndBuffers) {
  BatchNorm bn(3);
  std::vector<ParamRef> params;
  bn.CollectParams("layer", &params);
  ASSERT_EQ(params.size(), 4u);
  int trainable = 0, buffers = 0;
  for (const auto& p : params) {
    if (p.trainable) {
      ++trainable;
    } else {
      ++buffers;
      EXPECT_EQ(p.grad, nullptr);
    }
    EXPECT_NE(p.name.find(".bn."), std::string::npos);
  }
  EXPECT_EQ(trainable, 2);  // gamma, beta
  EXPECT_EQ(buffers, 2);    // running mean/var
}

TEST(Conv2dTest, IdentityKernelReproducesInput) {
  Rng rng(2);
  Conv2d conv(1, 1, 3, 1, &rng);
  std::vector<ParamRef> params;
  conv.CollectParams("conv", &params);
  // Kernel = delta at center, bias 0 -> output == input.
  ZeroInPlace(params[0].value);
  params[0].value->at4(0, 0, 1, 1) = 1.0f;
  ZeroInPlace(params[1].value);
  Rng xr(3);
  Tensor x = Tensor::Randn({1, 1, 4, 4}, &xr);
  Tensor y = conv.Forward(x, true);
  EXPECT_EQ(y.shape(), x.shape());
  for (int64_t i = 0; i < x.numel(); ++i) EXPECT_NEAR(y.at(i), x.at(i), 1e-5);
}

TEST(Conv2dTest, OutputShapeNoPadding) {
  Rng rng(4);
  Conv2d conv(2, 3, 3, 0, &rng);
  Tensor x({2, 2, 6, 6});
  Tensor y = conv.Forward(x, true);
  EXPECT_EQ(y.dim(0), 2);
  EXPECT_EQ(y.dim(1), 3);
  EXPECT_EQ(y.dim(2), 4);
  EXPECT_EQ(y.dim(3), 4);
}

TEST(Conv2dTest, BackwardRejectsGradientOfWrongShape) {
  Rng rng(5);
  Conv2d conv(2, 3, 3, 1, &rng);
  Tensor x = Tensor::Randn({2, 2, 4, 4}, &rng);
  Tensor y = conv.Forward(x, true);
  // The layer's own input gradient has the input's shape, not the output's.
  Tensor grad_in = conv.Backward(Tensor::Randn(y.shape(), &rng));
  EXPECT_DEATH(conv.Backward(grad_in), "grad_out");
  EXPECT_DEATH(conv.BackwardParams(Tensor({1, 3, 4, 4})), "grad_out");
}

TEST(MaxPoolTest, BackwardRejectsGradientOfWrongShape) {
  MaxPool2d pool;
  Tensor x({1, 2, 4, 4});
  pool.Forward(x, true);
  EXPECT_DEATH(pool.Backward(x), "grad_out");
  EXPECT_DEATH(pool.Backward(Tensor({1, 2, 2, 3})), "grad_out");
}

// ---------------------------------------------------------------------------
// Gradient checks: every layer's backward pass against finite differences.
// ---------------------------------------------------------------------------

struct GradCheckCase {
  std::string name;
  std::function<Model(Rng*)> build;
  std::vector<int64_t> x_shape;
  int64_t classes;
  /// float32 + finite differences leave ~1e-2 relative error; BN through
  /// conv amplifies it slightly (1/sqrt(var) factors), so cases may widen.
  double tolerance = 2e-2;
};

// gtest's default printer dumps the struct's raw bytes, heap pointers
// included, so the discovered ctest names would change with every run of
// the binary. Print the case name instead.
void PrintTo(const GradCheckCase& test_case, std::ostream* os) {
  *os << test_case.name;
}

class LayerGradCheck : public ::testing::TestWithParam<GradCheckCase> {};

TEST_P(LayerGradCheck, AnalyticMatchesNumeric) {
  const auto& test_case = GetParam();
  Rng rng(11);
  Model model = test_case.build(&rng);
  Rng xr(12);
  Tensor x = Tensor::Randn(test_case.x_shape, &xr);
  std::vector<int64_t> labels(test_case.x_shape[0]);
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int64_t>(i) % test_case.classes;
  }
  SoftmaxCrossEntropy loss;
  auto result = CheckModelGradients(&model, &loss, x, labels, 1e-2, 12);
  EXPECT_GT(result.checked, 0);
  EXPECT_LT(result.max_rel_err, test_case.tolerance)
      << test_case.name << " abs=" << result.max_abs_err;
}

INSTANTIATE_TEST_SUITE_P(
    AllLayers, LayerGradCheck,
    ::testing::Values(
        GradCheckCase{"linear",
                      [](Rng* rng) {
                        Model m;
                        m.Add("fc", std::make_unique<Linear>(6, 4, rng));
                        return m;
                      },
                      {3, 6},
                      4},
        GradCheckCase{"mlp_relu",
                      [](Rng* rng) {
                        Model m;
                        m.Add("fc1", std::make_unique<Linear>(5, 8, rng));
                        m.Add("act", std::make_unique<ReLU>());
                        m.Add("fc2", std::make_unique<Linear>(8, 3, rng));
                        return m;
                      },
                      {4, 5},
                      3},
        GradCheckCase{"mlp_tanh",
                      [](Rng* rng) {
                        Model m;
                        m.Add("fc1", std::make_unique<Linear>(5, 6, rng));
                        m.Add("act", std::make_unique<Tanh>());
                        m.Add("fc2", std::make_unique<Linear>(6, 3, rng));
                        return m;
                      },
                      {4, 5},
                      3},
        GradCheckCase{"batchnorm",
                      [](Rng* rng) {
                        Model m;
                        m.Add("fc1", std::make_unique<Linear>(4, 6, rng));
                        m.Add("norm", std::make_unique<BatchNorm>(6));
                        m.Add("act", std::make_unique<ReLU>());
                        m.Add("fc2", std::make_unique<Linear>(6, 2, rng));
                        return m;
                      },
                      {6, 4},
                      2},
        GradCheckCase{"conv_pool",
                      [](Rng* rng) {
                        Model m;
                        m.Add("conv",
                              std::make_unique<Conv2d>(1, 2, 3, 1, rng));
                        m.Add("act", std::make_unique<ReLU>());
                        m.Add("pool", std::make_unique<MaxPool2d>());
                        m.Add("flat", std::make_unique<Flatten>());
                        m.Add("fc", std::make_unique<Linear>(8, 3, rng));
                        return m;
                      },
                      {2, 1, 4, 4},
                      3},
        GradCheckCase{"conv_batchnorm",
                      [](Rng* rng) {
                        Model m;
                        m.Add("conv",
                              std::make_unique<Conv2d>(1, 3, 3, 1, rng));
                        m.Add("norm", std::make_unique<BatchNorm>(3));
                        m.Add("act", std::make_unique<ReLU>());
                        m.Add("flat", std::make_unique<Flatten>());
                        m.Add("fc", std::make_unique<Linear>(3 * 4 * 4, 2,
                                                             rng));
                        return m;
                      },
                      {3, 1, 4, 4},
                      2,
                      /*tolerance=*/5e-2},
        GradCheckCase{"conv_nopad",
                      [](Rng* rng) {
                        Model m;
                        m.Add("conv",
                              std::make_unique<Conv2d>(2, 2, 3, 0, rng));
                        m.Add("flat", std::make_unique<Flatten>());
                        m.Add("fc", std::make_unique<Linear>(2 * 2 * 2, 2,
                                                             rng));
                        return m;
                      },
                      {2, 2, 4, 4},
                      2}),
    [](const ::testing::TestParamInfo<GradCheckCase>& info) {
      return info.param.name;
    });

TEST(LayerCloneTest, ClonesAreIndependent) {
  Rng rng(13);
  Linear fc(3, 3, &rng);
  auto copy = fc.Clone();
  std::vector<ParamRef> orig_params, copy_params;
  fc.CollectParams("fc", &orig_params);
  copy->CollectParams("fc", &copy_params);
  EXPECT_TRUE(*orig_params[0].value == *copy_params[0].value);
  copy_params[0].value->at(0) += 1.0f;
  EXPECT_FALSE(*orig_params[0].value == *copy_params[0].value);
}

}  // namespace
}  // namespace fedscope
