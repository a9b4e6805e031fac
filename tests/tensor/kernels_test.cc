#include "fedscope/tensor/kernels.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "fedscope/nn/layers.h"
#include "fedscope/tensor/tensor.h"
#include "fedscope/tensor/tensor_ops.h"
#include "fedscope/util/rng.h"

namespace fedscope {
namespace {

std::vector<float> RandVec(int64_t n, Rng* rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng->Normal());
  return v;
}

// Edge shapes around the register tiles (8 rows by 32, 16, 8 or 4
// columns): unit dims, odd dims, exact multiples, just over a tile, k = 0,
// the ConvNet2 products at batch 16 (conv2 forward, d(cols) and dW^T, conv1
// dW^T, fc2 forward with its 2-column tail), and full row blocks 4 to 7
// wide (the 16->4 logistic regression's forward at batch 8, its weight
// gradient, the server's 64-row evaluation block, and the 4-wide tile's
// overlapping tail at n = 5, 6 and 7).
struct Shape {
  int64_t m, n, k;
};
const Shape kShapes[] = {{1, 1, 1},    {1, 33, 7},   {3, 5, 1},
                         {8, 32, 16},  {9, 33, 17},  {16, 64, 8},
                         {17, 70, 40}, {5, 2, 0},    {64, 48, 96},
                         {16, 16, 72}, {72, 16, 16}, {9, 8, 64},
                         {16, 10, 64}, {16, 72, 16}, {8, 24, 5},
                         {8, 4, 16},   {16, 4, 8},   {64, 4, 16},
                         {17, 5, 9},   {8, 6, 3},    {24, 7, 33}};

TEST(KernelsTest, GemmMatchesReferenceExactly) {
  Rng rng(101);
  for (const Shape& s : kShapes) {
    std::vector<float> a = RandVec(s.m * s.k, &rng);
    std::vector<float> b = RandVec(s.k * s.n, &rng);
    std::vector<float> c_tiled(s.m * s.n, 0.0f);
    std::vector<float> c_ref(s.m * s.n, 0.0f);
    kernels::Gemm(s.m, s.n, s.k, a.data(), b.data(), c_tiled.data());
    kernels::GemmReference(s.m, s.n, s.k, a.data(), b.data(), c_ref.data());
    for (int64_t i = 0; i < s.m * s.n; ++i) {
      ASSERT_EQ(c_tiled[i], c_ref[i])
          << "m=" << s.m << " n=" << s.n << " k=" << s.k << " at " << i;
    }
  }
}

TEST(KernelsTest, GemmTransAMatchesReferenceExactly) {
  Rng rng(102);
  for (const Shape& s : kShapes) {
    std::vector<float> a = RandVec(s.k * s.m, &rng);  // [k, m]
    std::vector<float> b = RandVec(s.k * s.n, &rng);
    std::vector<float> c_tiled(s.m * s.n, 0.0f);
    std::vector<float> c_ref(s.m * s.n, 0.0f);
    kernels::GemmTransA(s.m, s.n, s.k, a.data(), b.data(), c_tiled.data());
    kernels::GemmTransAReference(s.m, s.n, s.k, a.data(), b.data(),
                                 c_ref.data());
    for (int64_t i = 0; i < s.m * s.n; ++i) {
      ASSERT_EQ(c_tiled[i], c_ref[i])
          << "m=" << s.m << " n=" << s.n << " k=" << s.k << " at " << i;
    }
  }
}

TEST(KernelsTest, GemmTransBMatchesReferenceExactly) {
  Rng rng(103);
  for (const Shape& s : kShapes) {
    std::vector<float> a = RandVec(s.m * s.k, &rng);
    std::vector<float> b = RandVec(s.n * s.k, &rng);  // [n, k]
    std::vector<float> c_tiled(s.m * s.n, 0.0f);
    std::vector<float> c_ref(s.m * s.n, 0.0f);
    kernels::GemmTransB(s.m, s.n, s.k, a.data(), b.data(), c_tiled.data());
    kernels::GemmTransBReference(s.m, s.n, s.k, a.data(), b.data(),
                                 c_ref.data());
    for (int64_t i = 0; i < s.m * s.n; ++i) {
      ASSERT_EQ(c_tiled[i], c_ref[i])
          << "m=" << s.m << " n=" << s.n << " k=" << s.k << " at " << i;
    }
  }
}

TEST(KernelsTest, GemmAccumulatesIntoC) {
  std::vector<float> a = {1.0f, 2.0f};           // [1, 2]
  std::vector<float> b = {3.0f, 4.0f};           // [2, 1]
  std::vector<float> c = {10.0f};                // pre-seeded
  kernels::Gemm(1, 1, 2, a.data(), b.data(), c.data());
  EXPECT_EQ(c[0], 10.0f + 3.0f + 8.0f);
}

TEST(KernelsTest, GemmKZeroLeavesCUntouched) {
  std::vector<float> a(1), b(1);
  std::vector<float> c = {7.0f, -1.0f};
  kernels::Gemm(1, 2, 0, a.data(), b.data(), c.data());
  EXPECT_EQ(c[0], 7.0f);
  EXPECT_EQ(c[1], -1.0f);
}

TEST(KernelsTest, GemmIsDeterministicAcrossRuns) {
  Rng rng(104);
  std::vector<float> a = RandVec(17 * 40, &rng);
  std::vector<float> b = RandVec(40 * 70, &rng);
  std::vector<float> c1(17 * 70, 0.0f), c2(17 * 70, 0.0f);
  kernels::Gemm(17, 70, 40, a.data(), b.data(), c1.data());
  kernels::Gemm(17, 70, 40, a.data(), b.data(), c2.data());
  EXPECT_EQ(c1, c2);
}

TEST(KernelsTest, Im2ColRoundTripsThroughCol2Im) {
  // With kernel=1, pad=0 the column matrix IS the image; col2im must
  // scatter it back exactly (accumulating onto zeros).
  Rng rng(105);
  const int64_t c = 2, h = 4, w = 5;
  std::vector<float> im = RandVec(c * h * w, &rng);
  std::vector<float> cols(c * h * w);
  kernels::Im2Col(im.data(), c, h, w, 1, 0, cols.data(), h * w);
  EXPECT_EQ(cols, im);
  std::vector<float> back(c * h * w, 0.0f);
  kernels::Col2Im(cols.data(), h * w, c, h, w, 1, 0, back.data());
  EXPECT_EQ(back, im);
}

TEST(KernelsTest, Im2ColMatchesDirectGather) {
  Rng rng(106);
  const int64_t c = 3, h = 5, w = 4, k = 3, p = 1;
  const int64_t oh = kernels::ConvOutDim(h, k, p);
  const int64_t ow = kernels::ConvOutDim(w, k, p);
  std::vector<float> im = RandVec(c * h * w, &rng);
  std::vector<float> cols(c * k * k * oh * ow);
  kernels::Im2Col(im.data(), c, h, w, k, p, cols.data(), oh * ow);
  for (int64_t ic = 0; ic < c; ++ic) {
    for (int64_t kh = 0; kh < k; ++kh) {
      for (int64_t kw = 0; kw < k; ++kw) {
        for (int64_t y = 0; y < oh; ++y) {
          for (int64_t x = 0; x < ow; ++x) {
            const int64_t ih = y + kh - p, iw = x + kw - p;
            const float want =
                (ih < 0 || ih >= h || iw < 0 || iw >= w)
                    ? 0.0f
                    : im[(ic * h + ih) * w + iw];
            const int64_t row = (ic * k + kh) * k + kw;
            ASSERT_EQ(cols[row * oh * ow + y * ow + x], want)
                << ic << "," << kh << "," << kw << "," << y << "," << x;
          }
        }
      }
    }
  }
}

// Conv2d layer (im2col + GEMM) vs the direct 7-loop reference kernel.
TEST(KernelsTest, Conv2dForwardMatchesDirectReference) {
  Rng rng(107);
  const int64_t batch = 2, ic = 3, oc = 5, hw = 7, k = 3, p = 1;
  Conv2d conv(ic, oc, k, p, &rng);
  Tensor x = Tensor::Randn({batch, ic, hw, hw}, &rng);
  Tensor y = conv.Forward(x, true);

  // Pull the layer's weights through its param refs.
  std::vector<ParamRef> params;
  conv.CollectParams("conv", &params);
  const Tensor& weight = *params[0].value;
  const Tensor& bias = *params[1].value;

  const int64_t oh = kernels::ConvOutDim(hw, k, p);
  const int64_t ow = oh;
  std::vector<float> want(oc * oh * ow);
  for (int64_t n = 0; n < batch; ++n) {
    kernels::Conv2dForwardReference(x.data() + n * ic * hw * hw,
                                    weight.data(), bias.data(), ic, hw, hw,
                                    oc, k, p, want.data());
    for (int64_t i = 0; i < oc * oh * ow; ++i) {
      ASSERT_NEAR(y.data()[n * oc * oh * ow + i], want[i], 1e-4)
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(KernelsTest, Conv2dBackwardMatchesDirectReference) {
  Rng rng(108);
  const int64_t batch = 2, ic = 2, oc = 4, hw = 6, k = 3, p = 1;
  Conv2d conv(ic, oc, k, p, &rng);
  Tensor x = Tensor::Randn({batch, ic, hw, hw}, &rng);
  Tensor y = conv.Forward(x, true);
  Tensor grad_out = Tensor::Randn(y.shape(), &rng);
  Tensor grad_in = conv.Backward(grad_out);

  std::vector<ParamRef> params;
  conv.CollectParams("conv", &params);
  const Tensor& weight = *params[0].value;
  const Tensor& wgrad = *params[0].grad;
  const Tensor& bgrad = *params[1].grad;

  std::vector<float> want_wgrad(weight.numel(), 0.0f);
  std::vector<float> want_bgrad(oc, 0.0f);
  std::vector<float> want_gin(x.numel(), 0.0f);
  const int64_t oh = kernels::ConvOutDim(hw, k, p);
  for (int64_t n = 0; n < batch; ++n) {
    kernels::Conv2dBackwardReference(
        x.data() + n * ic * hw * hw, weight.data(),
        grad_out.data() + n * oc * oh * oh, ic, hw, hw, oc, k, p,
        want_wgrad.data(), want_bgrad.data(),
        want_gin.data() + n * ic * hw * hw);
  }
  for (int64_t i = 0; i < wgrad.numel(); ++i) {
    ASSERT_NEAR(wgrad.at(i), want_wgrad[i], 1e-3) << "wgrad " << i;
  }
  for (int64_t i = 0; i < oc; ++i) {
    ASSERT_NEAR(bgrad.at(i), want_bgrad[i], 1e-3) << "bgrad " << i;
  }
  for (int64_t i = 0; i < grad_in.numel(); ++i) {
    ASSERT_NEAR(grad_in.at(i), want_gin[i], 1e-3) << "grad_in " << i;
  }
}

TEST(KernelsTest, ElementwiseHelpers) {
  const std::vector<float> x = {-2.0f, -0.0f, 0.0f, 3.0f};
  std::vector<float> y(4);
  kernels::ReluForward(x.data(), y.data(), 4);
  EXPECT_EQ(y, (std::vector<float>{0.0f, 0.0f, 0.0f, 3.0f}));

  std::vector<float> g = {1.0f, 1.0f, 1.0f, 1.0f};
  kernels::ReluBackward(x.data(), g.data(), 4);
  EXPECT_EQ(g, (std::vector<float>{0.0f, 0.0f, 0.0f, 1.0f}));

  std::vector<float> t(4);
  kernels::TanhForward(x.data(), t.data(), 4);
  EXPECT_FLOAT_EQ(t[3], std::tanh(3.0f));
  std::vector<float> tg = {1.0f, 1.0f, 1.0f, 1.0f};
  kernels::TanhBackward(t.data(), tg.data(), 4);
  EXPECT_FLOAT_EQ(tg[3], 1.0f - t[3] * t[3]);
}

TEST(KernelsTest, BiasAndSumHelpers) {
  // 2 rows x 3 cols.
  std::vector<float> y = {0.0f, 0.0f, 0.0f, 1.0f, 1.0f, 1.0f};
  const std::vector<float> colb = {1.0f, 2.0f, 3.0f};
  kernels::AddColBias(y.data(), colb.data(), 2, 3);
  EXPECT_EQ(y, (std::vector<float>{1.0f, 2.0f, 3.0f, 2.0f, 3.0f, 4.0f}));

  std::vector<float> colsum(3, 100.0f);
  kernels::ColSumsAccum(y.data(), 2, 3, colsum.data());
  EXPECT_EQ(colsum, (std::vector<float>{103.0f, 105.0f, 107.0f}));
}

// Krum's distances: every pair's chain equals the serial one, bit for bit,
// over row counts around the 8-pair lane groups and the n/2 offsets, and
// lengths past one k-major chunk.
TEST(KernelsTest, PairwiseSquaredDistancesMatchSerialChainsExactly) {
  Rng rng(107);
  for (const int64_t n : {1, 2, 3, 7, 8, 9, 12, 16, 17, 24}) {
    for (const int64_t d : {0, 1, 5, 130, 6506}) {
      std::vector<std::vector<float>> data(n);
      std::vector<const float*> rows(n);
      for (int64_t i = 0; i < n; ++i) {
        data[i] = RandVec(d, &rng);
        rows[i] = data[i].data();
      }
      std::vector<double> lanes(n * n, -1.0);
      std::vector<double> serial(n * n, -1.0);
      kernels::PairwiseSquaredDistances(rows.data(), n, d, lanes.data());
      kernels::PairwiseSquaredDistancesReference(rows.data(), n, d,
                                                 serial.data());
      for (int64_t i = 0; i < n * n; ++i) {
        ASSERT_EQ(lanes[i], serial[i]) << "n=" << n << " d=" << d << " at "
                                       << i;
      }
    }
  }
  const std::vector<float> a = {0.0f, 0.0f}, b = {3.0f, 4.0f};
  const float* rows[] = {a.data(), b.data()};
  double dist[4];
  kernels::PairwiseSquaredDistances(rows, 2, 2, dist);
  EXPECT_EQ(dist[0], 0.0);
  EXPECT_EQ(dist[1], 25.0);
  EXPECT_EQ(dist[2], 25.0);
  EXPECT_EQ(dist[3], 0.0);
}

// The Tensor-level ops route through the kernels; sanity-check one known
// value so a rewiring regression is caught at this level too.
TEST(KernelsTest, TensorOpsRouteThroughKernels) {
  Tensor a({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  Tensor b({2, 2}, {5.0f, 6.0f, 7.0f, 8.0f});
  Tensor c = MatMul(a, b);
  std::vector<float> want(4, 0.0f);
  kernels::GemmReference(2, 2, 2, a.data(), b.data(), want.data());
  for (int i = 0; i < 4; ++i) EXPECT_EQ(c.at(i), want[i]);
}

}  // namespace
}  // namespace fedscope
