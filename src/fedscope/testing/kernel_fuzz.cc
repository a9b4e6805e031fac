#include "fedscope/testing/kernel_fuzz.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "fedscope/comm/codec.h"
#include "fedscope/comm/compression.h"
#include "fedscope/comm/message.h"
#include "fedscope/nn/layers.h"
#include "fedscope/nn/model.h"
#include "fedscope/nn/model_zoo.h"
#include "fedscope/tensor/kernels.h"
#include "fedscope/util/rng.h"

namespace fedscope {
namespace testing {
namespace {

std::vector<float> RandomFloats(Rng* rng, int64_t n) {
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng->Uniform(-2.0, 2.0));
  return v;
}

bool BitEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

void Report(std::vector<Violation>* out, const std::string& oracle,
            uint64_t trial_seed, const std::string& what) {
  std::ostringstream os;
  os << what << " (trial seed " << trial_seed << ")";
  out->push_back({oracle, os.str()});
}

// -- kernel oracles ---------------------------------------------------------

void FuzzGemmTrial(Rng* rng, uint64_t trial_seed,
                   std::vector<Violation>* out) {
  // n and k reach past two 32-wide tiles, so every tile width (32, 16, 8,
  // the overlapping 8-wide tail and the edge) and the row edge are drawn.
  const int64_t m = rng->UniformInt(1, 24);
  const int64_t n = rng->UniformInt(1, 96);
  const int64_t k = rng->UniformInt(1, 96);
  const std::vector<float> a = RandomFloats(rng, m * k);
  const std::vector<float> b = RandomFloats(rng, k * n);
  // Random initial c: the kernels accumulate, so the contract must hold
  // for c += a@b, not just c = a@b.
  const std::vector<float> c0 = RandomFloats(rng, m * n);

  const struct {
    const char* name;
    void (*tiled)(int64_t, int64_t, int64_t, const float*, const float*,
                  float*);
    void (*ref)(int64_t, int64_t, int64_t, const float*, const float*,
                float*);
  } kVariants[] = {
      {"Gemm", kernels::Gemm, kernels::GemmReference},
      {"GemmTransA", kernels::GemmTransA, kernels::GemmTransAReference},
      {"GemmTransB", kernels::GemmTransB, kernels::GemmTransBReference},
  };
  for (const auto& v : kVariants) {
    // TransA reads a as [k, m]; TransB reads b as [n, k]. Both have m*k
    // and k*n elements respectively, so the same buffers serve all three.
    std::vector<float> c_tiled = c0;
    std::vector<float> c_ref = c0;
    v.tiled(m, n, k, a.data(), b.data(), c_tiled.data());
    v.ref(m, n, k, a.data(), b.data(), c_ref.data());
    if (!BitEqual(c_tiled, c_ref)) {
      std::ostringstream os;
      os << v.name << " tiled != scalar reference for m=" << m << " n=" << n
         << " k=" << k;
      Report(out, "kernel_gemm", trial_seed, os.str());
    }
  }

  // GemmLda reads a's rows lda apart: the same product as Gemm on a.
  const int64_t lda = k + rng->UniformInt(0, 7);
  std::vector<float> a_wide(static_cast<size_t>(m * lda), -7.0f);
  for (int64_t i = 0; i < m; ++i) {
    std::copy_n(a.data() + i * k, k, a_wide.data() + i * lda);
  }
  std::vector<float> c_lda = c0;
  std::vector<float> c_ref = c0;
  kernels::GemmLda(m, n, k, a_wide.data(), lda, b.data(), c_lda.data());
  kernels::GemmReference(m, n, k, a.data(), b.data(), c_ref.data());
  if (!BitEqual(c_lda, c_ref)) {
    std::ostringstream os;
    os << "GemmLda != scalar reference for m=" << m << " n=" << n
       << " k=" << k << " lda=" << lda;
    Report(out, "kernel_gemm", trial_seed, os.str());
  }
}

void NaiveIm2Col(const float* im, int64_t channels, int64_t height,
                 int64_t width, int64_t kernel, int64_t padding,
                 float* cols) {
  const int64_t out_h = kernels::ConvOutDim(height, kernel, padding);
  const int64_t out_w = kernels::ConvOutDim(width, kernel, padding);
  int64_t i = 0;
  for (int64_t ic = 0; ic < channels; ++ic) {
    for (int64_t kh = 0; kh < kernel; ++kh) {
      for (int64_t kw = 0; kw < kernel; ++kw) {
        for (int64_t oh = 0; oh < out_h; ++oh) {
          for (int64_t ow = 0; ow < out_w; ++ow) {
            const int64_t ih = oh + kh - padding;
            const int64_t iw = ow + kw - padding;
            const bool in_bounds =
                ih >= 0 && ih < height && iw >= 0 && iw < width;
            cols[i++] =
                in_bounds ? im[(ic * height + ih) * width + iw] : 0.0f;
          }
        }
      }
    }
  }
}

// Accumulates a [channels*kernel*kernel, out_h*out_w] column matrix back
// into im, one element at a time in column-matrix order.
void NaiveCol2Im(const float* cols, int64_t channels, int64_t height,
                 int64_t width, int64_t kernel, int64_t padding, float* im) {
  const int64_t out_h = kernels::ConvOutDim(height, kernel, padding);
  const int64_t out_w = kernels::ConvOutDim(width, kernel, padding);
  int64_t i = 0;
  for (int64_t ic = 0; ic < channels; ++ic) {
    for (int64_t kh = 0; kh < kernel; ++kh) {
      for (int64_t kw = 0; kw < kernel; ++kw) {
        for (int64_t oh = 0; oh < out_h; ++oh) {
          for (int64_t ow = 0; ow < out_w; ++ow, ++i) {
            const int64_t ih = oh + kh - padding;
            const int64_t iw = ow + kw - padding;
            if (ih >= 0 && ih < height && iw >= 0 && iw < width) {
              im[(ic * height + ih) * width + iw] += cols[i];
            }
          }
        }
      }
    }
  }
}

void FuzzConvTrial(Rng* rng, uint64_t trial_seed,
                   std::vector<Violation>* out) {
  const int64_t channels = rng->UniformInt(1, 3);
  const int64_t height = rng->UniformInt(1, 8);
  const int64_t width = rng->UniformInt(1, 8);
  const int64_t padding = rng->UniformInt(0, 2);
  // Stride-1 output extents must stay >= 1: kernel <= in + 2*padding.
  const int64_t max_kernel =
      std::min(height, width) + 2 * padding;
  const int64_t kernel = rng->UniformInt(1, std::min<int64_t>(4, max_kernel));
  const int64_t out_h = kernels::ConvOutDim(height, kernel, padding);
  const int64_t out_w = kernels::ConvOutDim(width, kernel, padding);
  const int64_t rows = channels * kernel * kernel;
  const int64_t cols_n = out_h * out_w;

  // The column matrix's rows start ld >= cols_n apart; the gap between
  // rows must stay untouched.
  const int64_t ld = cols_n + rng->UniformInt(0, 5);

  const std::vector<float> im = RandomFloats(rng, channels * height * width);
  std::vector<float> cols_wide(static_cast<size_t>(rows * ld), -7.0f);
  std::vector<float> cols_naive(static_cast<size_t>(rows * cols_n), 0.0f);
  kernels::Im2Col(im.data(), channels, height, width, kernel, padding,
                  cols_wide.data(), ld);
  NaiveIm2Col(im.data(), channels, height, width, kernel, padding,
              cols_naive.data());
  std::vector<float> cols_fast(static_cast<size_t>(rows * cols_n));
  bool gap_untouched = true;
  for (int64_t r = 0; r < rows; ++r) {
    std::copy_n(cols_wide.data() + r * ld, cols_n,
                cols_fast.data() + r * cols_n);
    for (int64_t j = cols_n; j < ld; ++j) {
      gap_untouched = gap_untouched && cols_wide[r * ld + j] == -7.0f;
    }
  }
  if (!BitEqual(cols_fast, cols_naive) || !gap_untouched) {
    std::ostringstream os;
    os << "Im2Col != naive gather for c=" << channels << " h=" << height
       << " w=" << width << " k=" << kernel << " p=" << padding
       << " ld=" << ld;
    Report(out, "kernel_im2col", trial_seed, os.str());
  }

  // Col2Im is the exact adjoint scatter of the gather: accumulating any
  // column matrix back must equal the naive per-element scatter.
  const std::vector<float> grad_cols = RandomFloats(rng, rows * cols_n);
  std::vector<float> grad_wide(static_cast<size_t>(rows * ld), 1e30f);
  for (int64_t r = 0; r < rows; ++r) {
    std::copy_n(grad_cols.data() + r * cols_n, cols_n,
                grad_wide.data() + r * ld);
  }
  std::vector<float> im_fast = RandomFloats(rng, channels * height * width);
  std::vector<float> im_naive = im_fast;
  kernels::Col2Im(grad_wide.data(), ld, channels, height, width, kernel,
                  padding, im_fast.data());
  NaiveCol2Im(grad_cols.data(), channels, height, width, kernel, padding,
              im_naive.data());
  if (!BitEqual(im_fast, im_naive)) {
    std::ostringstream os;
    os << "Col2Im != naive scatter for c=" << channels << " h=" << height
       << " w=" << width << " k=" << kernel << " p=" << padding
       << " ld=" << ld;
    Report(out, "kernel_col2im", trial_seed, os.str());
  }

  // The production lowering (im2col + gemm + row bias) vs the direct
  // double-accumulating reference. Accumulation orders differ, so this is
  // a tolerance comparison, not a bit one.
  const int64_t out_c = rng->UniformInt(1, 3);
  const std::vector<float> weight = RandomFloats(rng, out_c * rows);
  const std::vector<float> bias = RandomFloats(rng, out_c);
  std::vector<float> y_lowered(static_cast<size_t>(out_c * cols_n), 0.0f);
  kernels::Gemm(out_c, cols_n, rows, weight.data(), cols_fast.data(),
                y_lowered.data());
  for (int64_t oc = 0; oc < out_c; ++oc) {
    for (int64_t i = 0; i < cols_n; ++i) y_lowered[oc * cols_n + i] += bias[oc];
  }
  std::vector<float> y_direct(static_cast<size_t>(out_c * cols_n), 0.0f);
  kernels::Conv2dForwardReference(im.data(), weight.data(), bias.data(),
                                  channels, height, width, out_c, kernel,
                                  padding, y_direct.data());
  for (size_t i = 0; i < y_direct.size(); ++i) {
    const float diff = std::abs(y_lowered[i] - y_direct[i]);
    if (!(diff <= 1e-3f)) {  // negated: also catches NaN
      std::ostringstream os;
      os << "im2col+gemm conv deviates from direct reference by " << diff
         << " at element " << i << " (c=" << channels << " h=" << height
         << " w=" << width << " k=" << kernel << " p=" << padding
         << " oc=" << out_c << ")";
      Report(out, "kernel_conv", trial_seed, os.str());
      break;
    }
  }
}

// -- layer oracles ----------------------------------------------------------
// A layer's output and gradients must equal, bit for bit, the composition
// of the scalar *Reference kernels image by image (Conv2d) or batch at once
// (Linear), with the reference adding each image's dW partial sum in order.

Tensor RandomTensor(Rng* rng, std::vector<int64_t> shape) {
  const int64_t n = ShapeNumel(shape);
  return Tensor(std::move(shape), RandomFloats(rng, n));
}

bool TensorBitEqual(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) && BitEqual(a.storage(), b.storage());
}

// Gives a layer random parameters (its constructor zeroes the bias).
void RandomizeParams(Layer* layer, Rng* rng) {
  std::vector<ParamRef> params;
  layer->CollectParams("layer", &params);
  for (ParamRef& p : params) *p.value = RandomTensor(rng, p.value->shape());
}

void CheckLayerTensor(const char* what, const Tensor& got, const Tensor& want,
                      const std::string& shape, uint64_t trial_seed,
                      std::vector<Violation>* out) {
  if (TensorBitEqual(got, want)) return;
  std::ostringstream os;
  os << what << " != per-image reference composition for " << shape;
  Report(out, "layer_exact", trial_seed, os.str());
}

void FuzzConv2dLayerTrial(Rng* rng, uint64_t trial_seed,
                          std::vector<Violation>* out) {
  const int64_t in_c = rng->UniformInt(1, 4);
  const int64_t out_c = rng->UniformInt(1, 20);
  const int64_t height = rng->UniformInt(1, 10);
  const int64_t width = rng->UniformInt(1, 10);
  const int64_t padding = rng->UniformInt(0, 2);
  const int64_t kernel = rng->UniformInt(
      1, std::min<int64_t>(4, std::min(height, width) + 2 * padding));
  const int64_t batch = rng->UniformInt(1, 20);
  std::ostringstream shape;
  shape << "Conv2d in_c=" << in_c << " out_c=" << out_c << " h=" << height
        << " w=" << width << " k=" << kernel << " p=" << padding
        << " batch=" << batch;
  Rng init(rng->Next());
  Conv2d conv(in_c, out_c, kernel, padding, &init);
  RandomizeParams(&conv, rng);
  std::vector<ParamRef> params;
  conv.CollectParams("conv", &params);
  const Tensor weight = *params[0].value;
  const Tensor bias = *params[1].value;

  const int64_t out_h = kernels::ConvOutDim(height, kernel, padding);
  const int64_t out_w = kernels::ConvOutDim(width, kernel, padding);
  const int64_t patch = in_c * kernel * kernel;
  const int64_t spatial = out_h * out_w;
  const int64_t image = in_c * height * width;
  const Tensor x = RandomTensor(rng, {batch, in_c, height, width});
  std::vector<std::vector<float>> cols(static_cast<size_t>(batch));
  Tensor y_ref({batch, out_c, out_h, out_w});
  for (int64_t n = 0; n < batch; ++n) {
    cols[n].resize(patch * spatial);
    NaiveIm2Col(x.data() + n * image, in_c, height, width, kernel, padding,
                cols[n].data());
    float* yn = y_ref.data() + n * out_c * spatial;
    kernels::GemmReference(out_c, spatial, patch, weight.data(),
                           cols[n].data(), yn);
    for (int64_t oc = 0; oc < out_c; ++oc) {
      for (int64_t s = 0; s < spatial; ++s) yn[oc * spatial + s] += bias.at(oc);
    }
  }
  CheckLayerTensor("output", conv.Forward(x, true), y_ref, shape.str(),
                   trial_seed, out);

  // Two passes: Backward from zero gradients, then BackwardParams onto
  // them, so accumulation onto a nonzero dW and db is covered too.
  Tensor wgrad_ref(weight.shape());
  Tensor bgrad_ref({out_c});
  for (int pass = 0; pass < 2; ++pass) {
    const Tensor g = RandomTensor(rng, {batch, out_c, out_h, out_w});
    Tensor gin_ref(x.shape());
    for (int64_t n = 0; n < batch; ++n) {
      const float* gn = g.data() + n * out_c * spatial;
      for (int64_t oc = 0; oc < out_c; ++oc) {
        for (int64_t s = 0; s < spatial; ++s) {
          bgrad_ref.at(oc) += gn[oc * spatial + s];
        }
      }
      kernels::GemmTransBReference(out_c, patch, spatial, gn, cols[n].data(),
                                   wgrad_ref.data());
      std::vector<float> dcols(static_cast<size_t>(patch * spatial), 0.0f);
      kernels::GemmTransAReference(patch, spatial, out_c, weight.data(), gn,
                                   dcols.data());
      NaiveCol2Im(dcols.data(), in_c, height, width, kernel, padding,
                  gin_ref.data() + n * image);
    }
    if (pass == 0) {
      CheckLayerTensor("input gradient", conv.Backward(g), gin_ref,
                       shape.str(), trial_seed, out);
    } else {
      conv.BackwardParams(g);
    }
    CheckLayerTensor("weight gradient", *params[0].grad, wgrad_ref,
                     shape.str(), trial_seed, out);
    CheckLayerTensor("bias gradient", *params[1].grad, bgrad_ref, shape.str(),
                     trial_seed, out);
  }
}

void FuzzLinearLayerTrial(Rng* rng, uint64_t trial_seed,
                          std::vector<Violation>* out) {
  const int64_t in = rng->UniformInt(1, 96);
  const int64_t outf = rng->UniformInt(1, 40);
  const int64_t batch = rng->UniformInt(1, 20);
  std::ostringstream shape;
  shape << "Linear in=" << in << " out=" << outf << " batch=" << batch;
  Rng init(rng->Next());
  Linear fc(in, outf, &init);
  RandomizeParams(&fc, rng);
  std::vector<ParamRef> params;
  fc.CollectParams("fc", &params);
  const Tensor weight = *params[0].value;
  const Tensor bias = *params[1].value;

  const Tensor x = RandomTensor(rng, {batch, in});
  Tensor y_ref({batch, outf});
  kernels::GemmReference(batch, outf, in, x.data(), weight.data(),
                         y_ref.data());
  for (int64_t r = 0; r < batch; ++r) {
    for (int64_t c = 0; c < outf; ++c) y_ref.at(r, c) += bias.at(c);
  }
  CheckLayerTensor("output", fc.Forward(x, true), y_ref, shape.str(),
                   trial_seed, out);

  Tensor wgrad_ref(weight.shape());
  Tensor bgrad_ref({outf});
  for (int pass = 0; pass < 2; ++pass) {
    const Tensor g = RandomTensor(rng, {batch, outf});
    kernels::GemmTransAReference(in, outf, batch, x.data(), g.data(),
                                 wgrad_ref.data());
    for (int64_t r = 0; r < batch; ++r) {
      for (int64_t c = 0; c < outf; ++c) bgrad_ref.at(c) += g.at(r, c);
    }
    if (pass == 0) {
      Tensor gin_ref({batch, in});
      kernels::GemmTransBReference(batch, in, outf, g.data(), weight.data(),
                                   gin_ref.data());
      CheckLayerTensor("input gradient", fc.Backward(g), gin_ref,
                       shape.str(), trial_seed, out);
    } else {
      fc.BackwardParams(g);
    }
    CheckLayerTensor("weight gradient", *params[0].grad, wgrad_ref,
                     shape.str(), trial_seed, out);
    CheckLayerTensor("bias gradient", *params[1].grad, bgrad_ref, shape.str(),
                     trial_seed, out);
  }
}

// Model::Backward skips the bottom layer's input gradient; the parameter
// gradients must equal a pass that runs every layer's full Backward.
void FuzzModelTrial(Rng* rng, uint64_t trial_seed,
                    std::vector<Violation>* out) {
  const int64_t batch = rng->UniformInt(1, 20);
  const int64_t channels = rng->UniformInt(1, 3);
  const int64_t size = 4 * rng->UniformInt(1, 3);
  const int64_t classes = rng->UniformInt(2, 12);
  const int64_t hidden = rng->UniformInt(1, 40);
  const bool conv = rng->Bernoulli(0.5);
  Rng init(rng->Next());
  Model model;
  if (conv) {
    model = MakeConvNet2(channels, size, classes, hidden, 0.0, &init);
  } else {
    model.Add("flatten", std::make_unique<Flatten>());
    Model mlp = MakeMlp({channels * size * size, hidden, classes}, &init);
    for (int i = 0; i < mlp.num_layers(); ++i) {
      model.Add(mlp.layer_name(i), mlp.layer(i)->Clone());
    }
  }
  std::ostringstream shape;
  shape << (conv ? "ConvNet2" : "Flatten+MLP") << " c=" << channels
        << " size=" << size << " hidden=" << hidden << " classes=" << classes
        << " batch=" << batch;
  Model full = model;
  const Tensor x = RandomTensor(rng, {batch, channels, size, size});
  const Tensor g = RandomTensor(rng, {batch, classes});

  model.ZeroGrad();
  model.Forward(x, true);
  model.Backward(g);

  full.ZeroGrad();
  full.Forward(x, true);
  Tensor grad = g;
  for (int i = full.num_layers() - 1; i >= 0; --i) {
    grad = full.layer(i)->Backward(grad);
  }
  if (!BitEqual(model.FlatGrads(), full.FlatGrads())) {
    shape << ": parameter gradients differ with the bottom input gradient "
             "skipped";
    Report(out, "model_bottom_skip", trial_seed, shape.str());
  }
}

// Krum's distances: the lane kernel against the serial chains, bit for
// bit. n covers one to three lane groups and every offset pass; d is long
// (past a k-major chunk) half the time and short otherwise. Rows are scaled
// by 2^e, |e| <= 40, so some differences round in double: each lane must
// take its difference in double and add its square in ascending k, as the
// serial chain does.
void FuzzDistanceTrial(Rng* rng, uint64_t trial_seed,
                       std::vector<Violation>* out) {
  const int64_t n = rng->UniformInt(1, 24);
  const int64_t d =
      rng->Bernoulli(0.5) ? rng->UniformInt(1, 7000) : rng->UniformInt(1, 64);
  std::vector<std::vector<float>> data(static_cast<size_t>(n));
  std::vector<const float*> rows(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    data[i] = RandomFloats(rng, d);
    const int e = static_cast<int>(rng->UniformInt(-40, 40));
    for (float& v : data[i]) v = std::ldexp(v, e);
    rows[i] = data[i].data();
  }
  std::vector<double> lanes(static_cast<size_t>(n * n));
  std::vector<double> serial(static_cast<size_t>(n * n));
  kernels::PairwiseSquaredDistances(rows.data(), n, d, lanes.data());
  kernels::PairwiseSquaredDistancesReference(rows.data(), n, d,
                                             serial.data());
  if (std::memcmp(lanes.data(), serial.data(),
                  lanes.size() * sizeof(double)) != 0) {
    std::ostringstream os;
    os << "PairwiseSquaredDistances != serial chains for n=" << n
       << " d=" << d;
    Report(out, "kernel_distances", trial_seed, os.str());
  }
}

void FuzzElementwiseTrial(Rng* rng, uint64_t trial_seed,
                          std::vector<Violation>* out) {
  const int64_t rows = rng->UniformInt(1, 12);
  const int64_t cols = rng->UniformInt(1, 12);
  const int64_t n = rows * cols;
  const std::vector<float> x = RandomFloats(rng, n);

  std::vector<float> y(static_cast<size_t>(n));
  kernels::ReluForward(x.data(), y.data(), n);
  std::vector<float> y_ref(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) y_ref[i] = x[i] > 0.0f ? x[i] : 0.0f;
  if (!BitEqual(y, y_ref)) {
    Report(out, "kernel_elementwise", trial_seed, "ReluForward != naive");
  }

  std::vector<float> grad = RandomFloats(rng, n);
  std::vector<float> grad_ref = grad;
  kernels::ReluBackward(x.data(), grad.data(), n);
  for (int64_t i = 0; i < n; ++i) {
    if (!(x[i] > 0.0f)) grad_ref[i] = 0.0f;
  }
  if (!BitEqual(grad, grad_ref)) {
    Report(out, "kernel_elementwise", trial_seed, "ReluBackward != naive");
  }

  const std::vector<float> bias_c = RandomFloats(rng, cols);
  std::vector<float> yc = x;
  std::vector<float> yc_ref = x;
  kernels::AddColBias(yc.data(), bias_c.data(), rows, cols);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) yc_ref[r * cols + c] += bias_c[c];
  }
  if (!BitEqual(yc, yc_ref)) {
    Report(out, "kernel_elementwise", trial_seed, "AddColBias != naive");
  }

  // The sum accumulates row-major in ascending order — replicating that
  // order in the naive loop makes this an exact comparison too.
  std::vector<float> csum = RandomFloats(rng, cols);
  std::vector<float> csum_ref = csum;
  kernels::ColSumsAccum(x.data(), rows, cols, csum.data());
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) csum_ref[c] += x[r * cols + c];
  }
  if (!BitEqual(csum, csum_ref)) {
    Report(out, "kernel_elementwise", trial_seed, "ColSumsAccum != naive");
  }
}

// -- codec oracles ----------------------------------------------------------

Message RandomMessage(Rng* rng) {
  static const char* kTypes[] = {"model_para", "model_update", "evaluate",
                                 "metrics", "join_in", "finish"};
  Message msg;
  msg.sender = static_cast<int>(rng->UniformInt(-1, 12));
  msg.receiver = static_cast<int>(rng->UniformInt(-1, 12));
  msg.msg_type = kTypes[rng->UniformInt(0, 5)];
  msg.state = static_cast<int>(rng->UniformInt(0, 100));
  msg.timestamp = rng->Uniform(0.0, 50.0);
  const int64_t n_scalars = rng->UniformInt(0, 4);
  for (int64_t i = 0; i < n_scalars; ++i) {
    const std::string key = "s" + std::to_string(i);
    switch (rng->UniformInt(0, 2)) {
      case 0:
        msg.payload.SetInt(key, rng->UniformInt(-1000, 1000));
        break;
      case 1:
        msg.payload.SetDouble(key, rng->Uniform(-10.0, 10.0));
        break;
      default: {
        std::string v(static_cast<size_t>(rng->UniformInt(0, 12)), 'x');
        for (auto& ch : v) ch = static_cast<char>(rng->UniformInt(1, 255));
        msg.payload.SetString(key, std::move(v));
      }
    }
  }
  const int64_t n_tensors = rng->UniformInt(0, 3);
  for (int64_t i = 0; i < n_tensors; ++i) {
    const int64_t ndim = rng->UniformInt(0, 3);
    std::vector<int64_t> shape;
    for (int64_t d = 0; d < ndim; ++d) shape.push_back(rng->UniformInt(1, 5));
    Tensor t = Tensor::Rand(shape, rng, -3.0f, 3.0f);
    msg.payload.SetTensor("t" + std::to_string(i), std::move(t));
  }
  return msg;
}

void FuzzCodecTrial(Rng* rng, uint64_t trial_seed,
                    std::vector<Violation>* out) {
  const Message msg = RandomMessage(rng);
  const std::vector<uint8_t> bytes = EncodeMessage(msg);

  if (EncodedMessageSize(msg) != bytes.size()) {
    Report(out, "codec_size", trial_seed,
           "EncodedMessageSize disagrees with EncodeMessage");
  }

  // Round trip: decode must succeed and re-encode bit-exactly.
  Result<Message> decoded = DecodeMessage(bytes);
  if (!decoded.ok()) {
    Report(out, "codec_roundtrip", trial_seed,
           "valid frame rejected: " + decoded.status().ToString());
  } else {
    const std::vector<uint8_t> again = EncodeMessage(decoded.value());
    if (again != bytes) {
      Report(out, "codec_roundtrip", trial_seed,
             "re-encode is not bit-identical");
    }
  }

  // Frame split / shuffle / reassemble restores the stream.
  const size_t max_frame =
      static_cast<size_t>(rng->UniformInt(1, static_cast<int64_t>(
                                                 bytes.size() + 8)));
  std::vector<Frame> frames = SplitIntoFrames(bytes, max_frame);
  rng->Shuffle(&frames);
  Result<std::vector<uint8_t>> joined = ReassembleFrames(std::move(frames));
  if (!joined.ok() || joined.value() != bytes) {
    Report(out, "codec_frames", trial_seed,
           "split+shuffle+reassemble did not restore the stream");
  }

  // Adversarial inputs: each must return Status (the oracle for "no
  // crash" is this process surviving; ASan/UBSan sharpen it in CI).
  std::vector<uint8_t> mutated = bytes;
  switch (rng->UniformInt(0, 3)) {
    case 0:  // truncate at a random point
      mutated.resize(static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(mutated.size()))));
      break;
    case 1:  // flip one random byte
      if (!mutated.empty()) {
        mutated[static_cast<size_t>(rng->UniformInt(
            0, static_cast<int64_t>(mutated.size()) - 1))] ^=
            static_cast<uint8_t>(rng->UniformInt(1, 255));
      }
      break;
    case 2:  // saturate a random 4-byte window (fake huge length prefix)
      if (mutated.size() >= 4) {
        const size_t at = static_cast<size_t>(rng->UniformInt(
            0, static_cast<int64_t>(mutated.size()) - 4));
        std::memset(mutated.data() + at, 0xFF, 4);
      }
      break;
    default: {  // pure garbage
      mutated = std::vector<uint8_t>(
          static_cast<size_t>(rng->UniformInt(0, 64)));
      for (auto& byte : mutated) {
        byte = static_cast<uint8_t>(rng->UniformInt(0, 255));
      }
    }
  }
  Result<Message> hostile = DecodeMessage(mutated);
  if (hostile.ok()) {
    // A mutation may still parse (e.g. a flipped tensor byte). Whatever
    // decodes must survive re-encoding.
    (void)EncodeMessage(hostile.value());
  }
}

// -- update-codec oracle ----------------------------------------------------

/// A random broadcast signature: 1-4 tensors of rank 1-3 (dims 1-6), with
/// names that share prefixes or hold the key separator.
StateDict RandomSignature(Rng* rng) {
  static constexpr const char* kNames[] = {"w", "w.b", "fc.w", "fc.b", "a/b"};
  StateDict signature;
  const int64_t count = rng->UniformInt(1, 4);
  for (int64_t i = 0; i < count; ++i) {
    std::vector<int64_t> shape(static_cast<size_t>(rng->UniformInt(1, 3)));
    for (auto& d : shape) d = rng->UniformInt(1, 6);
    signature[kNames[rng->UniformInt(0, 4)]] = Tensor::Randn(shape, rng);
  }
  return signature;
}

/// Exactly the names of `like`, each with its shape.
bool SameShapes(const StateDict& dict, const StateDict& like) {
  if (dict.size() != like.size()) return false;
  for (const auto& [name, tensor] : like) {
    const auto it = dict.find(name);
    if (it == dict.end() || it->second.shape() != tensor.shape()) return false;
  }
  return true;
}

const std::string& Pick(const std::vector<std::string>& keys, Rng* rng) {
  return keys[static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(keys.size()) - 1))];
}

/// One structural mutation of an encoded update. The fuzz knows no update
/// key: it tells entries apart by type, and `header` (the update of an
/// empty delta: the codec tag alone) names the entries whose value may
/// change but whose presence may not, so a compressed update stays one.
void MutateUpdate(Rng* rng, const Payload& header, Payload* update) {
  std::vector<std::string> body, tensors, strings, numbers;
  for (const auto& [key, tensor] : update->tensors()) {
    tensors.push_back(key);
    body.push_back(key);
  }
  for (const auto& [key, value] : update->scalars()) {
    (std::holds_alternative<std::string>(value) ? strings : numbers)
        .push_back(key);
    if (!header.HasScalar(key)) body.push_back(key);
  }
  switch (rng->UniformInt(0, 7)) {
    case 0: {  // a shape dim or a value takes a hostile value
      if (tensors.empty()) return;
      const std::string& key = Pick(tensors, rng);
      Tensor t = update->GetTensor(key).value();
      if (t.numel() == 0) return;
      static constexpr float kHostile[] = {
          std::numeric_limits<float>::quiet_NaN(),
          std::numeric_limits<float>::infinity(), -1.0f, 0.0f, 0.5f,
          2147483648.0f, 16777217.0f};
      float& v = t.at(rng->UniformInt(0, t.numel() - 1));
      const int64_t pick = rng->UniformInt(0, 7);
      v = pick < 7 ? kHostile[pick] : v * 1e6f;
      update->SetTensor(key, std::move(t));
      return;
    }
    case 1: {  // a tensor gains or loses an element: shape rank, value count
      if (tensors.empty()) return;
      const std::string& key = Pick(tensors, rng);
      std::vector<float> values = update->GetTensor(key).value().storage();
      if (!values.empty() && rng->Bernoulli(0.5)) {
        values.pop_back();
      } else {
        values.push_back(static_cast<float>(rng->UniformInt(1, 6)));
      }
      update->SetTensor(key, Tensor::FromVector(values));
      return;
    }
    case 2: {  // a string (codes, indices, the codec tag) changes length
      if (strings.empty()) return;
      const std::string& key = Pick(strings, rng);
      std::string value = update->GetString(key);
      const size_t by = static_cast<size_t>(rng->UniformInt(1, 5));
      if (!value.empty() && rng->Bernoulli(0.5)) {
        value.resize(value.size() - std::min(by, value.size()));
      } else {
        value.append(by, static_cast<char>(rng->UniformInt(0, 255)));
      }
      update->SetString(key, std::move(value));
      return;
    }
    case 3: {  // an aligned 4-byte word of a string (an index) is rewritten
      if (strings.empty()) return;
      const std::string& key = Pick(strings, rng);
      std::string value = update->GetString(key);
      if (value.size() < sizeof(uint32_t)) return;
      const uint32_t words[] = {0xFFFFFFFFu, 0x80000000u,
                                static_cast<uint32_t>(rng->UniformInt(0, 300))};
      const uint32_t word = words[rng->UniformInt(0, 2)];
      const size_t at = sizeof(uint32_t) *
                        static_cast<size_t>(rng->UniformInt(
                            0, static_cast<int64_t>(value.size() /
                                                    sizeof(uint32_t)) - 1));
      std::memcpy(value.data() + at, &word, sizeof(uint32_t));
      update->SetString(key, std::move(value));
      return;
    }
    case 4: {  // a string takes a codec's name, its own or another's
      if (strings.empty()) return;
      static constexpr const char* kNames[] = {"quant8", "topk", "none", "",
                                               "delta"};
      update->SetString(Pick(strings, rng), kNames[rng->UniformInt(0, 4)]);
      return;
    }
    case 5: {  // an entry moves to a name outside the signature
      if (body.empty()) return;
      const std::string key = Pick(body, rng);
      const size_t at = static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(key.size())));
      const std::string renamed =
          key.substr(0, at) + "#/x"[rng->UniformInt(0, 2)] + key.substr(at);
      if (update->HasTensor(key)) {
        Tensor t = update->GetTensor(key).value();
        update->RemoveTensor(key);
        update->SetTensor(renamed, std::move(t));
      } else if (std::holds_alternative<std::string>(
                     update->scalars().at(key))) {
        const std::string value = update->GetString(key);
        update->RemoveScalar(key);
        update->SetString(renamed, value);
      } else {
        const double value = update->GetDouble(key);
        update->RemoveScalar(key);
        update->SetDouble(renamed, value);
      }
      return;
    }
    case 6: {  // a number (a quantization range) takes a hostile value
      if (numbers.empty()) return;
      static constexpr double kHostile[] = {
          std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity(), -1e30, 1e30};
      update->SetDouble(Pick(numbers, rng), kHostile[rng->UniformInt(0, 3)]);
      return;
    }
    default: {  // an entry goes missing
      if (body.empty()) return;
      const std::string& key = Pick(body, rng);
      if (!update->RemoveTensor(key)) update->RemoveScalar(key);
      return;
    }
  }
}

void FuzzUpdateTrial(Rng* rng, uint64_t trial_seed,
                     std::vector<Violation>* out) {
  static constexpr const char* kCodecs[] = {"none", "quant8", "topk"};
  const std::string codec = kCodecs[rng->UniformInt(0, 2)];
  const double keep_frac = rng->Uniform(0.05, 1.0);
  const StateDict signature = RandomSignature(rng);
  StateDict delta;
  for (const auto& [name, like] : signature) {
    delta[name] = Tensor::Randn(like.shape(), rng);
  }
  Payload update = EncodeUpdate(delta, codec, keep_frac);

  // An honest update decodes into the signature (raw: exactly as sent).
  Result<StateDict> honest = DecodeUpdate(update, signature);
  if (!honest.ok()) {
    Report(out, "update_roundtrip", trial_seed,
           codec + " update rejected: " + honest.status().ToString());
  } else if (!SameShapes(honest.value(), signature) ||
             (codec == "none" && !(honest.value() == delta))) {
    Report(out, "update_roundtrip", trial_seed,
           codec + " update decoded off the signature");
  }

  // Mutated: a Status or the signature's shapes, never an abort. Raw
  // tensors are the guard's to screen, so a raw update always decodes.
  const Payload header = EncodeUpdate({}, codec, keep_frac);
  const int64_t mutations = rng->UniformInt(1, 3);
  for (int64_t i = 0; i < mutations; ++i) MutateUpdate(rng, header, &update);
  Result<StateDict> hostile = DecodeUpdate(update, signature);
  if (codec == "none" ? !hostile.ok()
                      : hostile.ok() && !SameShapes(hostile.value(), signature)) {
    Report(out, "update_decode", trial_seed,
           codec + " update decoded off the signature after mutation");
  }
}

}  // namespace

FuzzReport FuzzKernels(uint64_t seed, int trials) {
  FuzzReport report;
  Rng seeder(seed);
  for (int t = 0; t < trials; ++t) {
    const uint64_t trial_seed = seeder.Fork(static_cast<uint64_t>(t)).Next();
    Rng rng(trial_seed);
    FuzzGemmTrial(&rng, trial_seed, &report.violations);
    FuzzConvTrial(&rng, trial_seed, &report.violations);
    FuzzConv2dLayerTrial(&rng, trial_seed, &report.violations);
    FuzzLinearLayerTrial(&rng, trial_seed, &report.violations);
    FuzzModelTrial(&rng, trial_seed, &report.violations);
    FuzzElementwiseTrial(&rng, trial_seed, &report.violations);
    FuzzDistanceTrial(&rng, trial_seed, &report.violations);
    ++report.trials;
  }
  return report;
}

FuzzReport FuzzCodec(uint64_t seed, int trials) {
  FuzzReport report;
  Rng seeder(seed);
  for (int t = 0; t < trials; ++t) {
    const uint64_t trial_seed = seeder.Fork(static_cast<uint64_t>(t)).Next();
    Rng rng(trial_seed);
    FuzzCodecTrial(&rng, trial_seed, &report.violations);
    FuzzUpdateTrial(&rng, trial_seed, &report.violations);
    ++report.trials;
  }
  return report;
}

}  // namespace testing
}  // namespace fedscope
