#include "fedscope/nn/layers.h"

#include <algorithm>
#include <cmath>
#include <typeinfo>
#include <vector>

#include "fedscope/tensor/kernels.h"
#include "fedscope/tensor/tensor_ops.h"
#include "fedscope/util/logging.h"

namespace fedscope {
namespace {

// He-uniform bound for fan_in inputs.
float HeBound(int64_t fan_in) {
  return std::sqrt(6.0f / static_cast<float>(fan_in));
}

// Layer::AssignFrom for layer type L: a plain copy-assignment, whose
// vectors keep their storage when the sizes fit.
template <typename L>
bool AssignSameType(L* self, const Layer& other) {
  if (typeid(other) != typeid(L)) return false;
  *self = static_cast<const L&>(other);
  return true;
}

}  // namespace

Status Layer::LoadPrivateState(const std::vector<uint64_t>& words) {
  if (words.empty()) return Status::Ok();
  return Status::InvalidArgument(TypeName() + " keeps no private state");
}

// --------------------------------------------------------------------------
// Linear
// --------------------------------------------------------------------------

Linear::Linear(int64_t in_features, int64_t out_features, Rng* rng)
    : in_features_(in_features), out_features_(out_features) {
  const float bound = HeBound(in_features);
  weight_ = Tensor::Rand({in_features, out_features}, rng, -bound, bound);
  bias_ = Tensor::Zeros({out_features});
  weight_grad_ = Tensor::Zeros({in_features, out_features});
  bias_grad_ = Tensor::Zeros({out_features});
}

Tensor Linear::Forward(const Tensor& x, bool /*train*/) {
  FS_CHECK_EQ(x.ndim(), 2);
  FS_CHECK_EQ(x.dim(1), in_features_);
  cached_input_ = x;
  Tensor y = MatMul(x, weight_);
  kernels::AddColBias(y.data(), bias_.data(), y.dim(0), out_features_);
  return y;
}

Tensor Linear::Backward(const Tensor& grad_out) {
  BackwardParams(grad_out);
  return MatMulTransB(grad_out, weight_);  // dx = g W^T
}

void Linear::BackwardParams(const Tensor& grad_out) {
  FS_CHECK_EQ(grad_out.ndim(), 2);
  FS_CHECK_EQ(grad_out.dim(1), out_features_);
  FS_CHECK_EQ(grad_out.dim(0), cached_input_.dim(0));
  const int64_t batch = grad_out.dim(0);
  // dW = x^T g (accumulated straight into the grad tensor), db = colsum(g).
  kernels::GemmTransA(in_features_, out_features_, batch,
                      cached_input_.data(), grad_out.data(),
                      weight_grad_.data());
  kernels::ColSumsAccum(grad_out.data(), batch, out_features_,
                        bias_grad_.data());
}

void Linear::CollectParams(const std::string& prefix,
                           std::vector<ParamRef>* out) {
  out->push_back({prefix + ".weight", &weight_, &weight_grad_, true});
  out->push_back({prefix + ".bias", &bias_, &bias_grad_, true});
}

std::unique_ptr<Layer> Linear::Clone() const {
  auto copy = std::unique_ptr<Linear>(new Linear());
  *copy = *this;
  return copy;
}

bool Linear::AssignFrom(const Layer& other) {
  return AssignSameType(this, other);
}

// --------------------------------------------------------------------------
// Conv2d
// --------------------------------------------------------------------------

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel_size,
               int64_t padding, Rng* rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel_size),
      padding_(padding) {
  const float bound = HeBound(in_channels * kernel_size * kernel_size);
  weight_ = Tensor::Rand({out_channels, in_channels, kernel_size, kernel_size},
                         rng, -bound, bound);
  bias_ = Tensor::Zeros({out_channels});
  weight_grad_ = Tensor::Zeros(weight_.shape());
  bias_grad_ = Tensor::Zeros({out_channels});
}

namespace {

// Columns of the lowered matrix one Conv2d GEMM covers: a chunk holds
// max(1, kConvColumnCap / (out_h * out_w)) images. It bounds the per-thread
// scratch; 128 columns fill four 32-wide tiles per row block.
constexpr int64_t kConvColumnCap = 128;

// Geometry of one stride-1 Conv2d call over an NCHW batch.
struct ConvGeometry {
  int64_t batch, in_h, in_w, out_h, out_w;
  int64_t spatial;    // out_h * out_w: columns per image
  int64_t patch;      // in_c * k * k: rows of the column matrix
  int64_t image;      // in_c * in_h * in_w: floats per input image
  int64_t per_chunk;  // images per lowered chunk
};

ConvGeometry MakeGeometry(const Tensor& x, int64_t in_c, int64_t kernel,
                          int64_t padding) {
  ConvGeometry g;
  g.batch = x.dim(0);
  g.in_h = x.dim(2);
  g.in_w = x.dim(3);
  g.out_h = kernels::ConvOutDim(g.in_h, kernel, padding);
  g.out_w = kernels::ConvOutDim(g.in_w, kernel, padding);
  FS_CHECK_GT(g.out_h, 0);
  FS_CHECK_GT(g.out_w, 0);
  g.spatial = g.out_h * g.out_w;
  g.patch = in_c * kernel * kernel;
  g.image = in_c * g.in_h * g.in_w;
  g.per_chunk = std::max<int64_t>(1, kConvColumnCap / g.spatial);
  return g;
}

// Per-thread scratch every Conv2d on the thread shares. It is sized by the
// largest layer geometry and kConvColumnCap, never by the batch.
struct ConvScratch {
  std::vector<float> cols;     // [patch, chunk columns]
  std::vector<float> block;    // [out_c, chunk columns] or its transpose
  std::vector<float> wgrad_t;  // [patch, out_c]: dW transposed
};

ConvScratch& Scratch() {
  thread_local ConvScratch scratch;
  return scratch;
}

// Lowers images [n0, n0 + nb) of x into scratch->cols as one [patch,
// nb * spatial] matrix, image i at column i * spatial.
float* LowerChunk(const Tensor& x, const ConvGeometry& g, int64_t in_c,
                  int64_t kernel, int64_t padding, int64_t n0, int64_t nb,
                  ConvScratch* scratch) {
  const int64_t ld = nb * g.spatial;
  scratch->cols.resize(g.patch * ld);
  float* cols = scratch->cols.data();
  for (int64_t i = 0; i < nb; ++i) {
    kernels::Im2Col(x.data() + (n0 + i) * g.image, in_c, g.in_h, g.in_w,
                    kernel, padding, cols + i * g.spatial, ld);
  }
  return cols;
}

}  // namespace

Tensor Conv2d::Forward(const Tensor& x, bool /*train*/) {
  FS_CHECK_EQ(x.ndim(), 4);
  FS_CHECK_EQ(x.dim(1), in_channels_);
  cached_input_ = x;
  const ConvGeometry g = MakeGeometry(x, in_channels_, kernel_, padding_);
  Tensor y({g.batch, out_channels_, g.out_h, g.out_w});
  ConvScratch& scratch = Scratch();
  // One GEMM per chunk, block[oc, i*spatial + s] = W[oc, :] @ cols[:,
  // i*spatial + s]: each element is the ascending-patch chain of a
  // per-image product, started from a zeroed block; the row bias follows.
  for (int64_t n0 = 0; n0 < g.batch; n0 += g.per_chunk) {
    const int64_t nb = std::min(g.per_chunk, g.batch - n0);
    const int64_t ld = nb * g.spatial;
    const float* cols = LowerChunk(x, g, in_channels_, kernel_, padding_, n0,
                                   nb, &scratch);
    scratch.block.assign(out_channels_ * ld, 0.0f);
    kernels::Gemm(out_channels_, ld, g.patch, weight_.data(), cols,
                  scratch.block.data());
    for (int64_t i = 0; i < nb; ++i) {
      for (int64_t oc = 0; oc < out_channels_; ++oc) {
        const float* src = scratch.block.data() + oc * ld + i * g.spatial;
        float* dst = y.data() + ((n0 + i) * out_channels_ + oc) * g.spatial;
        const float b = bias_.at(oc);
        for (int64_t s = 0; s < g.spatial; ++s) dst[s] = src[s] + b;
      }
    }
  }
  return y;
}

void Conv2d::BackwardParams(const Tensor& grad_out) {
  const Tensor& x = cached_input_;
  FS_CHECK_EQ(x.ndim(), 4) << "Backward before Forward";
  const ConvGeometry g = MakeGeometry(x, in_channels_, kernel_, padding_);
  FS_CHECK(grad_out.shape() ==
           std::vector<int64_t>({g.batch, out_channels_, g.out_h, g.out_w}))
      << "grad_out " << grad_out.ShapeString() << " for output of input "
      << x.ShapeString();
  const float* gout = grad_out.data();
  const int64_t gimage = out_channels_ * g.spatial;
  // dW accumulates transposed, wgrad_t[p, oc] = dW[oc, p], so that each
  // image's partial product cols_i @ g_i^T is a GEMM with a row-major b.
  // Its chain over the image's spatial positions is dW's per-image chain
  // with the product operands swapped, and partial sums still add to dW
  // one image at a time, in image order. The copies in and out move values
  // only.
  ConvScratch& scratch = Scratch();
  scratch.wgrad_t.resize(g.patch * out_channels_);
  float* wgrad_t = scratch.wgrad_t.data();
  kernels::Transpose(weight_grad_.data(), out_channels_, g.patch, wgrad_t);
  for (int64_t n0 = 0; n0 < g.batch; n0 += g.per_chunk) {
    const int64_t nb = std::min(g.per_chunk, g.batch - n0);
    const int64_t ld = nb * g.spatial;
    const float* cols = LowerChunk(x, g, in_channels_, kernel_, padding_, n0,
                                   nb, &scratch);
    // Per image, g_i^T [spatial, out_c]. db's chain per channel runs over
    // its rows in ascending order, as a row sum of g_i would, and images
    // add in order.
    scratch.block.resize(g.spatial * out_channels_);
    float* gti = scratch.block.data();
    for (int64_t i = 0; i < nb; ++i) {
      kernels::Transpose(gout + (n0 + i) * gimage, out_channels_, g.spatial,
                         gti);
      kernels::ColSumsAccum(gti, g.spatial, out_channels_, bias_grad_.data());
      kernels::GemmLda(g.patch, out_channels_, g.spatial,
                       cols + i * g.spatial, ld, gti, wgrad_t);
    }
  }
  kernels::Transpose(wgrad_t, g.patch, out_channels_, weight_grad_.data());
}

Tensor Conv2d::Backward(const Tensor& grad_out) {
  BackwardParams(grad_out);
  const Tensor& x = cached_input_;
  const ConvGeometry g = MakeGeometry(x, in_channels_, kernel_, padding_);
  Tensor grad_in(x.shape());
  ConvScratch& scratch = Scratch();
  // Per chunk, d(cols) = W^T @ G is one GEMM over G's chunk block
  // [out_c, nb * spatial] (each element the per-image chain over out_c),
  // and col2im scatters each image's columns back into grad_in.
  const int64_t gimage = out_channels_ * g.spatial;
  for (int64_t n0 = 0; n0 < g.batch; n0 += g.per_chunk) {
    const int64_t nb = std::min(g.per_chunk, g.batch - n0);
    const int64_t ld = nb * g.spatial;
    scratch.block.resize(out_channels_ * ld);
    for (int64_t i = 0; i < nb; ++i) {
      for (int64_t oc = 0; oc < out_channels_; ++oc) {
        std::copy_n(grad_out.data() + (n0 + i) * gimage + oc * g.spatial,
                    g.spatial,
                    scratch.block.data() + oc * ld + i * g.spatial);
      }
    }
    scratch.cols.assign(g.patch * ld, 0.0f);
    kernels::GemmTransA(g.patch, ld, out_channels_, weight_.data(),
                        scratch.block.data(), scratch.cols.data());
    for (int64_t i = 0; i < nb; ++i) {
      kernels::Col2Im(scratch.cols.data() + i * g.spatial, ld, in_channels_,
                      g.in_h, g.in_w, kernel_, padding_,
                      grad_in.data() + (n0 + i) * g.image);
    }
  }
  return grad_in;
}

void Conv2d::CollectParams(const std::string& prefix,
                           std::vector<ParamRef>* out) {
  out->push_back({prefix + ".weight", &weight_, &weight_grad_, true});
  out->push_back({prefix + ".bias", &bias_, &bias_grad_, true});
}

std::unique_ptr<Layer> Conv2d::Clone() const {
  auto copy = std::unique_ptr<Conv2d>(new Conv2d());
  *copy = *this;
  return copy;
}

bool Conv2d::AssignFrom(const Layer& other) {
  return AssignSameType(this, other);
}

// --------------------------------------------------------------------------
// ReLU / Tanh
// --------------------------------------------------------------------------

Tensor ReLU::Forward(const Tensor& x, bool /*train*/) {
  cached_input_ = x;
  Tensor y = x;
  kernels::ReluForward(x.data(), y.data(), y.numel());
  return y;
}

Tensor ReLU::Backward(const Tensor& grad_out) {
  Tensor grad_in = grad_out;
  kernels::ReluBackward(cached_input_.data(), grad_in.data(),
                        grad_in.numel());
  return grad_in;
}

std::unique_ptr<Layer> ReLU::Clone() const {
  return std::make_unique<ReLU>(*this);
}

bool ReLU::AssignFrom(const Layer& other) {
  return AssignSameType(this, other);
}

Tensor Tanh::Forward(const Tensor& x, bool /*train*/) {
  Tensor y = x;
  kernels::TanhForward(x.data(), y.data(), y.numel());
  cached_output_ = y;
  return y;
}

Tensor Tanh::Backward(const Tensor& grad_out) {
  Tensor grad_in = grad_out;
  kernels::TanhBackward(cached_output_.data(), grad_in.data(),
                        grad_in.numel());
  return grad_in;
}

std::unique_ptr<Layer> Tanh::Clone() const {
  return std::make_unique<Tanh>(*this);
}

bool Tanh::AssignFrom(const Layer& other) {
  return AssignSameType(this, other);
}

// --------------------------------------------------------------------------
// Dropout
// --------------------------------------------------------------------------

Dropout::Dropout(double rate, uint64_t seed) : rate_(rate), rng_(seed) {
  FS_CHECK_GE(rate, 0.0);
  FS_CHECK_LT(rate, 1.0);
}

Tensor Dropout::Forward(const Tensor& x, bool train) {
  last_train_ = train;
  if (!train || rate_ == 0.0) return x;
  mask_ = Tensor(x.shape());
  Tensor y = x;
  const float keep_scale = static_cast<float>(1.0 / (1.0 - rate_));
  float* pm = mask_.data();
  float* py = y.data();
  for (int64_t i = 0; i < y.numel(); ++i) {
    if (rng_.Bernoulli(rate_)) {
      pm[i] = 0.0f;
      py[i] = 0.0f;
    } else {
      pm[i] = keep_scale;
      py[i] *= keep_scale;
    }
  }
  return y;
}

Tensor Dropout::Backward(const Tensor& grad_out) {
  if (!last_train_ || rate_ == 0.0) return grad_out;
  return Mul(grad_out, mask_);
}

std::unique_ptr<Layer> Dropout::Clone() const {
  return std::make_unique<Dropout>(*this);
}

bool Dropout::AssignFrom(const Layer& other) {
  return AssignSameType(this, other);
}

std::vector<uint64_t> Dropout::PrivateState() const {
  return rng_.SaveState();
}

Status Dropout::LoadPrivateState(const std::vector<uint64_t>& words) {
  return rng_.LoadState(words);
}

// --------------------------------------------------------------------------
// MaxPool2d
// --------------------------------------------------------------------------

Tensor MaxPool2d::Forward(const Tensor& x, bool /*train*/) {
  FS_CHECK_EQ(x.ndim(), 4);
  in_shape_ = x.shape();
  const int64_t batch = x.dim(0), channels = x.dim(1);
  const int64_t out_h = x.dim(2) / 2, out_w = x.dim(3) / 2;
  FS_CHECK_GT(out_h, 0);
  FS_CHECK_GT(out_w, 0);
  Tensor y({batch, channels, out_h, out_w});
  argmax_.resize(y.numel());
  kernels::MaxPool2x2(x.data(), batch * channels, x.dim(2), x.dim(3),
                      y.data(), argmax_.data());
  return y;
}

Tensor MaxPool2d::Backward(const Tensor& grad_out) {
  FS_CHECK_EQ(in_shape_.size(), 4u) << "Backward before Forward";
  FS_CHECK(grad_out.shape() ==
           std::vector<int64_t>({in_shape_[0], in_shape_[1], in_shape_[2] / 2,
                                 in_shape_[3] / 2}))
      << "grad_out " << grad_out.ShapeString()
      << " is not the pooled output's shape";
  Tensor grad_in(in_shape_);
  for (int64_t i = 0; i < grad_out.numel(); ++i) {
    grad_in.at(argmax_[i]) += grad_out.at(i);
  }
  return grad_in;
}

std::unique_ptr<Layer> MaxPool2d::Clone() const {
  return std::make_unique<MaxPool2d>(*this);
}

bool MaxPool2d::AssignFrom(const Layer& other) {
  return AssignSameType(this, other);
}

// --------------------------------------------------------------------------
// Flatten
// --------------------------------------------------------------------------

Tensor Flatten::Forward(const Tensor& x, bool /*train*/) {
  in_shape_ = x.shape();
  return x.Reshape({x.dim(0), x.numel() / x.dim(0)});
}

Tensor Flatten::Backward(const Tensor& grad_out) {
  return grad_out.Reshape(in_shape_);
}

std::unique_ptr<Layer> Flatten::Clone() const {
  return std::make_unique<Flatten>(*this);
}

bool Flatten::AssignFrom(const Layer& other) {
  return AssignSameType(this, other);
}

// --------------------------------------------------------------------------
// BatchNorm
// --------------------------------------------------------------------------

BatchNorm::BatchNorm(int64_t num_features, double momentum, double eps)
    : num_features_(num_features), momentum_(momentum), eps_(eps) {
  gamma_ = Tensor::Full({num_features}, 1.0f);
  beta_ = Tensor::Zeros({num_features});
  gamma_grad_ = Tensor::Zeros({num_features});
  beta_grad_ = Tensor::Zeros({num_features});
  running_mean_ = Tensor::Zeros({num_features});
  running_var_ = Tensor::Full({num_features}, 1.0f);
}

// Iterates a [B, F] or [B, C, H, W] tensor grouped by feature/channel f.
// Calls fn(f, flat_index) for every element belonging to feature f.
template <typename Fn>
static void ForEachByFeature(const std::vector<int64_t>& shape,
                             int64_t num_features, Fn fn) {
  if (shape.size() == 2) {
    const int64_t batch = shape[0];
    for (int64_t n = 0; n < batch; ++n) {
      for (int64_t f = 0; f < num_features; ++f) {
        fn(f, n * num_features + f);
      }
    }
  } else {
    const int64_t batch = shape[0], spatial = shape[2] * shape[3];
    for (int64_t n = 0; n < batch; ++n) {
      for (int64_t f = 0; f < num_features; ++f) {
        const int64_t base = (n * num_features + f) * spatial;
        for (int64_t s = 0; s < spatial; ++s) fn(f, base + s);
      }
    }
  }
}

Tensor BatchNorm::Forward(const Tensor& x, bool train) {
  FS_CHECK(x.ndim() == 2 || x.ndim() == 4) << x.ShapeString();
  FS_CHECK_EQ(x.dim(1), num_features_);
  in_shape_ = x.shape();
  last_train_ = train;
  const int64_t per_feature = x.numel() / num_features_;

  std::vector<double> mean(num_features_, 0.0), var(num_features_, 0.0);
  if (train) {
    ForEachByFeature(x.shape(), num_features_,
                     [&](int64_t f, int64_t i) { mean[f] += x.at(i); });
    for (auto& m : mean) m /= static_cast<double>(per_feature);
    ForEachByFeature(x.shape(), num_features_, [&](int64_t f, int64_t i) {
      const double d = x.at(i) - mean[f];
      var[f] += d * d;
    });
    for (auto& v : var) v /= static_cast<double>(per_feature);
    for (int64_t f = 0; f < num_features_; ++f) {
      running_mean_.at(f) = static_cast<float>(
          (1.0 - momentum_) * running_mean_.at(f) + momentum_ * mean[f]);
      running_var_.at(f) = static_cast<float>(
          (1.0 - momentum_) * running_var_.at(f) + momentum_ * var[f]);
    }
  } else {
    for (int64_t f = 0; f < num_features_; ++f) {
      mean[f] = running_mean_.at(f);
      var[f] = running_var_.at(f);
    }
  }

  cached_invstd_.assign(num_features_, 0.0);
  for (int64_t f = 0; f < num_features_; ++f) {
    cached_invstd_[f] = 1.0 / std::sqrt(var[f] + eps_);
  }
  cached_xhat_ = Tensor(x.shape());
  Tensor y(x.shape());
  ForEachByFeature(x.shape(), num_features_, [&](int64_t f, int64_t i) {
    const double xhat = (x.at(i) - mean[f]) * cached_invstd_[f];
    cached_xhat_.at(i) = static_cast<float>(xhat);
    y.at(i) = static_cast<float>(gamma_.at(f) * xhat + beta_.at(f));
  });
  return y;
}

Tensor BatchNorm::Backward(const Tensor& grad_out) {
  const int64_t per_feature = grad_out.numel() / num_features_;
  std::vector<double> sum_dy(num_features_, 0.0);
  std::vector<double> sum_dy_xhat(num_features_, 0.0);
  ForEachByFeature(in_shape_, num_features_, [&](int64_t f, int64_t i) {
    sum_dy[f] += grad_out.at(i);
    sum_dy_xhat[f] += grad_out.at(i) * cached_xhat_.at(i);
  });
  for (int64_t f = 0; f < num_features_; ++f) {
    gamma_grad_.at(f) += static_cast<float>(sum_dy_xhat[f]);
    beta_grad_.at(f) += static_cast<float>(sum_dy[f]);
  }
  Tensor grad_in(in_shape_);
  if (last_train_) {
    // dx = gamma * invstd * (dy - mean(dy) - xhat * mean(dy*xhat)).
    const double inv_n = 1.0 / static_cast<double>(per_feature);
    ForEachByFeature(in_shape_, num_features_, [&](int64_t f, int64_t i) {
      const double dy = grad_out.at(i);
      const double dx =
          gamma_.at(f) * cached_invstd_[f] *
          (dy - sum_dy[f] * inv_n - cached_xhat_.at(i) * sum_dy_xhat[f] * inv_n);
      grad_in.at(i) = static_cast<float>(dx);
    });
  } else {
    // Eval mode: running stats are constants.
    ForEachByFeature(in_shape_, num_features_, [&](int64_t f, int64_t i) {
      grad_in.at(i) = static_cast<float>(grad_out.at(i) * gamma_.at(f) *
                                         cached_invstd_[f]);
    });
  }
  return grad_in;
}

void BatchNorm::CollectParams(const std::string& prefix,
                              std::vector<ParamRef>* out) {
  out->push_back({prefix + ".bn.gamma", &gamma_, &gamma_grad_, true});
  out->push_back({prefix + ".bn.beta", &beta_, &beta_grad_, true});
  out->push_back(
      {prefix + ".bn.running_mean", &running_mean_, nullptr, false});
  out->push_back({prefix + ".bn.running_var", &running_var_, nullptr, false});
}

std::unique_ptr<Layer> BatchNorm::Clone() const {
  return std::make_unique<BatchNorm>(*this);
}

bool BatchNorm::AssignFrom(const Layer& other) {
  return AssignSameType(this, other);
}

}  // namespace fedscope
