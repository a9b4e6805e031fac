#include "fedscope/nn/optimizer.h"

#include <cmath>

#include "fedscope/tensor/tensor_ops.h"
#include "fedscope/util/logging.h"

namespace fedscope {

void Sgd::Step(Model* model) {
  const std::vector<ParamRef>& params = model->Params();

  if (options_.grad_clip_norm > 0.0) {
    double sq = 0.0;
    for (const ParamRef& p : params) {
      if (p.trainable && p.grad != nullptr) sq += SquaredNorm(*p.grad);
    }
    const double norm = std::sqrt(sq);
    if (norm > options_.grad_clip_norm) {
      const float scale =
          static_cast<float>(options_.grad_clip_norm / norm);
      for (const ParamRef& p : params) {
        if (p.trainable && p.grad != nullptr) ScaleInPlace(p.grad, scale);
      }
    }
  }

  for (const ParamRef& p : params) {
    if (!p.trainable || p.grad == nullptr) continue;
    // The gradient is copied only when a regularizer adds to it.
    const auto center = options_.prox_mu > 0.0 ? prox_center_.find(p.name)
                                               : prox_center_.end();
    const Tensor* grad = p.grad;
    Tensor adjusted;
    if (options_.weight_decay > 0.0 || center != prox_center_.end()) {
      adjusted = *p.grad;
      grad = &adjusted;
    }
    if (options_.weight_decay > 0.0) {
      Axpy(&adjusted, static_cast<float>(options_.weight_decay), *p.value);
    }
    if (center != prox_center_.end()) {
      // grad += mu * (w - w_center)
      Axpy(&adjusted, static_cast<float>(options_.prox_mu), *p.value);
      Axpy(&adjusted, static_cast<float>(-options_.prox_mu), center->second);
    }
    if (options_.momentum > 0.0) {
      auto it = momentum_buffers_.find(p.name);
      if (it == momentum_buffers_.end()) {
        it = momentum_buffers_.emplace(p.name, Tensor::Zeros(p.value->shape()))
                 .first;
      } else if (!it->second.SameShape(*grad)) {
        it->second = Tensor::Zeros(grad->shape());
      }
      Tensor& buf = it->second;
      ScaleInPlace(&buf, static_cast<float>(options_.momentum));
      AddInPlace(&buf, *grad);
      Axpy(p.value, static_cast<float>(-options_.lr), buf);
    } else {
      Axpy(p.value, static_cast<float>(-options_.lr), *grad);
    }
  }
}

}  // namespace fedscope
