#include "fedscope/nn/grad_check.h"

#include <algorithm>
#include <cmath>

#include "fedscope/util/logging.h"

namespace fedscope {

GradCheckResult CheckModelGradients(Model* model, Loss* loss, const Tensor& x,
                                    const std::vector<int64_t>& labels,
                                    double epsilon,
                                    int64_t max_params_per_tensor) {
  model->ZeroGrad();
  Tensor out = model->Forward(x, /*train=*/true);
  loss->Forward(out, labels);
  model->Backward(loss->Backward());

  // Snapshot analytic grads before probing (probing re-runs forward).
  std::vector<Tensor> analytic;
  const std::vector<ParamRef>& params = model->Params();
  for (const ParamRef& p : params) {
    analytic.push_back(p.grad != nullptr ? *p.grad : Tensor());
  }

  GradCheckResult result;
  for (size_t pi = 0; pi < params.size(); ++pi) {
    const ParamRef& p = params[pi];
    if (!p.trainable || p.grad == nullptr) continue;
    const int64_t probe =
        std::min<int64_t>(p.value->numel(), max_params_per_tensor);
    for (int64_t i = 0; i < probe; ++i) {
      const float original = p.value->at(i);
      p.value->at(i) = original + static_cast<float>(epsilon);
      double loss_plus =
          loss->Forward(model->Forward(x, /*train=*/true), labels);
      p.value->at(i) = original - static_cast<float>(epsilon);
      double loss_minus =
          loss->Forward(model->Forward(x, /*train=*/true), labels);
      p.value->at(i) = original;
      const double numeric = (loss_plus - loss_minus) / (2.0 * epsilon);
      const double exact = analytic[pi].at(i);
      const double abs_err = std::fabs(numeric - exact);
      const double rel_err =
          abs_err / std::max(1.0, std::max(std::fabs(numeric),
                                           std::fabs(exact)));
      result.max_abs_err = std::max(result.max_abs_err, abs_err);
      result.max_rel_err = std::max(result.max_rel_err, rel_err);
      ++result.checked;
    }
  }
  // Restore a consistent forward/backward state.
  model->ZeroGrad();
  return result;
}

}  // namespace fedscope
