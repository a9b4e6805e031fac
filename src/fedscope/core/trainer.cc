#include "fedscope/core/trainer.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "fedscope/exec/worker_pool.h"
#include "fedscope/tensor/tensor_ops.h"
#include "fedscope/util/logging.h"

namespace fedscope {

TrainConfig TrainConfig::FromConfig(const Config& config) {
  return FromConfig(config, TrainConfig());
}

TrainConfig TrainConfig::FromConfig(const Config& config, TrainConfig base) {
  base.lr = config.GetDouble("train.lr", base.lr);
  base.local_steps =
      static_cast<int>(config.GetInt("train.local_steps", base.local_steps));
  base.batch_size =
      static_cast<int>(config.GetInt("train.batch_size", base.batch_size));
  base.momentum = config.GetDouble("train.momentum", base.momentum);
  base.weight_decay =
      config.GetDouble("train.weight_decay", base.weight_decay);
  base.prox_mu = config.GetDouble("train.prox_mu", base.prox_mu);
  base.grad_clip = config.GetDouble("train.grad_clip", base.grad_clip);
  return base;
}

void BaseTrainer::UpdateModel(Model* model, const StateDict& global_shared) {
  FS_CHECK_OK(model->LoadStateDict(global_shared));
}

EvalResult BaseTrainer::Evaluate(Model* model, const Dataset& data) {
  return EvaluateClassifier(model, data);
}

StateDict BaseTrainer::GetShareableState(Model* model,
                                         const NameFilter& filter) {
  return model->GetStateDict(filter);
}

std::vector<int64_t> SampleBatchIndices(int64_t dataset_size, int batch_size,
                                        Rng* rng) {
  FS_CHECK_GT(dataset_size, 0);
  std::vector<int64_t> idx(batch_size);
  for (auto& i : idx) i = rng->UniformInt(0, dataset_size - 1);
  return idx;
}

double SgdStepOnBatch(Model* model, Sgd* optimizer, const Tensor& x,
                      const std::vector<int64_t>& labels) {
  SoftmaxCrossEntropy loss;
  model->ZeroGrad();
  Tensor logits = model->Forward(x, /*train=*/true);
  const double batch_loss = loss.Forward(logits, labels);
  model->Backward(loss.Backward());
  optimizer->Step(model);
  return batch_loss;
}

namespace {

// Rows per EvaluateClassifier block. Fixed, so the activations in flight
// stay bounded by runners × 64 rows whatever the test-set size.
constexpr int64_t kEvalBlockRows = 64;

// Forwards rows [begin, begin + rows) of `data` through `model`. Writes
// each row's log-probability of its label (SoftmaxCrossEntropy's term) to
// log_p[begin + i] and returns how many rows the model classifies right.
// A row's logits depend on that row alone, so the values do not depend on
// the block bounds.
int64_t EvaluateBlock(Model* model, const Dataset& data, int64_t begin,
                      int64_t rows, double* log_p) {
  std::vector<int64_t> shape = data.x.shape();
  const int64_t row_numel = data.x.numel() / shape[0];
  shape[0] = rows;
  const float* first = data.x.data() + begin * row_numel;
  Tensor x(std::move(shape),
           std::vector<float>(first, first + rows * row_numel));
  const Tensor logits = model->Forward(x, /*train=*/false);
  FS_CHECK_EQ(logits.ndim(), 2);
  FS_CHECK_EQ(logits.dim(0), rows);
  const Tensor probs = Softmax(logits);
  const std::vector<int64_t> preds = ArgmaxRows(logits);
  int64_t correct = 0;
  for (int64_t i = 0; i < rows; ++i) {
    const int64_t label = data.labels[begin + i];
    FS_CHECK_GE(label, 0);
    FS_CHECK_LT(label, logits.dim(1));
    log_p[begin + i] =
        std::log(std::max(1e-12, static_cast<double>(probs.at(i, label))));
    if (preds[i] == label) ++correct;
  }
  return correct;
}

}  // namespace

EvalResult EvaluateClassifier(Model* model, const Dataset& data,
                              WorkerPool* pool) {
  EvalResult result;
  const int64_t n = data.size();
  result.num_examples = n;
  if (n == 0) return result;
  FS_CHECK_EQ(data.x.dim(0), n);
  const int64_t blocks = (n + kEvalBlockRows - 1) / kEvalBlockRows;
  std::vector<double> log_p(n);
  std::vector<int64_t> correct(blocks);
  auto run_block = [&data, &log_p, &correct, n](Model* m, int64_t b) {
    const int64_t begin = b * kEvalBlockRows;
    correct[b] = EvaluateBlock(m, data, begin,
                               std::min(kEvalBlockRows, n - begin),
                               log_p.data());
  };
  if (pool == nullptr) {
    for (int64_t b = 0; b < blocks; ++b) run_block(model, b);
  } else {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(blocks);
    for (int64_t b = 0; b < blocks; ++b) {
      tasks.push_back([model, b, &run_block] {
        Model copy = *model;  // Forward caches activations in its layers
        run_block(&copy, b);
      });
    }
    pool->Run(&tasks);
  }
  // SoftmaxCrossEntropy's sum, in its row order.
  double loss = 0.0;
  for (double l : log_p) loss -= l;
  result.loss = loss / static_cast<double>(n);
  int64_t total_correct = 0;
  for (int64_t c : correct) total_correct += c;
  result.accuracy =
      static_cast<double>(total_correct) / static_cast<double>(n);
  return result;
}

TrainResult GeneralTrainer::Train(Model* model, const Dataset& train,
                                  const TrainConfig& config, Rng* rng) {
  TrainResult result;
  result.local_steps = config.local_steps;
  if (train.empty() || config.local_steps == 0) return result;

  Sgd optimizer(SgdOptions{config.lr, config.momentum, config.weight_decay,
                           config.prox_mu, config.grad_clip});
  if (config.prox_mu > 0.0) {
    // FedProx: proximal point is the model as received from the server.
    optimizer.SetProxCenter(model->GetStateDict());
  }
  double loss_sum = 0.0;
  for (int step = 0; step < config.local_steps; ++step) {
    auto idx = SampleBatchIndices(train.size(), config.batch_size, rng);
    loss_sum += SgdStepOnBatch(model, &optimizer, train.BatchX(idx),
                               train.BatchY(idx));
  }
  result.mean_loss = loss_sum / config.local_steps;
  result.num_samples =
      static_cast<int64_t>(config.local_steps) * config.batch_size;
  return result;
}

}  // namespace fedscope
