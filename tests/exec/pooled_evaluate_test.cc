// EvaluateClassifier's blocked evaluation (DESIGN.md §12): run inline or on
// a worker pool of any size, it must return the loss and accuracy of one
// whole-set forward pass bit for bit — the contract that keeps threaded
// server evaluation identical to serial.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "fedscope/core/trainer.h"
#include "fedscope/exec/worker_pool.h"
#include "fedscope/nn/loss.h"
#include "fedscope/nn/model_zoo.h"

namespace fedscope {
namespace {

constexpr int64_t kClasses = 10;

Dataset RandomData(int64_t rows, std::vector<int64_t> row_shape,
                   uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> shape = {rows};
  shape.insert(shape.end(), row_shape.begin(), row_shape.end());
  Dataset d;
  d.x = Tensor::Randn(shape, &rng);
  for (int64_t i = 0; i < rows; ++i) {
    d.labels.push_back(rng.UniformInt(0, kClasses - 1));
  }
  return d;
}

// The evaluation before blocking: one forward pass over the whole set.
EvalResult WholeSet(Model model, const Dataset& data) {
  EvalResult r;
  r.num_examples = data.size();
  if (data.empty()) return r;
  const Tensor logits = model.Forward(data.x, /*train=*/false);
  SoftmaxCrossEntropy loss;
  r.loss = loss.Forward(logits, data.labels);
  r.accuracy = Accuracy(logits, data.labels);
  return r;
}

void ExpectSameBits(const EvalResult& want, const EvalResult& got) {
  EXPECT_EQ(std::bit_cast<uint64_t>(want.loss),
            std::bit_cast<uint64_t>(got.loss));
  EXPECT_EQ(std::bit_cast<uint64_t>(want.accuracy),
            std::bit_cast<uint64_t>(got.accuracy));
  EXPECT_EQ(want.num_examples, got.num_examples);
}

// Every row count straddles the 64-row block edge or is degenerate.
void CheckModel(const Model& model, const std::vector<int64_t>& row_shape) {
  for (int64_t rows : {0, 1, 63, 64, 65, 517}) {
    SCOPED_TRACE("rows=" + std::to_string(rows));
    const Dataset data = RandomData(rows, row_shape, 100 + rows);
    const EvalResult want = WholeSet(model, data);
    Model inline_model = model;
    ExpectSameBits(want, EvaluateClassifier(&inline_model, data));
    for (int helpers = 1; helpers <= 4; ++helpers) {
      SCOPED_TRACE("helpers=" + std::to_string(helpers));
      WorkerPool pool(helpers);
      Model pooled_model = model;
      ExpectSameBits(want, EvaluateClassifier(&pooled_model, data, &pool));
      // The pooled path only reads the model.
      EXPECT_TRUE(pooled_model.GetStateDict() == inline_model.GetStateDict());
    }
  }
}

TEST(PooledEvaluateTest, MlpMatchesWholeSetBitForBit) {
  Rng rng(1);
  CheckModel(MakeMlp({16, 32, kClasses}, &rng), {16});
}

TEST(PooledEvaluateTest, ConvNet2MatchesWholeSetBitForBit) {
  Rng rng(2);
  CheckModel(MakeConvNet2(1, 8, kClasses, 64, 0.0, &rng), {1, 8, 8});
}

TEST(PooledEvaluateTest, MlpBnWithTrainedStatsMatchesWholeSetBitForBit) {
  // Train first so BatchNorm's running statistics are no longer their
  // initial values; evaluation must then use them identically per block.
  Rng rng(3);
  Model model = MakeMlpBn({16, 32, kClasses}, &rng);
  const Dataset train = RandomData(96, {16}, 7);
  TrainConfig config;
  config.lr = 0.1;
  config.local_steps = 5;
  config.batch_size = 32;
  Rng train_rng(8);
  GeneralTrainer().Train(&model, train, config, &train_rng);
  int moved = 0;  // running means start at zero
  for (const auto& [name, t] : model.GetStateDict()) {
    if (name.find("running_mean") == std::string::npos) continue;
    for (int64_t i = 0; i < t.numel(); ++i) moved += t.at(i) != 0.0f;
  }
  ASSERT_GT(moved, 0);
  CheckModel(model, {16});
}

}  // namespace
}  // namespace fedscope
