#include "fedscope/nn/model.h"

#include <gtest/gtest.h>

#include "fedscope/nn/model_zoo.h"
#include "fedscope/tensor/tensor_ops.h"

namespace fedscope {
namespace {

Model SmallMlp(uint64_t seed = 1) {
  Rng rng(seed);
  return MakeMlp({4, 6, 3}, &rng);
}

TEST(ModelTest, ParamsHaveHierarchicalNames) {
  Model m = SmallMlp();
  auto params = m.Params();
  ASSERT_EQ(params.size(), 4u);  // fc1.{weight,bias}, fc2.{weight,bias}
  EXPECT_EQ(params[0].name, "fc1.weight");
  EXPECT_EQ(params[3].name, "fc2.bias");
}

TEST(ModelTest, NumParamsCountsScalars) {
  Model m = SmallMlp();
  EXPECT_EQ(m.NumParams(), 4 * 6 + 6 + 6 * 3 + 3);
}

TEST(ModelTest, DuplicateLayerNameDies) {
  Rng rng(2);
  Model m;
  m.Add("fc", std::make_unique<Linear>(2, 2, &rng));
  EXPECT_DEATH(m.Add("fc", std::make_unique<Linear>(2, 2, &rng)), "");
}

TEST(ModelTest, StateDictRoundTrip) {
  Model a = SmallMlp(1);
  Model b = SmallMlp(99);
  EXPECT_FALSE(a.GetStateDict() == b.GetStateDict());
  ASSERT_TRUE(b.LoadStateDict(a.GetStateDict()).ok());
  EXPECT_TRUE(a.GetStateDict() == b.GetStateDict());
}

TEST(ModelTest, StateDictFilterSelectsSubset) {
  Model m = SmallMlp();
  auto only_fc1 = m.GetStateDict(IncludePrefixes({"fc1"}));
  EXPECT_EQ(only_fc1.size(), 2u);
  auto no_bias = m.GetStateDict(ExcludeSubstrings({"bias"}));
  EXPECT_EQ(no_bias.size(), 2u);
  EXPECT_TRUE(no_bias.count("fc1.weight"));
}

TEST(ModelTest, LoadStateDictShapeMismatchErrors) {
  Model m = SmallMlp();
  StateDict bad;
  bad["fc1.weight"] = Tensor({2, 2});
  EXPECT_FALSE(m.LoadStateDict(bad).ok());
}

TEST(ModelTest, LoadStateDictStrictRejectsUnknownKeys) {
  Model m = SmallMlp();
  StateDict extra;
  extra["nope.weight"] = Tensor({1});
  EXPECT_TRUE(m.LoadStateDict(extra, /*strict=*/false).ok());
  EXPECT_FALSE(m.LoadStateDict(extra, /*strict=*/true).ok());
}

TEST(ModelTest, CopyIsDeep) {
  Model a = SmallMlp();
  Model b = a;
  auto pa = a.Params();
  auto pb = b.Params();
  pb[0].value->at(0) += 5.0f;
  EXPECT_NE(pa[0].value->at(0), pb[0].value->at(0));
}

/// Whether m.Params() is what m's own layers report now: the same names,
/// flags and pointers, in layer order.
bool IndexPointsIntoOwnLayers(Model& m) {
  std::vector<ParamRef> expected;
  for (int i = 0; i < m.num_layers(); ++i) {
    m.layer(i)->CollectParams(m.layer_name(i), &expected);
  }
  const std::vector<ParamRef>& index = m.Params();
  if (index.size() != expected.size()) return false;
  for (size_t i = 0; i < index.size(); ++i) {
    if (index[i].name != expected[i].name ||
        index[i].value != expected[i].value ||
        index[i].grad != expected[i].grad ||
        index[i].trainable != expected[i].trainable) {
      return false;
    }
  }
  return true;
}

TEST(ModelTest, ParamIndexFollowsCopiesMovesAndAssignments) {
  Model built = SmallMlp(1);
  EXPECT_TRUE(IndexPointsIntoOwnLayers(built));

  Model copied = built;
  EXPECT_TRUE(IndexPointsIntoOwnLayers(copied));
  EXPECT_NE(copied.Params()[0].value, built.Params()[0].value);

  Model moved = std::move(copied);
  EXPECT_TRUE(IndexPointsIntoOwnLayers(moved));
  Model move_assigned;
  move_assigned = std::move(moved);
  EXPECT_TRUE(IndexPointsIntoOwnLayers(move_assigned));

  // Same architecture: every layer is assigned in place, so the tensors
  // and their storage stay where they were.
  Model target = SmallMlp(9);
  const Tensor* weight = target.Params()[0].value;
  const float* storage = weight->data();
  target = built;
  EXPECT_TRUE(IndexPointsIntoOwnLayers(target));
  EXPECT_EQ(target.Params()[0].value, weight);
  EXPECT_EQ(target.Params()[0].value->data(), storage);
  EXPECT_TRUE(target.GetStateDict() == built.GetStateDict());

  // Another architecture: its layers are cloned and the index rebuilt.
  Rng rng(4);
  Model bn = MakeMlpBn({4, 6, 3}, &rng);
  target = bn;
  EXPECT_TRUE(IndexPointsIntoOwnLayers(target));
  EXPECT_EQ(target.Params().size(), 8u);  // fc1, norm1 (2 + 2 buffers), fc2
  EXPECT_TRUE(target.GetStateDict() == bn.GetStateDict());
  target = built;
  EXPECT_TRUE(IndexPointsIntoOwnLayers(target));
  EXPECT_TRUE(target.GetStateDict() == built.GetStateDict());
}

TEST(ModelTest, AssignmentCopiesTheDropoutStream) {
  // Dropout's rng is layer state: a model assigned in place draws the
  // masks its source draws from then on.
  auto dropout_mlp = [](uint64_t seed) {
    Rng rng(seed);
    Model m;
    m.Add("fc1", std::make_unique<Linear>(4, 6, &rng));
    m.Add("drop", std::make_unique<Dropout>(0.5, rng.Next()));
    m.Add("fc2", std::make_unique<Linear>(6, 3, &rng));
    return m;
  };
  Model source = dropout_mlp(1);
  Rng rng(5);
  const Tensor x = Tensor::Randn({8, 4}, &rng);
  source.Forward(x, /*train=*/true);  // moves the source's stream on
  Model target = dropout_mlp(2);
  target = source;
  EXPECT_EQ(target.layer(1)->PrivateState(), source.layer(1)->PrivateState());
  EXPECT_TRUE(target.Forward(x, /*train=*/true) ==
              source.Forward(x, /*train=*/true));
}

TEST(ModelTest, LoadStateDictFindsParamsOutOfNameOrder) {
  Rng rng(6);
  Model m;
  m.Add("zeta", std::make_unique<Linear>(2, 3, &rng));
  m.Add("alpha", std::make_unique<Linear>(3, 2, &rng));
  StateDict state = m.GetStateDict();
  float v = 0.0f;
  for (auto& [name, tensor] : state) {
    for (int64_t i = 0; i < tensor.numel(); ++i) tensor.at(i) = v += 0.5f;
  }
  ASSERT_TRUE(m.LoadStateDict(state, /*strict=*/true).ok());
  EXPECT_TRUE(m.GetStateDict() == state);
}

TEST(ModelTest, FlatParamsRoundTrip) {
  Model a = SmallMlp(1);
  Model b = SmallMlp(50);
  auto flat = a.FlatParams();
  EXPECT_EQ(static_cast<int64_t>(flat.size()), a.NumParams());
  b.SetFlatParams(flat);
  EXPECT_TRUE(a.GetStateDict() == b.GetStateDict());
}

TEST(ModelTest, ZeroGradClearsGradients) {
  Model m = SmallMlp();
  Rng rng(3);
  Tensor x = Tensor::Randn({2, 4}, &rng);
  Tensor out = m.Forward(x, true);
  m.Backward(Tensor::Full(out.shape(), 1.0f));
  bool any_nonzero = false;
  for (auto& p : m.Params()) {
    if (p.grad && SquaredNorm(*p.grad) > 0) any_nonzero = true;
  }
  EXPECT_TRUE(any_nonzero);
  m.ZeroGrad();
  for (auto& p : m.Params()) {
    if (p.grad) {
      EXPECT_EQ(SquaredNorm(*p.grad), 0.0);
    }
  }
}

TEST(ModelTest, GradientsAccumulateAcrossBackwards) {
  Model m = SmallMlp();
  Rng rng(4);
  Tensor x = Tensor::Randn({2, 4}, &rng);
  Tensor g = Tensor::Full({2, 3}, 1.0f);

  m.ZeroGrad();
  m.Forward(x, true);
  m.Backward(g);
  auto one_pass = *m.Params()[0].grad;

  m.Forward(x, true);
  m.Backward(g);
  auto two_pass = *m.Params()[0].grad;
  for (int64_t i = 0; i < one_pass.numel(); ++i) {
    EXPECT_NEAR(two_pass.at(i), 2.0f * one_pass.at(i), 1e-4);
  }
}

// -- NameFilters -------------------------------------------------------------

TEST(NameFilterTest, AcceptAll) {
  EXPECT_TRUE(AcceptAll()("anything"));
}

TEST(NameFilterTest, ExcludeSubstrings) {
  auto f = ExcludeSubstrings({".bn.", "head"});
  EXPECT_TRUE(f("conv1.weight"));
  EXPECT_FALSE(f("norm1.bn.gamma"));
  EXPECT_FALSE(f("head.fc.weight"));
}

TEST(NameFilterTest, IncludePrefixes) {
  auto f = IncludePrefixes({"body."});
  EXPECT_TRUE(f("body.fc1.weight"));
  EXPECT_FALSE(f("head.fc.weight"));
  EXPECT_FALSE(f("xbody.fc1.weight"));
}

// -- StateDict arithmetic ----------------------------------------------------

StateDict MakeDict(float a, float b) {
  StateDict d;
  d["x"] = Tensor::FromVector({a});
  d["y"] = Tensor::FromVector({b});
  return d;
}

TEST(StateDictMathTest, AddSubScale) {
  auto a = MakeDict(1, 2), b = MakeDict(3, 4);
  EXPECT_EQ(SdAdd(a, b).at("x").at(0), 4.0f);
  EXPECT_EQ(SdSub(b, a).at("y").at(0), 2.0f);
  EXPECT_EQ(SdScale(a, 2.0f).at("y").at(0), 4.0f);
}

TEST(StateDictMathTest, AxpyAndNorm) {
  auto a = MakeDict(3, 4);
  SdAxpy(&a, 2.0f, MakeDict(1, 1));
  EXPECT_EQ(a.at("x").at(0), 5.0f);
  EXPECT_DOUBLE_EQ(SdNorm(MakeDict(3, 4)), 5.0);
}

TEST(StateDictMathTest, WeightedAverage) {
  auto a = MakeDict(0, 0), b = MakeDict(10, 20);
  auto avg = SdWeightedAverage({&a, &b}, {3.0, 1.0});
  EXPECT_NEAR(avg.at("x").at(0), 2.5f, 1e-5);
  EXPECT_NEAR(avg.at("y").at(0), 5.0f, 1e-5);
}

TEST(StateDictMathTest, MismatchedKeysDie) {
  StateDict a = MakeDict(1, 2);
  StateDict b;
  b["x"] = Tensor::FromVector({1.0f});
  EXPECT_DEATH(SdAdd(a, b), "");
}

TEST(StateDictMathTest, FlattenAndNumel) {
  auto a = MakeDict(1, 2);
  auto flat = SdFlatten(a);
  ASSERT_EQ(flat.size(), 2u);
  EXPECT_EQ(flat[0], 1.0f);  // "x" before "y" (map order)
  EXPECT_EQ(SdNumel(a), 2);
}

}  // namespace
}  // namespace fedscope
