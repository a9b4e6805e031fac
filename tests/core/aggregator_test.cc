#include "fedscope/core/aggregator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

namespace fedscope {
namespace {

StateDict Dict(float v) {
  StateDict d;
  d["w"] = Tensor::FromVector({v, v});
  return d;
}

ClientUpdate Update(int id, float delta, double samples = 1.0,
                    int staleness = 0, int steps = 1) {
  ClientUpdate u;
  u.client_id = id;
  u.num_samples = samples;
  u.staleness = staleness;
  u.local_steps = steps;
  u.delta = Dict(delta);
  return u;
}

TEST(UpdateWeightsTest, SampleProportionalNoDiscount) {
  auto w = UpdateWeights({Update(1, 0, 10), Update(2, 0, 30)}, 0.0);
  EXPECT_DOUBLE_EQ(w[0], 10.0);
  EXPECT_DOUBLE_EQ(w[1], 30.0);
}

TEST(UpdateWeightsTest, StalenessDiscountPolynomial) {
  auto w = UpdateWeights({Update(1, 0, 8, 0), Update(2, 0, 8, 3)}, 0.5);
  EXPECT_DOUBLE_EQ(w[0], 8.0);
  EXPECT_NEAR(w[1], 8.0 / std::sqrt(4.0), 1e-9);
}

TEST(FedAvgAggregatorTest, WeightedAverageAppliedToGlobal) {
  FedAvgAggregator agg(FedAvgOptions{1.0, 0.0});
  StateDict global = Dict(10.0f);
  auto next = agg.Aggregate(
      global, {Update(1, 1.0f, 10), Update(2, 4.0f, 30)});
  // avg = (10*1 + 30*4)/40 = 3.25; next = 10 + 3.25.
  EXPECT_NEAR(next.value().at("w").at(0), 13.25f, 1e-5);
}

TEST(FedAvgAggregatorTest, ServerLrScalesStep) {
  FedAvgAggregator agg(FedAvgOptions{0.5, 0.0});
  auto next = agg.Aggregate(Dict(0.0f), {Update(1, 2.0f)});
  EXPECT_NEAR(next.value().at("w").at(0), 1.0f, 1e-6);
}

TEST(FedAvgAggregatorTest, StaleUpdatesContributeLess) {
  FedAvgAggregator agg(FedAvgOptions{1.0, 1.0});
  // fresh delta 0, stale delta 10 with staleness 9 -> weight 1/10.
  auto next = agg.Aggregate(
      Dict(0.0f), {Update(1, 0.0f, 1, 0), Update(2, 10.0f, 1, 9)});
  // avg = (0*1 + 10*0.1)/(1.1) = 0.909...
  EXPECT_NEAR(next.value().at("w").at(0), 10.0 * 0.1 / 1.1, 1e-4);
}

TEST(FedAvgAggregatorTest, EmptyBufferIsRecoverableError) {
  FedAvgAggregator agg;
  auto next = agg.Aggregate(Dict(0.0f), {});
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kFailedPrecondition);
}

TEST(AggregatorErrorTest, EveryAggregatorRejectsEmptyCohort) {
  FedOptAggregator fedopt(1.0, 0.9);
  FedNovaAggregator fednova;
  KrumAggregator krum(1);
  TrimmedMeanAggregator trimmed(0.2);
  MedianAggregator median;
  std::vector<Aggregator*> all = {&fedopt, &fednova, &krum, &trimmed,
                                  &median};
  for (Aggregator* agg : all) {
    auto next = agg->Aggregate(Dict(0.0f), {});
    EXPECT_FALSE(next.ok()) << agg->Name();
  }
}

TEST(AggregatorErrorTest, MissingDeltaKeySurfacesAsStatusNotCrash) {
  // A renamed-tensor payload that slipped past ingress (guard off) must
  // surface as a recoverable error from the coordinate-wise aggregators.
  MedianAggregator median;
  ClientUpdate bad = Update(7, 1.0f);
  StateDict renamed;
  renamed["w#"] = bad.delta.at("w");
  bad.delta = std::move(renamed);
  auto next = median.Aggregate(Dict(0.0f), {Update(1, 1.0f), bad});
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument);

  TrimmedMeanAggregator trimmed(0.0);
  EXPECT_FALSE(trimmed.Aggregate(Dict(0.0f), {Update(1, 1.0f), bad}).ok());
}

TEST(FedOptAggregatorTest, MomentumAccumulates) {
  FedOptAggregator agg(1.0, 0.9);
  StateDict global = Dict(0.0f);
  global = agg.Aggregate(global, {Update(1, 1.0f)}).value();
  EXPECT_NEAR(global.at("w").at(0), 1.0f, 1e-6);  // m = 1
  global = agg.Aggregate(global, {Update(1, 1.0f)}).value();
  // m = 0.9*1 + 1 = 1.9; w = 1 + 1.9 = 2.9.
  EXPECT_NEAR(global.at("w").at(0), 2.9f, 1e-5);
}

TEST(FedNovaAggregatorTest, NormalizesByLocalSteps) {
  FedNovaAggregator agg;
  // Two clients, same data amount: one did 10 steps (delta 10), one did
  // 2 steps (delta 2). Per-step deltas are both 1; tau_eff = 6; the
  // aggregated step should be 6, not the naive average 6 = (10+2)/2...
  // distinguishing case: steps 10/delta 10 vs steps 2/delta 4.
  auto next = agg.Aggregate(
      Dict(0.0f),
      {Update(1, 10.0f, 1, 0, 10), Update(2, 4.0f, 1, 0, 2)});
  // normalized deltas: 1 and 2 -> avg 1.5; tau_eff = (10+2)/2 = 6;
  // step = 9. Naive FedAvg would give 7.
  EXPECT_NEAR(next.value().at("w").at(0), 9.0f, 1e-4);
}

TEST(KrumAggregatorTest, RejectsOutlier) {
  KrumAggregator agg(/*num_malicious=*/1, /*multi_k=*/1);
  // Three honest updates near 1.0, one attacker at 100.
  auto next = agg.Aggregate(
      Dict(0.0f), {Update(1, 1.0f), Update(2, 1.1f), Update(3, 0.9f),
                   Update(4, 100.0f)});
  EXPECT_LT(next.value().at("w").at(0), 2.0f);
  ASSERT_EQ(agg.last_selection().size(), 1u);
  EXPECT_NE(agg.last_selection()[0], 3);  // attacker index not selected
}

TEST(KrumAggregatorTest, MultiKrumAveragesSelection) {
  KrumAggregator agg(1, /*multi_k=*/2);
  auto next = agg.Aggregate(
      Dict(0.0f),
      {Update(1, 1.0f), Update(2, 3.0f), Update(3, 1.2f), Update(4, 50.0f)});
  EXPECT_LT(next.value().at("w").at(0), 3.0f);
  EXPECT_EQ(agg.last_selection().size(), 2u);
}

TEST(KrumAggregatorTest, RefusesUpdateOfWrongLength) {
  // MLP 8-4-2; one update carries only fc2.bias, as a TCP peer can send
  // with the guard off. Its distances would read past its two floats.
  StateDict global;
  global["fc1.weight"] = Tensor::Zeros({8, 4});
  global["fc1.bias"] = Tensor::Zeros({4});
  global["fc2.weight"] = Tensor::Zeros({4, 2});
  global["fc2.bias"] = Tensor::Zeros({2});
  std::vector<ClientUpdate> updates;
  for (int id = 1; id <= 4; ++id) {
    ClientUpdate u;
    u.client_id = id;
    u.num_samples = 1.0;
    for (const auto& [name, tensor] : global) {
      u.delta[name] = Tensor::Full(tensor.shape(), 0.1f * id);
    }
    updates.push_back(std::move(u));
  }
  KrumAggregator agg(1, 1);
  ASSERT_TRUE(agg.Aggregate(global, updates).ok());

  StateDict short_delta;
  short_delta["fc2.bias"] = updates[2].delta.at("fc2.bias");
  updates[2].delta = std::move(short_delta);
  auto next = agg.Aggregate(global, updates);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(next.status().ToString().find("client 3"), std::string::npos);
}

TEST(KrumAggregatorTest, SingleUpdatePassesThrough) {
  KrumAggregator agg(0, 1);
  auto next = agg.Aggregate(Dict(0.0f), {Update(1, 5.0f)});
  EXPECT_NEAR(next.value().at("w").at(0), 5.0f, 1e-6);
}

TEST(TrimmedMeanAggregatorTest, DropsExtremes) {
  TrimmedMeanAggregator agg(0.34);  // trims 1 from each side of 3+
  auto next = agg.Aggregate(
      Dict(0.0f), {Update(1, 1.0f), Update(2, 2.0f), Update(3, 300.0f)});
  EXPECT_NEAR(next.value().at("w").at(0), 2.0f, 1e-5);
}

TEST(TrimmedMeanAggregatorTest, NoTrimIsMean) {
  TrimmedMeanAggregator agg(0.0);
  auto next = agg.Aggregate(Dict(0.0f), {Update(1, 1.0f), Update(2, 3.0f)});
  EXPECT_NEAR(next.value().at("w").at(0), 2.0f, 1e-5);
}

TEST(MedianAggregatorTest, OddAndEvenCounts) {
  MedianAggregator agg;
  auto odd = agg.Aggregate(
      Dict(0.0f), {Update(1, 1.0f), Update(2, 9.0f), Update(3, 2.0f)});
  EXPECT_NEAR(odd.value().at("w").at(0), 2.0f, 1e-6);
  auto even =
      agg.Aggregate(Dict(0.0f), {Update(1, 1.0f), Update(2, 3.0f)});
  EXPECT_NEAR(even.value().at("w").at(0), 2.0f, 1e-6);
}

TEST(MedianAggregatorTest, RobustToSingleByzantine) {
  MedianAggregator agg;
  auto next = agg.Aggregate(
      Dict(0.0f),
      {Update(1, 1.0f), Update(2, 1.1f), Update(3, -1000.0f)});
  EXPECT_GT(next.value().at("w").at(0), 0.5f);
}

// -- Byzantine breakdown points ----------------------------------------------
// Crafted sign-flip/scale attacks below the breakdown point: the robust
// aggregators must bound the attacker's influence; FedAvg is the negative
// control showing the attack actually bites.

std::vector<ClientUpdate> AttackCohort(int honest, int hostile,
                                       float hostile_delta) {
  std::vector<ClientUpdate> updates;
  for (int i = 0; i < honest; ++i) {
    updates.push_back(Update(i + 1, 1.0f + 0.01f * static_cast<float>(i)));
  }
  for (int i = 0; i < hostile; ++i) {
    updates.push_back(Update(honest + i + 1, hostile_delta));
  }
  return updates;
}

TEST(ByzantineBreakdownTest, KrumExcludesColludingOutliers) {
  // 7 honest near +1, 2 colluding at -1e4: f=2 Krum must select an
  // honest update.
  KrumAggregator agg(/*num_malicious=*/2, /*multi_k=*/1);
  auto next = agg.Aggregate(Dict(0.0f), AttackCohort(7, 2, -1e4f));
  ASSERT_TRUE(next.ok());
  EXPECT_NEAR(next.value().at("w").at(0), 1.0f, 0.2f);
  ASSERT_EQ(agg.last_selection().size(), 1u);
  EXPECT_LT(agg.last_selection()[0], 7);  // an honest index
}

TEST(ByzantineBreakdownTest, TrimmedMeanBoundsScalingAttack) {
  // 30% hostile at 1e6x scale, trim_frac 0.3 removes them per coordinate.
  TrimmedMeanAggregator agg(0.3);
  auto next = agg.Aggregate(Dict(0.0f), AttackCohort(7, 3, 1e6f));
  ASSERT_TRUE(next.ok());
  EXPECT_NEAR(next.value().at("w").at(0), 1.0f, 0.2f);
}

TEST(ByzantineBreakdownTest, MedianSurvivesMinorityHostile) {
  MedianAggregator agg;
  auto next = agg.Aggregate(Dict(0.0f), AttackCohort(6, 4, -1e6f));
  ASSERT_TRUE(next.ok());
  EXPECT_NEAR(next.value().at("w").at(0), 1.0f, 0.2f);
}

TEST(ByzantineBreakdownTest, FedAvgIsTheNegativeControl) {
  // The same 30% scaling attack drags the unprotected mean far from the
  // honest consensus — proving the robust results above are non-trivial.
  FedAvgAggregator agg;
  auto next = agg.Aggregate(Dict(0.0f), AttackCohort(7, 3, 1e6f));
  ASSERT_TRUE(next.ok());
  EXPECT_GT(next.value().at("w").at(0), 1e4f);
}

TEST(ByzantineBreakdownTest, MedianBeyondBreakdownIsCaptured) {
  // Majority-hostile cohorts defeat every coordinate-wise rule; record
  // that honestly instead of overclaiming the defence.
  MedianAggregator agg;
  auto next = agg.Aggregate(Dict(0.0f), AttackCohort(4, 6, -1e6f));
  ASSERT_TRUE(next.ok());
  EXPECT_LT(next.value().at("w").at(0), -1e5f);
}

class AveragingAggregatorNames
    : public ::testing::TestWithParam<std::string> {};

TEST(AggregatorNamesTest, AllNamed) {
  EXPECT_EQ(FedAvgAggregator().Name(), "fedavg");
  EXPECT_EQ(FedOptAggregator(1, 0.9).Name(), "fedopt");
  EXPECT_EQ(FedNovaAggregator().Name(), "fednova");
  EXPECT_EQ(KrumAggregator(1).Name(), "krum");
  EXPECT_EQ(TrimmedMeanAggregator(0.1).Name(), "trimmed_mean");
  EXPECT_EQ(MedianAggregator().Name(), "median");
}

}  // namespace
}  // namespace fedscope
