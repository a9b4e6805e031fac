#include "fedscope/core/update_guard.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "fedscope/comm/message.h"

namespace fedscope {
namespace {

StateDict Signature() {
  StateDict s;
  s["w"] = Tensor::Zeros({2, 3});
  s["b"] = Tensor::Zeros({3});
  return s;
}

StateDict MatchingDelta(float value = 1.0f) {
  StateDict d;
  d["w"] = Tensor::Full({2, 3}, value);
  d["b"] = Tensor::Full({3}, value);
  return d;
}

UpdateGuard MakeGuard(double l2 = 0.0, bool clip = false, int k = 3) {
  UpdateGuardOptions options;
  options.enabled = true;
  options.l2_bound = l2;
  options.clip_to_bound = clip;
  options.quarantine_after = k;
  return UpdateGuard(options);
}

/// Books one violation against `client_id` through Inspect (a NaN delta);
/// returns true when it tripped quarantine.
bool RecordViolation(UpdateGuard* guard, int client_id) {
  StateDict bad = MatchingDelta();
  bad["w"].at(0) = std::numeric_limits<float>::quiet_NaN();
  const GuardDecision decision = guard->Inspect(client_id, Signature(), &bad);
  EXPECT_EQ(decision.verdict, GuardVerdict::kRejectNonFinite);
  return decision.quarantine;
}

TEST(UpdateGuardTest, CleanDeltaAccepted) {
  UpdateGuard guard = MakeGuard();
  const StateDict signature = Signature();
  StateDict delta = MatchingDelta();
  const auto decision = guard.Inspect(1, signature, &delta);
  EXPECT_EQ(decision.verdict, GuardVerdict::kAccept);
  EXPECT_FALSE(decision.rejected());
  EXPECT_TRUE(guard.violations().empty());
}

TEST(UpdateGuardTest, MissingTensorRejectedAsSignature) {
  UpdateGuard guard = MakeGuard();
  const StateDict signature = Signature();
  StateDict delta = MatchingDelta();
  delta.erase("b");
  const auto decision = guard.Inspect(1, signature, &delta);
  EXPECT_EQ(decision.verdict, GuardVerdict::kRejectSignature);
  EXPECT_TRUE(decision.rejected());
}

TEST(UpdateGuardTest, RenamedTensorRejectedAsSignature) {
  UpdateGuard guard = MakeGuard();
  const StateDict signature = Signature();
  StateDict delta = MatchingDelta();
  delta["w#"] = delta["w"];
  delta.erase("w");
  const auto decision = guard.Inspect(1, signature, &delta);
  EXPECT_EQ(decision.verdict, GuardVerdict::kRejectSignature);
}

TEST(UpdateGuardTest, ReshapedTensorRejectedAsSignature) {
  UpdateGuard guard = MakeGuard();
  const StateDict signature = Signature();
  StateDict delta = MatchingDelta();
  delta["w"] = delta["w"].Reshape({6});  // same numel, wrong shape
  const auto decision = guard.Inspect(1, signature, &delta);
  EXPECT_EQ(decision.verdict, GuardVerdict::kRejectSignature);
}

TEST(UpdateGuardTest, NanAndInfRejectedAsNonFinite) {
  UpdateGuard guard = MakeGuard();
  const StateDict signature = Signature();
  StateDict nan_delta = MatchingDelta();
  nan_delta["w"].at(0) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(guard.Inspect(1, signature, &nan_delta).verdict,
            GuardVerdict::kRejectNonFinite);
  StateDict inf_delta = MatchingDelta();
  inf_delta["b"].at(2) = std::numeric_limits<float>::infinity();
  EXPECT_EQ(guard.Inspect(2, signature, &inf_delta).verdict,
            GuardVerdict::kRejectNonFinite);
}

TEST(UpdateGuardTest, OverNormRejectedWithoutClip) {
  UpdateGuard guard = MakeGuard(/*l2=*/1.0);
  const StateDict signature = Signature();
  StateDict delta = MatchingDelta(10.0f);  // norm = 10 * 3 = 30
  const auto decision = guard.Inspect(1, signature, &delta);
  EXPECT_EQ(decision.verdict, GuardVerdict::kRejectNorm);
}

TEST(UpdateGuardTest, ClipScalesToBoundAndIsNotAViolation) {
  UpdateGuard guard = MakeGuard(/*l2=*/1.0, /*clip=*/true, /*k=*/1);
  const StateDict signature = Signature();
  StateDict delta = MatchingDelta(10.0f);
  const auto decision = guard.Inspect(1, signature, &delta);
  EXPECT_EQ(decision.verdict, GuardVerdict::kClip);
  EXPECT_FALSE(decision.rejected());
  // Scaled in place to the bound.
  double norm_sq = 0.0;
  for (const auto& [name, t] : delta) {
    for (int64_t i = 0; i < t.numel(); ++i) norm_sq += t.at(i) * t.at(i);
  }
  EXPECT_NEAR(std::sqrt(norm_sq), 1.0, 1e-5);
  // A repair books no violation: even with quarantine_after=1 the client
  // stays in the pool.
  EXPECT_TRUE(guard.violations().empty());
  EXPECT_FALSE(guard.IsQuarantined(1));
}

TEST(UpdateGuardTest, UnderNormPassesUntouched) {
  UpdateGuard guard = MakeGuard(/*l2=*/100.0, /*clip=*/true);
  const StateDict signature = Signature();
  StateDict delta = MatchingDelta(1.0f);
  const StateDict before = delta;
  EXPECT_EQ(guard.Inspect(1, signature, &delta).verdict,
            GuardVerdict::kAccept);
  EXPECT_EQ(delta, before);
}

TEST(UpdateGuardTest, QuarantineAfterKViolations) {
  UpdateGuard guard = MakeGuard(0.0, false, /*k=*/2);
  const StateDict signature = Signature();
  StateDict bad = MatchingDelta();
  bad["w"].at(0) = std::numeric_limits<float>::quiet_NaN();

  StateDict first = bad;
  auto d1 = guard.Inspect(7, signature, &first);
  EXPECT_TRUE(d1.rejected());
  EXPECT_FALSE(d1.quarantine);
  EXPECT_FALSE(guard.IsQuarantined(7));

  StateDict second = bad;
  auto d2 = guard.Inspect(7, signature, &second);
  EXPECT_TRUE(d2.rejected());
  EXPECT_TRUE(d2.quarantine);
  EXPECT_TRUE(guard.IsQuarantined(7));

  // Quarantine fires exactly once per client.
  StateDict third = bad;
  auto d3 = guard.Inspect(7, signature, &third);
  EXPECT_TRUE(d3.rejected());
  EXPECT_FALSE(d3.quarantine);
  EXPECT_EQ(guard.quarantined().size(), 1u);
}

TEST(UpdateGuardTest, ZeroQuarantineAfterDisablesQuarantine) {
  UpdateGuard guard = MakeGuard(0.0, false, /*k=*/0);
  const StateDict signature = Signature();
  StateDict bad = MatchingDelta();
  bad["w"].at(0) = std::numeric_limits<float>::quiet_NaN();
  for (int i = 0; i < 5; ++i) {
    StateDict d = bad;
    EXPECT_FALSE(guard.Inspect(3, signature, &d).quarantine);
  }
  EXPECT_FALSE(guard.IsQuarantined(3));
}

TEST(UpdateGuardTest, RecordViolationTripsQuarantine) {
  UpdateGuard guard = MakeGuard(0.0, false, /*k=*/2);
  EXPECT_FALSE(RecordViolation(&guard, 9));
  EXPECT_TRUE(RecordViolation(&guard, 9));   // trips the bar
  EXPECT_FALSE(RecordViolation(&guard, 9));  // already quarantined
  EXPECT_TRUE(guard.IsQuarantined(9));
}

TEST(UpdateGuardTest, SaveLoadStateRoundTrips) {
  UpdateGuard guard = MakeGuard(0.0, false, /*k=*/2);
  RecordViolation(&guard, 2);
  RecordViolation(&guard, 5);
  RecordViolation(&guard, 5);  // quarantines 5

  Payload snapshot;
  guard.SaveState(&snapshot, "guard/");

  UpdateGuard restored = MakeGuard(0.0, false, /*k=*/2);
  restored.LoadState(snapshot, "guard/");
  EXPECT_EQ(restored.violations(), guard.violations());
  EXPECT_EQ(restored.quarantined(), guard.quarantined());
  EXPECT_TRUE(restored.IsQuarantined(5));
  EXPECT_FALSE(restored.IsQuarantined(2));
  // The restored guard resumes counting where the original stopped.
  EXPECT_TRUE(RecordViolation(&restored, 2));
}

}  // namespace
}  // namespace fedscope
