#include "fedscope/fault/fault_plan.h"

#include <gtest/gtest.h>

#include <limits>

#include "fedscope/comm/channel.h"
#include "fedscope/core/events.h"
#include "fedscope/fault/dedup.h"
#include "fedscope/fault/fault_channel.h"

namespace fedscope {
namespace {

Message Make(const std::string& msg_type, int sender, int receiver,
             int state = 0) {
  Message msg;
  msg.sender = sender;
  msg.receiver = receiver;
  msg.msg_type = msg_type;
  msg.state = state;
  return msg;
}

TEST(FaultPlanTest, DefaultPlanIsDisabledAndNeverFaults) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  FaultPlan::MessageFate fate = plan.Judge(Make(events::kModelUpdate, 3, 0));
  EXPECT_FALSE(fate.drop);
  EXPECT_FALSE(fate.duplicate);
  EXPECT_EQ(fate.extra_delay, 0.0);
  // All-null options also produce a disabled plan.
  FaultPlan from_options(FaultPlanOptions{}, 10);
  EXPECT_FALSE(from_options.enabled());
  EXPECT_TRUE(from_options.dropped_clients().empty());
}

TEST(FaultPlanTest, DropoutSetHasExactRoundedSize) {
  FaultPlanOptions options;
  options.dropout_frac = 0.3;
  options.seed = 7;
  FaultPlan plan(options, 10);
  EXPECT_TRUE(plan.enabled());
  EXPECT_EQ(plan.dropped_clients().size(), 3u);
  for (int id : plan.dropped_clients()) {
    EXPECT_GE(id, 1);
    EXPECT_LE(id, 10);
    EXPECT_TRUE(plan.IsDropped(id));
  }
  // lround rounds half away from zero: round(0.25 * 10) = 3.
  options.dropout_frac = 0.25;
  EXPECT_EQ(FaultPlan(options, 10).dropped_clients().size(), 3u);
  options.dropout_frac = 1.0;
  EXPECT_EQ(FaultPlan(options, 10).dropped_clients().size(), 10u);
}

TEST(FaultPlanTest, SameSeedSameDecisions) {
  FaultPlanOptions options;
  options.dropout_frac = 0.2;
  options.straggler_frac = 0.2;
  options.straggler_delay = 5.0;
  options.msg_loss_prob = 0.3;
  options.msg_duplicate_prob = 0.2;
  options.msg_delay_prob = 0.2;
  options.msg_delay_max = 2.0;
  options.seed = 99;
  FaultPlan a(options, 20);
  FaultPlan b(options, 20);
  EXPECT_EQ(a.dropped_clients(), b.dropped_clients());
  EXPECT_EQ(a.straggler_clients(), b.straggler_clients());
  for (int i = 0; i < 200; ++i) {
    const Message msg = Make(i % 2 == 0 ? events::kModelUpdate
                                        : events::kModelPara,
                             1 + i % 20, i % 2 == 0 ? 0 : 1 + i % 20, i);
    FaultPlan::MessageFate fa = a.Judge(msg);
    FaultPlan::MessageFate fb = b.Judge(msg);
    EXPECT_EQ(fa.drop, fb.drop);
    EXPECT_EQ(fa.duplicate, fb.duplicate);
    EXPECT_DOUBLE_EQ(fa.extra_delay, fb.extra_delay);
  }
}

TEST(FaultPlanTest, ControlPlaneIsExempt) {
  // Even a maximally hostile plan must not touch bootstrap/teardown/timer
  // traffic, or courses could never start or end.
  FaultPlanOptions options;
  options.dropout_frac = 1.0;
  options.msg_loss_prob = 1.0;
  options.seed = 5;
  FaultPlan plan(options, 4);
  for (const char* type : {events::kJoinIn, events::kAssignId,
                           events::kFinish, events::kTimer,
                           events::kClientFailure}) {
    FaultPlan::MessageFate fate = plan.Judge(Make(type, 1, 0));
    EXPECT_FALSE(fate.drop) << type;
    EXPECT_FALSE(fate.duplicate) << type;
    EXPECT_EQ(fate.extra_delay, 0.0) << type;
  }
  EXPECT_EQ(plan.counters().lost, 0);
}

TEST(FaultPlanTest, DroppedClientUplinkSuppressedButDownlinkDelivered) {
  FaultPlanOptions options;
  options.dropout_frac = 1.0;
  options.seed = 5;
  FaultPlan plan(options, 4);
  // Uplink from a dropped client vanishes...
  EXPECT_TRUE(plan.Judge(Make(events::kModelUpdate, 2, 0)).drop);
  EXPECT_TRUE(plan.Judge(Make(events::kMetrics, 3, 0)).drop);
  // ...but the server's broadcast to it still goes out (the server cannot
  // know the device is dark; the loss is one-directional).
  EXPECT_FALSE(plan.Judge(Make(events::kModelPara, 0, 2)).drop);
  EXPECT_EQ(plan.counters().dropout_suppressed, 2);
}

TEST(FaultPlanTest, StragglerDelaysUplinkOnly) {
  FaultPlanOptions options;
  options.straggler_frac = 1.0;
  options.straggler_delay = 7.5;
  options.seed = 5;
  FaultPlan plan(options, 4);
  EXPECT_DOUBLE_EQ(plan.Judge(Make(events::kModelUpdate, 1, 0)).extra_delay,
                   7.5);
  EXPECT_DOUBLE_EQ(plan.Judge(Make(events::kModelPara, 0, 1)).extra_delay,
                   0.0);
}

TEST(FaultPlanTest, CrashAfterTrainingDropsOnlyUpdates) {
  FaultPlanOptions options;
  options.crash_after_training_prob = 1.0;
  options.seed = 5;
  FaultPlan plan(options, 4);
  EXPECT_TRUE(plan.Judge(Make(events::kModelUpdate, 1, 0)).drop);
  EXPECT_FALSE(plan.Judge(Make(events::kMetrics, 1, 0)).drop);
  EXPECT_EQ(plan.counters().crashes, 1);
}

// -- FaultInjectingChannel --------------------------------------------------

TEST(FaultChannelTest, NullPlanForwardsVerbatim) {
  QueueChannel inner;
  FaultPlan plan;
  FaultInjectingChannel channel(&inner, &plan);
  Message msg = Make(events::kModelUpdate, 1, 0, 4);
  msg.timestamp = 3.5;
  channel.Send(msg);
  ASSERT_EQ(inner.Size(), 1u);
  Message out = inner.Pop();
  EXPECT_EQ(out.msg_type, msg.msg_type);
  EXPECT_DOUBLE_EQ(out.timestamp, 3.5);
  EXPECT_EQ(out.state, 4);
}

TEST(FaultChannelTest, CertainLossDropsDataPlaneOnly) {
  QueueChannel inner;
  FaultPlanOptions options;
  options.msg_loss_prob = 1.0;
  options.seed = 5;
  FaultPlan plan(options, 4);
  FaultInjectingChannel channel(&inner, &plan);
  channel.Send(Make(events::kModelUpdate, 1, 0));
  channel.Send(Make(events::kModelPara, 0, 1));
  EXPECT_TRUE(inner.Empty());
  channel.Send(Make(events::kJoinIn, 1, 0));
  channel.Send(Make(events::kFinish, 0, 1));
  EXPECT_EQ(inner.Size(), 2u);
  EXPECT_EQ(plan.counters().lost, 2);
}

TEST(FaultChannelTest, CertainDuplicationDeliversTwice) {
  QueueChannel inner;
  FaultPlanOptions options;
  options.msg_duplicate_prob = 1.0;
  options.seed = 5;
  FaultPlan plan(options, 4);
  FaultInjectingChannel channel(&inner, &plan);
  Message msg = Make(events::kModelUpdate, 1, 0, 2);
  msg.payload.SetInt("x", 42);
  channel.Send(msg);
  ASSERT_EQ(inner.Size(), 2u);
  Message first = inner.Pop();
  Message second = inner.Pop();
  EXPECT_EQ(first.payload.GetInt("x"), 42);
  EXPECT_TRUE(first.payload == second.payload);
  EXPECT_EQ(plan.counters().duplicated, 1);
}

TEST(FaultChannelTest, SuppressionSendsTheDelayedOriginalOnly) {
  // Under suppression the copy the plan duplicates is counted, not sent;
  // the original keeps its fate (here a delay).
  QueueChannel inner;
  FaultPlanOptions options;
  options.msg_duplicate_prob = 1.0;
  options.msg_delay_prob = 1.0;
  options.msg_delay_max = 4.0;
  options.seed = 5;
  FaultPlan plan(options, 4);
  FaultInjectingChannel channel(&inner, &plan);
  channel.set_suppress_duplicates(true);
  Message msg = Make(events::kModelUpdate, 1, 0, 2);
  msg.timestamp = 10.0;
  channel.Send(msg);
  ASSERT_EQ(inner.Size(), 1u);
  EXPECT_GT(inner.Pop().timestamp, 10.0);
  EXPECT_EQ(plan.counters().duplicated, 1);
  EXPECT_EQ(channel.suppressed(), 1);
}

TEST(FaultChannelTest, DelayShiftsTimestampForward) {
  QueueChannel inner;
  FaultPlanOptions options;
  options.msg_delay_prob = 1.0;
  options.msg_delay_max = 4.0;
  options.seed = 5;
  FaultPlan plan(options, 4);
  FaultInjectingChannel channel(&inner, &plan);
  Message msg = Make(events::kModelUpdate, 1, 0);
  msg.timestamp = 10.0;
  channel.Send(msg);
  ASSERT_EQ(inner.Size(), 1u);
  const double delivered = inner.Pop().timestamp;
  EXPECT_GT(delivered, 10.0);
  EXPECT_LT(delivered, 14.0);
  EXPECT_EQ(plan.counters().delayed, 1);
}

// -- DuplicateSuppressor ----------------------------------------------------

TEST(DuplicateSuppressorTest, ExactRepeatIsSuppressed) {
  DuplicateSuppressor dedup;
  Message msg = Make(events::kModelUpdate, 3, 0, 5);
  msg.payload.SetInt("x", 1);
  EXPECT_FALSE(dedup.IsDuplicate(msg));
  EXPECT_TRUE(dedup.IsDuplicate(msg));
  EXPECT_EQ(dedup.suppressed(), 1);
}

TEST(DuplicateSuppressorTest, FreshPayloadSameKeyPasses) {
  // A legitimate second contribution to the same round carries a different
  // delta; payload equality keeps it out of the duplicate net.
  DuplicateSuppressor dedup;
  Message msg = Make(events::kModelUpdate, 3, 0, 5);
  msg.payload.SetInt("x", 1);
  EXPECT_FALSE(dedup.IsDuplicate(msg));
  msg.payload.SetInt("x", 2);
  EXPECT_FALSE(dedup.IsDuplicate(msg));
  EXPECT_EQ(dedup.suppressed(), 0);
}

TEST(DuplicateSuppressorTest, NanPoisonedRepeatIsStillSuppressed) {
  // Tensor equality is bitwise, so a NaN-poisoned frame equals its own
  // retransmission. Under IEEE `==` (NaN != NaN) a hostile client could
  // defeat dedup by planting a NaN: every duplicated copy of the same
  // uplink would read as fresh — and each copy would bill a fresh guard
  // violation, quarantining the sender off a single logical update.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Message msg = Make(events::kModelUpdate, 3, 0, 5);
  msg.payload.SetTensor("w", Tensor({2}, {nan, 1.0f}));

  DuplicateSuppressor per_sender;
  EXPECT_FALSE(per_sender.IsDuplicate(msg));
  EXPECT_TRUE(per_sender.IsDuplicate(msg));
  EXPECT_EQ(per_sender.suppressed(), 1);
}

TEST(DuplicateSuppressorTest, TracksSendersIndependently) {
  DuplicateSuppressor dedup;
  Message a = Make(events::kModelUpdate, 1, 0, 5);
  Message b = Make(events::kModelUpdate, 2, 0, 5);
  EXPECT_FALSE(dedup.IsDuplicate(a));
  EXPECT_FALSE(dedup.IsDuplicate(b));  // same key, different sender
  EXPECT_TRUE(dedup.IsDuplicate(a));
  EXPECT_TRUE(dedup.IsDuplicate(b));
  EXPECT_EQ(dedup.suppressed(), 2);
}

}  // namespace
}  // namespace fedscope
