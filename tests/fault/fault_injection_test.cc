#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fedscope/core/events.h"
#include "fedscope/core/fed_runner.h"
#include "fedscope/data/synthetic_twitter.h"
#include "fedscope/nn/model_zoo.h"
#include "fedscope/obs/course_log.h"
#include "fedscope/obs/metrics.h"

namespace fedscope {
namespace {

FedDataset TinyData(uint64_t seed = 21) {
  SyntheticTwitterOptions options;
  options.num_clients = 8;
  options.seed = seed;
  return MakeSyntheticTwitter(options);
}

FedJob TinyJob(const FedDataset* data, uint64_t seed = 31) {
  FedJob job;
  job.data = data;
  Rng rng(seed);
  job.init_model = MakeLogisticRegression(60, 2, &rng);
  job.server.concurrency = 4;
  job.server.max_rounds = 4;
  job.client.train.lr = 0.5;
  job.client.train.batch_size = 2;
  job.seed = seed;
  return job;
}

TEST(FaultInjectionTest, NullPlanLeavesCourseBitIdentical) {
  // A FedJob whose fault options are all zero must not even construct the
  // decorator, and a nonzero fault seed with zero probabilities is still
  // the null plan — both runs must match a fault-free course exactly.
  FedDataset data = TinyData();
  FedJob plain = TinyJob(&data);
  FedJob seeded_null = TinyJob(&data);
  seeded_null.fault.seed = 12345;  // seed alone enables nothing
  FedRunner a(std::move(plain));
  FedRunner b(std::move(seeded_null));
  EXPECT_FALSE(a.fault_plan().enabled());
  EXPECT_FALSE(b.fault_plan().enabled());
  RunResult ra = a.Run();
  RunResult rb = b.Run();
  ASSERT_EQ(ra.server.curve.size(), rb.server.curve.size());
  for (size_t i = 0; i < ra.server.curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra.server.curve[i].first, rb.server.curve[i].first);
    EXPECT_DOUBLE_EQ(ra.server.curve[i].second, rb.server.curve[i].second);
  }
  EXPECT_TRUE(ra.final_model.GetStateDict() == rb.final_model.GetStateDict());
  EXPECT_EQ(ra.server.dropouts, 0);
  EXPECT_EQ(ra.server.replacements, 0);
}

TEST(FaultInjectionTest, SeededPlanReproducible) {
  FedDataset data = TinyData();
  auto lossy = [&data] {
    FedJob job = TinyJob(&data);
    job.server.receive_deadline = 240.0;
    job.fault.msg_loss_prob = 0.15;
    job.fault.msg_duplicate_prob = 0.1;
    job.fault.msg_delay_prob = 0.2;
    job.fault.msg_delay_max = 5.0;
    job.fault.seed = 77;
    return job;
  };
  RunResult a = FedRunner(lossy()).Run();
  RunResult b = FedRunner(lossy()).Run();
  ASSERT_EQ(a.server.curve.size(), b.server.curve.size());
  for (size_t i = 0; i < a.server.curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.server.curve[i].first, b.server.curve[i].first);
    EXPECT_DOUBLE_EQ(a.server.curve[i].second, b.server.curve[i].second);
  }
  EXPECT_EQ(a.server.staleness_log, b.server.staleness_log);
  EXPECT_TRUE(a.final_model.GetStateDict() == b.final_model.GetStateDict());
}

TEST(FaultInjectionTest, SyncVanillaDroppedClientsCompleteViaDeadline) {
  // Half the fleet goes dark after joining. Without intervention the
  // synchronous trigger would starve; the receive deadline presumes the
  // silent cohort members dead, replaces them, and the course finishes
  // every round. Dropout/replacement totals surface through the obs
  // course log.
  FedDataset data = TinyData();
  CourseLog course_log;
  FedJob job = TinyJob(&data);
  job.server.strategy = Strategy::kSyncVanilla;
  job.server.receive_deadline = 240.0;
  job.server.min_received = 4;  // no partial aggregation short-cut
  job.fault.dropout_frac = 0.5;
  job.fault.seed = 9;
  job.obs.course_log = &course_log;
  FedRunner runner(std::move(job));
  EXPECT_EQ(runner.fault_plan().dropped_clients().size(), 4u);
  RunResult result = runner.Run();
  EXPECT_EQ(result.server.rounds, 4);
  EXPECT_GT(result.server.dropouts, 0);
  EXPECT_GT(result.server.replacements, 0);
  EXPECT_GT(result.server.round_extensions, 0);
  EXPECT_FALSE(result.server.aborted);
  int64_t logged_dropouts = 0;
  for (const auto& record : course_log.rounds()) {
    logged_dropouts += record.dropouts;
  }
  EXPECT_GT(logged_dropouts, 0);
}

TEST(FaultInjectionTest, WithoutDeadlineTheSameCourseStarves) {
  // Control for the test above: the standalone queue simply drains when
  // the synchronous trigger can never fire, so Run returns early instead
  // of hanging — but the course is cut short.
  FedDataset data = TinyData();
  FedJob job = TinyJob(&data);
  job.server.strategy = Strategy::kSyncVanilla;
  job.server.min_received = 4;
  job.fault.dropout_frac = 0.5;
  job.fault.seed = 9;
  RunResult result = FedRunner(std::move(job)).Run();
  EXPECT_LT(result.server.rounds, 4);
}

TEST(FaultInjectionTest, LossyDuplicatedDelayedChannelStillCompletes) {
  FedDataset data = TinyData();
  FedJob job = TinyJob(&data);
  job.server.strategy = Strategy::kSyncVanilla;
  job.server.receive_deadline = 240.0;
  job.fault.msg_loss_prob = 0.15;
  job.fault.msg_duplicate_prob = 0.1;
  job.fault.msg_delay_prob = 0.2;
  job.fault.msg_delay_max = 5.0;
  job.fault.seed = 77;
  FedRunner runner(std::move(job));
  RunResult result = runner.Run();
  EXPECT_EQ(result.server.rounds, 4);
  EXPECT_FALSE(result.server.aborted);
  const FaultPlan::Counters& counters = runner.fault_plan().counters();
  EXPECT_GT(counters.lost + counters.duplicated + counters.delayed, 0);
}

struct QueueCount {
  RunResult result;
  double pushed = 0.0;
  int64_t suppressed = 0;
  int64_t duplicated = 0;
};

QueueCount RunCountingPushes(FedJob job) {
  MetricsRegistry metrics;
  job.obs.metrics = &metrics;
  FedRunner runner(std::move(job));
  QueueCount out;
  out.result = runner.Run();
  out.pushed = metrics.SumCounters("fs_sim_events_pushed_total");
  out.suppressed = runner.duplicates_suppressed();
  out.duplicated = runner.fault_plan().counters().duplicated;
  return out;
}

TEST(FaultInjectionTest, SuppressedDuplicatesNeverEnterTheQueue) {
  // A plan that duplicates every data-plane message, with suppression on:
  // the fault channel suppresses each copy where it makes it, so the queue
  // takes exactly the pushes of the same course without duplication.
  FedDataset data = TinyData();
  QueueCount plain = RunCountingPushes(TinyJob(&data));
  FedJob job = TinyJob(&data);
  job.fault.msg_duplicate_prob = 1.0;
  job.suppress_duplicates = true;
  QueueCount deduped = RunCountingPushes(std::move(job));
  EXPECT_GT(deduped.duplicated, 0);
  EXPECT_EQ(deduped.suppressed, deduped.duplicated);
  EXPECT_EQ(plain.suppressed, 0);
  EXPECT_GT(plain.pushed, 0.0);
  EXPECT_EQ(deduped.pushed, plain.pushed);
  // With every copy suppressed, the course is the fault-free one.
  EXPECT_TRUE(deduped.result.final_model.GetStateDict() ==
              plain.result.final_model.GetStateDict());
  EXPECT_EQ(deduped.result.server.curve, plain.result.server.curve);
}

TEST(FaultInjectionTest, DeadlineAggregatesPartialCohort) {
  // With min_received = 1 the deadline degrades gracefully: it aggregates
  // whatever arrived instead of replacing anyone, and the course log shows
  // receive_deadline as the round trigger.
  FedDataset data = TinyData();
  CourseLog course_log;
  FedJob job = TinyJob(&data);
  job.server.strategy = Strategy::kSyncVanilla;
  job.server.receive_deadline = 240.0;
  job.server.min_received = 1;
  job.fault.dropout_frac = 0.5;
  job.fault.seed = 9;
  job.obs.course_log = &course_log;
  RunResult result = FedRunner(std::move(job)).Run();
  EXPECT_EQ(result.server.rounds, 4);
  bool deadline_triggered = false;
  for (const auto& record : course_log.rounds()) {
    if (record.trigger == events::kReceiveDeadline) deadline_triggered = true;
  }
  EXPECT_TRUE(deadline_triggered);
}

TEST(FaultInjectionTest, AllDeadFleetAbortsViaBackstop) {
  // Every client goes dark: no update can ever arrive, so the extension
  // loop must give up instead of spinning forever. The counts since the
  // last aggregation belong to the round given up: one last `abort` row
  // carries them, so the course log still sums to ServerStats.
  FedDataset data = TinyData();
  FedJob job = TinyJob(&data);
  job.server.strategy = Strategy::kSyncVanilla;
  job.server.receive_deadline = 30.0;
  job.server.max_round_extensions = 3;
  job.fault.dropout_frac = 1.0;
  job.fault.seed = 9;
  CourseLog course_log;
  job.obs.course_log = &course_log;
  RunResult result = FedRunner(std::move(job)).Run();
  EXPECT_TRUE(result.server.aborted);
  EXPECT_EQ(result.server.rounds, 0);
  EXPECT_GT(result.server.round_extensions, 0);
  ASSERT_EQ(course_log.num_rounds(), 1);
  const CourseRoundRecord& row = course_log.rounds().back();
  EXPECT_EQ(row.trigger, kAbortTrigger);
  EXPECT_EQ(row.round, 1);
  EXPECT_TRUE(row.contributors.empty());
  EXPECT_FALSE(row.evaluated);
  EXPECT_GT(row.dropouts, 0);
  EXPECT_EQ(static_cast<const CourseCounters&>(row),
            static_cast<const CourseCounters&>(result.server));
}

TEST(FaultInjectionTest, DeadlineWithExactlyMinReceivedAggregatesAtOnce) {
  // Boundary of the timer rule's `buffer >= min_received`: when the
  // deadline fires with EXACTLY min_received updates in the buffer, the
  // round must aggregate immediately — no extension, no presumed-dead
  // replacements.
  FedDataset data = TinyData();
  FedJob job = TinyJob(&data);
  job.server.strategy = Strategy::kSyncVanilla;
  job.server.concurrency = 8;  // full participation: fleet slots are fixed
  job.server.min_received = 2;
  job.server.max_rounds = 1;
  job.server.receive_deadline = 60.0;
  // Two fast devices answer in milliseconds; six are slow enough that
  // their updates land far beyond the deadline (but are never "lost").
  DeviceProfile fast;
  fast.compute_speed = 1e6;
  DeviceProfile slow;
  slow.compute_speed = 0.01;
  job.fleet = {fast, fast, slow, slow, slow, slow, slow, slow};
  RunResult result = FedRunner(std::move(job)).Run();
  EXPECT_EQ(result.server.rounds, 1);
  EXPECT_FALSE(result.server.aborted);
  EXPECT_EQ(result.server.round_extensions, 0);
  EXPECT_EQ(result.server.dropouts, 0);
  EXPECT_EQ(result.server.replacements, 0);
}

TEST(FaultInjectionTest, BackstopAbortsExactlyAfterLastAllowedExtension) {
  // Boundary of the starved-round budget: with a fully dead cohort
  // the server extends max_round_extensions times and gives up on the
  // next deadline — the counter must read exactly max + 1, including the
  // max = 0 degenerate case (abort on the very first starved deadline).
  FedDataset data = TinyData();
  for (int max_extensions : {0, 3}) {
    FedJob job = TinyJob(&data);
    job.server.strategy = Strategy::kSyncVanilla;
    job.server.receive_deadline = 30.0;
    job.server.max_round_extensions = max_extensions;
    job.fault.dropout_frac = 1.0;
    job.fault.seed = 9;
    RunResult result = FedRunner(std::move(job)).Run();
    EXPECT_TRUE(result.server.aborted) << "max=" << max_extensions;
    EXPECT_EQ(result.server.rounds, 0) << "max=" << max_extensions;
    EXPECT_EQ(result.server.round_extensions, max_extensions + 1)
        << "max=" << max_extensions;
  }
}

TEST(FaultInjectionTest, NoSurvivorsLeftInFlightAggregatesWithoutWaiting) {
  // Full participation, one live client, seven that never respond: after
  // the first starved deadline the whole outstanding cohort is presumed
  // dead and there is nobody idle to replace it. With no update able to
  // ever arrive, the server must aggregate the partial buffer right then
  // instead of sleepwalking through the remaining allowed extensions.
  FedDataset data = TinyData();
  FedJob job = TinyJob(&data);
  job.server.strategy = Strategy::kSyncVanilla;
  job.server.concurrency = 8;
  job.server.min_received = 3;
  job.server.max_rounds = 1;
  job.server.receive_deadline = 30.0;
  job.server.max_round_extensions = 5;
  DeviceProfile fast;
  fast.compute_speed = 1e6;
  DeviceProfile dead;
  dead.crash_prob = 1.0;  // never responds, round after round
  job.fleet = {fast, dead, dead, dead, dead, dead, dead, dead};
  RunResult result = FedRunner(std::move(job)).Run();
  EXPECT_FALSE(result.server.aborted);
  EXPECT_EQ(result.server.rounds, 1);
  EXPECT_EQ(result.server.round_extensions, 1);
  EXPECT_EQ(result.server.dropouts, 7);
}

TEST(FaultInjectionTest, BackstopAggregatesPartialBufferInsteadOfAborting) {
  // Replacement churn that never satisfies min_received: each starved
  // deadline presumes the in-flight cohort dead and pulls in idle (but
  // equally slow) replacements, so someone is always in flight. On the
  // extension after the last allowed one, the backstop must aggregate the
  // below-min_received buffer rather than abort the course.
  FedDataset data = TinyData();
  FedJob job = TinyJob(&data);
  job.server.strategy = Strategy::kSyncVanilla;
  job.server.concurrency = 4;
  job.server.min_received = 3;
  job.server.max_rounds = 1;
  job.server.receive_deadline = 30.0;
  job.server.max_round_extensions = 2;
  DeviceProfile fast;
  fast.compute_speed = 1e6;
  DeviceProfile slow;
  slow.compute_speed = 0.01;  // responds, but hours after the deadline
  job.fleet = {fast, slow, slow, slow, slow, slow, slow, slow};
  RunResult result = FedRunner(std::move(job)).Run();
  EXPECT_FALSE(result.server.aborted);
  EXPECT_EQ(result.server.rounds, 1);
  EXPECT_EQ(result.server.round_extensions, 3);  // 2 allowed + the backstop
  EXPECT_GT(result.server.replacements, 0);
}

TEST(FaultInjectionTest, OverselectToleratesCrashesWithoutDeadline) {
  // Over-selection absorbs crash-after-training losses by construction:
  // the trigger waits for `concurrency` updates out of an over-sampled
  // cohort, so a lost straggler does not stall the round.
  FedDataset data = TinyData();
  FedJob job = TinyJob(&data);
  job.server.strategy = Strategy::kSyncOverselect;
  job.server.concurrency = 4;
  job.server.overselect_frac = 0.5;  // sample 6, wait for 4
  job.fault.crash_after_training_prob = 0.1;
  job.fault.seed = 13;
  FedRunner runner(std::move(job));
  RunResult result = runner.Run();
  EXPECT_EQ(result.server.rounds, 4);
  EXPECT_FALSE(result.server.aborted);
}

TEST(FaultInjectionTest, AllDeclinedCohortCompletes) {
  // Every client is below the low_bandwidth threshold, so each declines
  // every other request and a whole cohort declines round 0. A decline is
  // an answer: its slot is refilled from the idle members (the decliner
  // included), so the course finishes with or without a deadline.
  FedDataset data = TinyData();
  for (const double deadline : {0.0, 240.0}) {
    FedJob job = TinyJob(&data);
    job.server.strategy = Strategy::kSyncVanilla;
    job.server.concurrency = 2;
    job.server.receive_deadline = deadline;
    job.fleet.assign(8, DeviceProfile{});
    for (DeviceProfile& device : job.fleet) {
      device.up_bandwidth = 100.0;
      device.down_bandwidth = 100.0;
    }
    job.client_customizer = [](int, ClientOptions* options) {
      options->low_bandwidth_threshold = 1000.0;
    };
    FedRunner runner(std::move(job));
    RunResult result = runner.Run();
    const std::string tag = "deadline=" + std::to_string(deadline);
    EXPECT_TRUE(runner.server()->finished()) << tag;
    EXPECT_FALSE(result.server.aborted) << tag;
    EXPECT_EQ(result.server.rounds, 4) << tag;
    EXPECT_GT(result.server.declined, 0) << tag;
    EXPECT_EQ(result.server.round_extensions, 0) << tag;
  }
}

TEST(FaultInjectionTest, CarriedSlotsCountTowardTheDeadlineTarget) {
  // Full participation with two clients that never answer. Their round-0
  // slots stay in flight and count toward each round's target while they
  // are within the staleness toleration, so rounds 0-2 end at the
  // deadline (partial cohort, no starvation); from round 3 on they are
  // past it, the target is the six live clients, and rounds end on
  // all_received. Nothing is presumed dead or replaced.
  FedDataset data = TinyData();
  FedJob job = TinyJob(&data);
  job.server.strategy = Strategy::kSyncVanilla;
  job.server.concurrency = 8;
  job.server.min_received = 3;
  job.server.staleness_tolerance = 2;
  job.server.receive_deadline = 30.0;
  job.server.max_rounds = 5;
  DeviceProfile fast;
  fast.compute_speed = 1e6;
  DeviceProfile dead;
  dead.crash_prob = 1.0;
  job.fleet = {fast, fast, fast, fast, fast, fast, dead, dead};
  CourseLog log;
  job.obs.course_log = &log;
  RunResult result = FedRunner(std::move(job)).Run();
  std::vector<std::string> triggers;
  for (const CourseRoundRecord& r : log.rounds()) triggers.push_back(r.trigger);
  EXPECT_EQ(triggers, (std::vector<std::string>{
                          events::kReceiveDeadline, events::kReceiveDeadline,
                          events::kReceiveDeadline, events::kAllReceived,
                          events::kAllReceived}));
  EXPECT_EQ(result.server.dropouts, 0);
  EXPECT_EQ(result.server.replacements, 0);
  EXPECT_EQ(result.server.round_extensions, 0);
}

}  // namespace
}  // namespace fedscope
