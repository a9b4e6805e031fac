// End-to-end hostile-client courses through the standalone FedRunner: the
// fault plan mutates uplinks in flight (DESIGN.md §14) and the server's
// ingress guard must reject, quarantine, and keep the course live. The
// guard-off negative control shows the guard is load-bearing: unscreened
// NaN poison reaches the aggregate and corrupts the shared model.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "fedscope/core/fed_runner.h"
#include "fedscope/data/synthetic_twitter.h"
#include "fedscope/nn/model_zoo.h"
#include "fedscope/testing/course_gen.h"

namespace fedscope {
namespace {

FedDataset TinyData(uint64_t seed = 21) {
  SyntheticTwitterOptions options;
  options.num_clients = 8;
  options.seed = seed;
  return MakeSyntheticTwitter(options);
}

/// Guarded 8-client sync course with two hostile clients (frac 0.25).
FedJob HostileJob(const FedDataset* data, const std::string& mode,
                  uint64_t seed = 31) {
  FedJob job;
  job.data = data;
  Rng rng(seed);
  job.init_model = MakeLogisticRegression(60, 2, &rng);
  job.server.concurrency = 4;
  job.server.max_rounds = 4;
  job.server.receive_deadline = 240.0;
  job.client.train.lr = 0.5;
  job.client.train.batch_size = 2;
  job.seed = seed;
  job.server.guard.enabled = true;
  job.server.guard.quarantine_after = 1;
  job.fault.hostile_frac = 0.25;
  job.fault.hostile_mode = mode;
  job.fault.hostile_prob = 1.0;
  job.fault.seed = 77;
  return job;
}

bool ModelFinite(Model& model) {
  for (const auto& [name, t] : model.GetStateDict()) {
    for (int64_t i = 0; i < t.numel(); ++i) {
      if (!std::isfinite(t.at(i))) return false;
    }
  }
  return true;
}

/// Every quarantined id must be plan-hostile, and none twice.
void ExpectQuarantineSound(const RunResult& result,
                           const std::set<int>& hostile) {
  std::set<int> seen;
  for (const int id : result.server.quarantined) {
    EXPECT_TRUE(hostile.count(id) > 0) << "benign client " << id
                                       << " quarantined";
    EXPECT_TRUE(seen.insert(id).second) << "client " << id
                                        << " quarantined twice";
  }
}

TEST(HostileClientTest, NanPoisonRejectedQuarantinedCourseCompletes) {
  FedDataset data = TinyData();
  FedRunner runner(HostileJob(&data, "nan"));
  const std::set<int> hostile = runner.fault_plan().hostile_clients();
  EXPECT_EQ(hostile.size(), 2u);
  RunResult result = runner.Run();
  const auto& counters = runner.fault_plan().counters();
  EXPECT_GT(counters.poisoned_nonfinite, 0);
  // Lossless channel: every poisoned update was delivered and every one
  // must have been rejected at ingress.
  EXPECT_EQ(result.server.updates_rejected, counters.poisoned_nonfinite);
  EXPECT_FALSE(result.server.quarantined.empty());
  ExpectQuarantineSound(result, hostile);
  EXPECT_EQ(result.server.rounds, 4);
  EXPECT_FALSE(result.server.aborted);
  EXPECT_TRUE(ModelFinite(result.final_model));
}

TEST(HostileClientTest, InfPoisonRejectedAtIngress) {
  FedDataset data = TinyData();
  FedRunner runner(HostileJob(&data, "inf"));
  RunResult result = runner.Run();
  EXPECT_GT(result.server.updates_rejected, 0);
  EXPECT_FALSE(result.server.aborted);
  EXPECT_TRUE(ModelFinite(result.final_model));
  ExpectQuarantineSound(result, runner.fault_plan().hostile_clients());
}

TEST(HostileClientTest, ScaleAttackCaughtByNormBound) {
  FedDataset data = TinyData();
  FedJob job = HostileJob(&data, "scale");
  job.fault.hostile_scale = 1e6;
  job.server.guard.l2_bound = 50.0;  // benign deltas sit far below this
  FedRunner runner(std::move(job));
  RunResult result = runner.Run();
  EXPECT_GT(runner.fault_plan().counters().scaled, 0);
  EXPECT_GT(result.server.updates_rejected, 0);
  EXPECT_EQ(result.server.updates_clipped, 0);
  EXPECT_FALSE(result.server.quarantined.empty());
  ExpectQuarantineSound(result, runner.fault_plan().hostile_clients());
  EXPECT_FALSE(result.server.aborted);
  EXPECT_TRUE(ModelFinite(result.final_model));
}

TEST(HostileClientTest, ClipModeRepairsScaleAttackWithoutQuarantine) {
  FedDataset data = TinyData();
  FedJob job = HostileJob(&data, "scale");
  job.server.guard.l2_bound = 50.0;
  job.server.guard.clip_to_bound = true;
  FedRunner runner(std::move(job));
  RunResult result = runner.Run();
  EXPECT_GT(result.server.updates_clipped, 0);
  // Clipping is a repair: no rejection, no violation, nobody quarantined.
  EXPECT_EQ(result.server.updates_rejected, 0);
  EXPECT_TRUE(result.server.quarantined.empty());
  EXPECT_EQ(result.server.rounds, 4);
  EXPECT_TRUE(ModelFinite(result.final_model));
}

TEST(HostileClientTest, MalformedPayloadRejectedAsSignatureViolation) {
  FedDataset data = TinyData();
  FedRunner runner(HostileJob(&data, "malformed"));
  RunResult result = runner.Run();
  EXPECT_GT(runner.fault_plan().counters().malformed, 0);
  EXPECT_GT(result.server.updates_rejected, 0);
  EXPECT_FALSE(result.server.aborted);
  EXPECT_TRUE(ModelFinite(result.final_model));
  ExpectQuarantineSound(result, runner.fault_plan().hostile_clients());
}

TEST(HostileClientTest, ReplayedUpdatesNeverAbortTheCourse) {
  FedDataset data = TinyData();
  FedRunner runner(HostileJob(&data, "replay"));
  RunResult result = runner.Run();
  // A replay rewinds the claimed round: depending on timing it lands as a
  // stale drop or (round 0) as a harmless duplicate — either way the
  // course must complete with a finite model.
  EXPECT_GT(runner.fault_plan().counters().replayed, 0);
  EXPECT_FALSE(result.server.aborted);
  EXPECT_TRUE(ModelFinite(result.final_model));
  ExpectQuarantineSound(result, runner.fault_plan().hostile_clients());
}

TEST(HostileClientTest, GuardOffNanPoisonCorruptsTheModel) {
  // Negative control: without the ingress guard the same NaN attack flows
  // straight into FedAvg and the shared model goes non-finite — the guard
  // is load-bearing, not decorative.
  FedDataset data = TinyData();
  FedJob job = HostileJob(&data, "nan");
  job.server.guard = UpdateGuardOptions{};  // off
  job.server.receive_deadline = 0.0;        // plain blocking sync
  FedRunner runner(std::move(job));
  RunResult result = runner.Run();
  EXPECT_GT(runner.fault_plan().counters().poisoned_nonfinite, 0);
  EXPECT_EQ(result.server.updates_rejected, 0);
  EXPECT_FALSE(ModelFinite(result.final_model));
}

TEST(HostileClientTest, HostileCoursesAreSeedReproducible) {
  FedDataset data = TinyData();
  RunResult a = FedRunner(HostileJob(&data, "mixed")).Run();
  RunResult b = FedRunner(HostileJob(&data, "mixed")).Run();
  EXPECT_TRUE(a.final_model.GetStateDict() == b.final_model.GetStateDict());
  EXPECT_EQ(a.server.updates_rejected, b.server.updates_rejected);
  EXPECT_EQ(a.server.quarantined, b.server.quarantined);
  EXPECT_EQ(a.server.staleness_log, b.server.staleness_log);
}

TEST(HostileClientTest, CompressedAttacksAreSignatureRejectionsNotAborts) {
  // A compressed update carries its shapes as tensors, so every mutation
  // but a replay breaks the encoding itself: the server must refuse it as
  // a signature violation — booked, quarantined, slot repaired — and never
  // let a poisoned shape become a size.
  FedDataset data = TinyData();
  for (const char* codec : {"quant8", "topk"}) {
    for (const char* mode : {"nan", "inf", "sign_flip", "scale", "malformed",
                             "replay", "mixed"}) {
      SCOPED_TRACE(std::string(codec) + " x " + mode);
      FedJob job = HostileJob(&data, mode);
      job.client.compression = codec;
      job.client.compression_keep_frac = 0.5;
      FedRunner runner(std::move(job));
      const std::set<int> hostile = runner.fault_plan().hostile_clients();
      RunResult result = runner.Run();
      const auto& counters = runner.fault_plan().counters();
      const int64_t undecodable = counters.poisoned_nonfinite +
                                  counters.sign_flipped + counters.scaled +
                                  counters.malformed;
      EXPECT_FALSE(result.server.aborted);
      EXPECT_EQ(result.server.rounds, 4);
      if (std::string(mode) != "replay") {
        EXPECT_GT(undecodable, 0);
      }
      // Lossless channel: every broken update was delivered and refused
      // as a signature violation, before any other screen.
      EXPECT_EQ(result.server.rejected_signature, undecodable);
      EXPECT_EQ(result.server.updates_rejected, undecodable);
      ExpectQuarantineSound(result, hostile);
      EXPECT_TRUE(ModelFinite(result.final_model));
    }
  }
}

TEST(HostileClientTest, UndecodableUpdatesDoNotStallAnUnguardedSyncCourse) {
  // Without the guard an update that does not decode is still a rejection:
  // its slot is refilled, so a blocking sync round completes instead of
  // waiting forever for an update it already received...
  FedDataset data = TinyData();
  FedJob job = HostileJob(&data, "scale");
  job.client.compression = "quant8";
  job.server.guard = UpdateGuardOptions{};  // off
  job.server.receive_deadline = 0.0;
  RunResult blocking = FedRunner(job).Run();
  EXPECT_EQ(blocking.server.rounds, 4);
  EXPECT_FALSE(blocking.server.aborted);
  EXPECT_GT(blocking.server.rejected_signature, 0);
  EXPECT_TRUE(blocking.server.quarantined.empty());
  EXPECT_TRUE(ModelFinite(blocking.final_model));

  // ...and a round with a deadline is not held until it expires.
  job.server.receive_deadline = 600.0;
  RunResult timed = FedRunner(job).Run();
  EXPECT_EQ(timed.server.rounds, 4);
  EXPECT_EQ(timed.server.round_extensions, 0);
  EXPECT_LT(timed.server.finish_time, job.server.receive_deadline);
}

TEST(HostileClientTest, ClampedHostileSpecRunsThroughCourseFixture) {
  // The generator's hostility lattice rules (guard forced on, robust
  // aggregator remap, concurrency cap) must produce a runnable course.
  testing::CourseSpec spec;
  spec.seed = 5;
  spec.hostile_frac = 0.3;
  spec.hostile_mode = "mixed";
  spec.guard_k = 1;
  spec.max_rounds = 3;
  spec = testing::CourseGen::Clamp(spec);
  ASSERT_TRUE(spec.Hostile());
  ASSERT_TRUE(spec.guard);
  auto fixture = testing::MakeCourseFixture(spec);
  FedRunner runner(fixture->MakeJob());
  const std::set<int> hostile = runner.fault_plan().hostile_clients();
  EXPECT_FALSE(hostile.empty());
  RunResult result = runner.Run();
  EXPECT_FALSE(result.server.aborted);
  EXPECT_TRUE(ModelFinite(result.final_model));
  ExpectQuarantineSound(result, hostile);
}

}  // namespace
}  // namespace fedscope
