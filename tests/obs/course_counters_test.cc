#include "fedscope/obs/course_counters.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fedscope/core/fed_runner.h"
#include "fedscope/core/update_guard.h"
#include "fedscope/obs/course_log.h"
#include "fedscope/obs/metrics.h"
#include "fedscope/obs/tracer.h"
#include "fedscope/testing/course_gen.h"
#include "fedscope/testing/oracles.h"
#include "fedscope/util/logging.h"

namespace fedscope {
namespace {

/// "series{label=value}", or the field name for updates_rejected.
std::string FieldName(const CounterField& field) {
  if (field.series == nullptr) return "updates_rejected";
  std::string name = field.series;
  if (*field.label != '\0') {
    name += std::string("{") + field.label + "=" + field.label_value + "}";
  }
  return name;
}

TEST(CourseCountersTest, FieldTableListsEveryFieldOnce) {
  CourseCounters probe;
  for (const CounterField& field : kCounterFields) ++(probe.*field.member);
  std::set<std::string> names;
  for (const CounterField& field : kCounterFields) {
    EXPECT_EQ(probe.*field.member, 1) << FieldName(field);
    EXPECT_TRUE(names.insert(FieldName(field)).second) << FieldName(field);
    if (field.series == nullptr) continue;
    const std::string series = field.series;
    EXPECT_EQ(series.rfind("fs_server_", 0), 0u) << series;
    EXPECT_EQ(series.substr(series.size() - 6), "_total") << series;
  }
}

TEST(CourseCountersTest, RejectionReasonsAreTheGuardLabels) {
  std::set<std::string> reasons;
  for (const CounterField& field : kCounterFields) {
    if (field.series == nullptr ||
        std::string(field.series) != "fs_server_updates_rejected_total") {
      continue;
    }
    EXPECT_EQ(std::string(field.label), "reason");
    reasons.insert(field.label_value);
  }
  EXPECT_EQ(reasons, (std::set<std::string>{
                         GuardReasonLabel(GuardVerdict::kRejectSignature),
                         GuardReasonLabel(GuardVerdict::kRejectNonFinite),
                         GuardReasonLabel(GuardVerdict::kRejectNorm)}));
}

TEST(CourseCountersTest, RejectBooksTotalAndReasonAndDifferenceIsFieldwise) {
  CourseCounters earlier;
  earlier.Reject(&CourseCounters::rejected_norm);
  EXPECT_EQ(earlier.updates_rejected, 1);
  EXPECT_EQ(earlier.rejected_norm, 1);

  CourseCounters later = earlier;
  later.Reject(&CourseCounters::rejected_signature);
  later.dropouts = 3;
  CourseCounters expected;
  expected.updates_rejected = 1;
  expected.rejected_signature = 1;
  expected.dropouts = 3;
  EXPECT_EQ(later - earlier, expected);
  EXPECT_EQ(later - later, CourseCounters());
}

// ---------------------------------------------------------------------------
// Every server counter reaches every sink
// ---------------------------------------------------------------------------

/// Refuses every `fail_every`-th aggregation and delegates the rest: a
/// degenerate cohort the round has to survive.
class FlakyAggregator : public Aggregator {
 public:
  FlakyAggregator(std::unique_ptr<Aggregator> inner, int fail_every)
      : inner_(std::move(inner)), fail_every_(fail_every) {}
  Result<StateDict> Aggregate(
      const StateDict& global,
      const std::vector<ClientUpdate>& updates) override {
    if (++calls_ % fail_every_ == 0) {
      return Status::FailedPrecondition("flaky: refused");
    }
    return inner_->Aggregate(global, updates);
  }
  std::string Name() const override { return "flaky"; }

 private:
  std::unique_ptr<Aggregator> inner_;
  int fail_every_;
  int calls_ = 0;
};

/// A finished course with a metrics registry, a tracer and a course log
/// attached.
struct SinkRun {
  ServerStats stats;
  MetricsSnapshot metrics;
  CourseLog log;
};

SinkRun RunWithSinks(FedJob job) {
  SinkRun run;
  MetricsRegistry metrics;
  Tracer tracer;
  job.obs = {&metrics, &tracer, &run.log};
  run.stats = FedRunner(std::move(job)).Run().server;
  run.metrics = metrics.Snapshot();
  return run;
}

class ServerCounterSinksTest : public ::testing::Test {
 protected:
  void SetUp() override { Logging::set_min_level(LogLevel::kError); }
  void TearDown() override { Logging::set_min_level(LogLevel::kInfo); }
};

TEST_F(ServerCounterSinksTest, EveryCounterReachesEverySink) {
  // Flat, with faults and a rejecting guard: dropouts, refills, starved
  // deadlines, declines, replayed (stale) updates, three rejection
  // reasons, and an aggregator that refuses every third cohort.
  testing::CourseSpec flat;
  flat.num_clients = 10;
  flat.concurrency = 6;
  flat.max_rounds = 10;
  flat.min_received = 2;
  flat.fault_dropout_frac = 0.2;
  flat.fault_msg_loss_prob = 0.1;
  flat.low_bandwidth_frac = 0.3;
  flat.guard = true;
  flat.guard_l2 = 10.0;
  flat.guard_k = 5;
  flat.hostile_frac = 0.35;
  flat.hostile_mode = "mixed";

  // Flat and asynchronous, with a clipping guard: scaled updates are cut
  // to the bound, and updates older than the last aggregation are dropped.
  testing::CourseSpec clip;
  clip.num_clients = 8;
  clip.max_rounds = 6;
  clip.strategy = "async_goal";
  clip.aggregation_goal = 2;
  clip.guard = true;
  clip.guard_l2 = 10.0;
  clip.guard_clip = true;
  clip.hostile_frac = 0.3;
  clip.hostile_mode = "scale";

  // Flat, with attackers quarantined on their first rejected update.
  testing::CourseSpec quarantine;
  quarantine.num_clients = 8;
  quarantine.guard = true;
  quarantine.guard_k = 1;
  quarantine.hostile_frac = 0.25;
  quarantine.hostile_mode = "nan";

  CourseCounters seen;
  auto run = [&seen](const std::string& tag, const testing::CourseSpec& spec,
                     const std::function<void(FedJob*)>& adjust) {
    auto fixture = testing::MakeCourseFixture(testing::CourseGen::Clamp(spec));
    FedJob job = fixture->MakeJob();
    adjust(&job);  // what the spec lattice clamps away
    const SinkRun result = RunWithSinks(std::move(job));
    const std::vector<testing::Violation> violations =
        testing::CheckCounterSinks(result.stats, result.metrics, result.log);
    EXPECT_TRUE(violations.empty())
        << tag << ":\n" << testing::FormatViolations(violations);
    for (const CounterField& field : kCounterFields) {
      if (result.stats.*field.member != 0) seen.*field.member = 1;
    }
  };
  run("flat", flat, [&flat](FedJob* job) {
    job->server.staleness_tolerance = 0;
    job->aggregator_factory = [spec = testing::CourseGen::Clamp(flat)] {
      return std::make_unique<FlakyAggregator>(
          testing::MakeSpecAggregator(spec), /*fail_every=*/3);
    };
  });
  run("clip", clip, [](FedJob* job) { job->server.staleness_tolerance = 0; });
  run("quarantine", quarantine, [](FedJob*) {});

  for (const CounterField& field : kCounterFields) {
    EXPECT_EQ(seen.*field.member, 1)
        << FieldName(field) << " stayed 0 in every course";
  }
}

}  // namespace
}  // namespace fedscope
