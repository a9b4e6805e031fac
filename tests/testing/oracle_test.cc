#include "fedscope/testing/oracles.h"

#include "fedscope/testing/shrink.h"
#include "fedscope/util/logging.h"
#include "gtest/gtest.h"

namespace fedscope {
namespace testing {
namespace {

class OracleTest : public ::testing::Test {
 protected:
  void SetUp() override { Logging::set_min_level(LogLevel::kWarning); }
  void TearDown() override { Logging::set_min_level(LogLevel::kInfo); }
};

/// A synchronous course under message loss, duplication and delay, with
/// the receive deadline that keeps it live, on a partial cohort with a
/// plug-in stack of its own.
CourseSpec LossySyncSpec() {
  CourseSpec s;
  s.seed = 7;
  s.num_clients = 8;
  s.pool_size = 152;
  s.hidden = 6;
  s.sampler = "responsiveness";
  s.concurrency = 3;
  s.min_received = 2;
  s.receive_deadline = 0.49;
  s.lr = 0.15;
  s.batch_size = 8;
  s.jitter_sigma = 0.3;
  s.aggregator = "fedopt";
  s.personalization = "pfedme";
  s.compression = "quant8";
  s.compression_keep_frac = 0.14;
  s.dp_enable = true;
  s.dp_noise = 0.05;
  s.dp_clip = 2.0;
  s.crash_frac = 0.68;
  s.fault_msg_loss_prob = 0.12;
  s.fault_msg_duplicate_prob = 0.28;
  s.fault_msg_delay_prob = 0.4;
  s.fault_msg_delay_max = 0.42;
  return CourseGen::Clamp(s);
}

/// The shrink tests' synthetic failure: an async_time course with message
/// duplication, among load-free fields the shrinker must reset.
CourseSpec DuplicatingAsyncTimeSpec() {
  CourseSpec s;
  s.seed = 40;
  s.model = "logreg";
  s.pool_size = 96;
  s.strategy = "async_time";
  s.broadcast = "after_receiving";
  s.sampler = "responsiveness";
  s.concurrency = 6;
  s.aggregation_goal = 1;
  s.min_received = 3;
  s.staleness_tolerance = 2;
  s.time_budget = 1.29;
  s.max_round_extensions = 7;
  s.max_rounds = 4;
  s.lr = 0.38;
  s.local_steps = 2;
  s.batch_size = 6;
  s.jitter_sigma = 0.3;
  s.heterogeneous_fleet = true;
  s.crash_frac = 0.73;
  s.fault_dropout_frac = 0.15;
  s.fault_msg_duplicate_prob = 0.25;
  s.suppress_duplicates = true;
  return CourseGen::Clamp(s);
}

TEST_F(OracleTest, FixedSeedCoursesPassEveryOracle) {
  for (uint64_t seed : {1u, 2u, 7u, 20u}) {
    const CourseSpec spec = CourseGen::Sample(seed);
    const auto violations = CheckCourse(spec);
    EXPECT_TRUE(violations.empty())
        << "seed " << seed << "\n" << FormatViolations(violations);
  }
}

TEST_F(OracleTest, DistributedEligibilityIsConservative) {
  CourseSpec eligible;  // defaults are sync_vanilla, no faults
  eligible.concurrency = eligible.num_clients;
  eligible = CourseGen::Clamp(eligible);
  EXPECT_TRUE(DistributedEligible(eligible));

  CourseSpec faulty = eligible;
  faulty.fault_msg_loss_prob = 0.1;
  EXPECT_FALSE(DistributedEligible(CourseGen::Clamp(faulty)));

  CourseSpec partial = eligible;
  partial.concurrency = eligible.num_clients - 1;
  EXPECT_FALSE(DistributedEligible(CourseGen::Clamp(partial)));
}

TEST_F(OracleTest, DistributedDifferentialPasses) {
  CourseSpec spec;
  spec.concurrency = spec.num_clients;
  spec.max_rounds = 2;
  spec = CourseGen::Clamp(spec);
  ASSERT_TRUE(DistributedEligible(spec));
  OracleOptions options;
  options.run_distributed = true;
  const auto violations = CheckCourse(spec, options);
  EXPECT_TRUE(violations.empty()) << FormatViolations(violations);
}

TEST_F(OracleTest, MessageConservationHoldsUnderLossyFaultPlan) {
  CourseSpec spec = LossySyncSpec();
  ASSERT_TRUE(spec.HasLossyFaults());
  ASSERT_GT(spec.fault_msg_duplicate_prob, 0.0);
  CourseObservation obs = RunInstrumentedCourse(spec);
  const int64_t vanished =
      obs.fault.dropout_suppressed + obs.fault.crashes + obs.fault.lost;
  EXPECT_EQ(obs.delivered,
            obs.sent - vanished + obs.fault.duplicated - obs.suppressed);
  EXPECT_GT(obs.sent, 0);
  EXPECT_EQ(obs.time_regression, "");
}

TEST_F(OracleTest, DuplicateSuppressionIsExact) {
  CourseSpec spec = LossySyncSpec();
  spec.fault_msg_duplicate_prob = 0.5;
  spec.suppress_duplicates = true;
  spec = CourseGen::Clamp(spec);
  CourseObservation obs = RunInstrumentedCourse(spec);
  EXPECT_GT(obs.fault.duplicated, 0);
  // Every injected duplicate — and nothing else — is suppressed.
  EXPECT_EQ(obs.suppressed, obs.fault.duplicated);

  spec.suppress_duplicates = false;
  spec = CourseGen::Clamp(spec);
  obs = RunInstrumentedCourse(spec);
  EXPECT_EQ(obs.suppressed, 0);
}

TEST_F(OracleTest, AggregateWeightConservationForEveryAggregator) {
  for (const char* aggregator :
       {"fedavg", "fedopt", "fednova", "median", "trimmed_mean"}) {
    CourseSpec spec = CourseGen::Sample(1);
    spec.aggregator = aggregator;
    spec = CourseGen::Clamp(spec);
    const auto violations = CheckAggregateWeightConservation(spec);
    EXPECT_TRUE(violations.empty())
        << aggregator << "\n" << FormatViolations(violations);
  }
}

TEST_F(OracleTest, ShrinkReducesToThePredicateCore) {
  // Synthetic failure: any async_time course with message duplication
  // "fails". The shrinker must keep those two facts and reset the rest.
  CourseSpec failing = DuplicatingAsyncTimeSpec();
  ASSERT_EQ(failing.strategy, "async_time");
  ASSERT_GT(failing.fault_msg_duplicate_prob, 0.0);
  const auto predicate = [](const CourseSpec& s) {
    return s.strategy == "async_time" && s.fault_msg_duplicate_prob > 0.0;
  };
  const ShrinkResult result = ShrinkCourse(failing, predicate);
  EXPECT_TRUE(predicate(result.spec));
  EXPECT_TRUE(CourseGen::Validate(result.spec).ok());
  EXPECT_GT(result.fields_reset, 0);
  EXPECT_LE(result.evals, ShrinkOptions{}.max_evals);
  // Load-free fields land on their benign defaults.
  const CourseSpec defaults;
  EXPECT_EQ(result.spec.personalization, defaults.personalization);
  EXPECT_EQ(result.spec.compression, defaults.compression);
  EXPECT_EQ(result.spec.heterogeneous_fleet, defaults.heterogeneous_fleet);
  EXPECT_EQ(result.spec.broadcast, defaults.broadcast);
}

TEST_F(OracleTest, ShrinkResetsTheLateAxes) {
  // The synthetic failure again, drawn on every late axis: a hostile,
  // guarded, bandwidth-starved population with a late crash point. None
  // of those axes is load-bearing for the predicate, so each must land on
  // its default.
  CourseSpec s = DuplicatingAsyncTimeSpec();
  s.population = 20;
  s.hostile_frac = 0.3;
  s.hostile_mode = "sign_flip";
  s.hostile_prob = 0.7;
  s.hostile_scale = 1e3;
  s.guard_k = 2;
  s.guard_l2 = 50.0;
  s.guard_clip = true;
  s.low_bandwidth_frac = 0.5;
  s.crash_frac = 0.9;
  const CourseSpec failing = CourseGen::Clamp(s);
  ASSERT_TRUE(failing.Hostile() && failing.guard && failing.guard_clip);
  ASSERT_EQ(failing.aggregator, "median");  // Clamp's robust remap
  const auto predicate = [](const CourseSpec& c) {
    return c.strategy == "async_time" && c.fault_msg_duplicate_prob > 0.0;
  };
  const ShrinkResult result = ShrinkCourse(failing, predicate);
  EXPECT_TRUE(predicate(result.spec));
  const CourseSpec d;
  EXPECT_EQ(result.spec.hostile_mode, d.hostile_mode);
  EXPECT_EQ(result.spec.guard, d.guard);
  EXPECT_EQ(result.spec.guard_clip, d.guard_clip);
  EXPECT_EQ(result.spec.population, d.population);
  EXPECT_EQ(result.spec.guard_k, d.guard_k);
  EXPECT_EQ(result.spec.crash_frac, d.crash_frac);
  EXPECT_EQ(result.spec.guard_l2, d.guard_l2);
  EXPECT_EQ(result.spec.hostile_frac, d.hostile_frac);
  EXPECT_EQ(result.spec.hostile_prob, d.hostile_prob);
  EXPECT_EQ(result.spec.hostile_scale, d.hostile_scale);
  EXPECT_EQ(result.spec.low_bandwidth_frac, d.low_bandwidth_frac);
  // With the hostility gone, the robust remap lets go of the aggregator.
  EXPECT_EQ(result.spec.aggregator, d.aggregator);
}

TEST_F(OracleTest, ShrinkIsDeterministic) {
  const auto predicate = [](const CourseSpec& s) {
    return s.strategy == "async_time" && s.fault_msg_duplicate_prob > 0.0;
  };
  const CourseSpec failing = DuplicatingAsyncTimeSpec();
  const ShrinkResult a = ShrinkCourse(failing, predicate);
  const ShrinkResult b = ShrinkCourse(failing, predicate);
  EXPECT_EQ(a.spec, b.spec);
  EXPECT_EQ(a.evals, b.evals);
}

}  // namespace
}  // namespace testing
}  // namespace fedscope
