#include <gtest/gtest.h>

#include "fedscope/core/fed_runner.h"
#include "fedscope/data/synthetic_cifar.h"
#include "fedscope/nn/model_zoo.h"

namespace fedscope {
namespace {

FedDataset* SharedData() {
  static FedDataset* data = [] {
    SyntheticCifarOptions options;
    options.num_clients = 30;
    options.pool_size = 900;
    options.alpha = 1.0;
    options.server_test_size = 128;
    options.seed = 3;
    return new FedDataset(MakeSyntheticCifar(options));
  }();
  return data;
}

Model FlatMlp(uint64_t seed) {
  Rng rng(seed);
  Model m;
  m.Add("flat", std::make_unique<Flatten>());
  Model mlp = MakeMlp({3 * 8 * 8, 24, 10}, &rng);
  for (int i = 0; i < mlp.num_layers(); ++i) {
    m.Add(mlp.layer_name(i), mlp.layer(i)->Clone());
  }
  return m;
}

FedJob BaseJob(uint64_t seed = 21) {
  FedJob job;
  job.data = SharedData();
  job.init_model = FlatMlp(seed);
  job.client.train.lr = 0.1;
  job.client.train.local_steps = 2;
  job.client.train.batch_size = 8;
  job.client.jitter_sigma = 0.2;
  Rng fleet_rng(seed + 1);
  FleetOptions fleet;
  fleet.straggler_frac = 0.2;
  job.fleet = MakeFleet(30, fleet, &fleet_rng);
  job.server.concurrency = 10;
  job.server.max_rounds = 12;
  job.seed = seed;
  return job;
}

TEST(AsyncStrategiesTest, SyncVanillaWaitsForFullCohort) {
  FedJob job = BaseJob();
  job.server.strategy = Strategy::kSyncVanilla;
  RunResult result = FedRunner(std::move(job)).Run();
  EXPECT_EQ(result.server.rounds, 12);
  // Every contribution is fresh in sync mode.
  for (int s : result.server.staleness_log) EXPECT_EQ(s, 0);
  // Exactly concurrency updates per round.
  EXPECT_EQ(static_cast<int>(result.server.staleness_log.size()), 12 * 10);
}

TEST(AsyncStrategiesTest, OverselectionDropsSlowUpdates) {
  FedJob job = BaseJob();
  job.server.strategy = Strategy::kSyncOverselect;
  job.server.overselect_frac = 0.3;
  job.server.staleness_tolerance = 0;
  RunResult result = FedRunner(std::move(job)).Run();
  EXPECT_EQ(result.server.rounds, 12);
  // The over-selected victims' updates were dropped.
  EXPECT_GT(result.server.dropped_stale, 0);
}

TEST(AsyncStrategiesTest, GoalStrategyAggregatesAtGoal) {
  FedJob job = BaseJob();
  job.server.strategy = Strategy::kAsyncGoal;
  job.server.aggregation_goal = 4;
  job.server.staleness_tolerance = 10;
  RunResult result = FedRunner(std::move(job)).Run();
  EXPECT_EQ(result.server.rounds, 12);
  // Stale contributions exist under async aggregation.
  bool any_stale = false;
  for (int s : result.server.staleness_log) {
    if (s > 0) any_stale = true;
  }
  EXPECT_TRUE(any_stale);
}

TEST(AsyncStrategiesTest, StalenessNeverExceedsTolerance) {
  FedJob job = BaseJob();
  job.server.strategy = Strategy::kAsyncGoal;
  job.server.aggregation_goal = 3;
  job.server.staleness_tolerance = 5;
  RunResult result = FedRunner(std::move(job)).Run();
  for (int s : result.server.staleness_log) {
    EXPECT_LE(s, 5);
    EXPECT_GE(s, 0);
  }
}

TEST(AsyncStrategiesTest, AsyncIsFasterThanSyncInVirtualTime) {
  // The headline claim (Table 1): goal-based async finishes its rounds in
  // far less virtual time because it never waits for stragglers.
  FedJob sync_job = BaseJob(31);
  sync_job.server.strategy = Strategy::kSyncVanilla;
  RunResult sync = FedRunner(std::move(sync_job)).Run();

  FedJob async_job = BaseJob(31);
  async_job.server.strategy = Strategy::kAsyncGoal;
  async_job.server.aggregation_goal = 4;
  RunResult async_result = FedRunner(std::move(async_job)).Run();

  ASSERT_FALSE(sync.server.curve.empty());
  ASSERT_FALSE(async_result.server.curve.empty());
  const double sync_time = sync.server.curve.back().first;
  const double async_time = async_result.server.curve.back().first;
  EXPECT_LT(async_time, sync_time);
}

TEST(AsyncStrategiesTest, TimeUpStrategyRespectsBudget) {
  FedJob job = BaseJob();
  job.server.strategy = Strategy::kAsyncTime;
  job.server.time_budget = 5.0;
  job.server.min_received = 1;
  job.server.max_rounds = 6;
  RunResult result = FedRunner(std::move(job)).Run();
  EXPECT_EQ(result.server.rounds, 6);
  // Rounds are paced by the budget: total time ~ rounds * budget
  // (within remedial extensions).
  const double total = result.server.curve.back().first;
  EXPECT_GE(total, 6 * 5.0 - 1e-6);
  EXPECT_LE(total, 6 * 5.0 * 6);
}

TEST(AsyncStrategiesTest, AfterReceivingKeepsConcurrency) {
  FedJob job = BaseJob();
  job.server.strategy = Strategy::kAsyncGoal;
  job.server.aggregation_goal = 4;
  job.server.broadcast = BroadcastManner::kAfterReceiving;
  RunResult result = FedRunner(std::move(job)).Run();
  EXPECT_EQ(result.server.rounds, 12);
  EXPECT_GT(result.server.final_accuracy, 0.15);
}

TEST(AsyncStrategiesTest, CrashyFleetStallsSyncButNotTimeUp) {
  // With crashes, sync vanilla deadlocks (never finishes its rounds) while
  // the time_up strategy's remedial measures keep the course moving.
  FedJob job = BaseJob(41);
  for (auto& device : job.fleet) device.crash_prob = 0.3;
  job.server.strategy = Strategy::kAsyncTime;
  job.server.time_budget = 20.0;
  job.server.max_rounds = 5;
  RunResult result = FedRunner(std::move(job)).Run();
  EXPECT_EQ(result.server.rounds, 5);

  FedJob sync_job = BaseJob(41);
  for (auto& device : sync_job.fleet) device.crash_prob = 0.3;
  sync_job.server.strategy = Strategy::kSyncVanilla;
  sync_job.server.max_rounds = 5;
  RunResult stalled = FedRunner(std::move(sync_job)).Run();
  EXPECT_LT(stalled.server.rounds, 5);  // queue drained before finishing
}

TEST(AsyncStrategiesTest, TimeUpRemedialExtensionsAreCounted) {
  // min_received = 8 of 10 concurrent with a budget far below even the
  // fastest device's response time forces the remedial path (presume the
  // round's outstanding slots dead, refill them, re-arm the timer); the
  // extension counter surfaces how often it fired. The cap is raised so
  // the short budget cannot trip the starvation backstop.
  FedJob job = BaseJob();
  job.server.strategy = Strategy::kAsyncTime;
  job.server.time_budget = 0.02;
  job.server.min_received = 8;
  job.server.max_round_extensions = 1000;
  job.server.max_rounds = 4;
  RunResult result = FedRunner(std::move(job)).Run();
  EXPECT_EQ(result.server.rounds, 4);
  EXPECT_GT(result.server.round_extensions, 0);
  EXPECT_FALSE(result.server.aborted);
}

TEST(AsyncStrategiesTest, TimeUpBackstopAbortsWhenFleetIsDead) {
  // Every device crashes on every task, so no extension can ever gather
  // min_received updates. Without the backstop this configuration would
  // re-arm timers forever; with it the course aborts on the first starved
  // expiry past the cap, including the cap-0 case.
  for (int max_extensions : {0, 2}) {
    FedJob job = BaseJob();
    for (auto& device : job.fleet) device.crash_prob = 1.0;
    job.server.strategy = Strategy::kAsyncTime;
    job.server.time_budget = 5.0;
    job.server.max_round_extensions = max_extensions;
    job.server.max_rounds = 4;
    RunResult result = FedRunner(std::move(job)).Run();
    EXPECT_TRUE(result.server.aborted) << "max=" << max_extensions;
    EXPECT_EQ(result.server.rounds, 0) << "max=" << max_extensions;
    EXPECT_EQ(result.server.round_extensions, max_extensions + 1)
        << "max=" << max_extensions;
  }
}

// ---------------------------------------------------------------------------
// Property sweep: every strategy/broadcast/sampler combination is exactly
// reproducible from its seed and respects the core invariants.
// ---------------------------------------------------------------------------

struct StrategyCase {
  std::string name;
  Strategy strategy;
  BroadcastManner broadcast;
  std::string sampler;
};

// gtest would otherwise print the raw bytes, heap pointers included, into
// each test's listed name, which then differs from one run to the next.
void PrintTo(const StrategyCase& test_case, std::ostream* os) {
  *os << test_case.name;
}

class StrategySweep : public ::testing::TestWithParam<StrategyCase> {};

TEST_P(StrategySweep, DeterministicAndInvariantsHold) {
  const auto& param = GetParam();
  auto make_job = [&]() {
    FedJob job = BaseJob(99);
    job.server.strategy = param.strategy;
    job.server.broadcast = param.broadcast;
    job.server.sampler = param.sampler;
    job.server.aggregation_goal = 4;
    job.server.time_budget = 30.0;
    job.server.staleness_tolerance = 6;
    job.server.max_rounds = 8;
    return job;
  };
  RunResult a = FedRunner(make_job()).Run();
  RunResult b = FedRunner(make_job()).Run();

  // Bit-exact reproducibility.
  ASSERT_EQ(a.server.curve.size(), b.server.curve.size());
  for (size_t i = 0; i < a.server.curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.server.curve[i].first, b.server.curve[i].first);
    EXPECT_DOUBLE_EQ(a.server.curve[i].second, b.server.curve[i].second);
  }
  EXPECT_TRUE(a.final_model.GetStateDict() == b.final_model.GetStateDict());

  // Invariants: rounds completed, staleness within tolerance, monotone
  // virtual time, completeness verified.
  EXPECT_EQ(a.server.rounds, 8);
  for (int s : a.server.staleness_log) {
    EXPECT_GE(s, 0);
    EXPECT_LE(s, 6);
  }
  double last_time = -1.0;
  for (const auto& [t, acc] : a.server.curve) {
    EXPECT_GE(t, last_time);
    last_time = t;
  }
  EXPECT_TRUE(a.completeness.complete);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, StrategySweep,
    ::testing::Values(
        StrategyCase{"sync_vanilla", Strategy::kSyncVanilla,
                     BroadcastManner::kAfterAggregating, "uniform"},
        StrategyCase{"sync_overselect", Strategy::kSyncOverselect,
                     BroadcastManner::kAfterAggregating, "uniform"},
        StrategyCase{"goal_aggr_unif", Strategy::kAsyncGoal,
                     BroadcastManner::kAfterAggregating, "uniform"},
        StrategyCase{"goal_rece_unif", Strategy::kAsyncGoal,
                     BroadcastManner::kAfterReceiving, "uniform"},
        StrategyCase{"goal_aggr_group", Strategy::kAsyncGoal,
                     BroadcastManner::kAfterAggregating, "group"},
        StrategyCase{"goal_aggr_resp", Strategy::kAsyncGoal,
                     BroadcastManner::kAfterAggregating, "responsiveness"},
        StrategyCase{"goal_aggr_respinv", Strategy::kAsyncGoal,
                     BroadcastManner::kAfterAggregating,
                     "responsiveness_inv"},
        StrategyCase{"time_aggr_unif", Strategy::kAsyncTime,
                     BroadcastManner::kAfterAggregating, "uniform"},
        StrategyCase{"time_rece_unif", Strategy::kAsyncTime,
                     BroadcastManner::kAfterReceiving, "uniform"}),
    [](const ::testing::TestParamInfo<StrategyCase>& info) {
      return info.param.name;
    });

TEST(AsyncStrategiesTest, GroupSamplerRuns) {
  FedJob job = BaseJob();
  job.server.strategy = Strategy::kAsyncGoal;
  job.server.aggregation_goal = 4;
  job.server.sampler = "group";
  job.server.num_groups = 3;
  RunResult result = FedRunner(std::move(job)).Run();
  EXPECT_EQ(result.server.rounds, 12);
}

TEST(AsyncStrategiesTest, ResponsivenessSamplerRuns) {
  FedJob job = BaseJob();
  job.server.strategy = Strategy::kAsyncGoal;
  job.server.aggregation_goal = 4;
  job.server.sampler = "responsiveness";
  RunResult result = FedRunner(std::move(job)).Run();
  EXPECT_EQ(result.server.rounds, 12);
}

}  // namespace
}  // namespace fedscope
