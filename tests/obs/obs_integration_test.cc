#include <gtest/gtest.h>

#include "fedscope/core/events.h"
#include "fedscope/core/fed_runner.h"
#include "fedscope/data/synthetic_cifar.h"
#include "fedscope/nn/model_zoo.h"
#include "fedscope/obs/course_log.h"
#include "fedscope/obs/metrics.h"
#include "fedscope/obs/obs_context.h"
#include "fedscope/obs/tracer.h"

namespace fedscope {
namespace {

/// Full observability stack for one run (owns what ObsContext borrows).
struct ObsStack {
  MetricsRegistry metrics;
  Tracer tracer;
  CourseLog course_log;

  ObsContext context() { return ObsContext{&metrics, &tracer, &course_log}; }
};

FedDataset SmallData(uint64_t seed = 2) {
  SyntheticCifarOptions options;
  options.num_clients = 6;
  options.pool_size = 240;
  options.alpha = 1.0;
  options.image_size = 8;
  options.server_test_size = 96;
  options.seed = seed;
  return MakeSyntheticCifar(options);
}

FedJob SmallJob(const FedDataset* data, uint64_t seed = 11) {
  Rng rng(seed);
  FedJob job;
  job.data = data;
  Model m;
  m.Add("flat", std::make_unique<Flatten>());
  Model mlp = MakeMlp({3 * 8 * 8, 16, 10}, &rng);
  for (int i = 0; i < mlp.num_layers(); ++i) {
    m.Add(mlp.layer_name(i), mlp.layer(i)->Clone());
  }
  job.init_model = std::move(m);
  job.server.concurrency = 3;
  job.server.max_rounds = 4;
  job.client.train.lr = 0.1;
  job.client.train.local_steps = 2;
  job.client.train.batch_size = 8;
  job.client.jitter_sigma = 0.1;
  job.seed = seed;
  return job;
}

TEST(ObsIntegrationTest, AttachedObsDoesNotChangeTheCourse) {
  FedDataset data = SmallData();
  RunResult plain = FedRunner(SmallJob(&data, 5)).Run();

  ObsStack obs;
  FedJob job = SmallJob(&data, 5);
  job.obs = obs.context();
  RunResult observed = FedRunner(std::move(job)).Run();

  EXPECT_TRUE(plain.final_model.GetStateDict() ==
              observed.final_model.GetStateDict());
  ASSERT_EQ(plain.server.curve.size(), observed.server.curve.size());
  for (size_t i = 0; i < plain.server.curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(plain.server.curve[i].first,
                     observed.server.curve[i].first);
    EXPECT_DOUBLE_EQ(plain.server.curve[i].second,
                     observed.server.curve[i].second);
  }
  EXPECT_EQ(plain.server.agg_count, observed.server.agg_count);
  EXPECT_EQ(plain.server.staleness_log, observed.server.staleness_log);
}

TEST(ObsIntegrationTest, SameSeedRunsProduceIdenticalObservations) {
  // Standalone observations are keyed to virtual time only; any wall-clock
  // leakage would make these exports differ between runs.
  FedDataset data = SmallData();
  auto observe = [&data] {
    ObsStack obs;
    FedJob job = SmallJob(&data, 7);
    job.obs = obs.context();
    FedRunner(std::move(job)).Run();
    return std::make_tuple(obs.metrics.PrometheusText(), obs.metrics.Csv(),
                           obs.tracer.ToChromeJson(), obs.course_log.ToJsonl(),
                           obs.course_log.ToCsv());
  };
  EXPECT_EQ(observe(), observe());
}

TEST(ObsIntegrationTest, CourseLogMatchesServerStats) {
  FedDataset data = SmallData();
  ObsStack obs;
  FedJob job = SmallJob(&data, 9);
  job.obs = obs.context();
  RunResult result = FedRunner(std::move(job)).Run();

  EXPECT_EQ(obs.course_log.num_rounds(), result.server.rounds);
  // Figure 10 / Figure 11 quantities must be reproducible from the log.
  EXPECT_EQ(obs.course_log.AggCountPerClient(data.num_clients()),
            result.server.agg_count);
  EXPECT_EQ(obs.course_log.AllStaleness(), result.server.staleness_log);
  EXPECT_GT(obs.course_log.TotalUplinkBytes(), 0);
  EXPECT_GT(obs.course_log.TotalDownlinkBytes(), 0);
  for (const auto& round : obs.course_log.rounds()) {
    EXPECT_EQ(round.trigger, events::kAllReceived);
    EXPECT_EQ(round.contributors.size(), round.staleness.size());
    EXPECT_TRUE(round.evaluated);  // eval_interval defaults to 1
  }
}

TEST(ObsIntegrationTest, MetricsCoverTrafficAndLifecycle) {
  FedDataset data = SmallData();
  ObsStack obs;
  FedJob job = SmallJob(&data, 13);
  job.obs = obs.context();
  RunResult result = FedRunner(std::move(job)).Run();

  // Every queue push is eventually dispatched (the run drains the queue).
  EXPECT_EQ(obs.metrics.SumCounters("fs_sim_events_pushed_total"),
            obs.metrics.SumCounters("fs_sim_events_dispatched_total"));
  EXPECT_GT(obs.metrics.SumCounters("fs_comm_messages_total"), 0.0);
  EXPECT_GT(obs.metrics.SumCounters("fs_comm_payload_bytes_total"), 0.0);
  EXPECT_GT(
      obs.metrics.CounterValue("fs_comm_messages_total",
                               {{"type", events::kModelUpdate}}),
      0.0);

  MetricsSnapshot snapshot = obs.metrics.Snapshot();
  const MetricSample* staleness = snapshot.Find("fs_server_staleness");
  ASSERT_NE(staleness, nullptr);
  EXPECT_EQ(static_cast<size_t>(staleness->value),
            result.server.staleness_log.size());
  const MetricSample* rounds = snapshot.Find("fs_course_rounds");
  ASSERT_NE(rounds, nullptr);
  EXPECT_EQ(static_cast<int>(rounds->value), result.server.rounds);
  const MetricSample* accuracy = snapshot.Find("fs_course_final_accuracy");
  ASSERT_NE(accuracy, nullptr);
  EXPECT_DOUBLE_EQ(accuracy->value, result.server.final_accuracy);

  // Per-client aggregation counters reproduce ServerStats::agg_count.
  for (int id = 1; id <= data.num_clients(); ++id) {
    EXPECT_DOUBLE_EQ(
        obs.metrics.CounterValue("fs_server_agg_contributions_total",
                                 {{"client", std::to_string(id)}}),
        static_cast<double>(result.server.agg_count[id]))
        << "client " << id;
  }
}

TEST(ObsIntegrationTest, TracerRecordsCourseAndRoundSpans) {
  FedDataset data = SmallData();
  ObsStack obs;
  FedJob job = SmallJob(&data, 17);
  job.obs = obs.context();
  RunResult result = FedRunner(std::move(job)).Run();

  int course_spans = 0, round_spans = 0, client_spans = 0;
  for (const TraceEvent& event : obs.tracer.events()) {
    if (event.name == "fl_course") ++course_spans;
    if (event.name.rfind("round ", 0) == 0) ++round_spans;
    if (event.name == "client_round") ++client_spans;
    EXPECT_GE(event.ts_us, 0);
    EXPECT_GE(event.dur_us, 0);
  }
  EXPECT_EQ(course_spans, 1);
  EXPECT_EQ(round_spans, result.server.rounds);
  EXPECT_EQ(client_spans,
            static_cast<int>(result.server.staleness_log.size()));
}

TEST(ObsIntegrationTest, AsyncStalenessFlowsIntoLogAndHistogram) {
  FedDataset data = SmallData(3);
  ObsStack obs;
  FedJob job = SmallJob(&data, 21);
  job.server.strategy = Strategy::kAsyncGoal;
  job.server.broadcast = BroadcastManner::kAfterReceiving;
  job.server.aggregation_goal = 2;
  job.server.staleness_tolerance = 8;
  job.server.max_rounds = 6;
  job.client.jitter_sigma = 0.5;  // heterogeneous latencies -> staleness
  job.obs = obs.context();
  RunResult result = FedRunner(std::move(job)).Run();

  EXPECT_EQ(obs.course_log.AllStaleness(), result.server.staleness_log);
  for (const auto& round : obs.course_log.rounds()) {
    EXPECT_EQ(round.trigger, events::kGoalAchieved);
  }
  const MetricsSnapshot snapshot = obs.metrics.Snapshot();
  const MetricSample* staleness = snapshot.Find("fs_server_staleness");
  ASSERT_NE(staleness, nullptr);
  EXPECT_EQ(static_cast<size_t>(staleness->value),
            result.server.staleness_log.size());
}

}  // namespace
}  // namespace fedscope
