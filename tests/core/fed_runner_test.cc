#include "fedscope/core/fed_runner.h"

#include <gtest/gtest.h>

#include "fedscope/core/events.h"
#include "fedscope/data/synthetic_cifar.h"
#include "fedscope/data/synthetic_twitter.h"
#include "fedscope/nn/model_zoo.h"

namespace fedscope {
namespace {

FedDataset SmallData(uint64_t seed = 2) {
  SyntheticCifarOptions options;
  options.num_clients = 8;
  options.pool_size = 400;
  options.alpha = 1.0;
  options.image_size = 8;
  options.server_test_size = 128;
  options.seed = seed;
  return MakeSyntheticCifar(options);
}

FedJob SmallJob(const FedDataset* data, uint64_t seed = 11) {
  Rng rng(seed);
  FedJob job;
  job.data = data;
  job.init_model = MakeMlp({3 * 8 * 8, 32, 10}, &rng);
  job.server.concurrency = 4;
  job.server.max_rounds = 8;
  job.client.train.lr = 0.1;
  job.client.train.local_steps = 2;
  job.client.train.batch_size = 8;
  job.client.jitter_sigma = 0.1;
  job.seed = seed;
  return job;
}

// The MLP expects flat input; flatten via a Flatten layer up front.
FedJob FlattenedJob(const FedDataset* data, uint64_t seed = 11) {
  FedJob job = SmallJob(data, seed);
  Rng rng(seed);
  Model m;
  m.Add("flat", std::make_unique<Flatten>());
  Model mlp = MakeMlp({3 * 8 * 8, 32, 10}, &rng);
  for (int i = 0; i < mlp.num_layers(); ++i) {
    m.Add(mlp.layer_name(i), mlp.layer(i)->Clone());
  }
  job.init_model = std::move(m);
  return job;
}

TEST(FedRunnerTest, RunsToCompletionAndLearns) {
  FedDataset data = SmallData();
  FedRunner runner(FlattenedJob(&data));
  RunResult result = runner.Run();
  EXPECT_EQ(result.server.rounds, 8);
  EXPECT_EQ(result.server.curve.size(), 8u);
  // Accuracy improves well beyond chance (10 classes).
  EXPECT_GT(result.server.final_accuracy, 0.3);
  EXPECT_TRUE(result.completeness.complete);
  EXPECT_EQ(result.client_test_accuracy.size(), 8u);
}

TEST(FedRunnerTest, DeterministicAcrossRuns) {
  FedDataset data = SmallData();
  RunResult a = FedRunner(FlattenedJob(&data, 5)).Run();
  RunResult b = FedRunner(FlattenedJob(&data, 5)).Run();
  ASSERT_EQ(a.server.curve.size(), b.server.curve.size());
  for (size_t i = 0; i < a.server.curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.server.curve[i].first, b.server.curve[i].first);
    EXPECT_DOUBLE_EQ(a.server.curve[i].second, b.server.curve[i].second);
  }
  EXPECT_TRUE(a.final_model.GetStateDict() ==
              b.final_model.GetStateDict());
}

TEST(FedRunnerTest, DifferentSeedsDiffer) {
  FedDataset data = SmallData();
  RunResult a = FedRunner(FlattenedJob(&data, 5)).Run();
  RunResult b = FedRunner(FlattenedJob(&data, 6)).Run();
  EXPECT_FALSE(a.final_model.GetStateDict() ==
               b.final_model.GetStateDict());
}

TEST(FedRunnerTest, ThroughWireProducesSameResult) {
  // Serializing every message through the binary codec must not change
  // the course at all (backend-independence of the wire format).
  FedDataset data = SmallData();
  FedJob plain = FlattenedJob(&data, 7);
  FedJob wired = FlattenedJob(&data, 7);
  wired.through_wire = true;
  RunResult a = FedRunner(std::move(plain)).Run();
  RunResult b = FedRunner(std::move(wired)).Run();
  EXPECT_TRUE(a.final_model.GetStateDict() ==
              b.final_model.GetStateDict());
}

TEST(FedRunnerTest, ThroughWireSameResultWithDecoratorsStacked) {
  // The wire flag must stay invisible with the full decorator stack in
  // play: top-k compressed updates AND a FaultInjectingChannel dropping,
  // duplicating and delaying messages. The fault Judge consumes its rng
  // in send order, which the codec hop must not perturb.
  FedDataset data = SmallData();
  auto decorated = [&data](bool through_wire) {
    FedJob job = FlattenedJob(&data, 7);
    job.server.max_rounds = 4;
    job.server.receive_deadline = 1.5;  // lossy sync needs the backstop
    job.client.compression = "topk";
    job.client.compression_keep_frac = 0.3;
    job.fault.dropout_frac = 0.2;
    job.fault.msg_loss_prob = 0.1;
    job.fault.msg_duplicate_prob = 0.2;
    job.fault.msg_delay_prob = 0.2;
    job.fault.msg_delay_max = 0.3;
    job.fault.seed = 99;
    job.through_wire = through_wire;
    return job;
  };
  FedRunner plain_runner(decorated(false));
  FedRunner wired_runner(decorated(true));
  RunResult a = plain_runner.Run();
  RunResult b = wired_runner.Run();
  EXPECT_TRUE(a.final_model.GetStateDict() == b.final_model.GetStateDict());
  ASSERT_EQ(a.server.curve.size(), b.server.curve.size());
  for (size_t i = 0; i < a.server.curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.server.curve[i].first, b.server.curve[i].first);
    EXPECT_DOUBLE_EQ(a.server.curve[i].second, b.server.curve[i].second);
  }
  // The fault plan itself must have made identical judgements.
  const auto& fa = plain_runner.fault_plan().counters();
  const auto& fb = wired_runner.fault_plan().counters();
  EXPECT_GT(fa.lost + fa.duplicated + fa.delayed, 0);
  EXPECT_EQ(fa.lost, fb.lost);
  EXPECT_EQ(fa.duplicated, fb.duplicated);
  EXPECT_EQ(fa.delayed, fb.delayed);
}

TEST(FedRunnerTest, VirtualTimeAdvancesMonotonically) {
  FedDataset data = SmallData();
  RunResult result = FedRunner(FlattenedJob(&data)).Run();
  double last = -1.0;
  for (const auto& [time, acc] : result.server.curve) {
    EXPECT_GE(time, last);
    last = time;
  }
  EXPECT_GT(last, 0.0);
}

TEST(FedRunnerTest, TargetAccuracyStopsEarly) {
  FedDataset data = SmallData();
  FedJob job = FlattenedJob(&data);
  job.server.max_rounds = 50;
  job.server.target_accuracy = 0.25;  // easily reached
  RunResult result = FedRunner(std::move(job)).Run();
  EXPECT_TRUE(result.server.reached_target);
  EXPECT_LT(result.server.rounds, 50);
  EXPECT_GT(result.server.time_to_target, 0.0);
}

TEST(FedRunnerTest, ClientCustomizerApplies) {
  FedDataset data = SmallData();
  FedJob job = FlattenedJob(&data);
  job.client_customizer = [](int id, ClientOptions* options) {
    if (id == 1) options->train.local_steps = 0;  // client 1 never trains
  };
  FedRunner runner(std::move(job));
  RunResult result = runner.Run();
  EXPECT_EQ(runner.client(1)->rounds_trained() > 0,
            true);  // it participates (zero-step training still replies)
  EXPECT_GT(result.server.rounds, 0);
}

TEST(FedRunnerTest, HomogeneousFleetByDefault) {
  FedDataset data = SmallData();
  FedJob job = FlattenedJob(&data);
  job.fleet.clear();  // default fleet
  RunResult result = FedRunner(std::move(job)).Run();
  EXPECT_GT(result.server.rounds, 0);
}

TEST(FedRunnerTest, EarlyStopPatience) {
  FedDataset data = SmallData();
  FedJob job = FlattenedJob(&data);
  job.server.max_rounds = 100;
  job.server.early_stop_patience = 2;
  // An evaluator that never improves forces early stop quickly.
  int calls = 0;
  job.evaluator = [&calls](Model*) {
    ++calls;
    EvalResult r;
    r.accuracy = 0.5;
    return r;
  };
  RunResult result = FedRunner(std::move(job)).Run();
  EXPECT_LT(result.server.rounds, 10);
}

TEST(FedRunnerTest, AggregatorFactoryUsed) {
  FedDataset data = SmallData();
  FedJob job = FlattenedJob(&data);
  job.aggregator_factory = []() {
    return std::make_unique<MedianAggregator>();
  };
  RunResult result = FedRunner(std::move(job)).Run();
  EXPECT_GT(result.server.rounds, 0);
}

TEST(FedRunnerTest, FedOptAggregatorCourseLearns) {
  FedDataset data = SmallData();
  FedJob job = FlattenedJob(&data);
  job.server.max_rounds = 8;
  job.aggregator_factory = []() {
    return std::make_unique<FedOptAggregator>(/*server_lr=*/1.0,
                                              /*server_momentum=*/0.9);
  };
  RunResult result = FedRunner(std::move(job)).Run();
  EXPECT_EQ(result.server.rounds, 8);
  EXPECT_GT(result.server.final_accuracy, 0.3);
}

TEST(FedRunnerTest, FedNovaAggregatorHandlesHeterogeneousSteps) {
  FedDataset data = SmallData();
  FedJob job = FlattenedJob(&data);
  job.server.max_rounds = 8;
  job.aggregator_factory = []() {
    return std::make_unique<FedNovaAggregator>();
  };
  // Heterogeneous local work: FedNova's normalization target.
  job.client_customizer = [](int id, ClientOptions* options) {
    options->train.local_steps = 1 + (id % 4) * 2;  // 1, 3, 5 or 7 steps
  };
  RunResult result = FedRunner(std::move(job)).Run();
  EXPECT_EQ(result.server.rounds, 8);
  EXPECT_GT(result.server.final_accuracy, 0.3);
}

TEST(FedRunnerTest, EventDrivenMatchesProceduralFedAvg) {
  // Ablation (DESIGN.md §5): the event-driven course must produce the
  // *bit-identical* trajectory of a straight-line procedural FedAvg loop
  // built from the same components — events change how behaviour is
  // expressed, not what is computed.
  FedDataset data = SmallData(77);
  const int kRounds = 4, kConcurrency = 4, kClients = 8;
  const uint64_t kSeed = 4242;

  TrainConfig config;
  config.lr = 0.1;
  config.local_steps = 3;
  config.batch_size = 8;

  Rng init_rng(kSeed);
  Model init;
  init.Add("flat", std::make_unique<Flatten>());
  {
    Model mlp = MakeMlp({3 * 8 * 8, 16, 10}, &init_rng);
    for (int i = 0; i < mlp.num_layers(); ++i) {
      init.Add(mlp.layer_name(i), mlp.layer(i)->Clone());
    }
  }

  // Event-driven run: no jitter, homogeneous fleet, sync vanilla.
  FedJob job;
  job.data = &data;
  job.init_model = init;
  job.server.strategy = Strategy::kSyncVanilla;
  job.server.concurrency = kConcurrency;
  job.server.max_rounds = kRounds;
  job.client.train = config;
  job.client.jitter_sigma = 0.0;
  job.seed = kSeed;
  RunResult event_driven = FedRunner(std::move(job)).Run();

  // Procedural reference: same seeds, same components, explicit loop.
  Rng seeder(kSeed);
  std::vector<Model> client_models(kClients, init);
  std::vector<Rng> client_rngs;
  for (int id = 1; id <= kClients; ++id) {
    client_rngs.push_back(Rng(seeder.Fork(id).Next()));
  }
  Model global = init;
  Rng server_rng(kSeed);
  UniformSampler sampler;
  std::vector<int> all_ids;
  for (int id = 1; id <= kClients; ++id) all_ids.push_back(id);
  FedAvgAggregator aggregator(FedAvgOptions{1.0, 0.5});

  for (int round = 0; round < kRounds; ++round) {
    auto cohort = sampler.Sample(all_ids, kConcurrency, &server_rng);
    std::vector<ClientUpdate> updates;
    for (int id : cohort) {
      Model& model = client_models[id - 1];
      GeneralTrainer trainer;
      trainer.UpdateModel(&model, global.GetStateDict());
      StateDict before = model.GetStateDict();
      TrainResult result = trainer.Train(
          &model, data.clients[id - 1].train, config, &client_rngs[id - 1]);
      ClientUpdate update;
      update.client_id = id;
      update.num_samples = static_cast<double>(result.num_samples);
      update.local_steps = result.local_steps;
      update.delta = SdSub(model.GetStateDict(), before);
      updates.push_back(std::move(update));
    }
    StateDict next = aggregator.Aggregate(global.GetStateDict(), updates).value();
    ASSERT_TRUE(global.LoadStateDict(next).ok());
  }

  EXPECT_TRUE(event_driven.final_model.GetStateDict() ==
              global.GetStateDict());
}

TEST(FedRunnerTest, CollectsClientMetricsAtFinish) {
  FedDataset data = SmallData();
  FedJob job = FlattenedJob(&data);
  job.server.max_rounds = 4;
  job.server.collect_client_metrics = true;
  RunResult result = FedRunner(std::move(job)).Run();
  // Every client reported test metrics through the evaluate/metrics flow.
  EXPECT_EQ(result.server.client_metrics.size(), 8u);
  for (const auto& [id, acc] : result.server.client_metrics) {
    EXPECT_GE(acc, 0.0);
    EXPECT_LE(acc, 1.0);
  }
}

TEST(FedRunnerTest, LowBandwidthClientsDeclineInCourse) {
  FedDataset data = SmallData();
  FedJob job = FlattenedJob(&data);
  job.server.max_rounds = 6;
  // Give half the fleet starved bandwidth and enable the behaviour.
  job.fleet.assign(8, DeviceProfile{});
  for (int i = 0; i < 4; ++i) {
    job.fleet[i].up_bandwidth = 100.0;
    job.fleet[i].down_bandwidth = 100.0;
  }
  job.client_customizer = [](int, ClientOptions* options) {
    options->low_bandwidth_threshold = 1000.0;
  };
  FedRunner runner(std::move(job));
  RunResult result = runner.Run();
  EXPECT_EQ(result.server.rounds, 6);
  EXPECT_GT(result.server.declined, 0);
  int client_declines = 0;
  for (int id = 1; id <= 8; ++id) {
    client_declines += runner.client(id)->declined_count();
  }
  EXPECT_EQ(client_declines, result.server.declined);
}

class CompressionSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(CompressionSweep, CompressedCourseStillLearns) {
  // The compression operators plug into the live course: clients compress
  // their deltas, the server decompresses transparently, and the model
  // still converges.
  FedDataset data = SmallData();
  FedJob job = FlattenedJob(&data);
  job.server.max_rounds = 10;
  job.client.compression = GetParam();
  job.client.compression_keep_frac = 0.25;
  RunResult result = FedRunner(std::move(job)).Run();
  EXPECT_EQ(result.server.rounds, 10);
  EXPECT_GT(result.server.final_accuracy, 0.3);
}

INSTANTIATE_TEST_SUITE_P(Codecs, CompressionSweep,
                         ::testing::Values("none", "quant8", "topk"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

TEST(FedRunnerTest, CompressionShrinksUplinkMessages) {
  FedDataset data = SmallData();
  // Capture one client's uplink payload size with and without quant8.
  auto measure = [&](const std::string& codec) {
    QueueChannel channel;
    ClientOptions options;
    options.jitter_sigma = 0.0;
    options.compression = codec;
    Rng rng(3);
    Model model;
    model.Add("flat", std::make_unique<Flatten>());
    Model mlp = MakeMlp({3 * 8 * 8, 32, 10}, &rng);
    for (int i = 0; i < mlp.num_layers(); ++i) {
      model.Add(mlp.layer_name(i), mlp.layer(i)->Clone());
    }
    Client client(1, options, model, data.clients[0],
                  std::make_unique<GeneralTrainer>(), &channel);
    Message broadcast;
    broadcast.receiver = 1;
    broadcast.msg_type = events::kModelPara;
    broadcast.payload.SetStateDict("model", model.GetStateDict());
    client.HandleMessage(broadcast);
    return channel.Pop().payload.ByteSize();
  };
  const int64_t plain = measure("none");
  const int64_t quantized = measure("quant8");
  EXPECT_LT(quantized * 2, plain);
}

TEST(FedRunnerTest, IncompleteCourseIsRejectedBeforeStart) {
  // Removing the server's model_update handler severs the start->finish
  // path; the completeness check (Appendix E) must refuse to run the
  // course instead of silently deadlocking.
  FedDataset data = SmallData();
  FedJob job = FlattenedJob(&data);
  FedRunner runner(std::move(job));
  runner.server()->registry().Unregister(events::kModelUpdate);
  EXPECT_DEATH(runner.Run(), "incomplete");
}

TEST(FedRunnerTest, ScalesToLargeFleet) {
  // 150 clients, heterogeneous fleet, async course — a smoke test that
  // the simulator's data structures hold up beyond toy sizes.
  SyntheticTwitterOptions options;
  options.num_clients = 150;
  options.seed = 61;
  FedDataset data = MakeSyntheticTwitter(options);
  FedJob job;
  job.data = &data;
  Rng rng(62);
  job.init_model = MakeLogisticRegression(60, 2, &rng);
  Rng fleet_rng(63);
  job.fleet = MakeFleet(150, FleetOptions{}, &fleet_rng);
  job.server.strategy = Strategy::kAsyncGoal;
  job.server.aggregation_goal = 10;
  job.server.concurrency = 30;
  job.server.max_rounds = 15;
  job.client.train.lr = 0.5;
  job.client.train.batch_size = 2;
  job.seed = 62;
  RunResult result = FedRunner(std::move(job)).Run();
  EXPECT_EQ(result.server.rounds, 15);
  EXPECT_GT(result.server.final_accuracy, 0.7);
  EXPECT_EQ(result.client_test_accuracy.size(), 150u);
}

TEST(FedRunnerTest, ClientAccessorBounds) {
  FedDataset data = SmallData();
  FedRunner runner(FlattenedJob(&data));
  EXPECT_NE(runner.client(1), nullptr);
  EXPECT_NE(runner.client(8), nullptr);
  EXPECT_DEATH(runner.client(0), "");
  EXPECT_DEATH(runner.client(9), "");
}

TEST(FedRunnerTest, EagerCourseIsAFullClientCache) {
  // Without virtualize the runner keeps its clients in a cache as large as
  // the population, filled at construction and never evicted.
  FedDataset data = SmallData();
  FedRunner runner(FlattenedJob(&data));
  const ClientCache* cache = runner.client_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->capacity(), data.num_clients());
  Client* third = runner.client(3);
  runner.Run();
  const ClientCacheStats& stats = cache->stats();
  EXPECT_EQ(stats.instantiations, data.num_clients());
  EXPECT_EQ(stats.live_peak, data.num_clients());
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(stats.restores, 0);
  EXPECT_EQ(runner.client(3), third);
}

TEST(FedRunnerTest, EagerCourseDeliversFinishToEveryClient) {
  // The eager course is the reference the virtualized capacities are held
  // to: every client is live from construction, so finish reaches each as
  // a real delivery, never the cache's short-circuit for clients that are
  // not live. One round samples half the clients and no deployment sweep
  // touches the rest, so a lazily built cache would show here.
  FedDataset data = SmallData();
  FedJob job = FlattenedJob(&data);
  job.server.max_rounds = 1;
  job.deploy_eval = false;
  FedRunner runner(std::move(job));
  runner.Run();
  const ClientCacheStats& stats = runner.client_cache()->stats();
  EXPECT_EQ(stats.instantiations, runner.num_clients());
  for (int id = 1; id <= runner.num_clients(); ++id) {
    EXPECT_TRUE(runner.client(id)->finished()) << "client " << id;
  }
  EXPECT_EQ(stats.instantiations, runner.num_clients());
  EXPECT_EQ(stats.restores, 0);
}

TEST(FedRunnerTest, EagerProviderCourseMatchesDataCourse) {
  // A provider works without virtualize: wrapping the same FedDataset in
  // an EagerDataProvider reproduces the job.data course bit for bit.
  FedDataset data = SmallData();
  RunResult direct = FedRunner(FlattenedJob(&data, 9)).Run();
  const EagerDataProvider provider(&data);
  FedJob job = FlattenedJob(nullptr, 9);
  job.provider = &provider;
  job.virtualize = false;
  RunResult wrapped = FedRunner(std::move(job)).Run();
  EXPECT_TRUE(direct.final_model.GetStateDict() ==
              wrapped.final_model.GetStateDict());
  EXPECT_EQ(direct.server.curve, wrapped.server.curve);
  EXPECT_EQ(direct.client_test_accuracy, wrapped.client_test_accuracy);
}

}  // namespace
}  // namespace fedscope
