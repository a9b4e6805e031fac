#include "fedscope/core/distributed.h"

#include <gtest/gtest.h>

#include <thread>

#include "fedscope/comm/socket_transport.h"
#include "fedscope/core/distributed_aggregator.h"
#include "fedscope/core/events.h"
#include "fedscope/nn/model_zoo.h"
#include "fedscope/obs/course_log.h"
#include "fedscope/obs/metrics.h"
#include "fedscope/obs/obs_context.h"
#include "fedscope/obs/tracer.h"
#include "fedscope/testing/oracles.h"

namespace fedscope {
namespace {

// ---------------------------------------------------------------------------
// Transport layer
// ---------------------------------------------------------------------------

TEST(TcpTransportTest, MessageRoundTripOverLoopback) {
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  const int port = listener->port();
  EXPECT_GT(port, 0);

  Message sent;
  sent.sender = 3;
  sent.receiver = 0;
  sent.msg_type = "model_update";
  sent.state = 5;
  sent.payload.SetTensor("delta/w", Tensor::FromVector({1.5f, -2.5f}));
  sent.payload.SetInt("num_samples", 40);

  std::thread client_thread([&] {
    auto conn = TcpConnection::Connect("127.0.0.1", port);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    ASSERT_TRUE(conn->SendMessage(sent).ok());
  });

  auto server_conn = listener->Accept();
  ASSERT_TRUE(server_conn.ok());
  auto received = server_conn->ReceiveMessage();
  client_thread.join();
  ASSERT_TRUE(received.ok()) << received.status().ToString();
  EXPECT_EQ(received->sender, 3);
  EXPECT_EQ(received->msg_type, "model_update");
  EXPECT_TRUE(received->payload == sent.payload);
}

TEST(TcpTransportTest, MultipleMessagesInOrder) {
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  const int port = listener->port();
  std::thread client_thread([&] {
    auto conn = TcpConnection::Connect("127.0.0.1", port);
    ASSERT_TRUE(conn.ok());
    for (int i = 0; i < 20; ++i) {
      Message msg;
      msg.state = i;
      msg.msg_type = "seq";
      ASSERT_TRUE(conn->SendMessage(msg).ok());
    }
  });
  auto conn = listener->Accept();
  ASSERT_TRUE(conn.ok());
  for (int i = 0; i < 20; ++i) {
    auto msg = conn->ReceiveMessage();
    ASSERT_TRUE(msg.ok());
    EXPECT_EQ(msg->state, i);
  }
  client_thread.join();
}

TEST(TcpTransportTest, EofReportedAsClosed) {
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  const int port = listener->port();
  std::thread client_thread([&] {
    auto conn = TcpConnection::Connect("127.0.0.1", port);
    ASSERT_TRUE(conn.ok());
    conn->Close();
  });
  auto conn = listener->Accept();
  ASSERT_TRUE(conn.ok());
  auto msg = conn->ReceiveMessage();
  client_thread.join();
  EXPECT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kDataLoss);
}

TEST(TcpTransportTest, ConnectToClosedPortFails) {
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  const int port = listener->port();
  listener->Close();
  EXPECT_FALSE(TcpConnection::Connect("127.0.0.1", port).ok());
}

// ---------------------------------------------------------------------------
// Distributed FL course
// ---------------------------------------------------------------------------

Dataset Blobs(int64_t n, uint64_t seed) {
  Rng rng(seed);
  Dataset d;
  d.x = Tensor({n, 2});
  d.labels.resize(n);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t y = i % 2;
    d.labels[i] = y;
    d.x.at(i, 0) = static_cast<float>((y ? 1.5 : -1.5) + rng.Normal(0, 0.5));
    d.x.at(i, 1) = static_cast<float>((y ? 1.5 : -1.5) + rng.Normal(0, 0.5));
  }
  return d;
}

TEST(DistributedTest, FourClientFedAvgOverTcp) {
  constexpr int kClients = 4;
  Rng init_rng(1);
  Model init = MakeLogisticRegression(2, 2, &init_rng);

  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  const int port = listener->port();

  ServerOptions server_options;
  server_options.strategy = Strategy::kSyncVanilla;
  server_options.concurrency = kClients;
  server_options.expected_clients = kClients;
  server_options.max_rounds = 6;
  server_options.seed = 2;

  DistributedServerHost server_host(
      server_options, init, std::make_unique<FedAvgAggregator>(),
      std::move(listener.value()));
  Dataset server_test = Blobs(64, 99);
  server_host.server()->set_evaluator([&server_test](Model* model) {
    return EvaluateClassifier(model, server_test);
  });

  ServerStats stats;
  std::thread server_thread([&] { stats = server_host.Run(); });

  std::vector<std::thread> client_threads;
  std::vector<Status> client_statuses(kClients);
  for (int id = 1; id <= kClients; ++id) {
    client_threads.emplace_back([&, id] {
      ClientOptions options;
      options.jitter_sigma = 0.0;
      options.seed = 100 + id;
      Rng split_rng(id);
      SplitDataset data = Split(Blobs(40, id), 0.7, 0.1, &split_rng);
      DistributedClientHost host(id, std::move(options), init,
                                 std::move(data),
                                 std::make_unique<GeneralTrainer>(),
                                 "127.0.0.1", port);
      client_statuses[id - 1] = host.Run();
    });
  }
  for (auto& t : client_threads) t.join();
  server_thread.join();

  for (const auto& status : client_statuses) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  EXPECT_EQ(stats.rounds, 6);
  EXPECT_GT(stats.final_accuracy, 0.85);  // the course actually learned
  EXPECT_EQ(stats.curve.size(), 6u);
}

TEST(DistributedTest, ObservabilityOverTcp) {
  // Distributed hosts feed the same obs sinks as the simulator, keyed to
  // wall time; this verifies the wiring, not timestamp determinism.
  constexpr int kClients = 3;
  Rng init_rng(4);
  Model init = MakeLogisticRegression(2, 2, &init_rng);

  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  const int port = listener->port();

  ServerOptions server_options;
  server_options.strategy = Strategy::kSyncVanilla;
  server_options.concurrency = kClients;
  server_options.expected_clients = kClients;
  server_options.max_rounds = 3;
  server_options.seed = 5;

  DistributedServerHost server_host(
      server_options, init, std::make_unique<FedAvgAggregator>(),
      std::move(listener.value()));
  Dataset server_test = Blobs(64, 98);
  server_host.server()->set_evaluator([&server_test](Model* model) {
    return EvaluateClassifier(model, server_test);
  });
  MetricsRegistry server_metrics;
  CourseLog course_log;
  ObsContext server_obs;
  server_obs.metrics = &server_metrics;
  server_obs.course_log = &course_log;
  server_host.set_obs(&server_obs);

  ServerStats stats;
  std::thread server_thread([&] { stats = server_host.Run(); });

  std::vector<std::thread> client_threads;
  std::vector<MetricsRegistry> client_metrics(kClients);
  std::vector<ObsContext> client_obs(kClients);
  for (int id = 1; id <= kClients; ++id) {
    client_obs[id - 1].metrics = &client_metrics[id - 1];
    client_threads.emplace_back([&, id] {
      ClientOptions options;
      options.jitter_sigma = 0.0;
      options.seed = 300 + id;
      Rng split_rng(id);
      SplitDataset data = Split(Blobs(40, 20 + id), 0.7, 0.1, &split_rng);
      DistributedClientHost host(id, std::move(options), init,
                                 std::move(data),
                                 std::make_unique<GeneralTrainer>(),
                                 "127.0.0.1", port);
      host.set_obs(&client_obs[id - 1]);
      Status status = host.Run();
      EXPECT_TRUE(status.ok()) << status.ToString();
    });
  }
  for (auto& t : client_threads) t.join();
  server_thread.join();

  EXPECT_EQ(course_log.num_rounds(), stats.rounds);
  EXPECT_EQ(course_log.AggCountPerClient(kClients), stats.agg_count);
  // Server downlink: model_para broadcasts counted by the router.
  EXPECT_GT(server_metrics.CounterValue("fs_comm_messages_total",
                                        {{"type", events::kModelPara}}),
            0.0);
  // Each client uplink: one model_update per round it participated in.
  for (int id = 1; id <= kClients; ++id) {
    EXPECT_EQ(client_metrics[id - 1].CounterValue(
                  "fs_comm_messages_total", {{"type", events::kModelUpdate}}),
              static_cast<double>(stats.agg_count[id]))
        << "client " << id;
  }
}

TEST(DistributedTest, ServerCountersReachEverySinkOverTcp) {
  // The TCP host writes the server's Prometheus counters from the same
  // table as the simulator: every fs_server_* series, and the course log's
  // rows summed, equal ServerStats. Client 1's uplink is below the
  // low-bandwidth threshold, so it declines every other request.
  constexpr int kClients = 4;
  Rng init_rng(6);
  Model init = MakeLogisticRegression(2, 2, &init_rng);

  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  const int port = listener->port();

  ServerOptions server_options;
  server_options.strategy = Strategy::kSyncVanilla;
  server_options.concurrency = kClients;
  server_options.expected_clients = kClients;
  server_options.max_rounds = 4;
  server_options.seed = 7;

  DistributedServerHost server_host(
      server_options, init, std::make_unique<FedAvgAggregator>(),
      std::move(listener.value()));
  Dataset server_test = Blobs(64, 97);
  server_host.server()->set_evaluator([&server_test](Model* model) {
    return EvaluateClassifier(model, server_test);
  });
  MetricsRegistry metrics;
  Tracer tracer;
  CourseLog course_log;
  ObsContext server_obs{&metrics, &tracer, &course_log};
  server_host.set_obs(&server_obs);

  ServerStats stats;
  std::thread server_thread([&] { stats = server_host.Run(); });
  std::vector<std::thread> client_threads;
  for (int id = 1; id <= kClients; ++id) {
    client_threads.emplace_back([&, id] {
      ClientOptions options;
      options.jitter_sigma = 0.0;
      options.seed = 400 + id;
      if (id == 1) {
        options.low_bandwidth_threshold = 2 * options.device.up_bandwidth;
      }
      Rng split_rng(id);
      SplitDataset data = Split(Blobs(40, 30 + id), 0.7, 0.1, &split_rng);
      DistributedClientHost host(id, std::move(options), init,
                                 std::move(data),
                                 std::make_unique<GeneralTrainer>(),
                                 "127.0.0.1", port);
      Status status = host.Run();
      EXPECT_TRUE(status.ok()) << status.ToString();
    });
  }
  for (auto& t : client_threads) t.join();
  server_thread.join();

  EXPECT_EQ(stats.rounds, 4);
  EXPECT_GT(stats.declined, 0);
  EXPECT_GT(stats.uplink_bytes, 0);
  const std::vector<testing::Violation> violations =
      testing::CheckCounterSinks(stats, metrics.Snapshot(), course_log);
  EXPECT_TRUE(violations.empty()) << testing::FormatViolations(violations);
}

TEST(DistributedTest, AsyncGoalStrategyOverTcp) {
  constexpr int kClients = 5;
  Rng init_rng(3);
  Model init = MakeLogisticRegression(2, 2, &init_rng);
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  const int port = listener->port();

  ServerOptions server_options;
  server_options.strategy = Strategy::kAsyncGoal;
  server_options.aggregation_goal = 2;
  server_options.concurrency = kClients;
  server_options.expected_clients = kClients;
  server_options.staleness_tolerance = 5;
  server_options.max_rounds = 8;
  server_options.seed = 4;

  DistributedServerHost server_host(
      server_options, init,
      std::make_unique<FedAvgAggregator>(FedAvgOptions{1.0, 0.5}),
      std::move(listener.value()));
  Dataset server_test = Blobs(64, 98);
  server_host.server()->set_evaluator([&server_test](Model* model) {
    return EvaluateClassifier(model, server_test);
  });

  ServerStats stats;
  std::thread server_thread([&] { stats = server_host.Run(); });
  std::vector<std::thread> client_threads;
  for (int id = 1; id <= kClients; ++id) {
    client_threads.emplace_back([&, id] {
      ClientOptions options;
      options.seed = 200 + id;
      Rng split_rng(10 + id);
      SplitDataset data = Split(Blobs(40, 10 + id), 0.7, 0.1, &split_rng);
      DistributedClientHost host(id, std::move(options), init,
                                 std::move(data),
                                 std::make_unique<GeneralTrainer>(),
                                 "127.0.0.1", port);
      host.Run().ok();
    });
  }
  for (auto& t : client_threads) t.join();
  server_thread.join();
  EXPECT_EQ(stats.rounds, 8);
  EXPECT_GT(stats.final_accuracy, 0.8);
}

TEST(DistributedTest, HierarchicalCourseOverTcp) {
  // Two-shard topology over real sockets: the root host doubles as the
  // hub relaying aggregator<->client traffic; workers are unchanged.
  constexpr int kClients = 4;
  constexpr int kShards = 2;
  Rng init_rng(1);
  Model init = MakeLogisticRegression(2, 2, &init_rng);

  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  const int port = listener->port();

  ServerOptions server_options;
  server_options.strategy = Strategy::kSyncVanilla;
  server_options.concurrency = kClients;
  server_options.expected_clients = kClients;
  server_options.max_rounds = 6;
  server_options.seed = 2;
  server_options.topology.num_shards = kShards;

  DistributedServerHost server_host(
      server_options, init, std::make_unique<FedAvgAggregator>(),
      std::move(listener.value()));
  Dataset server_test = Blobs(64, 99);
  server_host.server()->set_evaluator([&server_test](Model* model) {
    return EvaluateClassifier(model, server_test);
  });

  ServerStats stats;
  std::thread server_thread([&] { stats = server_host.Run(); });

  std::vector<std::unique_ptr<DistributedAggregatorHost>> agg_hosts;
  for (int shard = 0; shard < kShards; ++shard) {
    EdgeAggregatorOptions options;
    options.topology = server_options.topology;
    options.shard = shard;
    agg_hosts.push_back(std::make_unique<DistributedAggregatorHost>(
        options, "127.0.0.1", port));
  }
  std::vector<std::thread> agg_threads;
  std::vector<Status> agg_statuses(kShards);
  for (int shard = 0; shard < kShards; ++shard) {
    agg_threads.emplace_back([&, shard] {
      agg_statuses[shard] = agg_hosts[shard]->Run();
    });
  }

  std::vector<std::thread> client_threads;
  std::vector<Status> client_statuses(kClients);
  for (int id = 1; id <= kClients; ++id) {
    client_threads.emplace_back([&, id] {
      ClientOptions options;
      options.jitter_sigma = 0.0;
      options.seed = 100 + id;
      Rng split_rng(id);
      SplitDataset data = Split(Blobs(40, id), 0.7, 0.1, &split_rng);
      DistributedClientHost host(id, std::move(options), init,
                                 std::move(data),
                                 std::make_unique<GeneralTrainer>(),
                                 "127.0.0.1", port);
      client_statuses[id - 1] = host.Run();
    });
  }
  for (auto& t : client_threads) t.join();
  for (auto& t : agg_threads) t.join();
  server_thread.join();

  for (const auto& status : client_statuses) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  for (const auto& status : agg_statuses) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  EXPECT_EQ(stats.rounds, 6);
  EXPECT_GT(stats.final_accuracy, 0.85);  // the course actually learned
  EXPECT_EQ(stats.shard_failovers, 0);
  EXPECT_EQ(server_host.failed_aggregators(), 0);
  for (int id = 1; id <= kClients; ++id) {
    EXPECT_EQ(stats.agg_count[id], 6) << "client " << id;
  }
  // Full participation: one partial per shard per round.
  for (int shard = 0; shard < kShards; ++shard) {
    EXPECT_EQ(agg_hosts[shard]->aggregator()->partials_forwarded(), 6)
        << "shard " << shard;
  }
}

TEST(DistributedTest, HierarchicalFailoverOverTcp) {
  // Shard 0's primary halts mid-course (the socket drops exactly as a
  // SIGKILL would); the hub wakes the shard's hot standby, which promotes
  // under a bumped shard epoch, and the course completes through it.
  constexpr int kClients = 4;
  constexpr int kShards = 2;
  Rng init_rng(1);
  Model init = MakeLogisticRegression(2, 2, &init_rng);

  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  const int port = listener->port();

  ServerOptions server_options;
  server_options.strategy = Strategy::kSyncVanilla;
  server_options.concurrency = kClients;
  server_options.expected_clients = kClients;
  server_options.max_rounds = 6;
  server_options.seed = 2;
  server_options.topology.num_shards = kShards;
  server_options.topology.standbys_per_shard = 1;
  server_options.topology.failure_timeout = 0.05;  // wall seconds here

  DistributedServerHost server_host(
      server_options, init, std::make_unique<FedAvgAggregator>(),
      std::move(listener.value()));
  Dataset server_test = Blobs(64, 99);
  server_host.server()->set_evaluator([&server_test](Model* model) {
    return EvaluateClassifier(model, server_test);
  });

  ServerStats stats;
  std::thread server_thread([&] { stats = server_host.Run(); });

  std::vector<std::unique_ptr<DistributedAggregatorHost>> agg_hosts;
  for (int shard = 0; shard < kShards; ++shard) {
    for (int slot = 0; slot <= 1; ++slot) {
      EdgeAggregatorOptions options;
      options.topology = server_options.topology;
      options.shard = shard;
      options.slot = slot;
      agg_hosts.push_back(std::make_unique<DistributedAggregatorHost>(
          options, "127.0.0.1", port));
    }
  }
  agg_hosts[0]->set_halt_after_forwards(2);  // shard 0 primary dies
  std::vector<std::thread> agg_threads;
  for (auto& host : agg_hosts) {
    agg_threads.emplace_back([&host] { host->Run().ok(); });
  }

  std::vector<std::thread> client_threads;
  std::vector<Status> client_statuses(kClients);
  for (int id = 1; id <= kClients; ++id) {
    client_threads.emplace_back([&, id] {
      ClientOptions options;
      options.jitter_sigma = 0.0;
      options.seed = 100 + id;
      Rng split_rng(id);
      SplitDataset data = Split(Blobs(40, id), 0.7, 0.1, &split_rng);
      DistributedClientHost host(id, std::move(options), init,
                                 std::move(data),
                                 std::make_unique<GeneralTrainer>(),
                                 "127.0.0.1", port);
      client_statuses[id - 1] = host.Run();
    });
  }
  for (auto& t : client_threads) t.join();
  for (auto& t : agg_threads) t.join();
  server_thread.join();

  // Clients never lose their (root) connection during an aggregator
  // failover — only a root crash forces the re-join protocol.
  for (const auto& status : client_statuses) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  EXPECT_EQ(stats.rounds, 6);
  EXPECT_EQ(server_host.failed_aggregators(), 1);
  EXPECT_EQ(stats.shard_failovers, 1);
  // agg_hosts[1] is shard 0 slot 1 — the standby that took over.
  EXPECT_EQ(agg_hosts[1]->aggregator()->promotions(), 1);
  EXPECT_TRUE(agg_hosts[1]->aggregator()->active());
  EXPECT_GT(agg_hosts[1]->aggregator()->partials_forwarded(), 0);
  // Every client of every round was aggregated exactly once despite the
  // failover (weight conservation across the failover boundary).
  for (int id = 1; id <= kClients; ++id) {
    EXPECT_EQ(stats.agg_count[id], 6) << "client " << id;
  }
}

TEST(DistributedTest, TimeStrategyRejected) {
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  ServerOptions options;
  options.strategy = Strategy::kAsyncTime;
  options.expected_clients = 1;
  Rng rng(1);
  EXPECT_DEATH(DistributedServerHost(options,
                                     MakeLogisticRegression(2, 2, &rng),
                                     std::make_unique<FedAvgAggregator>(),
                                     std::move(listener.value())),
               "");
}

}  // namespace
}  // namespace fedscope
