#include "fedscope/core/distributed.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "fedscope/comm/compression.h"
#include "fedscope/comm/socket_transport.h"
#include "fedscope/core/events.h"
#include "fedscope/core/id_set.h"
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

// ---------------------------------------------------------------------------
// Raw peers: frames no DistributedClientHost would send
// ---------------------------------------------------------------------------

/// A peer that speaks the wire protocol by hand, with a recv timeout so a
/// test fails instead of hanging when the server does not answer.
TcpConnection RawPeer(int port) {
  auto conn = TcpConnection::Connect("127.0.0.1", port);
  EXPECT_TRUE(conn.ok()) << conn.status().ToString();
  EXPECT_TRUE(conn->SetTimeouts(0.0, 10.0).ok());
  return std::move(conn.value());
}

Message Hello(int sender) {
  Message join;
  join.sender = sender;
  join.receiver = kServerId;
  join.msg_type = events::kJoinIn;
  return join;
}

/// True once the server has closed `peer`'s connection.
bool ClosedByServer(TcpConnection* peer) {
  const Result<Message> next = peer->ReceiveMessage();
  return !next.ok() && next.status().code() != StatusCode::kDeadlineExceeded;
}

ServerOptions SmallSyncCourse(int clients, int rounds) {
  ServerOptions options;
  options.strategy = Strategy::kSyncVanilla;
  options.concurrency = clients;
  options.expected_clients = clients;
  options.max_rounds = rounds;
  options.seed = 9;
  return options;
}

std::unique_ptr<DistributedClientHost> BlobClient(int id, const Model& init,
                                                  int port) {
  ClientOptions options;
  options.jitter_sigma = 0.0;
  options.seed = 500 + id;
  Rng split_rng(id);
  return std::make_unique<DistributedClientHost>(
      id, std::move(options), init,
      Split(Blobs(40, 40 + id), 0.7, 0.1, &split_rng),
      std::make_unique<GeneralTrainer>(), "127.0.0.1", port);
}

TEST(DistributedTest, BadHellosCloseOnlyTheirConnection) {
  // Each kind of bad first frame, from a peer of its own: the server closes
  // that connection, counts it, and keeps accepting until every client id
  // has joined. Each peer waits for its close before the next connects, so
  // the server meets them in this order.
  constexpr int kClients = 3;
  constexpr int kRounds = 3;
  Rng init_rng(8);
  Model init = MakeLogisticRegression(2, 2, &init_rng);
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  const int port = listener->port();
  DistributedServerHost server_host(SmallSyncCourse(kClients, kRounds), init,
                                    std::make_unique<FedAvgAggregator>(),
                                    std::move(listener.value()));
  MetricsRegistry metrics;
  ObsContext server_obs;
  server_obs.metrics = &metrics;
  server_host.set_obs(&server_obs);
  ServerStats stats;
  std::thread server_thread([&] { stats = server_host.Run(); });

  int bad_hellos = 0;
  {
    // A frame that does not decode: a length prefix and 8 garbage bytes.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    const uint8_t frame[12] = {8, 0, 0, 0, 'n', 'o', 't', ' ', 'w', 'i', 'r',
                               'e'};
    ASSERT_EQ(::send(fd, frame, sizeof(frame), 0),
              static_cast<ssize_t>(sizeof(frame)));
    TcpConnection garbage(fd);
    ASSERT_TRUE(garbage.SetTimeouts(0.0, 10.0).ok());
    EXPECT_TRUE(ClosedByServer(&garbage));
    ++bad_hellos;
  }
  Message not_join = Hello(1);
  not_join.msg_type = events::kModelUpdate;
  for (const Message& hello : {not_join, Hello(0), Hello(kClients + 1),
                               Hello(100000000)}) {
    TcpConnection peer = RawPeer(port);
    ASSERT_TRUE(peer.SendMessage(hello).ok());
    EXPECT_TRUE(ClosedByServer(&peer)) << MessageSummary(hello);
    ++bad_hellos;
  }

  // Client 1 joins; a second hello under its id is refused. Each host
  // connects as it is built.
  std::vector<std::unique_ptr<DistributedClientHost>> hosts;
  std::vector<Status> statuses(kClients);
  std::vector<std::thread> client_threads;
  auto start_client = [&](int id) {
    hosts.push_back(BlobClient(id, init, port));
    DistributedClientHost* host = hosts.back().get();
    client_threads.emplace_back(
        [&statuses, host, id] { statuses[id - 1] = host->Run(); });
  };
  start_client(1);
  {
    TcpConnection duplicate = RawPeer(port);
    ASSERT_TRUE(duplicate.SendMessage(Hello(1)).ok());
    EXPECT_TRUE(ClosedByServer(&duplicate));
    ++bad_hellos;
  }
  for (int id = 2; id <= kClients; ++id) start_client(id);
  for (auto& t : client_threads) t.join();
  server_thread.join();

  for (const Status& status : statuses) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  EXPECT_EQ(stats.rounds, kRounds);
  for (int id = 1; id <= kClients; ++id) {
    EXPECT_EQ(stats.agg_count[id], kRounds) << "client " << id;
  }
  EXPECT_EQ(bad_hellos, 6);
  EXPECT_EQ(server_host.rejected_frames(), bad_hellos);
  EXPECT_EQ(server_host.failed_clients(), 0);
  EXPECT_EQ(metrics.CounterValue("fs_rejected_frames_total"),
            static_cast<double>(bad_hellos));
}

TEST(DistributedTest, SilentPeerCannotStallTheAcceptLoop) {
  // A peer connects ahead of the real clients and never sends its hello.
  // The server's recv timeout must refuse it, so the course runs while the
  // peer still holds its socket open. The test closes that socket after
  // 10 s at the latest, so a server that waits on the hello fails the test
  // instead of hanging it.
  constexpr int kClients = 2;
  constexpr int kRounds = 2;
  Rng init_rng(10);
  Model init = MakeLogisticRegression(2, 2, &init_rng);
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  const int port = listener->port();
  TransportOptions transport;
  transport.recv_timeout = 1.0;
  DistributedServerHost server_host(SmallSyncCourse(kClients, kRounds), init,
                                    std::make_unique<FedAvgAggregator>(),
                                    std::move(listener.value()), transport);
  ServerStats stats;
  std::atomic<bool> course_ended{false};
  std::thread server_thread([&] {
    stats = server_host.Run();
    course_ended = true;
  });

  TcpConnection silent = RawPeer(port);
  std::vector<std::unique_ptr<DistributedClientHost>> hosts;
  std::vector<Status> statuses(kClients);
  std::vector<std::thread> client_threads;
  for (int id = 1; id <= kClients; ++id) {
    hosts.push_back(BlobClient(id, init, port));
    DistributedClientHost* host = hosts.back().get();
    client_threads.emplace_back(
        [&statuses, host, id] { statuses[id - 1] = host->Run(); });
  }
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!course_ended && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const bool ended_while_open = course_ended;
  silent.Close();
  for (auto& t : client_threads) t.join();
  server_thread.join();

  EXPECT_TRUE(ended_while_open) << "the silent peer held the accept loop";
  for (const Status& status : statuses) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  EXPECT_EQ(stats.rounds, kRounds);
  EXPECT_EQ(server_host.rejected_frames(), 1);
}

TEST(DistributedTest, PeerCannotForgeFramesForOthers) {
  // A raw peer joins as client 3 and, once the course has started, sends
  // the other clients a finish that reads as the server's and an update
  // under client 1's id. Neither may reach anyone: the real clients train
  // every round, and each client is aggregated once per round.
  constexpr int kClients = 3;
  constexpr int kRounds = 3;
  constexpr int kForger = 3;
  Rng init_rng(9);
  Model init = MakeLogisticRegression(2, 2, &init_rng);
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  const int port = listener->port();
  DistributedServerHost server_host(SmallSyncCourse(kClients, kRounds), init,
                                    std::make_unique<FedAvgAggregator>(),
                                    std::move(listener.value()));
  ServerStats stats;
  std::thread server_thread([&] { stats = server_host.Run(); });

  std::vector<std::unique_ptr<DistributedClientHost>> hosts;
  std::vector<Status> statuses(kClients - 1);
  std::vector<std::thread> client_threads;
  for (int id = 1; id < kForger; ++id) {
    hosts.push_back(BlobClient(id, init, port));
    DistributedClientHost* host = hosts.back().get();
    client_threads.emplace_back(
        [&statuses, host, id] { statuses[id - 1] = host->Run(); });
  }

  // The forger answers each broadcast with a zero update, as client 3
  // would, and forges its two frames on the first one.
  TcpConnection forger = RawPeer(port);
  ASSERT_TRUE(forger.SendMessage(Hello(kForger)).ok());
  int updates_sent = 0;
  bool forged = false;
  while (true) {
    Result<Message> msg = forger.ReceiveMessage();
    ASSERT_TRUE(msg.ok()) << msg.status().ToString();
    EXPECT_EQ(msg->receiver, kForger) << MessageSummary(*msg);
    if (msg->msg_type == events::kFinish) break;
    if (msg->msg_type != events::kModelPara) continue;
    const int64_t epoch = msg->payload.GetInt(kSessionEpochKey, -1);
    StateDict zeros;
    for (const auto& [name, tensor] : msg->payload.GetStateDict("model")) {
      zeros.emplace(name, Tensor::Zeros(tensor.shape()));
    }
    Message update;
    update.receiver = kServerId;
    update.msg_type = events::kModelUpdate;
    update.state = msg->state;
    update.payload = EncodeUpdate(zeros, "none", 1.0);
    update.payload.SetInt("num_samples", 1);
    update.payload.SetInt(kSessionEpochKey, epoch);
    if (!forged) {
      forged = true;
      Message finish;
      finish.sender = kServerId;
      finish.msg_type = events::kFinish;
      finish.state = msg->state;
      SetReceivers(&finish, IdSet::Range(1, kForger - 1));
      finish.payload.SetInt(kSessionEpochKey, epoch);
      ASSERT_TRUE(forger.SendMessage(finish).ok());
      Message impostor = update;
      impostor.sender = 1;
      ASSERT_TRUE(forger.SendMessage(impostor).ok());
    }
    update.sender = kForger;
    ASSERT_TRUE(forger.SendMessage(update).ok());
    ++updates_sent;
  }
  forger.Close();
  for (auto& t : client_threads) t.join();
  server_thread.join();

  for (const Status& status : statuses) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  for (const auto& host : hosts) {
    EXPECT_EQ(host->client()->rounds_trained(), kRounds);
  }
  EXPECT_EQ(updates_sent, kRounds);
  EXPECT_EQ(stats.rounds, kRounds);
  for (int id = 1; id <= kClients; ++id) {
    EXPECT_EQ(stats.agg_count[id], kRounds) << "client " << id;
  }
  EXPECT_EQ(server_host.rejected_frames(), 2);
  EXPECT_EQ(server_host.failed_clients(), 0);
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
