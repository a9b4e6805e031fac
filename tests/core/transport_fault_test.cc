#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "fedscope/comm/compression.h"
#include "fedscope/comm/socket_transport.h"
#include "fedscope/core/distributed.h"
#include "fedscope/core/events.h"
#include "fedscope/nn/model_zoo.h"

namespace fedscope {
namespace {

/// Raw socket bypassing TcpConnection, for writing hostile byte streams.
int RawConnect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// ---------------------------------------------------------------------------
// Frame validation
// ---------------------------------------------------------------------------

TEST(TransportFaultTest, HostileLengthPrefixRejectedBeforeAllocation) {
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  const int fd = RawConnect(listener->port());
  ASSERT_GE(fd, 0);
  auto conn = listener->Accept();
  ASSERT_TRUE(conn.ok());
  // A frame claiming ~2 GiB: must be rejected from the prefix alone — a
  // malicious or corrupt peer cannot drive a multi-GB allocation.
  const uint32_t hostile = 0x7FFFFFFFu;
  ASSERT_EQ(::send(fd, &hostile, sizeof(hostile), 0),
            static_cast<ssize_t>(sizeof(hostile)));
  auto msg = conn->ReceiveMessage();
  EXPECT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(msg.status().message().find("oversized frame"),
            std::string::npos);
  ::close(fd);
}

TEST(TransportFaultTest, FrameCapIsConfigurable) {
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  const int port = listener->port();
  std::thread client_thread([port] {
    auto conn = TcpConnection::Connect("127.0.0.1", port);
    if (!conn.ok()) return;
    Message msg;
    msg.msg_type = "model_update";
    msg.payload.SetTensor("delta/w",
                          Tensor::FromVector({1.f, 2.f, 3.f, 4.f}));
    conn->SendMessage(msg).ok();
    // Hold the socket open until the server has judged the frame.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  });
  auto conn = listener->Accept();
  ASSERT_TRUE(conn.ok());
  conn->set_max_frame_bytes(16);  // far below any real message
  auto msg = conn->ReceiveMessage();
  client_thread.join();
  EXPECT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(msg.status().message().find("oversized frame"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Socket timeouts
// ---------------------------------------------------------------------------

TEST(TransportFaultTest, IdleRecvTimeoutIsRetryable) {
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  const int port = listener->port();
  std::thread client_thread([port] {
    auto conn = TcpConnection::Connect("127.0.0.1", port);
    if (!conn.ok()) return;
    // Stay silent past the server's timeout, then deliver.
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    Message msg;
    msg.msg_type = "seq";
    msg.state = 7;
    conn->SendMessage(msg).ok();
  });
  auto conn = listener->Accept();
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->SetTimeouts(0.0, 0.1).ok());
  // First receive: the peer is idle -> DeadlineExceeded, not DataLoss.
  auto timed_out = conn->ReceiveMessage();
  EXPECT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded);
  // The connection is still usable: retrying yields the message.
  Result<Message> delivered = conn->ReceiveMessage();
  for (int i = 0; i < 50 && !delivered.ok() &&
                  delivered.status().code() == StatusCode::kDeadlineExceeded;
       ++i) {
    delivered = conn->ReceiveMessage();
  }
  client_thread.join();
  ASSERT_TRUE(delivered.ok()) << delivered.status().ToString();
  EXPECT_EQ(delivered->state, 7);
}

TEST(TransportFaultTest, MidFrameStallIsDataLoss) {
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  const int fd = RawConnect(listener->port());
  ASSERT_GE(fd, 0);
  auto conn = listener->Accept();
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->SetTimeouts(0.0, 0.1).ok());
  // A truncated frame: the prefix promises 100 bytes, only 4 arrive.
  const uint32_t length = 100;
  ASSERT_EQ(::send(fd, &length, sizeof(length), 0),
            static_cast<ssize_t>(sizeof(length)));
  const uint32_t partial = 0;
  ASSERT_EQ(::send(fd, &partial, sizeof(partial), 0),
            static_cast<ssize_t>(sizeof(partial)));
  auto msg = conn->ReceiveMessage();
  EXPECT_FALSE(msg.ok());
  // The stream is truncated mid-object: unrecoverable, unlike the idle
  // timeout above.
  EXPECT_EQ(msg.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(msg.status().message().find("mid-frame"), std::string::npos);
  ::close(fd);
}

// ---------------------------------------------------------------------------
// Connect retry
// ---------------------------------------------------------------------------

TEST(TransportFaultTest, ConnectWithRetrySurvivesLateListener) {
  // A client coming up before the server: retry with backoff until the
  // listener is bound.
  auto probe = TcpListener::Bind(0);
  ASSERT_TRUE(probe.ok());
  const int port = probe->port();
  probe->Close();
  std::thread listener_thread([port] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    auto listener = TcpListener::Bind(port);
    if (!listener.ok()) return;
    listener->Accept().ok();
  });
  TransportOptions options;
  options.connect_attempts = 30;
  options.retry_base_delay_ms = 10;
  options.retry_max_delay_ms = 100;
  options.retry_seed = 42;
  auto conn = TcpConnection::ConnectWithRetry("127.0.0.1", port, options);
  listener_thread.join();
  EXPECT_TRUE(conn.ok()) << conn.status().ToString();
}

TEST(TransportFaultTest, ConnectWithRetryGivesUpEventually) {
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  const int port = listener->port();
  listener->Close();
  TransportOptions options;
  options.connect_attempts = 3;
  options.retry_base_delay_ms = 1;
  options.retry_max_delay_ms = 5;
  auto conn = TcpConnection::ConnectWithRetry("127.0.0.1", port, options);
  EXPECT_FALSE(conn.ok());
}

// ---------------------------------------------------------------------------
// Distributed course under failure
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

TEST(TransportFaultTest, DistributedCourseSurvivesClientDeath) {
  // Four clients join; one dies right after the first broadcast. The host
  // must classify the EOF as a mid-course failure, report it to the Server
  // worker, and the remaining three must carry the course to completion.
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
  server_options.max_rounds = 4;
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

  // The flaky participant: joins (twice — a retransmission the suppressor
  // must absorb), waits for the first model broadcast, and vanishes.
  std::thread flaky_thread([port] {
    auto conn = TcpConnection::Connect("127.0.0.1", port);
    if (!conn.ok()) return;
    Message join;
    join.sender = kClients;
    join.receiver = kServerId;
    join.msg_type = events::kJoinIn;
    conn->SendMessage(join).ok();
    conn->SendMessage(join).ok();  // duplicate join_in
    while (true) {
      auto msg = conn->ReceiveMessage();
      if (!msg.ok() || msg->msg_type == events::kModelPara) break;
    }
    conn->Close();
  });

  std::vector<std::thread> client_threads;
  std::vector<Status> client_statuses(kClients - 1);
  for (int id = 1; id <= kClients - 1; ++id) {
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
  flaky_thread.join();
  for (auto& t : client_threads) t.join();
  server_thread.join();

  for (const auto& status : client_statuses) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  EXPECT_EQ(stats.rounds, 4);  // the course completed without the dead peer
  EXPECT_GE(stats.dropouts, 1);
  EXPECT_EQ(server_host.failed_clients(), 1);
  EXPECT_GE(server_host.duplicates_suppressed(), 1);
}

TEST(TransportFaultTest, CleanFinishCountsNoFailures) {
  // Orderly course-end hangups must not be mistaken for client failures.
  constexpr int kClients = 2;
  Rng init_rng(6);
  Model init = MakeLogisticRegression(2, 2, &init_rng);
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  const int port = listener->port();

  ServerOptions server_options;
  server_options.strategy = Strategy::kSyncVanilla;
  server_options.concurrency = kClients;
  server_options.expected_clients = kClients;
  server_options.max_rounds = 2;
  server_options.seed = 7;

  TransportOptions transport;
  transport.recv_timeout = 0.05;  // readers poll instead of blocking
  DistributedServerHost server_host(
      server_options, init, std::make_unique<FedAvgAggregator>(),
      std::move(listener.value()), transport);
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
      options.jitter_sigma = 0.0;
      options.seed = 400 + id;
      Rng split_rng(id);
      SplitDataset data = Split(Blobs(40, 30 + id), 0.7, 0.1, &split_rng);
      TransportOptions client_transport;
      client_transport.connect_attempts = 5;
      client_transport.retry_seed = 100 + id;
      client_transport.recv_timeout = 0.05;
      DistributedClientHost host(id, std::move(options), init,
                                 std::move(data),
                                 std::make_unique<GeneralTrainer>(),
                                 "127.0.0.1", port, client_transport);
      EXPECT_TRUE(host.Run().ok());
    });
  }
  for (auto& t : client_threads) t.join();
  server_thread.join();
  EXPECT_EQ(stats.rounds, 2);
  EXPECT_EQ(stats.dropouts, 0);
  EXPECT_EQ(server_host.failed_clients(), 0);
  EXPECT_EQ(server_host.duplicates_suppressed(), 0);
}

/// What a hostile-peer course leaves behind.
struct HostilePeerRun {
  ServerStats stats;
  std::vector<Status> client_statuses;
  bool model_finite = true;
};

/// A 4-client sync TCP course under the guard (quarantine after
/// `quarantine_after` violations). Client 4 is a Byzantine participant: it
/// speaks the wire protocol correctly but answers its first `attacks`
/// broadcasts with the update `forge(attack, model)`, then closes its
/// socket — a quarantined client gets no finish broadcast, so lingering
/// would stall the host's teardown (which waits for every connection to
/// EOF). Clients 1..3 are honest.
void RunHostilePeerCourse(
    int quarantine_after, int attacks,
    const std::function<Payload(int, const StateDict&)>& forge,
    HostilePeerRun* run) {
  constexpr int kClients = 4;
  Rng init_rng(11);
  Model init = MakeLogisticRegression(2, 2, &init_rng);
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  const int port = listener->port();

  ServerOptions server_options;
  server_options.strategy = Strategy::kSyncVanilla;
  server_options.concurrency = kClients;
  server_options.expected_clients = kClients;
  server_options.max_rounds = 4;
  server_options.seed = 3;
  server_options.guard.enabled = true;
  server_options.guard.quarantine_after = quarantine_after;

  DistributedServerHost server_host(
      server_options, init, std::make_unique<FedAvgAggregator>(),
      std::move(listener.value()));
  Dataset server_test = Blobs(64, 97);
  server_host.server()->set_evaluator([&server_test](Model* model) {
    return EvaluateClassifier(model, server_test);
  });

  std::thread server_thread([&] { run->stats = server_host.Run(); });

  std::thread hostile_thread([port, attacks, &forge] {
    auto conn = TcpConnection::Connect("127.0.0.1", port);
    if (!conn.ok()) return;
    Message join;
    join.sender = kClients;
    join.receiver = kServerId;
    join.msg_type = events::kJoinIn;
    conn->SendMessage(join).ok();
    for (int attack = 0; attack < attacks;) {
      auto msg = conn->ReceiveMessage();
      if (!msg.ok()) return;
      if (msg->msg_type == events::kFinish) return;
      if (msg->msg_type != events::kModelPara) continue;
      Message reply;
      reply.sender = kClients;
      reply.receiver = kServerId;
      reply.msg_type = events::kModelUpdate;
      reply.state = msg->state;
      reply.payload = forge(attack, msg->payload.GetStateDict("model"));
      reply.payload.SetInt(kSessionEpochKey,
                           msg->payload.GetInt(kSessionEpochKey, 0));
      reply.payload.SetInt("num_samples", 4);
      reply.payload.SetInt("local_steps", 1);
      conn->SendMessage(reply).ok();
      ++attack;
    }
    conn->Close();
  });

  std::vector<std::thread> client_threads;
  run->client_statuses.resize(kClients - 1);
  for (int id = 1; id <= kClients - 1; ++id) {
    client_threads.emplace_back([&, id] {
      ClientOptions options;
      options.jitter_sigma = 0.0;
      options.seed = 200 + id;
      Rng split_rng(id);
      SplitDataset data = Split(Blobs(40, 50 + id), 0.7, 0.1, &split_rng);
      DistributedClientHost host(id, std::move(options), init,
                                 std::move(data),
                                 std::make_unique<GeneralTrainer>(),
                                 "127.0.0.1", port);
      run->client_statuses[id - 1] = host.Run();
    });
  }
  hostile_thread.join();
  for (auto& t : client_threads) t.join();
  server_thread.join();

  for (const auto& [name, tensor] :
       server_host.server()->global_model()->GetStateDict()) {
    for (int64_t i = 0; i < tensor.numel(); ++i) {
      run->model_finite = run->model_finite && std::isfinite(tensor.at(i));
    }
  }
}

TEST(TransportFaultTest, HostilePeerQuarantinedCourseCompletes) {
  // The peer first sends a malformed update (renamed tensors), then NaN
  // poison. The ingress guard must reject both, quarantine the peer after
  // the second violation, and the honest cohort must finish the course —
  // no crash, no corrupted model.
  HostilePeerRun run;
  RunHostilePeerCourse(
      /*quarantine_after=*/2, /*attacks=*/2,
      [](int attack, const StateDict& model) {
        StateDict delta;
        for (const auto& [name, tensor] : model) {
          // Right tensors under wrong names, then NaN poison.
          delta[attack == 0 ? name + "#" : name] = tensor;
        }
        if (attack == 1) {
          delta.begin()->second.at(0) =
              std::numeric_limits<float>::quiet_NaN();
        }
        return EncodeUpdate(delta, "none", 1.0);
      },
      &run);
  for (const auto& status : run.client_statuses) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  EXPECT_EQ(run.stats.rounds, 4);
  EXPECT_FALSE(run.stats.aborted);
  EXPECT_EQ(run.stats.updates_rejected, 2);
  ASSERT_EQ(run.stats.quarantined.size(), 1u);
  EXPECT_EQ(run.stats.quarantined[0], 4);
  // The poison never reached an aggregation: the shared model is finite.
  EXPECT_TRUE(run.model_finite);
}

TEST(TransportFaultTest, TopKFrameWithNanShapeRejectedCourseCompletes) {
  // A sparsified update whose every tensor — its shape entries included —
  // leads with NaN. The server must refuse the frame as a signature
  // violation before the shape becomes a size, quarantine the peer, and
  // finish the course with the honest cohort.
  HostilePeerRun run;
  RunHostilePeerCourse(
      /*quarantine_after=*/1, /*attacks=*/1,
      [](int, const StateDict& model) {
        Payload update = EncodeUpdate(model, "topk", 0.5);
        std::vector<std::string> keys;
        for (const auto& [key, tensor] : update.tensors()) keys.push_back(key);
        for (const std::string& key : keys) {
          Tensor t = update.GetTensor(key).value();
          t.at(0) = std::numeric_limits<float>::quiet_NaN();
          update.SetTensor(key, std::move(t));
        }
        return update;
      },
      &run);
  for (const auto& status : run.client_statuses) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  EXPECT_EQ(run.stats.rounds, 4);
  EXPECT_FALSE(run.stats.aborted);
  EXPECT_EQ(run.stats.updates_rejected, 1);
  EXPECT_EQ(run.stats.rejected_signature, 1);
  ASSERT_EQ(run.stats.quarantined.size(), 1u);
  EXPECT_EQ(run.stats.quarantined[0], 4);
  EXPECT_TRUE(run.model_finite);
}

TEST(TransportFaultTest, ReceiveDeadlineRejectedInDistributedMode) {
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  ServerOptions options;
  options.strategy = Strategy::kSyncVanilla;
  options.receive_deadline = 10.0;
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
