// Crash-consistent course recovery (DESIGN.md §10): standalone crash
// drills must be bit-identical to uninterrupted runs; distributed hosts
// must restore from the latest durable snapshot, bump the session epoch,
// and accept client re-joins over unchanged workers.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fedscope/comm/channel.h"
#include "fedscope/comm/socket_transport.h"
#include "fedscope/core/checkpoint.h"
#include "fedscope/core/distributed.h"
#include "fedscope/core/events.h"
#include "fedscope/core/fed_runner.h"
#include "fedscope/data/synthetic_twitter.h"
#include "fedscope/nn/model_zoo.h"

namespace fedscope {
namespace {

/// Bit-exact state-dict comparison (operator== would conflate 0.0/-0.0
/// and any NaN payloads; resume identity is about bits, not values).
bool BitEqual(const StateDict& a, const StateDict& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [name, tensor] : a) {
    auto it = b.find(name);
    if (it == b.end()) return false;
    if (tensor.shape() != it->second.shape()) return false;
    for (int64_t k = 0; k < tensor.numel(); ++k) {
      const float x = tensor.at(k);
      const float y = it->second.at(k);
      if (std::memcmp(&x, &y, sizeof(float)) != 0) return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Standalone: kill-at-event + restore is invisible to the course
// ---------------------------------------------------------------------------

FedJob MakeStandaloneJob(const FedDataset* data) {
  FedJob job;
  job.data = data;
  Rng rng(5);
  job.init_model = MakeLogisticRegression(60, 2, &rng);
  job.server.concurrency = 8;
  job.server.max_rounds = 5;
  job.client.train.lr = 0.5;
  job.client.train.batch_size = 2;
  job.seed = 5;
  return job;
}

TEST(CrashRecoveryTest, StandaloneCrashResumeIsBitIdentical) {
  SyntheticTwitterOptions options;
  options.num_clients = 20;
  options.seed = 4;
  FedDataset data = MakeSyntheticTwitter(options);

  RunResult baseline = FedRunner(MakeStandaloneJob(&data)).Run();

  // Crash at the very first delivery (restores a round-0 snapshot),
  // between the batch join and its assign_id multicast, in the thick of
  // training, and late in the course.
  for (const int64_t crash_at :
       {int64_t{0}, int64_t{1}, int64_t{7}, int64_t{51}}) {
    FedJob job = MakeStandaloneJob(&data);
    job.fault.server_crash_at_event = crash_at;
    FedRunner runner(std::move(job));
    RunResult resumed = runner.Run();
    EXPECT_EQ(runner.recoveries(), 1) << "crash_at " << crash_at;
    EXPECT_TRUE(BitEqual(baseline.final_model.GetStateDict(),
                         resumed.final_model.GetStateDict()))
        << "crash_at " << crash_at << " changed the final model";
    EXPECT_EQ(baseline.server.curve, resumed.server.curve)
        << "crash_at " << crash_at;
    EXPECT_EQ(baseline.server.rounds, resumed.server.rounds);
    EXPECT_EQ(baseline.client_test_accuracy, resumed.client_test_accuracy)
        << "crash_at " << crash_at;
    // The drill serializes through the wire codec directly; no durable
    // snapshot files are involved (or written) unless a policy is set.
    EXPECT_EQ(runner.snapshot_writer().snapshots_written(), 0);
  }
}

TEST(CrashRecoveryTest, VirtualizedCrashResumeIsBitIdentical) {
  SyntheticTwitterOptions options;
  options.num_clients = 20;
  options.seed = 4;
  FedDataset data = MakeSyntheticTwitter(options);

  RunResult baseline = FedRunner(MakeStandaloneJob(&data)).Run();

  // The same drill with client virtualization (DESIGN.md §13): the server
  // is killed and restored while the population exists only as descriptors
  // plus a bounded live-client cache. Suspended clients are untouched by
  // the server restore, so resume must still be bit-identical to the
  // uninterrupted *eager* run. Crash points as in the eager drill above.
  for (const int64_t crash_at :
       {int64_t{0}, int64_t{1}, int64_t{7}, int64_t{51}}) {
    FedJob job = MakeStandaloneJob(&data);
    job.virtualize = true;
    job.fault.server_crash_at_event = crash_at;
    FedRunner runner(std::move(job));
    RunResult resumed = runner.Run();
    EXPECT_EQ(runner.recoveries(), 1) << "crash_at " << crash_at;
    EXPECT_TRUE(BitEqual(baseline.final_model.GetStateDict(),
                         resumed.final_model.GetStateDict()))
        << "crash_at " << crash_at << " changed the final model";
    EXPECT_EQ(baseline.server.curve, resumed.server.curve)
        << "crash_at " << crash_at;
    EXPECT_EQ(baseline.server.rounds, resumed.server.rounds);
    EXPECT_EQ(baseline.client_test_accuracy, resumed.client_test_accuracy)
        << "crash_at " << crash_at;
    // The memory bound holds straight through the kill+restore: cohort
    // (concurrency 8) plus cache slack and the pre-Trim transient, never
    // all 20 clients.
    EXPECT_LE(runner.client_cache()->stats().live_peak, 11)
        << "crash_at " << crash_at;
  }
}

TEST(CrashRecoveryTest, SnapshotPolicyWritesFilesAndLatestLoads) {
  SyntheticTwitterOptions options;
  options.num_clients = 20;
  options.seed = 4;
  FedDataset data = MakeSyntheticTwitter(options);

  const std::string dir = ::testing::TempDir() + "/runner_snapshots";
  FedJob job = MakeStandaloneJob(&data);
  job.server.max_rounds = 6;
  job.snapshot.directory = dir;
  job.snapshot.every_n_rounds = 2;
  job.snapshot.keep_last = 2;
  FedRunner runner(std::move(job));
  RunResult result = runner.Run();

  // Rounds 2, 4, 6 snapshot; keep_last prunes round 2.
  EXPECT_EQ(runner.snapshot_writer().snapshots_written(), 3);
  auto latest = LoadLatestSnapshot(dir);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest->round, 6);
  EXPECT_FALSE(ReadCheckpointFile(dir + "/snapshot-000002.ckpt").ok());

  // The latest snapshot restores into a same-architecture model.
  Rng rng(9);
  Model fresh = MakeLogisticRegression(60, 2, &rng);
  ASSERT_TRUE(RestoreModel(latest.value(), &fresh).ok());
  EXPECT_TRUE(BitEqual(fresh.GetStateDict(), latest->global_state));
  (void)result;
}

TEST(CrashRecoveryTest, SnapshotWithoutItsCounterArraysIsRefused) {
  // The counters and the course log's per-round baseline ride as two
  // arrays in the course section. A snapshot missing either one, or
  // holding a short one, is refused instead of resuming with zeroed counts.
  ServerOptions options;
  options.concurrency = 2;
  options.expected_clients = 3;
  options.seed = 3;
  Rng rng(1);
  const Model model = MakeLogisticRegression(2, 2, &rng);
  QueueChannel channel;
  Server server(options, model, std::make_unique<FedAvgAggregator>(),
                &channel);
  for (int id = 1; id <= 3; ++id) {
    Message join;
    join.sender = id;
    join.receiver = kServerId;
    join.msg_type = events::kJoinIn;
    server.HandleMessage(join);
  }
  ASSERT_EQ(server.stats().broadcasts, 2);
  Checkpoint snapshot;
  server.ExportSnapshot(&snapshot);

  auto restore = [&](const Checkpoint& checkpoint, CourseCounters* counters) {
    QueueChannel fresh_channel;
    Server fresh(options, model, std::make_unique<FedAvgAggregator>(),
                 &fresh_channel);
    const Status status = fresh.RestoreSnapshot(checkpoint);
    if (counters != nullptr) *counters = fresh.stats();
    return status;
  };
  CourseCounters restored;
  ASSERT_TRUE(restore(snapshot, &restored).ok());
  EXPECT_EQ(restored, static_cast<const CourseCounters&>(server.stats()));
  for (const char* key : {"counters", "counters_base"}) {
    Checkpoint missing = snapshot;
    ASSERT_TRUE(missing.course.RemoveScalar(key)) << key;
    EXPECT_EQ(restore(missing, nullptr).code(), StatusCode::kDataLoss) << key;
    Checkpoint short_array = snapshot;
    std::vector<int64_t> values = GetPackedInt64s(snapshot.course, key);
    values.pop_back();
    SetPackedInt64s(&short_array.course, key, values);
    EXPECT_EQ(restore(short_array, nullptr).code(), StatusCode::kDataLoss)
        << key;
  }
}

// ---------------------------------------------------------------------------
// Distributed: epoch-gated ingress + kill, restore, re-join
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

TEST(DistributedRecoveryTest, StaleEpochMessagesRejectedAtIngress) {
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  ServerOptions options;
  options.strategy = Strategy::kSyncVanilla;
  options.expected_clients = 1;
  options.concurrency = 1;
  Rng rng(1);
  DistributedServerHost host(options, MakeLogisticRegression(2, 2, &rng),
                             std::make_unique<FedAvgAggregator>(),
                             std::move(listener.value()));
  ASSERT_EQ(host.session_epoch(), 0);

  Message update;
  update.sender = 1;
  update.receiver = kServerId;
  update.msg_type = events::kModelUpdate;
  update.state = 0;

  // Unstamped non-join traffic was produced against no known incarnation.
  host.PushIncoming(update);
  EXPECT_EQ(host.stale_epoch_rejected(), 1);

  // The current epoch authenticates.
  update.payload.SetInt(kSessionEpochKey, 0);
  host.PushIncoming(update);
  EXPECT_EQ(host.stale_epoch_rejected(), 1);

  // A wrong epoch is a dead incarnation's message.
  update.state = 1;
  update.payload.SetInt(kSessionEpochKey, 7);
  host.PushIncoming(update);
  EXPECT_EQ(host.stale_epoch_rejected(), 2);

  // join_in is exempt: it is how a client learns the epoch.
  Message join;
  join.sender = 1;
  join.receiver = kServerId;
  join.msg_type = events::kJoinIn;
  host.PushIncoming(join);
  EXPECT_EQ(host.stale_epoch_rejected(), 2);
}

TEST(DistributedRecoveryTest, ServerKillRestoreAndClientRejoin) {
  constexpr int kClients = 3;
  const std::string dir = ::testing::TempDir() + "/distributed_snapshots";
  Rng init_rng(7);
  Model init = MakeLogisticRegression(2, 2, &init_rng);

  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  const int port = listener->port();

  ServerOptions server_options;
  server_options.strategy = Strategy::kSyncVanilla;
  server_options.concurrency = kClients;
  server_options.expected_clients = kClients;
  server_options.max_rounds = 5;
  server_options.seed = 2;

  SnapshotPolicy policy;
  policy.directory = dir;
  policy.every_n_rounds = 1;
  policy.keep_last = 2;

  Dataset server_test = Blobs(64, 99);
  auto evaluator = [&server_test](Model* model) {
    return EvaluateClassifier(model, server_test);
  };

  auto host1 = std::make_unique<DistributedServerHost>(
      server_options, init, std::make_unique<FedAvgAggregator>(),
      std::move(listener.value()));
  host1->set_snapshot_policy(policy);
  host1->set_halt_after_round(2);
  host1->server()->set_evaluator(evaluator);

  ServerStats stats1;
  std::thread server_thread1([&] { stats1 = host1->Run(); });

  std::vector<std::thread> client_threads;
  std::vector<Status> client_statuses(kClients);
  std::vector<int> client_rejoins(kClients, 0);
  for (int id = 1; id <= kClients; ++id) {
    client_threads.emplace_back([&, id] {
      ClientOptions options;
      options.jitter_sigma = 0.0;
      options.seed = 100 + id;
      TransportOptions transport;
      // Generous connect retries: the replacement server binds while the
      // fleet is already backing off against the dead port.
      transport.connect_attempts = 400;
      transport.retry_base_delay_ms = 5;
      transport.retry_max_delay_ms = 50;
      transport.retry_seed = 77 + id;
      transport.rejoin_attempts = 3;
      Rng split_rng(id);
      SplitDataset data = Split(Blobs(40, id), 0.7, 0.1, &split_rng);
      DistributedClientHost host(id, std::move(options), init,
                                 std::move(data),
                                 std::make_unique<GeneralTrainer>(),
                                 "127.0.0.1", port, transport);
      client_statuses[id - 1] = host.Run();
      client_rejoins[id - 1] = host.rejoins();
    });
  }

  // The halt knob returns from Run() abruptly after round 2 — no finish
  // broadcast, exactly a SIGKILLed process. Destroying the host drops the
  // connections: clients observe mid-course EOF and start re-joining.
  server_thread1.join();
  EXPECT_EQ(stats1.rounds, 2);
  EXPECT_EQ(host1->snapshot_writer().snapshots_written(), 2);
  host1.reset();

  auto latest = LoadLatestSnapshot(dir);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest->round, 2);

  auto listener2 = TcpListener::Bind(port);
  ASSERT_TRUE(listener2.ok()) << listener2.status().ToString();
  auto host2 = std::make_unique<DistributedServerHost>(
      server_options, init, std::make_unique<FedAvgAggregator>(),
      std::move(listener2.value()));
  host2->server()->set_evaluator(evaluator);
  ASSERT_TRUE(host2->RestoreFromCheckpoint(latest.value()).ok());
  EXPECT_EQ(host2->session_epoch(), 1);

  ServerStats stats2;
  std::thread server_thread2([&] { stats2 = host2->Run(); });
  for (auto& t : client_threads) t.join();
  server_thread2.join();

  for (int i = 0; i < kClients; ++i) {
    EXPECT_TRUE(client_statuses[i].ok())
        << "client " << i + 1 << ": " << client_statuses[i].ToString();
    // At least one re-join is the crash itself; a second can happen when a
    // reconnect lands in the dead listener's TCP backlog and gets reset —
    // the budgeted-retry case rejoin_attempts exists for.
    EXPECT_GE(client_rejoins[i], 1) << "client " << i + 1;
    EXPECT_LE(client_rejoins[i], 3) << "client " << i + 1;
  }
  // The restored course continues from round 2 and completes: the full
  // curve spans both incarnations.
  EXPECT_EQ(stats2.rounds, 5);
  EXPECT_EQ(stats2.curve.size(), 5u);
  EXPECT_GT(stats2.final_accuracy, 0.8);
}

}  // namespace
}  // namespace fedscope
