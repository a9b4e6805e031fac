// The threaded execution backend's determinism contract (DESIGN.md §12):
// under any worker count, a course must be bit-identical to the serial
// run — models, curves, tap sequences, and obs exports. The differential
// fuzz oracle (oracle 11) covers the lattice; these tests pin the
// contract on representative courses and the exec/ building blocks.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fedscope/core/fed_runner.h"
#include "fedscope/data/synthetic_cifar.h"
#include "fedscope/exec/worker_pool.h"
#include "fedscope/nn/model_zoo.h"
#include "fedscope/obs/course_log.h"

namespace fedscope {
namespace {

TEST(WorkerPoolTest, RunsEveryTaskAndBlocksUntilDone) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<int> done(64, 0);
  std::vector<std::function<void()>> tasks;
  for (size_t i = 0; i < done.size(); ++i) {
    tasks.push_back([&done, i] { done[i] = 1; });
  }
  pool.Run(&tasks);
  // Run is the barrier: every write is visible once it returns.
  for (int d : done) EXPECT_EQ(d, 1);
}

TEST(WorkerPoolTest, ReusableAcrossBatchesAndEmptyBatchIsNoop) {
  WorkerPool pool(2);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 5; ++batch) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 3; ++i) tasks.push_back([&count] { ++count; });
    pool.Run(&tasks);
  }
  std::vector<std::function<void()>> empty;
  pool.Run(&empty);
  EXPECT_EQ(count.load(), 15);
}

TEST(WorkerPoolTest, SingleThreadPoolWorks) {
  WorkerPool pool(1);
  std::atomic<int> sum{0};  // the helper and the caller both run tasks
  std::vector<std::function<void()>> tasks;
  for (int i = 1; i <= 4; ++i) tasks.push_back([&sum, i] { sum += i; });
  pool.Run(&tasks);
  EXPECT_EQ(sum.load(), 10);
}

TEST(WorkerPoolTest, CallerRunsTasks) {
  // Each task waits for the other to start. On a one-helper pool both
  // finish only if the calling thread runs one of them; the wait is
  // bounded so a pool that leaves the caller idle fails instead of hangs.
  WorkerPool pool(1);
  std::atomic<int> started{0};
  std::atomic<int> met{0};
  auto meet = [&started, &met] {
    ++started;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (started.load() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    if (started.load() == 2) ++met;
  };
  std::vector<std::function<void()>> tasks = {meet, meet};
  pool.Run(&tasks);
  EXPECT_EQ(met.load(), 2);
}

TEST(WorkerPoolTest, ZeroHelpersRunEveryTaskOnTheCaller) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0);
  std::vector<std::thread::id> ran_on(3);
  std::vector<std::function<void()>> tasks;
  for (size_t i = 0; i < ran_on.size(); ++i) {
    tasks.push_back([&ran_on, i] { ran_on[i] = std::this_thread::get_id(); });
  }
  pool.Run(&tasks);
  for (const std::thread::id& id : ran_on) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

// -- course-level bit-identity ----------------------------------------------

FedDataset SmallData(uint64_t seed = 2, int64_t server_test_size = 128) {
  SyntheticCifarOptions options;
  options.num_clients = 8;
  options.pool_size = 400;
  options.alpha = 1.0;
  options.image_size = 8;
  options.server_test_size = server_test_size;
  options.seed = seed;
  return MakeSyntheticCifar(options);
}

// The MLP expects flat input; flatten via a Flatten layer up front.
FedJob SmallJob(const FedDataset* data, uint64_t seed = 11) {
  Rng rng(seed);
  FedJob job;
  job.data = data;
  Model m;
  m.Add("flat", std::make_unique<Flatten>());
  Model mlp = MakeMlp({3 * 8 * 8, 32, 10}, &rng);
  for (int i = 0; i < mlp.num_layers(); ++i) {
    m.Add(mlp.layer_name(i), mlp.layer(i)->Clone());
  }
  job.init_model = std::move(m);
  job.server.concurrency = 4;
  job.server.max_rounds = 4;
  job.client.train.lr = 0.1;
  job.client.train.local_steps = 2;
  job.client.train.batch_size = 8;
  job.client.jitter_sigma = 0.1;
  job.seed = seed;
  return job;
}

FedJob ThreadedJob(const FedDataset* data, int threads, uint64_t seed = 11) {
  FedJob job = SmallJob(data, seed);
  job.exec.backend = ExecutionBackend::kThreaded;
  job.exec.num_threads = threads;
  return job;
}

void ExpectSameRun(RunResult& a, RunResult& b) {
  EXPECT_TRUE(a.final_model.GetStateDict() == b.final_model.GetStateDict());
  ASSERT_EQ(a.server.curve.size(), b.server.curve.size());
  for (size_t i = 0; i < a.server.curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.server.curve[i].first, b.server.curve[i].first);
    EXPECT_DOUBLE_EQ(a.server.curve[i].second, b.server.curve[i].second);
  }
  EXPECT_EQ(a.server.rounds, b.server.rounds);
  EXPECT_EQ(a.server.staleness_log, b.server.staleness_log);
  EXPECT_EQ(a.client_test_accuracy, b.client_test_accuracy);
  EXPECT_EQ(a.client_test_loss, b.client_test_loss);
}

TEST(ParallelExecTest, ThreadedMatchesSerialBitIdentical) {
  FedDataset data = SmallData();
  RunResult serial = FedRunner(SmallJob(&data)).Run();
  for (int threads : {1, 2, 4}) {
    RunResult threaded = FedRunner(ThreadedJob(&data, threads)).Run();
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectSameRun(serial, threaded);
  }
}

TEST(ParallelExecTest, ThreadedMatchesSerialWithZeroJitter) {
  // Zero jitter maximizes equal-virtual-time deliveries (whole cohorts
  // ready at once) — the widest batches the stage ever forms.
  FedDataset data = SmallData();
  auto job = [&data](int threads) {
    FedJob job = threads > 0 ? ThreadedJob(&data, threads) : SmallJob(&data);
    job.client.jitter_sigma = 0.0;
    job.server.concurrency = 8;
    return job;
  };
  RunResult serial = FedRunner(job(0)).Run();
  RunResult threaded = FedRunner(job(4)).Run();
  ExpectSameRun(serial, threaded);
}

TEST(ParallelExecTest, ThreadedMatchesSerialWithDecoratorsStacked) {
  // Full decorator stack: wire codec, top-k compression, a fault plan
  // that drops/duplicates/delays, and duplicate suppression. The fault
  // Judge consumes its rng, and suppresses the copies it duplicates, in
  // send order; canonical commit must preserve that order.
  FedDataset data = SmallData();
  auto decorated = [&data](int threads) {
    FedJob job = threads > 0 ? ThreadedJob(&data, threads) : SmallJob(&data);
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
    job.suppress_duplicates = true;
    job.through_wire = true;
    return job;
  };
  RunResult serial = FedRunner(decorated(0)).Run();
  for (int threads : {2, 4}) {
    RunResult threaded = FedRunner(decorated(threads)).Run();
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectSameRun(serial, threaded);
  }
}

TEST(ParallelExecTest, CrashDrillMatchesSerialUnderThreadedBackend) {
  // The kill must land between the same two deliveries regardless of
  // backend (the stage never batches across the crash boundary).
  FedDataset data = SmallData();
  auto crashing = [&data](int threads) {
    FedJob job = threads > 0 ? ThreadedJob(&data, threads) : SmallJob(&data);
    job.fault.server_crash_at_event = 17;
    return job;
  };
  RunResult serial = FedRunner(crashing(0)).Run();
  RunResult threaded = FedRunner(crashing(4)).Run();
  ExpectSameRun(serial, threaded);
}

// -- server evaluation on the pool -------------------------------------------

struct EvalRecord {
  int round = 0;
  bool evaluated = false;
  uint64_t accuracy_bits = 0;
  uint64_t loss_bits = 0;
  bool operator==(const EvalRecord&) const = default;
};

std::vector<EvalRecord> EvalRecords(FedJob job) {
  CourseLog log;
  job.obs.course_log = &log;
  FedRunner(std::move(job)).Run();
  std::vector<EvalRecord> out;
  for (const CourseRoundRecord& r : log.rounds()) {
    out.push_back({r.round, r.evaluated,
                   std::bit_cast<uint64_t>(r.eval_accuracy),
                   std::bit_cast<uint64_t>(r.eval_loss)});
  }
  return out;
}

TEST(ParallelExecTest, EvalLossMatchesSerialRoundByRound) {
  // The threaded backend evaluates the server's row blocks on the pool.
  // The accuracy curve cannot see a reordered loss sum; the CourseLog's
  // per-round eval_loss can. 200 rows: three full blocks and a tail.
  FedDataset data = SmallData(2, 200);
  const std::vector<EvalRecord> serial = EvalRecords(SmallJob(&data));
  ASSERT_FALSE(serial.empty());
  ASSERT_TRUE(serial.back().evaluated);
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(serial, EvalRecords(ThreadedJob(&data, threads)));
  }
}

// -- satellite: tap ordering under the threaded backend ---------------------

std::string Describe(const Message& m) {
  std::ostringstream out;
  out << m.msg_type << ":" << m.sender << "->" << m.receiver << "@" << m.state
      << " t=" << m.timestamp;
  return out.str();
}

struct TapLog {
  std::vector<std::string> sends;
  std::vector<std::string> deliveries;
};

TapLog RunWithTaps(FedJob job) {
  TapLog log;
  job.send_tap = [&log](const Message& m) { log.sends.push_back(Describe(m)); };
  job.delivery_tap = [&log](const Message& m) {
    log.deliveries.push_back(Describe(m));
  };
  FedRunner(std::move(job)).Run();
  return log;
}

TEST(ParallelExecTest, TapsFireAtCommitInCanonicalOrder) {
  // send_tap and delivery_tap must observe the exact serial sequences:
  // taps fire at commit, not while tasks run, so message-conservation
  // accounting is backend-independent.
  FedDataset data = SmallData();
  const TapLog serial = RunWithTaps(SmallJob(&data));
  for (int threads : {2, 4}) {
    const TapLog threaded = RunWithTaps(ThreadedJob(&data, threads));
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(serial.sends, threaded.sends);
    EXPECT_EQ(serial.deliveries, threaded.deliveries);
  }
}

// -- same-seed obs exports are bit-identical --------------------------------

struct ObsExports {
  std::string prometheus;
  std::string trace_json;
};

ObsExports RunWithObs(FedJob job) {
  MetricsRegistry metrics;
  Tracer tracer;
  job.obs.metrics = &metrics;
  job.obs.tracer = &tracer;
  FedRunner(std::move(job)).Run();
  return {metrics.PrometheusText(), tracer.ToChromeJson()};
}

TEST(ParallelExecTest, ObsExportsBitIdenticalToSerial) {
  // Per-task metric ops and trace events are buffered and replayed in
  // canonical order, so the full exports — including order-sensitive
  // queue-depth gauges and span sequences — match byte for byte.
  FedDataset data = SmallData();
  const ObsExports serial = RunWithObs(SmallJob(&data));
  for (int threads : {2, 4}) {
    const ObsExports threaded = RunWithObs(ThreadedJob(&data, threads));
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(serial.prometheus, threaded.prometheus);
    EXPECT_EQ(serial.trace_json, threaded.trace_json);
  }
}

}  // namespace
}  // namespace fedscope
