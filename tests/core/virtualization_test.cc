// Client virtualization (DESIGN.md §13): the population exists as
// descriptors, a bounded ClientCache materializes sampled clients on
// demand, and the course is bit-identical to the eager path. These tests
// pin the memory bound (peak live clients stays within the cohort-derived
// cache capacity, never the population), the reclaim/restore identity
// (an evicted client re-derives its exact Rng stream and state) and the
// held-out splits built on first read, and the train splits a helper
// thread builds ahead of the misses.

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "fedscope/comm/codec.h"
#include "fedscope/core/client_cache.h"
#include "fedscope/core/events.h"
#include "fedscope/core/fed_runner.h"
#include "fedscope/core/id_set.h"
#include "fedscope/core/trainer.h"
#include "fedscope/data/client_data_provider.h"
#include "fedscope/data/synthetic_femnist.h"
#include "fedscope/nn/model_zoo.h"
#include "fedscope/personalization/ditto.h"
#include "fedscope/personalization/fedbn.h"
#include "fedscope/testing/course_gen.h"
#include "fedscope/testing/oracles.h"
#include "fedscope/util/logging.h"

namespace fedscope {
namespace {

using testing::CourseGen;
using testing::CourseObservation;
using testing::CourseSpec;
using testing::kAutoCapacity;
using testing::MakeCourseFixture;
using testing::RunInstrumentedCourse;

/// Bit-exact state-dict comparison (operator== would conflate 0.0/-0.0).
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

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Bitwise resume-record equality: the rng's full state words, every
/// fixed field, the flat parameters and the encoded trainer state.
bool RecordBitEqual(const ClientResume& a, const ClientResume& b) {
  return a.rng.SaveState() == b.rng.SaveState() && SameBits(a.time, b.time) &&
         SameBits(a.last_val_accuracy, b.last_val_accuracy) &&
         a.rounds_trained == b.rounds_trained &&
         a.perf_drops == b.perf_drops && a.declined == b.declined &&
         a.low_bandwidth_requests == b.low_bandwidth_requests &&
         a.rejected_globals == b.rejected_globals &&
         a.finished == b.finished && a.params.size() == b.params.size() &&
         (a.params.empty() ||
          std::memcmp(a.params.data(), b.params.data(),
                      a.params.size() * sizeof(float)) == 0) &&
         a.trainer_state == b.trainer_state;
}

/// Bit-exact dataset comparison.
bool BitEqual(const Dataset& a, const Dataset& b) {
  return a.labels == b.labels && a.x.shape() == b.x.shape() &&
         (a.x.empty() || std::memcmp(a.x.data(), b.x.data(),
                                     a.x.numel() * sizeof(float)) == 0);
}

/// The procedural provider, counting the held-out fills it serves. The
/// count is atomic: a fill may run inside a pool task.
class CountingProvider : public ProceduralDataProvider {
 public:
  using ProceduralDataProvider::ProceduralDataProvider;
  void MaterializeHeldOut(const HeldOutSource& source,
                          SplitDataset* split) const override {
    fills_.fetch_add(1, std::memory_order_relaxed);
    ProceduralDataProvider::MaterializeHeldOut(source, split);
  }
  int64_t fills() const { return fills_.load(); }

 private:
  mutable std::atomic<int64_t> fills_{0};
};

/// The procedural provider, recording the thread of every train split it
/// builds.
class ThreadRecordingProvider : public ProceduralDataProvider {
 public:
  using ProceduralDataProvider::ProceduralDataProvider;
  Dataset MaterializeTrain(int id, HeldOutSource* held_out) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      threads_.push_back(std::this_thread::get_id());
    }
    return ProceduralDataProvider::MaterializeTrain(id, held_out);
  }
  std::vector<std::thread::id> threads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return threads_;
  }

 private:
  mutable std::mutex mu_;
  mutable std::vector<std::thread::id> threads_;
};

/// The procedural provider with a gate on the builds of every thread but
/// the one that made it: the first such build passes, and the second
/// waits until the gate opens.
class GatedProvider : public ProceduralDataProvider {
 public:
  using ProceduralDataProvider::ProceduralDataProvider;
  Dataset MaterializeTrain(int id, HeldOutSource* held_out) const override {
    if (std::this_thread::get_id() != owner_) {
      std::unique_lock<std::mutex> lock(mu_);
      if (++helper_builds_ == 2) {
        changed_.notify_all();
        changed_.wait(lock, [this] { return open_; });
      }
    }
    return ProceduralDataProvider::MaterializeTrain(id, held_out);
  }
  /// Blocks until a second build has reached the gate.
  void AwaitSecondBuild() {
    std::unique_lock<std::mutex> lock(mu_);
    changed_.wait(lock, [this] { return helper_builds_ >= 2; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    changed_.notify_all();
  }
  int helper_builds() const {
    std::lock_guard<std::mutex> lock(mu_);
    return helper_builds_;
  }

 private:
  const std::thread::id owner_ = std::this_thread::get_id();
  mutable std::mutex mu_;
  mutable std::condition_variable changed_;
  mutable int helper_builds_ = 0;
  bool open_ = false;
};

/// A small procedural population for the held-out tests.
ProceduralDataOptions SmallProceduralData() {
  ProceduralDataOptions options;
  options.num_clients = 12;
  options.train_per_client = 8;
  options.val_per_client = 4;
  options.test_per_client = 4;
  options.server_test_examples = 16;
  options.seed = 5;
  return options;
}

/// A course over `provider`; eager unless `capacity` > 0.
FedJob ProceduralJob(const ClientDataProvider* provider, int capacity,
                     int exec_threads) {
  FedJob job;
  job.provider = provider;
  job.virtualize = capacity > 0;
  job.client_cache_capacity = capacity;
  Rng model_rng(3);
  job.init_model = MakeLogisticRegression(16, 4, &model_rng);
  job.client.train.lr = 0.1;
  job.client.train.local_steps = 2;
  job.client.train.batch_size = 4;
  job.server.concurrency = 4;
  job.server.max_rounds = 4;
  if (exec_threads > 0) {
    job.exec.backend = ExecutionBackend::kThreaded;
    job.exec.num_threads = exec_threads;
  }
  job.seed = 9;
  return job;
}

/// A population well above the cohort so the cache must evict and restore.
CourseSpec BaseSpec() {
  CourseSpec spec;
  spec.num_clients = 6;
  spec.population = 24;
  spec.concurrency = 4;
  spec.max_rounds = 3;
  return CourseGen::Clamp(spec);
}

/// The auto cache bound FedRunner derives — cohort (concurrency, inflated
/// by over-selection) plus replacement slack — plus the one-client
/// transient a delivery to a non-live client creates before Trim runs.
int CohortBound(const CourseSpec& spec) {
  int cohort = spec.concurrency;
  if (spec.strategy == "sync_overselect") {
    cohort =
        static_cast<int>(std::ceil(cohort * (1.0 + spec.overselect_frac)));
  }
  return cohort + 2 + 1;
}

class VirtualizationTest : public ::testing::Test {
 protected:
  void SetUp() override { Logging::set_min_level(LogLevel::kWarning); }
  void TearDown() override { Logging::set_min_level(LogLevel::kInfo); }
};

// ---------------------------------------------------------------------------
// Peak live clients is O(cohort), not O(population)
// ---------------------------------------------------------------------------

struct StrategyCase {
  const char* name;
  const char* strategy;
  int exec_threads;
};

TEST_F(VirtualizationTest, LivePeakBoundedByCohortAcrossCourseShapes) {
  const StrategyCase cases[] = {
      {"sync", "sync_vanilla", 0},
      {"overselect", "sync_overselect", 0},
      {"async_time", "async_time", 0},
      {"threaded", "sync_vanilla", 2},
  };
  for (const auto& c : cases) {
    CourseSpec spec = BaseSpec();
    spec.strategy = c.strategy;
    spec = CourseGen::Clamp(spec);
    ASSERT_GT(spec.EffectiveClients(), CohortBound(spec)) << c.name;

    const CourseObservation obs = RunInstrumentedCourse(
        spec,
        {.exec_threads = c.exec_threads, .cache_capacity = kAutoCapacity});
    EXPECT_TRUE(obs.finished) << c.name;
    EXPECT_GE(obs.cache.live_peak, 1) << c.name;
    EXPECT_LE(obs.cache.live_peak, CohortBound(spec)) << c.name;
    EXPECT_LT(obs.cache.live_peak, spec.EffectiveClients()) << c.name;
    // The deployment eval touches every participant one at a time, so the
    // whole population was instantiated without ever being live at once.
    EXPECT_GE(obs.cache.instantiations, spec.EffectiveClients()) << c.name;
    EXPECT_GT(obs.cache.evictions, 0) << c.name;
    // Instantiations (fresh + restores) minus evictions is what's live.
    EXPECT_EQ(obs.cache.instantiations - obs.cache.evictions, obs.cache.live)
        << c.name;
  }
}

// ---------------------------------------------------------------------------
// Virtualized == eager, bit for bit (the direct form of oracle 12)
// ---------------------------------------------------------------------------

TEST_F(VirtualizationTest, VirtualizedCourseBitIdenticalToEager) {
  const CourseSpec spec = BaseSpec();
  CourseObservation eager = RunInstrumentedCourse(spec);
  CourseObservation virt =
      RunInstrumentedCourse(spec, {.cache_capacity = kAutoCapacity});
  EXPECT_EQ(eager.finished, virt.finished);
  EXPECT_TRUE(BitEqual(eager.result.final_model.GetStateDict(),
                       virt.result.final_model.GetStateDict()));
  EXPECT_EQ(eager.result.server.curve, virt.result.server.curve);
  EXPECT_EQ(eager.result.client_test_accuracy,
            virt.result.client_test_accuracy);
  EXPECT_EQ(eager.sent, virt.sent);
  EXPECT_EQ(eager.delivered, virt.delivered);
}

TEST_F(VirtualizationTest, ThreadedVirtualizedCourseBitIdenticalToSerialEager) {
  const CourseSpec spec = BaseSpec();
  CourseObservation eager = RunInstrumentedCourse(spec);
  CourseObservation virt = RunInstrumentedCourse(
      spec, {.exec_threads = 3, .cache_capacity = kAutoCapacity});
  EXPECT_EQ(eager.finished, virt.finished);
  EXPECT_TRUE(BitEqual(eager.result.final_model.GetStateDict(),
                       virt.result.final_model.GetStateDict()));
  EXPECT_EQ(eager.result.server.curve, virt.result.server.curve);
  EXPECT_EQ(eager.result.client_test_accuracy,
            virt.result.client_test_accuracy);
  EXPECT_EQ(eager.sent, virt.sent);
  EXPECT_EQ(eager.delivered, virt.delivered);
}

// ---------------------------------------------------------------------------
// Eviction + re-instantiation re-derives the identical Rng stream / state
// ---------------------------------------------------------------------------

TEST_F(VirtualizationTest, CapacityOneEvictionRestoresIdenticalState) {
  const CourseSpec spec = BaseSpec();
  CourseObservation eager = RunInstrumentedCourse(spec);

  auto fixture = MakeCourseFixture(spec);
  FedJob job = fixture->MakeJob();
  job.virtualize = true;
  job.client_cache_capacity = 1;  // every delivery evicts the previous client
  FedRunner runner(std::move(job));
  RunResult result = runner.Run();

  // Capacity is a pure performance knob: the pathological capacity-1 cache
  // still reproduces the eager course bit for bit.
  EXPECT_TRUE(BitEqual(eager.result.final_model.GetStateDict(),
                       result.final_model.GetStateDict()));
  EXPECT_EQ(eager.result.server.curve, result.server.curve);
  EXPECT_EQ(eager.result.client_test_accuracy, result.client_test_accuracy);

  const ClientCacheStats& stats = runner.client_cache()->stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_GT(stats.restores, 0);
  // Get() runs before Trim(), so at most capacity + 1 clients coexist.
  EXPECT_LE(stats.live_peak, 2);

  // Evicting a trained client and re-instantiating it must re-derive the
  // exact post-course state: rng stream position, clocks, counters, model.
  const ClientResume before = runner.client(1)->ExportResume();
  runner.client(2);  // evicts client 1
  EXPECT_TRUE(RecordBitEqual(before, runner.client(1)->ExportResume()));
}

TEST_F(VirtualizationTest, DropoutCourseMatchesEagerAtEveryCapacity) {
  // Dropout draws its masks from a layer-private rng, which is neither a
  // parameter nor trainer state: a suspended client keeps it in its
  // record, so an evicted client resumes the mask stream it left. ConvNet2
  // with dropout 0.5, as the quickstart trains it.
  SyntheticFemnistOptions data_options;
  data_options.num_clients = 6;
  data_options.mean_samples = 24;
  data_options.server_test_size = 64;
  data_options.seed = 4;
  const FedDataset data = MakeSyntheticFemnist(data_options);
  struct Outcome {
    RunResult result;
    int64_t sent = 0;
    int64_t delivered = 0;
    ClientCacheStats cache;
  };
  auto run = [&](bool virtualize, int capacity) {
    FedJob job;
    job.data = &data;
    Rng model_rng(1);
    job.init_model = MakeConvNet2(1, 8, 10, 16, /*dropout=*/0.5, &model_rng);
    job.client.train.lr = 0.1;
    job.client.train.local_steps = 2;
    job.client.train.batch_size = 8;
    job.server.concurrency = 2;
    job.server.max_rounds = 12;
    job.virtualize = virtualize;
    job.client_cache_capacity = capacity;
    job.seed = 5;
    Outcome outcome;
    job.send_tap = [&outcome](const Message&) { ++outcome.sent; };
    job.delivery_tap = [&outcome](const Message&) { ++outcome.delivered; };
    FedRunner runner(std::move(job));
    outcome.result = runner.Run();
    outcome.cache = runner.client_cache()->stats();
    return outcome;
  };
  Outcome eager = run(/*virtualize=*/false, 0);
  ASSERT_EQ(eager.result.server.rounds, 12);
  for (int capacity : {0, 1}) {
    Outcome virt = run(/*virtualize=*/true, capacity);
    EXPECT_GT(virt.cache.restores, 0) << capacity;
    EXPECT_TRUE(BitEqual(eager.result.final_model.GetStateDict(),
                         virt.result.final_model.GetStateDict()))
        << capacity;
    EXPECT_EQ(eager.result.server.curve, virt.result.server.curve)
        << capacity;
    EXPECT_EQ(eager.result.server.agg_count, virt.result.server.agg_count)
        << capacity;
    EXPECT_EQ(eager.result.server.staleness_log,
              virt.result.server.staleness_log)
        << capacity;
    EXPECT_TRUE(SameBits(eager.result.server.finish_time,
                         virt.result.server.finish_time))
        << capacity;
    EXPECT_EQ(eager.result.client_test_accuracy,
              virt.result.client_test_accuracy)
        << capacity;
    EXPECT_EQ(eager.result.client_test_loss, virt.result.client_test_loss)
        << capacity;
    EXPECT_EQ(eager.sent, virt.sent) << capacity;
    EXPECT_EQ(eager.delivered, virt.delivered) << capacity;
  }
}

// ---------------------------------------------------------------------------
// Val and test splits are built on first read
// ---------------------------------------------------------------------------

TEST_F(VirtualizationTest, ProceduralHeldOutSplitsMatchEagerAtCapacityOne) {
  // perf_drop_threshold makes every model_para read val before the load,
  // and the deployment eval reads test: a miss must rebuild both exactly
  // as the eager client built them, whatever its rng has consumed since.
  // With 2 threads the eager course fills val inside pool tasks.
  const ProceduralDataProvider provider(SmallProceduralData());
  auto run = [&](int capacity, int threads, int64_t* restores) {
    FedJob job = ProceduralJob(&provider, capacity, threads);
    job.client.perf_drop_threshold = 0.01;
    FedRunner runner(std::move(job));
    RunResult result = runner.Run();
    *restores = runner.client_cache()->stats().restores;
    return result;
  };
  int64_t restores = 0;
  RunResult eager = run(/*capacity=*/0, /*threads=*/0, &restores);
  ASSERT_EQ(eager.client_test_accuracy.size(), 12u);

  for (int threads : {0, 2}) {
    for (int capacity : {0, 1}) {
      if (threads == 0 && capacity == 0) continue;  // the reference
      RunResult other = run(capacity, threads, &restores);
      if (capacity == 1) {
        EXPECT_GT(restores, 0) << threads;
      }
      EXPECT_TRUE(BitEqual(eager.final_model.GetStateDict(),
                           other.final_model.GetStateDict()))
          << threads << " " << capacity;
      EXPECT_EQ(eager.server.curve, other.server.curve)
          << threads << " " << capacity;
      EXPECT_EQ(eager.client_test_accuracy, other.client_test_accuracy)
          << threads << " " << capacity;
      EXPECT_EQ(eager.client_test_loss, other.client_test_loss)
          << threads << " " << capacity;
    }
  }
}

TEST_F(VirtualizationTest, ProceduralHeldOutSplitsContinueTheTrainStream) {
  // Val and then test continue the stream the train split left, so they
  // equal the rows a provider drawing all 16 examples as train generates
  // after the first 8.
  const ProceduralDataOptions split_options = SmallProceduralData();
  ProceduralDataOptions whole_options = split_options;
  whole_options.train_per_client = 16;
  const ProceduralDataProvider split_provider(split_options);
  const ProceduralDataProvider whole_provider(whole_options);
  auto rows = [](const Dataset& d, int64_t lo, int64_t hi) {
    std::vector<int64_t> indices;
    for (int64_t i = lo; i < hi; ++i) indices.push_back(i);
    return d.Subset(indices);
  };
  for (int id : {1, 7, 12}) {
    HeldOutSource held_out;
    SplitDataset split;
    split.train = split_provider.MaterializeTrain(id, &held_out);
    split_provider.MaterializeHeldOut(held_out, &split);
    HeldOutSource unused;
    const Dataset whole = whole_provider.MaterializeTrain(id, &unused);
    EXPECT_TRUE(BitEqual(split.train, rows(whole, 0, 8))) << id;
    EXPECT_TRUE(BitEqual(split.val, rows(whole, 8, 12))) << id;
    EXPECT_TRUE(BitEqual(split.test, rows(whole, 12, 16))) << id;
  }
}

TEST_F(VirtualizationTest, NoLocalEvaluationBuildsNoHeldOutSplits) {
  for (bool deploy_eval : {false, true}) {
    const CountingProvider provider(SmallProceduralData());
    FedJob job = ProceduralJob(&provider, /*capacity=*/2, 0);
    job.deploy_eval = deploy_eval;
    FedRunner runner(std::move(job));
    runner.Run();
    const ClientCacheStats& stats = runner.client_cache()->stats();
    if (deploy_eval) {
      // The deployment eval reads every client's test split, at most once
      // per instantiation.
      EXPECT_GE(provider.fills(), provider.num_clients());
      EXPECT_LE(provider.fills(), stats.instantiations);
    } else {
      EXPECT_GT(stats.instantiations, 0);
      EXPECT_EQ(provider.fills(), 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Train splits are built ahead of the misses, off the pump thread
// ---------------------------------------------------------------------------

/// A virtualized logistic-regression course over `provider` at the auto
/// capacity (eager when `virtualize` is off).
FedJob CrossDeviceJob(const ClientDataProvider* provider, bool virtualize) {
  FedJob job;
  job.provider = provider;
  job.virtualize = virtualize;
  Rng model_rng(3);
  job.init_model = MakeLogisticRegression(16, 4, &model_rng);
  job.client.train.lr = 0.1;
  job.client.train.local_steps = 1;
  job.client.train.batch_size = 8;
  job.server.concurrency = 16;
  job.server.max_rounds = 30;
  job.deploy_eval = false;
  job.seed = 17;
  return job;
}

/// The CPUs the calling thread may run on.
cpu_set_t AllowedCpus() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  sched_getaffinity(0, sizeof(cpus), &cpus);
  return cpus;
}

/// Whether a runner made on this thread may start the build-ahead helper,
/// which needs two CPUs.
bool HelperCanStart() {
  const cpu_set_t cpus = AllowedCpus();
  return CPU_COUNT(&cpus) >= 2;
}

TEST_F(VirtualizationTest, TrainSplitsAreBuiltAheadOffThePump) {
  if (!HelperCanStart()) GTEST_SKIP() << "the helper needs two CPUs";
  ProceduralDataOptions data_options;
  data_options.num_clients = 2000;
  data_options.seed = 8;
  const ThreadRecordingProvider provider(data_options);
  FedRunner runner(CrossDeviceJob(&provider, /*virtualize=*/true));
  RunResult virt = runner.Run();

  const std::vector<std::thread::id> threads = provider.threads();
  int64_t off_pump = 0;
  for (const std::thread::id& thread : threads) {
    off_pump += thread != std::this_thread::get_id();
  }
  EXPECT_GT(off_pump, 0);
  // One kept build per instantiation, on whichever thread: beyond the
  // builds the helper abandoned to a take, no split was built twice or
  // left behind.
  EXPECT_EQ(static_cast<int64_t>(threads.size()) -
                runner.split_prefetcher().stats().abandoned,
            runner.client_cache()->stats().instantiations);

  const ProceduralDataProvider eager_provider(data_options);
  RunResult eager =
      FedRunner(CrossDeviceJob(&eager_provider, /*virtualize=*/false)).Run();
  EXPECT_EQ(eager.server.rounds, 30);
  EXPECT_TRUE(BitEqual(eager.final_model.GetStateDict(),
                       virt.final_model.GetStateDict()));
  EXPECT_EQ(eager.server.curve, virt.server.curve);
  EXPECT_TRUE(static_cast<const CourseCounters&>(eager.server) ==
              static_cast<const CourseCounters&>(virt.server));
  EXPECT_EQ(eager.server.agg_count, virt.server.agg_count);
  EXPECT_EQ(eager.server.staleness_log, virt.server.staleness_log);
  EXPECT_EQ(eager.server.rounds, virt.server.rounds);
  EXPECT_TRUE(SameBits(eager.server.finish_time, virt.server.finish_time));
  EXPECT_TRUE(SameBits(eager.server.final_accuracy,
                       virt.server.final_accuracy));
}

TEST_F(VirtualizationTest, BuildAheadStaysWithinTheCacheCapacity) {
  if (!HelperCanStart()) GTEST_SKIP() << "the helper needs two CPUs";
  // The final evaluate round sends one message per member: without the
  // bound, the helper would build the population's splits.
  ProceduralDataOptions data_options;
  data_options.num_clients = 10000;
  data_options.train_per_client = 8;
  data_options.seed = 6;
  const ProceduralDataProvider provider(data_options);
  FedJob job = CrossDeviceJob(&provider, /*virtualize=*/true);
  job.server.max_rounds = 2;
  job.server.collect_client_metrics = true;
  FedRunner runner(std::move(job));
  const RunResult result = runner.Run();
  EXPECT_EQ(result.server.client_metrics.size(), 10000u);

  const int capacity = runner.client_cache()->capacity();
  const SplitPrefetcher::Stats stats = runner.split_prefetcher().stats();
  EXPECT_EQ(stats.held_peak, capacity);
  EXPECT_GT(stats.dropped, 0);
}

TEST_F(VirtualizationTest, RunnerDestroyedMidBuildJoinsCleanly) {
  if (!HelperCanStart()) GTEST_SKIP() << "the helper needs two CPUs";
  // Splits requested, being built and ready when the runner dies: the
  // helper finishes the build in flight and is joined, and the splits it
  // held are freed (ASan's leak check and TSan referee the rest).
  ProceduralDataOptions data_options;
  data_options.num_clients = 100;
  data_options.seed = 4;
  GatedProvider provider(data_options);
  auto runner = std::make_unique<FedRunner>(
      CrossDeviceJob(&provider, /*virtualize=*/true));
  for (int id = 1; id <= 5; ++id) {
    Message para;
    para.sender = kServerId;
    para.receiver = id;
    para.msg_type = events::kModelPara;
    runner->Send(para);
  }
  // Split 1 is ready, split 2 is being built and 3 to 5 are requested.
  provider.AwaitSecondBuild();
  std::thread opener([&provider] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    provider.Open();
  });
  runner.reset();
  opener.join();
  EXPECT_GE(provider.helper_builds(), 2);
  EXPECT_LE(provider.helper_builds(), 5);
}

TEST_F(VirtualizationTest, OneCpuBuildsEverySplitOnThePump) {
  // A spinning helper on the pump's only CPU would just take turns with
  // it, so a runner made on one CPU never starts the helper.
  const cpu_set_t allowed = AllowedCpus();
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &one);
      break;
    }
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  ProceduralDataOptions data_options;
  data_options.num_clients = 500;
  data_options.seed = 8;
  const ThreadRecordingProvider provider(data_options);
  FedRunner runner(CrossDeviceJob(&provider, /*virtualize=*/true));
  runner.Run();
  ASSERT_EQ(sched_setaffinity(0, sizeof(allowed), &allowed), 0);

  for (const std::thread::id& thread : provider.threads()) {
    EXPECT_EQ(thread, std::this_thread::get_id());
  }
  EXPECT_EQ(static_cast<int64_t>(provider.threads().size()),
            runner.client_cache()->stats().instantiations);
  EXPECT_EQ(runner.split_prefetcher().stats().built, 0);
}

// ---------------------------------------------------------------------------
// The finish multicast reaches non-live clients as one range operation
// ---------------------------------------------------------------------------

TEST_F(VirtualizationTest, FinishMulticastMarksPopulationWithoutInstantiating) {
  constexpr int kPopulation = 100000;
  ProceduralDataOptions data_options;
  data_options.num_clients = kPopulation;
  data_options.train_per_client = 8;
  data_options.server_test_examples = 16;
  const ProceduralDataProvider provider(data_options);

  FedJob job;
  job.virtualize = true;
  job.provider = &provider;
  Rng model_rng(3);
  job.init_model = MakeLogisticRegression(
      static_cast<int>(data_options.features),
      static_cast<int>(data_options.classes), &model_rng);
  job.server.concurrency = 4;
  job.server.max_rounds = 1;
  job.deploy_eval = false;
  FedRunner* runner_ptr = nullptr;
  int finish_deliveries = 0;
  int64_t instantiated_at_finish = -1;
  job.delivery_tap = [&](const Message& msg) {
    if (msg.msg_type != events::kFinish) return;
    ++finish_deliveries;
    instantiated_at_finish = runner_ptr->client_cache()->stats().instantiations;
  };
  FedRunner runner(std::move(job));
  runner_ptr = &runner;
  runner.Run();

  EXPECT_EQ(finish_deliveries, 1);  // one multicast for the population
  const ClientCache* cache = runner.client_cache();
  EXPECT_EQ(cache->stats().instantiations, instantiated_at_finish);
  int finished = 0;
  for (int id = 1; id <= kPopulation; ++id) finished += cache->Finished(id);
  EXPECT_EQ(finished, kPopulation);
}

// ---------------------------------------------------------------------------
// ClientCache per-client checkpoint: eviction and the finish flag
// ---------------------------------------------------------------------------

class NullChannel : public CommChannel {
 public:
  void Send(const Message& /*msg*/) override {}
};

/// Collects every message sent through it.
class CaptureChannel : public CommChannel {
 public:
  void Send(const Message& msg) override { sent.push_back(msg); }
  std::vector<Message> sent;
};

/// A client configuration of the shell tests.
struct ClientKind {
  Model model;
  bool ditto = false;  // a DittoTrainer, else a GeneralTrainer
  bool fedbn = false;  // FedBN's share filter
};

/// Builds client `id` of `kind` over `provider`, into `spare` through
/// Client::Reset when it is not null, as FedRunner's factory does.
std::unique_ptr<Client> BuildClient(const ClientDataProvider& provider,
                                    const ClientKind& kind, int id,
                                    CommChannel* channel,
                                    std::unique_ptr<Client> spare) {
  ClientOptions options;
  options.seed = Rng(7).Fork(id).Next();
  if (kind.fedbn) options.share_filter = FedBnShareFilter();
  std::unique_ptr<BaseTrainer> trainer;
  if (kind.ditto) {
    trainer = std::make_unique<DittoTrainer>();
  } else {
    trainer = std::make_unique<GeneralTrainer>();
  }
  SplitDataset data;
  HeldOutSource held_out;
  data.train = provider.MaterializeTrain(id, &held_out);
  if (spare == nullptr) {
    return std::make_unique<Client>(id, std::move(options), kind.model,
                                    std::move(data), std::move(trainer),
                                    channel, held_out);
  }
  spare->Reset(id, std::move(options), kind.model, std::move(data),
               std::move(trainer), channel, held_out);
  return spare;
}

/// The model_para of round `round` to `client`, carrying `global`'s state
/// under the client's share filter.
Message ModelParaFor(Client* client, int round, const Model& global) {
  Message para;
  para.sender = kServerId;
  para.receiver = client->id();
  para.msg_type = events::kModelPara;
  para.state = round;
  para.timestamp = 10.0 * round;
  Model copy = global;
  para.payload.SetStateDict(
      "model", copy.GetStateDict(client->options().share_filter));
  return para;
}

/// Delivers `para` to `client` and returns the wire bytes of what it sent.
std::vector<std::vector<uint8_t>> AnswerBytes(Client* client,
                                              const Message& para,
                                              CaptureChannel* channel) {
  channel->sent.clear();
  client->HandleMessage(para);
  std::vector<std::vector<uint8_t>> bytes;
  for (const Message& msg : channel->sent) bytes.push_back(EncodeMessage(msg));
  channel->sent.clear();
  return bytes;
}

/// A small model with a Dropout layer over the procedural features.
Model DropoutMlp(int64_t features, int64_t classes, Rng* rng) {
  Model m;
  m.Add("fc1", std::make_unique<Linear>(features, 8, rng));
  m.Add("relu1", std::make_unique<ReLU>());
  m.Add("drop", std::make_unique<Dropout>(0.5, rng->Next()));
  m.Add("fc2", std::make_unique<Linear>(8, classes, rng));
  return m;
}

TEST_F(VirtualizationTest, ClientCacheCheckpointRoundTripsByteIdentical) {
  ProceduralDataOptions options;
  options.num_clients = 8;
  options.train_per_client = 8;
  options.server_test_examples = 8;
  const ProceduralDataProvider provider(options);
  NullChannel sink;
  Rng model_rng(3);
  const Model logreg = MakeLogisticRegression(
      static_cast<int>(options.features), static_cast<int>(options.classes),
      &model_rng);
  const Model mlp_bn = MakeMlpBn({options.features, 8, options.classes},
                                 &model_rng);
  // Client 4 keeps Ditto's personal model in its trainer state; client 5
  // is a FedBN client, whose BatchNorm buffers stay local.
  constexpr int kDitto = 4;
  constexpr int kFedBn = 5;
  auto init_model = [&](int id) { return id == kFedBn ? mlp_bn : logreg; };
  auto factory = [&](int id, std::unique_ptr<Client> spare) {
    const ClientKind kind{init_model(id), id == kDitto, id == kFedBn};
    return BuildClient(provider, kind, id, &sink, std::move(spare));
  };

  ClientCache cache(options.num_clients, /*capacity=*/1, factory);
  // Gives client `id` non-fresh state — a trained model, advanced rng,
  // trainer state — and returns its record.
  auto train_once = [&](int id) {
    Message para;
    para.sender = kServerId;
    para.receiver = id;
    para.msg_type = events::kModelPara;
    Model global = init_model(id);
    para.payload.SetStateDict(
        "model", global.GetStateDict(cache.Get(id)->options().share_filter));
    cache.Get(id)->HandleMessage(para);
    EXPECT_EQ(cache.Get(id)->rounds_trained(), 1) << id;
    return cache.Get(id)->ExportResume();
  };
  const ClientResume before = train_once(1);
  EXPECT_TRUE(before.trainer_state.empty());  // a stateless trainer
  cache.Get(2);
  cache.Trim();  // client 1 suspended, client 2 live
  EXPECT_FALSE(cache.IsLive(1));
  cache.MarkFinished(IdSet::Range(3, 3));  // recorded without instantiating 3
  EXPECT_FALSE(cache.IsLive(3));
  EXPECT_TRUE(cache.Finished(3));

  // An evicted client restores its exact pre-eviction record.
  EXPECT_TRUE(RecordBitEqual(before, cache.Get(1)->ExportResume()));
  EXPECT_EQ(cache.stats().restores, 1);
  cache.Trim();

  // Trainer bytes and BatchNorm buffers round-trip too.
  const ClientResume ditto = train_once(kDitto);
  EXPECT_FALSE(ditto.trainer_state.empty());
  const ClientResume fedbn = train_once(kFedBn);
  Model bn_reference = mlp_bn;
  EXPECT_EQ(static_cast<int64_t>(fedbn.params.size()),
            bn_reference.NumParams());
  EXPECT_GT(fedbn.params.size(), bn_reference.FlatParams().size());
  cache.Get(2);
  cache.Trim();
  EXPECT_FALSE(cache.IsLive(kDitto));
  EXPECT_FALSE(cache.IsLive(kFedBn));
  EXPECT_TRUE(RecordBitEqual(ditto, cache.Get(kDitto)->ExportResume()));
  EXPECT_TRUE(RecordBitEqual(fedbn, cache.Get(kFedBn)->ExportResume()));
  cache.Trim();

  // The held-out splits do not depend on when they are first read: a
  // restored client whose rng has moved on builds the splits a fresh
  // client builds.
  const SplitDataset& restored = cache.Get(1)->data();
  const std::unique_ptr<Client> fresh_one = factory(1, nullptr);
  EXPECT_TRUE(BitEqual(restored.val, fresh_one->data().val));
  EXPECT_TRUE(BitEqual(restored.test, fresh_one->data().test));
  cache.Trim();

  // A client marked finished while not live instantiates exactly like a
  // fresh client told to finish.
  const ClientResume marked_finished = cache.Get(3)->ExportResume();
  const std::unique_ptr<Client> fresh = factory(3, nullptr);
  Message finish;
  finish.sender = kServerId;
  finish.receiver = 3;
  finish.msg_type = events::kFinish;
  fresh->HandleMessage(finish);
  EXPECT_TRUE(marked_finished.finished);
  EXPECT_TRUE(RecordBitEqual(marked_finished, fresh->ExportResume()));
}

// ---------------------------------------------------------------------------
// Evicted clients' objects are recycled as shells (Client::Reset)
// ---------------------------------------------------------------------------

TEST_F(VirtualizationTest, RecycledShellAnswersLikeAFreshClient) {
  ProceduralDataOptions data_options;
  data_options.num_clients = 8;
  data_options.train_per_client = 8;
  data_options.server_test_examples = 8;
  const ProceduralDataProvider provider(data_options);
  const int64_t features = data_options.features;
  const int64_t classes = data_options.classes;
  Rng model_rng(3);
  const Model logreg = MakeLogisticRegression(features, classes, &model_rng);
  const Model mlp_bn = MakeMlpBn({features, 8, classes}, &model_rng);
  const Model dropout = DropoutMlp(features, classes, &model_rng);
  struct Case {
    const char* name;
    ClientKind previous;
    ClientKind next;
    // Whether the next client's record carries encoded state: Ditto's
    // trainer state or Dropout's rng.
    bool encoded_state = false;
    // The previous occupant had an update poisoner and replaced handlers.
    bool customized_previous = false;
  };
  const Case cases[] = {
      {"logreg", {logreg}, {logreg}},
      {"ditto", {logreg, /*ditto=*/true}, {logreg, /*ditto=*/true}, true},
      {"fedbn_in_logreg_shell", {logreg}, {mlp_bn, false, /*fedbn=*/true}},
      {"dropout", {dropout}, {dropout}, true},
      {"after_customized_occupant", {logreg}, {logreg}, false, true},
  };
  constexpr int kPrevious = 2;
  constexpr int kNext = 5;
  for (const Case& c : cases) {
    CaptureChannel channel;
    std::unique_ptr<Client> shell =
        BuildClient(provider, c.previous, kPrevious, &channel, nullptr);
    if (c.customized_previous) {
      shell->set_update_poisoner([](StateDict* delta) {
        for (auto& [name, tensor] : *delta) {
          for (int64_t i = 0; i < tensor.numel(); ++i) tensor.at(i) *= 3.0f;
        }
      });
      shell->registry().Unregister(events::kEvaluate);
    }
    AnswerBytes(shell.get(), ModelParaFor(shell.get(), 0, c.previous.model),
                &channel);
    if (c.customized_previous) {
      shell->registry().Register(events::kModelPara, [](const Message&) {});
    }
    // Evicted, as ClientCache::Trim does it, and re-targeted.
    shell->ExportResume();
    shell->Vacate();
    const Client* const object = shell.get();
    shell = BuildClient(provider, c.next, kNext, &channel, std::move(shell));
    ASSERT_EQ(shell.get(), object) << c.name;
    std::unique_ptr<Client> fresh =
        BuildClient(provider, c.next, kNext, &channel, nullptr);
    EXPECT_EQ(shell->registry().RegisteredEvents(),
              fresh->registry().RegisteredEvents())
        << c.name;
    EXPECT_EQ(shell->registry().overwrite_count(),
              fresh->registry().overwrite_count())
        << c.name;

    // First touch: no record to restore.
    const std::vector<std::vector<uint8_t>> first = AnswerBytes(
        fresh.get(), ModelParaFor(fresh.get(), 0, c.next.model), &channel);
    ASSERT_EQ(first.size(), 1u) << c.name;
    EXPECT_EQ(AnswerBytes(shell.get(),
                          ModelParaFor(shell.get(), 0, c.next.model),
                          &channel),
              first)
        << c.name;
    const ClientResume record = fresh->ExportResume();
    EXPECT_TRUE(RecordBitEqual(record, shell->ExportResume())) << c.name;
    EXPECT_EQ(record.trainer_state.empty(), !c.encoded_state) << c.name;

    // A later miss: the record restored onto a recycled shell and onto a
    // fresh client.
    shell->Vacate();
    shell = BuildClient(provider, c.next, kNext, &channel, std::move(shell));
    shell->RestoreResume(record);
    fresh = BuildClient(provider, c.next, kNext, &channel, nullptr);
    fresh->RestoreResume(record);
    const std::vector<std::vector<uint8_t>> second = AnswerBytes(
        fresh.get(), ModelParaFor(fresh.get(), 1, c.next.model), &channel);
    ASSERT_EQ(second.size(), 1u) << c.name;
    EXPECT_EQ(AnswerBytes(shell.get(),
                          ModelParaFor(shell.get(), 1, c.next.model),
                          &channel),
              second)
        << c.name;
    EXPECT_TRUE(RecordBitEqual(fresh->ExportResume(), shell->ExportResume()))
        << c.name;
  }
}

TEST_F(VirtualizationTest, LongCapacityTwoRunBuildsCapacityPlusOneClients) {
  // The same 400 deliveries and finish multicast through two capacity-2
  // caches: one recycles evicted clients' shells, the other builds every
  // miss anew. The counts, the answers and every final record agree, and
  // the recycling cache builds capacity + 1 clients in all.
  constexpr int kPopulation = 16;
  constexpr int kCapacity = 2;
  ProceduralDataOptions data_options;
  data_options.num_clients = kPopulation;
  data_options.train_per_client = 8;
  data_options.server_test_examples = 8;
  const ProceduralDataProvider provider(data_options);
  Rng model_rng(3);
  const ClientKind kind{MakeLogisticRegression(
      data_options.features, data_options.classes, &model_rng)};
  CaptureChannel recycled_channel;
  CaptureChannel built_channel;
  int64_t built = 0;
  ClientCache recycling(
      kPopulation, kCapacity, [&](int id, std::unique_ptr<Client> spare) {
        if (spare == nullptr) ++built;
        return BuildClient(provider, kind, id, &recycled_channel,
                           std::move(spare));
      });
  ClientCache building(kPopulation, kCapacity,
                       [&](int id, std::unique_ptr<Client> /*spare*/) {
                         return BuildClient(provider, kind, id,
                                            &built_channel, nullptr);
                       });

  Rng pick(11);
  for (int step = 0; step < 400; ++step) {
    // Ids above 12 are never trained: they finish on the flag alone.
    const int id = static_cast<int>(pick.UniformInt(1, 12));
    Client* recycled = recycling.Get(id);
    Client* fresh = building.Get(id);
    const std::vector<std::vector<uint8_t>> answer = AnswerBytes(
        fresh, ModelParaFor(fresh, step, kind.model), &built_channel);
    ASSERT_EQ(answer.size(), 1u) << step;
    ASSERT_EQ(AnswerBytes(recycled, ModelParaFor(recycled, step, kind.model),
                          &recycled_channel),
              answer)
        << step;
    recycling.Trim();
    building.Trim();
  }
  Message finish;
  finish.sender = kServerId;
  finish.msg_type = events::kFinish;
  const IdSet everyone = IdSet::Range(1, kPopulation);
  for (ClientCache* cache : {&recycling, &building}) {
    cache->MarkFinished(everyone);
    for (int id : cache->LiveIn(everyone).ToVector()) {
      finish.receiver = id;
      cache->Get(id)->HandleMessage(finish);
    }
  }
  for (int id = 1; id <= kPopulation; ++id) {
    EXPECT_TRUE(RecordBitEqual(building.Get(id)->ExportResume(),
                               recycling.Get(id)->ExportResume()))
        << id;
    EXPECT_TRUE(recycling.Finished(id)) << id;
    building.Trim();
    recycling.Trim();
  }

  const ClientCacheStats& a = recycling.stats();
  const ClientCacheStats& b = building.stats();
  EXPECT_EQ(a.instantiations, b.instantiations);
  EXPECT_EQ(a.restores, b.restores);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.live, b.live);
  EXPECT_EQ(a.live_peak, b.live_peak);
  EXPECT_GT(a.instantiations, 200);
  EXPECT_LE(built, kCapacity + 1);
}

}  // namespace
}  // namespace fedscope
