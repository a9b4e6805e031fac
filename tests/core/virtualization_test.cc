// Client virtualization (DESIGN.md §13): the population exists as
// descriptors, a bounded ClientCache materializes sampled clients on
// demand, and the course is bit-identical to the eager path. These tests
// pin the memory bound (peak live clients stays within the cohort-derived
// cache capacity, never the population) and the reclaim/restore identity
// (an evicted client re-derives its exact Rng stream and state).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "fedscope/comm/codec.h"
#include "fedscope/core/client_cache.h"
#include "fedscope/core/events.h"
#include "fedscope/core/fed_runner.h"
#include "fedscope/core/id_set.h"
#include "fedscope/core/trainer.h"
#include "fedscope/data/client_data_provider.h"
#include "fedscope/nn/model_zoo.h"
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
  int topology_shards;
  int exec_threads;
};

TEST_F(VirtualizationTest, LivePeakBoundedByCohortAcrossCourseShapes) {
  const StrategyCase cases[] = {
      {"sync", "sync_vanilla", 0, 0},
      {"overselect", "sync_overselect", 0, 0},
      {"async_time", "async_time", 0, 0},
      {"sharded", "sync_vanilla", 2, 0},
      {"threaded", "sync_vanilla", 0, 2},
  };
  for (const auto& c : cases) {
    CourseSpec spec = BaseSpec();
    spec.strategy = c.strategy;
    spec.topology_shards = c.topology_shards;
    spec = CourseGen::Clamp(spec);
    ASSERT_GT(spec.EffectiveClients(), CohortBound(spec)) << c.name;

    const CourseObservation obs = RunInstrumentedCourse(
        spec, /*crash_at_event=*/-1, c.exec_threads, kAutoCapacity);
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
      RunInstrumentedCourse(spec, -1, /*exec_threads=*/0, kAutoCapacity);
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
  CourseObservation virt =
      RunInstrumentedCourse(spec, -1, /*exec_threads=*/3, kAutoCapacity);
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
  Payload before;
  runner.client(1)->ExportResume(&before);
  runner.client(2);  // evicts client 1
  Payload after;
  runner.client(1)->ExportResume(&after);
  EXPECT_EQ(EncodePayload(before), EncodePayload(after));
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

TEST_F(VirtualizationTest, ClientCacheCheckpointRoundTripsByteIdentical) {
  ProceduralDataOptions options;
  options.num_clients = 8;
  options.train_per_client = 8;
  options.server_test_examples = 8;
  const ProceduralDataProvider provider(options);
  NullChannel sink;
  Rng model_rng(3);
  const Model init = MakeLogisticRegression(
      static_cast<int>(options.features), static_cast<int>(options.classes),
      &model_rng);
  auto factory = [&](int id) {
    ClientCache::Entry entry;
    ClientOptions co;
    co.seed = Rng(7).Fork(id).Next();
    entry.client = std::make_unique<Client>(
        id, co, init, provider.MaterializeClient(id),
        std::make_unique<GeneralTrainer>(), &sink);
    return entry;
  };

  ClientCache cache(options.num_clients, /*capacity=*/1, factory);
  // Give client 1 non-fresh state: a trained model and an advanced rng.
  Message para;
  para.sender = kServerId;
  para.receiver = 1;
  para.msg_type = events::kModelPara;
  Model global = init;
  para.payload.SetStateDict("model", global.GetStateDict());
  cache.Get(1)->HandleMessage(para);
  ASSERT_EQ(cache.Get(1)->rounds_trained(), 1);
  Payload before;
  cache.Get(1)->ExportResume(&before);
  cache.Get(2);
  cache.Trim();  // client 1 suspended, client 2 live
  EXPECT_FALSE(cache.IsLive(1));
  cache.MarkFinished(IdSet::Range(3, 3));  // recorded without instantiating 3
  EXPECT_FALSE(cache.IsLive(3));
  EXPECT_TRUE(cache.Finished(3));

  // An evicted client restores its exact pre-eviction resume payload.
  Payload resumed;
  cache.Get(1)->ExportResume(&resumed);
  EXPECT_EQ(EncodePayload(before), EncodePayload(resumed));
  EXPECT_EQ(cache.stats().restores, 1);
  cache.Trim();

  // A client marked finished while not live instantiates exactly like a
  // fresh client told to finish.
  Payload marked_finished;
  cache.Get(3)->ExportResume(&marked_finished);
  ClientCache::Entry fresh = factory(3);
  Message finish;
  finish.sender = kServerId;
  finish.receiver = 3;
  finish.msg_type = events::kFinish;
  fresh.client->HandleMessage(finish);
  Payload want_finished;
  fresh.client->ExportResume(&want_finished);
  EXPECT_EQ(EncodePayload(marked_finished), EncodePayload(want_finished));
}

}  // namespace
}  // namespace fedscope
