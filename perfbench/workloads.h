#ifndef FEDSCOPE_PERFBENCH_WORKLOADS_H_
#define FEDSCOPE_PERFBENCH_WORKLOADS_H_

// The four bench_e2e workloads. The recipes are copies of the paper
// benches' recipes at commit 544b153, named above each one, written out
// here so that the benchmark alone decides what is measured: a later
// change to a paper bench does not move the yardstick. Where a copy
// departs from its source, the comment says how and why.
//
// Every course is built from one 64-bit course seed: the dataset, the
// initial model, the fleet, the fault plan and the runner seed all derive
// from it, so the same seed always gives the same inputs.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fedscope/core/fed_runner.h"
#include "fedscope/data/client_data_provider.h"
#include "fedscope/data/synthetic_cifar.h"
#include "fedscope/data/synthetic_femnist.h"
#include "fedscope/nn/model_zoo.h"
#include "report.h"

namespace fedscope {
namespace perfbench {

/// One course: its generated inputs and the job that runs it. Heap-held,
/// because `job` borrows `data` or `provider`.
struct Course {
  FedDataset data;
  std::unique_ptr<ProceduralDataProvider> provider;
  FedJob job;
};

/// What a finished course leaves behind, read through FedRunner's public
/// accessors.
struct CourseOutcome {
  RunResult result;
  FaultPlan::Counters faults;
  std::set<int> hostile_clients;
  int64_t duplicates_suppressed = 0;
  int64_t recoveries = 0;
  int64_t snapshots = 0;
  int64_t snapshot_bytes = 0;
  /// Virtualized courses only.
  ClientCacheStats cache;
  int cache_capacity = 0;
};

struct Workload {
  const char* name;
  /// Builds the course for `seed`; `smoke` shrinks it to toy size.
  std::unique_ptr<Course> (*make)(uint64_t seed, bool smoke);
  /// Records the workload's own checks of one finished course.
  void (*check)(const Course& course, CourseOutcome& outcome, Report* report);
  /// Courses per second of --seconds, sized so that an untraced run,
  /// data generation included, takes about --seconds on a 4-CPU 2 GHz
  /// Xeon. A run's course count depends only on --seconds, never on how
  /// fast the courses go, so two runs of one seed run the same courses.
  double courses_per_s;
};

/// CPUs this process may run on (what `nproc` prints).
inline int NumCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Pool workers for the threaded workload: the pump thread plus the pool
/// use every CPU and no more.
inline int PoolWorkers() { return std::max(1, NumCpus() - 1); }

inline Model WithFlatten(Model body) {
  Model m;
  m.Add("flat", std::make_unique<Flatten>());
  for (int i = 0; i < body.num_layers(); ++i) {
    m.Add(body.layer_name(i), body.layer(i)->Clone());
  }
  return m;
}

inline bool ModelFinite(Model* model) {
  for (const auto& [name, t] : model->GetStateDict()) {
    for (int64_t i = 0; i < t.numel(); ++i) {
      if (!std::isfinite(t.at(i))) return false;
    }
  }
  return true;
}

// -- femnist_async -----------------------------------------------------------
// Table 1's FEMNIST recipe under Goal-Aggr-Unif on an edge-device fleet,
// stopped at a fixed accuracy target: wall time to target.
// Source: bench/common.h MakeFemnistWorkload (lines 54-75), the
// Goal-Aggr-Unif entry of Table1Strategies (lines 153-158) and
// RunStrategy's job and fleet (lines 185-216). Departures: the 0.80
// accuracy target with a 300-round cap (the Workload defaults are no
// target and 120 rounds), and through_wire.

inline std::unique_ptr<Course> MakeFemnistAsync(uint64_t seed, bool /*smoke*/) {
  auto c = std::make_unique<Course>();
  SyntheticFemnistOptions data;
  data.num_clients = 40;
  data.mean_samples = 50;
  data.style_sigma = 0.5;
  data.noise_sigma = 2.2;
  data.label_alpha = 2.0;
  data.seed = seed;
  c->data = MakeSyntheticFemnist(data);

  FedJob& job = c->job;
  job.data = &c->data;
  Rng model_rng(seed);
  job.init_model = WithFlatten(MakeMlp({64, 32, 10}, &model_rng));
  job.client.train.lr = 0.1;
  job.client.train.local_steps = 4;
  job.client.train.batch_size = 16;
  job.client.jitter_sigma = 0.25;
  FleetOptions fleet;
  fleet.compute_median = 5.0;
  fleet.compute_sigma = 0.6;
  fleet.bandwidth_median = 5e4;
  fleet.bandwidth_sigma = 0.6;
  fleet.straggler_frac = 0.1;
  fleet.straggler_slowdown = 0.3;
  Rng fleet_rng(seed + 1000);
  job.fleet = MakeFleet(data.num_clients, fleet, &fleet_rng);
  job.server.strategy = Strategy::kAsyncGoal;
  job.server.broadcast = BroadcastManner::kAfterAggregating;
  job.server.concurrency = 10;
  job.server.aggregation_goal = 4;
  job.server.staleness_tolerance = 10;
  job.server.max_rounds = 300;
  job.server.target_accuracy = 0.80;
  job.through_wire = true;
  job.seed = seed;
  return c;
}

inline void CheckFemnistAsync(const Course& /*course*/, CourseOutcome& outcome,
                              Report* report) {
  report->Check("reached_target", outcome.result.server.reached_target,
                "stopped at round " +
                    std::to_string(outcome.result.server.rounds) +
                    " with accuracy " +
                    std::to_string(outcome.result.server.best_accuracy));
}

// -- convnet_sync ------------------------------------------------------------
// bench_parallel's ConvNet2 course: every client trains every round on the
// threaded backend, no wire.
// Source: bench/bench_parallel.cc MakeConvNet2Course (lines 67-84) and
// MakeJob (lines 86-99). Departure: the client's latency jitter is the
// library default (0.2) instead of 0, so that the virtual clock depends on
// the seed. Jitter only delays the uplink: every client still receives
// the broadcast at one virtual time, so the parallel batches stay whole.

inline std::unique_ptr<Course> MakeConvnetSync(uint64_t seed, bool smoke) {
  auto c = std::make_unique<Course>();
  SyntheticFemnistOptions data;
  data.num_clients = smoke ? 8 : 40;
  data.mean_samples = 40;
  data.image_size = 8;
  data.seed = seed;
  c->data = MakeSyntheticFemnist(data);

  FedJob& job = c->job;
  job.data = &c->data;
  Rng model_rng(seed);
  job.init_model = MakeConvNet2(1, 8, 10, 64, 0.0, &model_rng);
  job.client.train.lr = 0.05;
  job.client.train.local_steps = 2;
  job.client.train.batch_size = 16;
  job.server.concurrency = data.num_clients;
  job.server.max_rounds = smoke ? 3 : 50;
  job.exec.backend = ExecutionBackend::kThreaded;
  job.exec.num_threads = smoke ? 2 : PoolWorkers();
  job.seed = seed;
  return c;
}

inline bool SameCourse(RunResult& a, RunResult& b) {  // GetStateDict: non-const
  return a.final_model.GetStateDict() == b.final_model.GetStateDict() &&
         a.server.curve == b.server.curve &&
         a.server.rounds == b.server.rounds &&
         a.client_test_accuracy == b.client_test_accuracy;
}

inline void CheckConvnetSync(const Course& course, CourseOutcome& outcome,
                             Report* report) {
  report->Check("all_rounds",
                outcome.result.server.rounds == course.job.server.max_rounds,
                "ran " + std::to_string(outcome.result.server.rounds) +
                    " rounds");
}

// -- crossdevice_1m ----------------------------------------------------------
// bench_scale's virtualized course at one million descriptors.
// Source: bench/bench_scale.cc MakeDataOptions (lines 70-81) and MakeJob
// (lines 83-102). Departure: latency jitter at the library default, as in
// convnet_sync.

inline std::unique_ptr<Course> MakeCrossdevice(uint64_t seed, bool smoke) {
  auto c = std::make_unique<Course>();
  ProceduralDataOptions data;
  data.num_clients = smoke ? 10000 : 1000000;
  data.features = 16;
  data.classes = 4;
  data.train_per_client = 16;
  data.val_per_client = 4;
  data.test_per_client = 4;
  data.server_test_examples = 64;
  data.seed = seed;
  c->provider = std::make_unique<ProceduralDataProvider>(data);

  FedJob& job = c->job;
  job.virtualize = true;
  job.provider = c->provider.get();
  Rng model_rng(seed);
  job.init_model =
      MakeLogisticRegression(data.features, data.classes, &model_rng);
  job.client.train.lr = 0.1;
  job.client.train.local_steps = 1;
  job.client.train.batch_size = 8;
  job.server.concurrency = 32;
  job.server.max_rounds = smoke ? 50 : 1000;
  // The O(population) deployment sweep is what a cross-device course
  // cannot afford (bench_scale turns it off for the same reason).
  job.deploy_eval = false;
  job.seed = seed;
  return c;
}

inline void CheckCrossdevice(const Course& course, CourseOutcome& outcome,
                             Report* report) {
  report->Check("live_peak_bounded",
                outcome.cache.live_peak <= outcome.cache_capacity + 1,
                "peak " + std::to_string(outcome.cache.live_peak) +
                    " live clients, capacity " +
                    std::to_string(outcome.cache_capacity));
  report->Check("all_rounds",
                outcome.result.server.rounds == course.job.server.max_rounds,
                "ran " + std::to_string(outcome.result.server.rounds) +
                    " rounds");
}

// -- hostile_cifar -----------------------------------------------------------
// The repair side of the server round: hostile, lost, duplicated and
// dropped-out clients under the guard and Krum, with a snapshot every
// round and one server crash drill.
// Source: bench/common.h MakeCifarWorkload(0.5) (lines 78-98) and the Krum
// entry of bench/bench_byzantine.cc Aggregators (lines 82-88). The
// strategy, deadline, guard, fault plan and snapshots are this workload's
// own.

inline std::unique_ptr<Course> MakeHostileCifar(uint64_t seed, bool smoke) {
  auto c = std::make_unique<Course>();
  SyntheticCifarOptions data;
  data.num_clients = 40;
  data.pool_size = 2400;
  data.alpha = 0.5;
  data.noise_sigma = 2.6;
  data.seed = seed;
  c->data = MakeSyntheticCifar(data);

  FedJob& job = c->job;
  job.data = &c->data;
  Rng model_rng(seed);
  job.init_model = WithFlatten(MakeMlp({3 * 8 * 8, 32, 10}, &model_rng));
  job.client.train.lr = 0.08;
  job.client.train.local_steps = 4;
  job.client.train.batch_size = 16;
  job.server.strategy = Strategy::kSyncVanilla;
  job.server.concurrency = 20;
  job.server.receive_deadline = 600.0;
  job.server.min_received = 10;
  job.server.max_rounds = smoke ? 30 : 100;
  job.server.guard.enabled = true;
  job.server.guard.l2_bound = 50.0;
  job.server.guard.quarantine_after = 2;
  // Krum provisioned for the hostile fraction as bench_byzantine does:
  // f = round(frac * cohort) + 1, keeping cohort - f - 2 updates.
  constexpr double kHostileFrac = 0.2;
  const int f = static_cast<int>(std::lround(kHostileFrac * 20)) + 1;
  job.aggregator_factory = [f] {
    return std::make_unique<KrumAggregator>(f, std::max(1, 20 - f - 2));
  };
  job.fault.hostile_frac = kHostileFrac;
  job.fault.hostile_mode = "mixed";
  job.fault.dropout_frac = 0.05;
  job.fault.msg_loss_prob = 0.02;
  job.fault.msg_duplicate_prob = 0.05;
  job.fault.server_crash_at_event = smoke ? 300 : 1200;
  job.fault.seed = seed + 13;
  job.suppress_duplicates = true;
  job.through_wire = true;
  // Relative: the harness puts it in the run's scratch directory.
  job.snapshot.directory = "snapshots";
  job.snapshot.every_n_rounds = 1;
  job.seed = seed;
  return c;
}

inline void CheckHostileCifar(const Course& course, CourseOutcome& outcome,
                              Report* report) {
  const ServerStats& s = outcome.result.server;
  report->Check("model_finite", ModelFinite(&outcome.result.final_model),
                "final model has a non-finite parameter");
  report->Check("not_aborted", !s.aborted, "the course aborted");
  report->Check("all_rounds", s.rounds == course.job.server.max_rounds,
                "ran " + std::to_string(s.rounds) + " rounds");
  bool subset = true;
  for (int id : s.quarantined) {
    subset = subset && outcome.hostile_clients.count(id) > 0;
  }
  report->Check("quarantine_only_hostile", subset,
                "an honest client was quarantined");
  report->Check("one_recovery", outcome.recoveries == 1,
                std::to_string(outcome.recoveries) + " recoveries");
  report->Check("snapshot_per_round", outcome.snapshots == s.rounds,
                std::to_string(outcome.snapshots) + " snapshots for " +
                    std::to_string(s.rounds) + " rounds");
}

inline const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> all = {
      {"femnist_async", MakeFemnistAsync, CheckFemnistAsync, 37.0},
      {"convnet_sync", MakeConvnetSync, CheckConvnetSync, 0.8},
      {"crossdevice_1m", MakeCrossdevice, CheckCrossdevice, 0.2},
      {"hostile_cifar", MakeHostileCifar, CheckHostileCifar, 1.75},
  };
  return all;
}

}  // namespace perfbench
}  // namespace fedscope

#endif  // FEDSCOPE_PERFBENCH_WORKLOADS_H_
