#ifndef FEDSCOPE_CORE_FED_RUNNER_H_
#define FEDSCOPE_CORE_FED_RUNNER_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "fedscope/core/client.h"
#include "fedscope/core/client_cache.h"
#include "fedscope/core/completeness.h"
#include "fedscope/core/edge_aggregator.h"
#include "fedscope/core/server.h"
#include "fedscope/data/client_data_provider.h"
#include "fedscope/data/dataset.h"
#include "fedscope/exec/buffering_channel.h"
#include "fedscope/exec/execution.h"
#include "fedscope/exec/worker_pool.h"
#include "fedscope/fault/dedup.h"
#include "fedscope/fault/fault_channel.h"
#include "fedscope/fault/fault_plan.h"
#include "fedscope/obs/obs_context.h"
#include "fedscope/sim/event_queue.h"

namespace fedscope {

/// Everything needed to stand up one FL course in standalone simulation.
struct FedJob {
  /// The federated dataset (not owned; must outlive the runner). Ignored
  /// when `provider` is set.
  const FedDataset* data = nullptr;
  /// Initial global model; every client starts from a copy.
  Model init_model;
  ServerOptions server;
  /// Base client options; per-client device profiles come from `fleet`.
  ClientOptions client;
  /// One device profile per client; empty -> a homogeneous default fleet.
  std::vector<DeviceProfile> fleet;
  /// Builds each client's Trainer (default: GeneralTrainer). Called with
  /// the 1-based client id.
  std::function<std::unique_ptr<BaseTrainer>(int)> trainer_factory;
  /// Builds the server's Aggregator (default: FedAvgAggregator with the
  /// job's staleness_rho).
  std::function<std::unique_ptr<Aggregator>()> aggregator_factory;
  /// Optional per-client customization hook, applied after the base
  /// options are copied (client-specific configs, DP opt-in, etc).
  std::function<void(int, ClientOptions*)> client_customizer;
  /// Custom global-model evaluator; default evaluates the model as a
  /// classifier on data->server_test. FedEM installs a mixture evaluator.
  std::function<EvalResult(Model*)> evaluator;
  /// Staleness discount exponent handed to the default aggregator.
  double staleness_rho = 0.5;
  /// Route every message through the binary wire codec (encode + decode),
  /// proving backend independence at a small CPU cost.
  bool through_wire = false;
  /// Fault model applied to the course through a FaultInjectingChannel
  /// decorator (workers stay unchanged). All-null by default: the
  /// decorator is not even constructed and behaviour is byte-identical to
  /// a fault-free build. Seeded plans replay identically for equal seeds.
  FaultPlanOptions fault;
  /// Run the completeness check before starting (error if incomplete).
  bool check_completeness = true;
  /// Observability sinks (borrowed; must outlive the runner). All-null by
  /// default: the course runs with zero instrumentation overhead and
  /// byte-identical behaviour. In standalone mode every recorded timestamp
  /// is virtual, so same-seed runs produce identical metric snapshots,
  /// traces, and course logs.
  ObsContext obs;
  /// Course-introspection taps for the fuzzing harness (testing/). Both
  /// default to null (no overhead). `send_tap` observes every worker-side
  /// Send *before* fault injection; `delivery_tap` observes every message
  /// the pump dispatches (after duplicate suppression). Together they make
  /// message conservation checkable: delivered == sent - faulted-away
  /// + fault-duplicated - suppressed.
  std::function<void(const Message&)> send_tap;
  std::function<void(const Message&)> delivery_tap;
  /// Suppress fault-injected duplicate deliveries in the pump — the
  /// standalone analogue of the distributed server host's
  /// DuplicateSuppressor. Off by default: behaviour is unchanged unless a
  /// course opts in (fault plans with msg_duplicate_prob > 0).
  bool suppress_duplicates = false;
  /// Durable snapshot policy (DESIGN.md §10). Disabled by default (empty
  /// directory): no snapshot is ever exported and behaviour is unchanged.
  /// The crash drill is driven by fault.server_crash_at_event.
  SnapshotPolicy snapshot;
  /// Execution backend (DESIGN.md §12). kSerial (the default) pumps
  /// everything on one thread; kThreaded trains equal-virtual-time client
  /// deliveries on a worker pool and commits their effects in canonical
  /// order, bit-identical to kSerial under the same seed.
  ExecutionOptions exec;
  /// Client virtualization (DESIGN.md §13). Every course keeps its
  /// clients in one ClientCache. Off by default: the cache holds the
  /// whole population and is filled at construction, so every client is
  /// live from the start and never evicted. On: the population exists as
  /// descriptors only; the bounded cache instantiates a Client when a
  /// message must be delivered to it and reclaims it afterwards, so peak
  /// live clients is O(cohort) rather than O(population). Bit-identical
  /// to the eager course under the same seed (oracle 12).
  bool virtualize = false;
  /// Live-client bound for the virtualized cache (ignored when virtualize
  /// is off). 0 = auto: the cohort size (concurrency plus the
  /// over-selection margin) plus slack. A pure performance knob — any
  /// capacity >= 1 yields the same course.
  int client_cache_capacity = 0;
  /// Run the end-of-course deployment evaluation over every client
  /// (RunResult::client_test_accuracy). On by default (paper Figure 12);
  /// turn off for cross-device-scale courses where the O(population)
  /// final sweep dominates. Honoured by both eager and virtualized runs.
  bool deploy_eval = true;
  /// Data source every client is built from (borrowed; must outlive the
  /// runner), eager or virtualized. Null: `data` is wrapped in an
  /// EagerDataProvider.
  const ClientDataProvider* provider = nullptr;
  uint64_t seed = 1234;
};

/// Result of FedRunner::Run (the server stats plus client-side outcomes).
struct RunResult {
  ServerStats server;
  /// Deployment-model test accuracy per client (personalized accuracy for
  /// personalized trainers) — the quantity of Figure 12.
  std::vector<double> client_test_accuracy;
  std::vector<double> client_test_loss;
  /// Final global model (checkpoint for HPO restore).
  Model final_model;
  /// Completeness report of the constructed course.
  CompletenessReport completeness;
};

/// Standalone-mode runner: instantiates the server and the clients (all
/// of them at construction unless virtualized), connects them through a
/// virtual-time event queue, and pumps messages
/// until the course terminates (paper §5.3.1's virtual-timestamp
/// simulation). The runner itself is the CommChannel: workers' Send calls
/// become queue pushes.
class FedRunner : public CommChannel {
 public:
  explicit FedRunner(FedJob job);

  /// Runs the FL course to completion and returns the collected results.
  RunResult Run();

  /// CommChannel: accepts a message into the virtual-time queue.
  void Send(const Message& msg) override;

  Server* server() { return server_.get(); }
  /// The client with id `id` (1-based), read through the client cache. An
  /// eager course's clients are all live, so the pointer stays valid for
  /// the runner's lifetime. Virtualized: instantiates the client if
  /// needed; the pointer stays valid until the next delivery to a
  /// different client (which may reclaim it).
  Client* client(int id);
  /// Population size (the live client count too, unless virtualized).
  int num_clients() const { return population_; }
  /// The cache holding every client (never null). Its capacity is the
  /// population unless the course is virtualized.
  const ClientCache* client_cache() const { return cache_.get(); }
  /// Edge aggregator of `shard` × `slot` (hierarchical topologies only;
  /// null when the incarnation does not exist).
  EdgeAggregator* aggregator(int shard, int slot);
  const std::vector<std::unique_ptr<EdgeAggregator>>& aggregators() const {
    return aggregators_;
  }
  /// Aggregator incarnations killed by FaultPlan::aggregator_crashes.
  int64_t aggregators_killed() const { return aggregators_killed_; }
  /// The instantiated fault model (disabled when FedJob::fault is null).
  const FaultPlan& fault_plan() const { return fault_plan_; }
  /// Deliveries suppressed by FedJob::suppress_duplicates (0 when off).
  int64_t duplicates_suppressed() const { return dedup_.suppressed(); }
  /// Server kill+restore drills performed (fault.server_crash_at_event).
  int64_t recoveries() const { return recoveries_; }
  /// Durable snapshots written under FedJob::snapshot.
  const SnapshotWriter& snapshot_writer() const { return snapshot_writer_; }

 private:
  /// Observes worker-side sends (pre-fault) and forwards to `inner`.
  /// Defined here so FedRunner can hold it without a custom destructor.
  class TapChannel : public CommChannel {
   public:
    TapChannel(CommChannel* inner, const std::function<void(const Message&)>* tap)
        : inner_(inner), tap_(tap) {}
    void Send(const Message& msg) override {
      (*tap_)(msg);
      inner_->Send(msg);
    }

   private:
    CommChannel* inner_;
    const std::function<void(const Message&)>* tap_;
  };

  void BuildWorkers();
  /// Client `id`'s fleet entry (the default profile for an empty fleet).
  DeviceProfile FleetDevice(int id) const;
  /// Client `id`'s effective options — base + fleet device + forked seed +
  /// customizer — derived identically on every (re-)instantiation.
  ClientOptions DeriveClientOptions(int id) const;
  /// The course-start join_in for the whole population: ids 1..population
  /// as one interval plus each id's responsiveness score.
  Message MakeBatchJoin() const;
  /// The cache's factory: builds client `id` from the provider's data,
  /// with its port on the threaded backend.
  ClientCache::Entry MakeCacheEntry(int id);
  /// Cache capacity: the population when eager; when virtualized,
  /// client_cache_capacity or the auto bound.
  int CacheCapacity() const;
  /// Delivers a pump-loop message to client msg.receiver (instantiating
  /// it first when it is not live).
  void DeliverToClient(const Message& msg);
  /// Expands a multicast into one delivery per receiver, ascending. For
  /// receivers that are not live, finish and assign_id short-circuit past
  /// instantiation as one ClientCache range operation.
  void DeliverMulticast(const Message& msg);
  /// Threaded backend: forms the maximal batch of equal-virtual-time
  /// client-targeted deliveries at the queue front, handles them on the
  /// worker pool with per-delivery capture (sends, metric ops, trace
  /// events), then commits every captured effect in canonical order — the
  /// serial pop order. Returns the number of queue entries consumed (0:
  /// fewer than two batchable deliveries; the caller takes one serial
  /// step). `delivered` advances exactly as the serial pump would.
  size_t RunParallelStage(int64_t* delivered);
  /// Constructs the server exactly as BuildWorkers does, wired to the same
  /// decorated channel — shared with the crash-restore path so a rebuilt
  /// server is indistinguishable from the original.
  std::unique_ptr<Server> MakeServer();
  /// The crash drill: exports a snapshot, serializes it through the wire
  /// codec (what a restarted process would read from disk), destroys the
  /// server, and restores a freshly built one from the bytes. Clients and
  /// the event queue survive — they are the other processes / the network.
  void CrashAndRestoreServer();
  /// Exports and durably writes a snapshot per FedJob::snapshot.
  void WriteSnapshot();
  /// Delivers `msg` to an edge aggregator, applying the fault plan's
  /// aggregator-crash schedule (a dead incarnation silently eats traffic,
  /// the standalone analogue of a mid-course TCP EOF).
  void DeliverToAggregator(const Message& msg);
  /// Writes `agg`'s durable checkpoint when its forwarded count advanced
  /// (per-shard "s<N>-"-prefixed files under FedJob::snapshot.directory).
  void MaybeSnapshotAggregator(EdgeAggregator* agg);
  /// Non-const: a virtualized course instantiates client 1 to read its
  /// handler registry.
  CompletenessReport CheckCompleteness();

  FedJob job_;
  /// Total participant count (descriptors in virtualized mode).
  int population_ = 0;
  /// Wraps job_.data when the job names no provider.
  std::unique_ptr<EagerDataProvider> owned_provider_;
  /// Every live client, with its port on the threaded backend.
  std::unique_ptr<ClientCache> cache_;
  EventQueue queue_;
  FaultPlan fault_plan_;
  std::unique_ptr<FaultInjectingChannel> fault_channel_;
  std::unique_ptr<TapChannel> tap_channel_;
  PairwiseDuplicateSuppressor dedup_;
  std::unique_ptr<Server> server_;
  /// All edge-aggregator incarnations (hierarchical topologies only),
  /// indexed through aggregator_index_ by worker id.
  std::vector<std::unique_ptr<EdgeAggregator>> aggregators_;
  std::map<int, size_t> aggregator_index_;
  std::set<int> dead_aggregators_;
  int64_t aggregators_killed_ = 0;
  /// Per-shard durable snapshot writers ("s<N>-" filename prefix so all
  /// shards and the root share FedJob::snapshot.directory safely).
  std::vector<SnapshotWriter> shard_writers_;
  std::vector<int64_t> shard_forwarded_;
  /// The channel handed to workers (outermost decorator); kept so a
  /// crash-restored server is wired identically to the original.
  CommChannel* worker_channel_ = nullptr;
  /// Threaded backend only: the pool that runs the batches and the
  /// default evaluator's row blocks. Absent under kSerial — wiring is
  /// byte-identical to before the backend existed.
  std::unique_ptr<WorkerPool> pool_;
  SnapshotWriter snapshot_writer_;
  int64_t recoveries_ = 0;
};

}  // namespace fedscope

#endif  // FEDSCOPE_CORE_FED_RUNNER_H_
