#ifndef FEDSCOPE_CORE_SERVER_H_
#define FEDSCOPE_CORE_SERVER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fedscope/core/aggregator.h"
#include "fedscope/core/checkpoint.h"
#include "fedscope/core/cohort_ledger.h"
#include "fedscope/core/id_set.h"
#include "fedscope/core/sampler.h"
#include "fedscope/core/topology.h"
#include "fedscope/core/trainer.h"
#include "fedscope/core/update_guard.h"
#include "fedscope/core/worker.h"
#include "fedscope/nn/model.h"
#include "fedscope/util/config.h"

namespace fedscope {

/// Which condition event triggers federated aggregation (paper §3.3):
///   kSyncVanilla    : "all_received"  — wait for every sampled client.
///   kSyncOverselect : "goal_achieved" with staleness toleration 0 and
///                     over-sampled cohorts (the over-selection mechanism).
///   kAsyncGoal      : "goal_achieved" — aggregate once `aggregation_goal`
///                     updates are buffered (FedBuff/SAFA family).
///   kAsyncTime      : "time_up"       — aggregate when the round's virtual
///                     time budget expires.
enum class Strategy { kSyncVanilla, kSyncOverselect, kAsyncGoal, kAsyncTime };

/// When the server sends out models (§3.3.1-iii): in one batch right after
/// aggregating, or one-at-a-time as each update arrives (keeping the
/// training concurrency constant).
enum class BroadcastManner { kAfterAggregating, kAfterReceiving };

struct ServerOptions {
  Strategy strategy = Strategy::kSyncVanilla;
  BroadcastManner broadcast = BroadcastManner::kAfterAggregating;
  /// "uniform" | "responsiveness" | "group".
  std::string sampler = "uniform";
  int num_groups = 5;
  /// Number of clients training concurrently.
  int concurrency = 10;
  /// Extra fraction sampled by the over-selection mechanism.
  double overselect_frac = 0.3;
  /// Updates needed to trigger "goal_achieved".
  int aggregation_goal = 5;
  /// Updates staler than this are dropped from aggregation.
  int staleness_tolerance = 10;
  /// Virtual-seconds budget per round for the kAsyncTime strategy.
  double time_budget = 60.0;
  /// Minimum buffered updates for a time_up aggregation to proceed;
  /// otherwise the server takes remedial measures (extends the round).
  int min_received = 1;
  /// Per-round receive deadline (virtual seconds) for the synchronous
  /// strategies: on expiry the server aggregates the partial cohort when
  /// >= min_received updates are buffered, otherwise it presumes the
  /// outstanding clients dead and samples replacements. 0 disables the
  /// deadline (the paper-faithful blocking behaviour). Needs the
  /// simulator's timer service, so standalone-only like kAsyncTime.
  double receive_deadline = 0.0;
  /// Starved timer expiries (deadline or time budget) a round may take
  /// before the server ends it: it aggregates whatever is buffered, and
  /// aborts the course when that does not end the round (DESIGN.md §7).
  int max_round_extensions = 25;
  int max_rounds = 50;
  /// Stop once global test accuracy reaches this (0 disables).
  double target_accuracy = 0.0;
  /// Evaluate the global model every N rounds.
  int eval_interval = 1;
  /// Terminate after this many evaluations without improvement (0 = off).
  int early_stop_patience = 0;
  /// Number of joined clients to wait for before starting (a batch join
  /// counts each of its ids).
  int expected_clients = 0;
  /// Request a final local evaluation from every client at course end
  /// (exercises the evaluate/metrics message flow; results land in
  /// ServerStats::client_metrics).
  bool collect_client_metrics = false;
  /// The shared part of the model (must match the clients' share filter).
  NameFilter share_filter;
  /// Aggregation topology (DESIGN.md §11). Flat by default; with shards,
  /// the server broadcasts one grouped model_para per shard to the shard's
  /// active edge aggregator and aggregates partial_update messages instead
  /// of per-client model_update ones.
  Topology topology;
  /// Ingress update validation (DESIGN.md §14). Disabled by default:
  /// guard-off courses are byte-identical to the pre-guard behaviour.
  UpdateGuardOptions guard;
  uint64_t seed = 0;

  ServerOptions() : share_filter(AcceptAll()) {}
};

/// Everything the benches read out of a finished FL course.
struct ServerStats {
  /// (virtual seconds, global test accuracy) after each evaluation.
  std::vector<std::pair<double, double>> curve;
  /// Effective aggregation count per client id (1-based; index 0 unused) —
  /// the quantity of Figure 10.
  std::vector<int64_t> agg_count;
  /// Staleness of every update that contributed to an aggregation —
  /// the distribution of Figure 11.
  std::vector<int> staleness_log;
  int64_t dropped_stale = 0;
  /// Training requests declined by clients (e.g. low_bandwidth behaviour).
  int64_t declined = 0;
  /// Clients presumed dead: starved timer expiries in standalone mode,
  /// mid-course connection failures in distributed mode.
  int64_t dropouts = 0;
  /// Clients drawn to refill cohort slots that ended without an update
  /// (declined, rejected, failed or presumed dead).
  int64_t replacements = 0;
  /// Starved timer expiries: receive deadlines or time budgets that found
  /// fewer than min_received updates (the remedial measures of §3.3.2).
  int64_t round_extensions = 0;
  /// A round stayed starved past max_round_extensions and could not be
  /// ended by aggregation, so the course was given up.
  bool aborted = false;
  /// Client-reported test accuracy from the final metrics round
  /// (client id -> accuracy); filled when collect_client_metrics is on.
  std::map<int, double> client_metrics;
  /// Shard failovers acknowledged (standby_promoted messages accepted).
  int64_t shard_failovers = 0;
  /// Partial updates rejected for carrying a superseded shard epoch
  /// (messages from a dead aggregator incarnation).
  int64_t stale_partials = 0;
  /// Updates rejected by the ingress guard (DESIGN.md §14), including
  /// edge-aggregator rejections reported through partials.
  int64_t updates_rejected = 0;
  /// Over-norm updates scaled down to the L2 bound (guard clip mode).
  int64_t updates_clipped = 0;
  /// Clients exiled from the sampling pool after reaching the guard's
  /// violation bar, in quarantine order.
  std::vector<int> quarantined;
  int rounds = 0;
  bool reached_target = false;
  /// Virtual seconds to reach target accuracy (-1 if never).
  double time_to_target = -1.0;
  double best_accuracy = 0.0;
  double final_accuracy = 0.0;
  double finish_time = 0.0;
};

/// The FL server: coordinates the course with the condition events of §3.3,
/// delegates aggregation to an Aggregator and client selection to a
/// Sampler (both swappable), and never blocks on slow clients unless the
/// synchronous strategy demands it.
class Server : public BaseWorker {
 public:
  /// Evaluates a model on the server's held-out data (installed by the
  /// runner; what the paper logs as global accuracy).
  using Evaluator = std::function<EvalResult(Model*)>;
  /// Manager plug-in hook: per-client, per-round configuration sampling
  /// (FedEx). The returned config's hpo.* keys ride along the broadcast.
  using ConfigProvider = std::function<Config(int client_id, int round)>;
  /// Manager plug-in hook: consumes client feedback from update messages.
  using FeedbackConsumer =
      std::function<void(int client_id, int round, const Payload& payload)>;

  Server(ServerOptions options, Model global_model,
         std::unique_ptr<Aggregator> aggregator, CommChannel* channel);

  void set_evaluator(Evaluator evaluator) {
    evaluator_ = std::move(evaluator);
  }
  void set_config_provider(ConfigProvider provider) {
    config_provider_ = std::move(provider);
  }
  void set_feedback_consumer(FeedbackConsumer consumer) {
    feedback_consumer_ = std::move(consumer);
  }

  /// Captures the complete course state into `checkpoint` (DESIGN.md §10):
  /// model, rng stream position, sampler cursor, aggregator accumulators,
  /// membership, the pending cohort with its buffered deltas, stats, and
  /// the pending obs accumulators. Together with a surviving transport
  /// this is sufficient for a bit-identical resume.
  void ExportSnapshot(Checkpoint* checkpoint);
  /// Restores a snapshot captured by ExportSnapshot onto a freshly
  /// constructed Server whose options match the snapshotted course
  /// (strategy and seed are cross-checked). Function hooks — evaluator,
  /// config provider, feedback consumer, obs — are process-local, not part
  /// of the snapshot, and must be reinstalled by the caller.
  Status RestoreSnapshot(const Checkpoint& checkpoint);

  Model* global_model() { return &global_model_; }
  Aggregator* aggregator() { return aggregator_.get(); }
  const ServerOptions& options() const { return options_; }
  const ServerStats& stats() const { return stats_; }
  bool finished() const { return finished_; }
  /// Null unless options().guard.enabled.
  const UpdateGuard* guard() const { return guard_.get(); }
  int round() const { return round_; }
  int joined_clients() const { return static_cast<int>(members_.size()); }
  const std::vector<ClientUpdate>& buffer() const { return buffer_; }

 private:
  void RegisterDefaultHandlers();
  /// Registers a batch join (or a single one, its one-element case) and
  /// acks it with one assign_id multicast; after course start it is a
  /// re-join (DESIGN.md §10).
  void OnJoinIn(const Message& msg);
  void OnModelUpdate(const Message& msg);
  void OnTimer(const Message& msg);
  void OnMetrics(const Message& msg);
  void OnClientFailure(const Message& msg);
  /// Hierarchical topologies: one weighted pre-aggregated update from an
  /// edge aggregator, covering (part of) its shard's cohort.
  void OnPartialUpdate(const Message& msg);
  /// Exiles a client (leaves members_): it is out of the sampling pool for
  /// the rest of the course.
  void QuarantineClient(int id);
  /// Hierarchical topologies: a standby took over a shard. Bumps the
  /// shard's epoch, reroutes to the new aggregator, and re-broadcasts the
  /// shard's in-flight cohort through it.
  void OnStandbyPromoted(const Message& msg);
  /// The one slot repair (DESIGN.md §7): ends the in-flight slots among
  /// `ids` with `outcome`, refills each from idle members, lowers the
  /// awaited count by the slots it could not refill, then evaluates the
  /// round's trigger once.
  void RepairSlots(SlotOutcome outcome, const std::vector<int>& ids,
                   const Message& msg);
  /// Raises the strategy's aggregation event when its condition holds.
  void CheckTrigger(const Message& msg);
  /// Updates in the buffer: one per flat update, one per contributor of a
  /// hierarchical partial.
  int BufferedUpdates() const;

  /// Handler bodies for the condition events. `trigger` names the
  /// condition event that fired (all_received / goal_achieved / time_up);
  /// it feeds the course log and aggregation metrics.
  void StartTraining(const Message& context);
  void PerformAggregation(const std::string& trigger, const Message& context);
  void FinishCourse(const Message& context);
  /// Flushes the pending-round observability accumulators into the course
  /// log / metrics / tracer after an aggregation (obs-attached runs only).
  /// `usable_contribs` carries per-update contributor ids in hierarchical
  /// mode (parallel to `usable`; empty in flat mode).
  void RecordRound(const std::string& trigger, const Message& context,
                   const std::vector<ClientUpdate>& usable,
                   const std::vector<std::vector<int>>& usable_contribs,
                   bool evaluated);

  /// Sends the current global model to the given clients at round round_,
  /// opening their cohort slots (a client in flight keeps its slot).
  /// Hierarchical topologies group the cohort by shard and send one
  /// model_para per shard to its active edge aggregator instead.
  void BroadcastModel(const std::vector<int>& client_ids, double timestamp);
  /// Worker id of the aggregator currently serving `shard`.
  int ActiveAggregatorId(int shard) const {
    return AggregatorId(shard, shard_active_slot_[shard]);
  }
  /// Samples up to `k` idle clients: members minus the in-flight ones.
  std::vector<int> SampleIdle(int k);
  /// Brings the number of in-flight clients back up to the configured
  /// concurrency (+ over-selection margin for kSyncOverselect).
  void Replenish(double timestamp);
  /// Schedules a "timer" message to self at now + time_budget (kAsyncTime)
  /// or now + receive_deadline (sync strategies with a deadline); a no-op
  /// for courses without a timer.
  void ScheduleTimer(double now);
  /// True when the course runs on a timer (time_up or a receive deadline).
  bool timed() const {
    return options_.strategy == Strategy::kAsyncTime || deadline_active();
  }
  /// True when the sync receive deadline is configured and applies.
  bool deadline_active() const {
    return options_.receive_deadline > 0.0 &&
           (options_.strategy == Strategy::kSyncVanilla ||
            options_.strategy == Strategy::kSyncOverselect);
  }
  /// Evaluates the global model, updates the curve, and checks the
  /// termination conditions. Returns true if the course terminated.
  bool EvaluateAndCheckStop(const Message& context);

  ServerOptions options_;
  Model global_model_;
  std::unique_ptr<Aggregator> aggregator_;
  /// Constructed only when options_.guard.enabled (zero cost otherwise).
  std::unique_ptr<UpdateGuard> guard_;
  std::unique_ptr<Sampler> sampler_;
  Rng rng_;

  Evaluator evaluator_;
  ConfigProvider config_provider_;
  FeedbackConsumer feedback_consumer_;

  /// Course membership: joined client ids minus those removed since
  /// (failures, quarantine), as id intervals — one interval for a dense
  /// population of any size (DESIGN.md §13).
  IdSet members_;
  /// Every cohort slot: in flight, awaited, and how the round is starving.
  CohortLedger ledger_;
  std::vector<double> resp_scores_;  // by client id - 1
  std::vector<ClientUpdate> buffer_;
  /// Hierarchical: client ids covered by the buffered partial at the same
  /// index (per-client attribution of stats; empty vectors in flat mode).
  std::vector<std::vector<int>> buffer_contributors_;
  /// Hierarchical: per-shard session epoch (bumped on failover) and the
  /// slot of the shard's currently active aggregator.
  std::vector<int64_t> shard_epochs_;
  std::vector<int> shard_active_slot_;
  int round_ = 0;
  bool started_ = false;
  bool finished_ = false;
  int evals_since_best_ = 0;
  double last_eval_loss_ = 0.0;
  ServerStats stats_;

  // Pending-round observability accumulators: traffic and drop counts
  // since the previous aggregation. Maintained only when obs() is attached
  // (zero cost on the default path); flushed by RecordRound.
  double last_agg_time_ = 0.0;
  int64_t pending_uplink_bytes_ = 0;
  int64_t pending_downlink_bytes_ = 0;
  int pending_broadcasts_ = 0;
  int64_t pending_dropped_ = 0;
  int64_t pending_declined_ = 0;
  int64_t pending_dropouts_ = 0;
  int64_t pending_replacements_ = 0;
  int64_t pending_partials_ = 0;
  int64_t pending_failovers_ = 0;
  int64_t pending_rejected_ = 0;
  int64_t pending_quarantined_ = 0;
};

}  // namespace fedscope

#endif  // FEDSCOPE_CORE_SERVER_H_
