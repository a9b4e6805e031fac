#include "fedscope/core/server.h"

#include <algorithm>

#include "fedscope/comm/compression.h"
#include "fedscope/core/events.h"
#include "fedscope/obs/obs_context.h"
#include "fedscope/util/logging.h"

namespace fedscope {
namespace {

constexpr char kModelKey[] = "model";
constexpr char kDeltaKey[] = "delta";

}  // namespace

Server::Server(ServerOptions options, Model global_model,
               std::unique_ptr<Aggregator> aggregator, CommChannel* channel)
    : BaseWorker(kServerId, channel),
      options_(std::move(options)),
      global_model_(std::move(global_model)),
      aggregator_(std::move(aggregator)),
      rng_(options_.seed != 0 ? options_.seed : 0x5E17E5) {
  FS_CHECK(aggregator_ != nullptr);
  if (options_.guard.enabled) {
    guard_ = std::make_unique<UpdateGuard>(options_.guard);
  }
  FS_CHECK_GT(options_.concurrency, 0);
  if (options_.topology.hierarchical()) {
    FS_CHECK_OK(ValidateTopology(options_.topology));
    // Partial updates cover whole cohort slices at once, which only the
    // blocking synchronous trigger can account for; the async strategies,
    // receive deadlines, and per-update rebroadcasts reason about
    // individual client updates the root no longer sees.
    FS_CHECK(options_.strategy == Strategy::kSyncVanilla)
        << "hierarchical topologies require the sync_vanilla strategy";
    FS_CHECK(options_.broadcast == BroadcastManner::kAfterAggregating)
        << "hierarchical topologies require after-aggregating broadcasts";
    FS_CHECK_LE(options_.receive_deadline, 0.0)
        << "hierarchical topologies do not support receive deadlines";
    FS_CHECK_GT(options_.expected_clients, 0)
        << "hierarchical topologies need expected_clients to assign shards";
    shard_epochs_.assign(options_.topology.num_shards, 0);
    shard_active_slot_.assign(options_.topology.num_shards, 0);
  }
  RegisterDefaultHandlers();
}

void Server::RegisterDefaultHandlers() {
  registry_.Register(
      events::kJoinIn, [this](const Message& msg) { OnJoinIn(msg); },
      /*emits=*/{events::kAssignId});
  registry_.Register(
      events::kModelUpdate,
      [this](const Message& msg) { OnModelUpdate(msg); },
      /*emits=*/{events::kModelPara});
  registry_.Register(events::kTimer,
                     [this](const Message& msg) { OnTimer(msg); });
  registry_.Register(events::kMetrics,
                     [this](const Message& msg) { OnMetrics(msg); });
  registry_.Register(
      events::kClientFailure,
      [this](const Message& msg) { OnClientFailure(msg); },
      /*emits=*/{events::kModelPara});
  if (options_.topology.hierarchical()) {
    registry_.Register(
        events::kPartialUpdate,
        [this](const Message& msg) { OnPartialUpdate(msg); },
        /*emits=*/{events::kModelPara});
    registry_.Register(
        events::kStandbyPromoted,
        [this](const Message& msg) { OnStandbyPromoted(msg); },
        /*emits=*/{events::kModelPara});
  }

  // Condition events of §3.3: which one fires is decided by the checks in
  // OnModelUpdate / OnTimer; what it does is a swappable handler.
  registry_.Register(
      events::kAllJoinedIn,
      [this](const Message& msg) { StartTraining(msg); },
      /*emits=*/{events::kModelPara});
  registry_.Register(
      events::kAllReceived,
      [this](const Message& msg) {
        PerformAggregation(events::kAllReceived, msg);
      },
      /*emits=*/{events::kModelPara});
  registry_.Register(
      events::kGoalAchieved,
      [this](const Message& msg) {
        PerformAggregation(events::kGoalAchieved, msg);
      },
      /*emits=*/{events::kModelPara});
  registry_.Register(
      events::kTimeUp,
      [this](const Message& msg) { PerformAggregation(events::kTimeUp, msg); },
      /*emits=*/{events::kModelPara});
  registry_.Register(
      events::kReceiveDeadline,
      [this](const Message& msg) {
        PerformAggregation(events::kReceiveDeadline, msg);
      },
      /*emits=*/{events::kModelPara});
  std::vector<std::string> finish_emits = {events::kFinish};
  if (options_.collect_client_metrics) {
    finish_emits.push_back(events::kEvaluate);
  }
  registry_.Register(
      events::kTargetReached,
      [this](const Message& msg) { FinishCourse(msg); }, finish_emits);
  registry_.Register(
      events::kEarlyStop, [this](const Message& msg) { FinishCourse(msg); },
      finish_emits);
}

void Server::OnJoinIn(const Message& msg) {
  // A batch join lists its ids and their scores (kJoinIdsKey and
  // kJoinScoresKey, id order); a client's own join names only itself — the
  // batch of one.
  IdSet ids;
  std::vector<double> scores;
  if (msg.payload.HasScalar(kJoinIdsKey)) {
    auto batch = GetPackedIdSet(msg.payload, kJoinIdsKey);
    scores = GetPackedDoubles(msg.payload, kJoinScoresKey);
    if (!batch.ok() || batch->size() != static_cast<int64_t>(scores.size())) {
      FS_LOG(Warning) << "malformed batch join_in from " << msg.sender;
      return;
    }
    ids = std::move(batch.value());
  } else {
    ids.Insert(msg.sender);
    scores.push_back(msg.payload.GetDouble("resp_score", 1.0));
  }
  if (ids.empty()) return;
  if (ids.min() < 1) {
    FS_LOG(Warning) << "join_in for invalid client id " << ids.min();
    return;
  }

  if (started_) {
    // Re-join after a server restart (DESIGN.md §10): members are re-acked
    // so their transport adopts the new session epoch, and members the
    // snapshot has mid-training restart their round — any update produced
    // since the snapshot died with the old process or is rejected as
    // stale-epoch.
    IdSet rejoined;
    std::vector<int> restart;
    ids.ForEach([&](int id) {
      if (!members_.Contains(id)) {
        FS_LOG(Warning) << "client " << id << " joined after start";
        return;
      }
      FS_LOG(Info) << "client " << id << " re-joined at round " << round_;
      rejoined.Insert(id);
      if (busy_.erase(id) > 0) restart.push_back(id);
    });
    if (rejoined.empty()) return;
    Message ack;
    ack.msg_type = events::kAssignId;
    ack.timestamp = msg.timestamp;
    SetReceivers(&ack, rejoined);
    Send(std::move(ack));
    if (!restart.empty()) BroadcastModel(restart, msg.timestamp);
    return;
  }

  if (ids.max() > static_cast<int>(resp_scores_.size())) {
    resp_scores_.resize(ids.max(), 1.0);
  }
  auto score = scores.begin();
  for (const IdSet::Interval& in : ids.intervals()) {
    const int64_t len = static_cast<int64_t>(in.hi) - in.lo + 1;
    std::copy(score, score + len, resp_scores_.begin() + (in.lo - 1));
    score += len;
  }
  members_.InsertAll(ids);

  Message ack;
  ack.msg_type = events::kAssignId;
  ack.timestamp = msg.timestamp;
  SetReceivers(&ack, ids);
  Send(std::move(ack));

  if (options_.expected_clients > 0 &&
      members_.size() >= options_.expected_clients) {
    RaiseEvent(events::kAllJoinedIn, msg);
  }
}

void Server::StartTraining(const Message& context) {
  if (started_) return;
  started_ = true;
  sampler_ = MakeSampler(options_.sampler, resp_scores_, options_.num_groups);
  stats_.agg_count.assign(resp_scores_.size() + 1, 0);

  FS_LOG(Info) << "FL course started with " << members_.size()
               << " clients; strategy handlers: "
               << registry_.RegisteredEvents().size();
  Replenish(context.timestamp);
  if (options_.strategy == Strategy::kAsyncTime || deadline_active()) {
    ScheduleTimer(context.timestamp);
  }
}

std::vector<int> Server::SampleIdle(int k) {
  // The idle set is [1, largest member] minus the membership gaps and the
  // busy ids, so the sampler draws without enumerating the population
  // (DESIGN.md §13).
  IdSet idle = members_;
  for (const auto& [id, round] : busy_) idle.Erase(id);
  const int population = members_.empty() ? 0 : members_.max();
  return sampler_->SampleIds(
      CandidateView(population, idle.Complement(1, population).ToVector()),
      k, &rng_);
}

void Server::BroadcastModel(const std::vector<int>& client_ids,
                            double timestamp) {
  if (options_.topology.hierarchical()) {
    BroadcastModelSharded(client_ids, timestamp);
    return;
  }
  const StateDict shared = global_model_.GetStateDict(options_.share_filter);
  for (int id : client_ids) {
    Message msg;
    msg.receiver = id;
    msg.msg_type = events::kModelPara;
    msg.state = round_;
    msg.timestamp = timestamp;
    msg.payload.SetStateDict(kModelKey, shared);
    if (config_provider_) {
      Config config = config_provider_(id, round_);
      for (const auto& key : config.Keys()) {
        msg.payload.SetDouble(key, config.GetDouble(key, 0.0));
      }
      msg.payload.SetInt("hpo.want_feedback", 1);
    }
    busy_[id] = round_;
    if (obs_ != nullptr && obs_->enabled()) {
      pending_downlink_bytes_ += msg.payload.ByteSize();
      ++pending_broadcasts_;
    }
    Send(std::move(msg));
  }
}

void Server::BroadcastModelSharded(const std::vector<int>& client_ids,
                                   double timestamp) {
  if (client_ids.empty()) return;
  FS_CHECK(config_provider_ == nullptr)
      << "hierarchical topologies do not support per-client HPO configs";
  std::map<int, std::vector<int64_t>> by_shard;
  for (int id : client_ids) {
    by_shard[ShardOfClient(options_.topology, id, options_.expected_clients)]
        .push_back(id);
    busy_[id] = round_;
  }
  const StateDict shared = global_model_.GetStateDict(options_.share_filter);
  const bool record_obs = obs_ != nullptr && obs_->enabled();
  for (auto& [shard, cohort] : by_shard) {
    Message msg;
    msg.receiver = ActiveAggregatorId(shard);
    msg.msg_type = events::kModelPara;
    msg.state = round_;
    msg.timestamp = timestamp;
    msg.payload.SetStateDict(kModelKey, shared);
    SetPackedInt64s(&msg.payload, "cohort", cohort);
    msg.payload.SetInt("shard_epoch", shard_epochs_[shard]);
    if (record_obs) {
      pending_downlink_bytes_ += msg.payload.ByteSize();
      pending_broadcasts_ += static_cast<int>(cohort.size());
    }
    Send(std::move(msg));
  }
}

void Server::OnPartialUpdate(const Message& msg) {
  if (finished_ || !started_) return;
  const int shard = static_cast<int>(msg.payload.GetInt("shard", -1));
  if (shard < 0 || shard >= options_.topology.num_shards) {
    FS_LOG(Warning) << "partial_update with unknown shard " << shard
                    << " from " << msg.sender;
    return;
  }
  const bool record_obs = obs_ != nullptr && obs_->enabled();
  const int64_t epoch = msg.payload.GetInt("shard_epoch", 0);
  if (epoch != shard_epochs_[shard]) {
    // A superseded incarnation of the shard's aggregator: its cohort was
    // re-broadcast through the promoted standby, so accepting this would
    // double-count those clients.
    ++stats_.stale_partials;
    if (record_obs) obs_->Count("fs_server_stale_partials_total");
    FS_LOG(Info) << "rejecting shard " << shard << " partial at epoch "
                 << epoch << " (current " << shard_epochs_[shard] << ")";
    return;
  }
  if (record_obs) {
    pending_uplink_bytes_ += msg.payload.ByteSize();
    ++pending_partials_;
    obs_->Count("fs_server_partial_updates_total");
  }
  std::vector<int> contributors;
  for (int64_t id : GetPackedInt64s(msg.payload, "contributors")) {
    contributors.push_back(static_cast<int>(id));
    busy_.erase(static_cast<int>(id));
  }
  const std::vector<int64_t> declined =
      GetPackedInt64s(msg.payload, "declined_ids");
  for (int64_t id : declined) {
    busy_.erase(static_cast<int>(id));
    ++stats_.declined;
    if (record_obs) {
      ++pending_declined_;
      obs_->Count("fs_server_declined_total");
    }
  }
  // Members whose updates the edge aggregator's guard rejected: they
  // covered their cohort slot (the shard saw their reply) but contributed
  // nothing; the root books the violation so quarantine is course-global.
  const std::vector<int64_t> rejected =
      GetPackedInt64s(msg.payload, "rejected_ids");
  for (int64_t id64 : rejected) {
    const int id = static_cast<int>(id64);
    busy_.erase(id);
    ++stats_.updates_rejected;
    if (record_obs) {
      ++pending_rejected_;
      obs_->Count("fs_server_updates_rejected_total", 1.0,
                  {{"reason", "edge"}});
    }
    if (guard_ != nullptr && guard_->RecordViolation(id)) {
      QuarantineClient(id);
    }
  }
  covered_this_round_ += static_cast<int>(contributors.size() +
                                          declined.size() + rejected.size());

  if (!contributors.empty()) {
    const int staleness = round_ - msg.state;
    if (staleness > options_.staleness_tolerance) {
      stats_.dropped_stale += static_cast<int64_t>(contributors.size());
      if (record_obs) {
        pending_dropped_ += static_cast<int64_t>(contributors.size());
        obs_->Count("fs_server_dropped_stale_total",
                    static_cast<double>(contributors.size()));
      }
    } else {
      ClientUpdate update;
      update.client_id = msg.sender;
      update.round_started = msg.state;
      update.staleness = staleness;
      update.num_samples = msg.payload.GetDouble("total_weight", 1.0);
      update.local_steps =
          static_cast<int>(msg.payload.GetInt("local_steps", 1));
      update.delta = msg.payload.GetStateDict(kDeltaKey);
      bool usable = true;
      if (guard_ != nullptr) {
        // A hostile shard (or an in-flight corruption of the partial) must
        // not poison the root. The sender is an aggregator, so violations
        // are not tracked against it — its members were booked at the edge.
        const StateDict signature =
            global_model_.GetStateDict(options_.share_filter);
        const GuardDecision decision = guard_->Inspect(
            msg.sender, signature, &update.delta, /*track_violations=*/false);
        if (decision.verdict == GuardVerdict::kClip) {
          ++stats_.updates_clipped;
          if (record_obs) obs_->Count("fs_server_updates_clipped_total");
        }
        if (decision.rejected()) {
          usable = false;
          ++stats_.updates_rejected;
          if (record_obs) {
            ++pending_rejected_;
            obs_->Count("fs_server_updates_rejected_total", 1.0,
                        {{"reason", GuardReasonLabel(decision.verdict)}});
          }
          FS_LOG(Warning) << "rejecting partial from aggregator "
                          << msg.sender << " ("
                          << GuardReasonLabel(decision.verdict)
                          << "): " << decision.detail;
        }
      }
      if (usable) {
        buffer_.push_back(std::move(update));
        buffer_contributors_.push_back(std::move(contributors));
      }
    }
  }

  if (covered_this_round_ >= sampled_this_round_) {
    RaiseEvent(events::kAllReceived, msg);
  }
}

void Server::OnStandbyPromoted(const Message& msg) {
  if (finished_) return;
  const int shard = static_cast<int>(msg.payload.GetInt("shard", -1));
  if (shard < 0 || shard >= options_.topology.num_shards) {
    FS_LOG(Warning) << "standby_promoted for unknown shard " << shard;
    return;
  }
  const int64_t claimed = msg.payload.GetInt("shard_epoch", 0);
  shard_epochs_[shard] = std::max(shard_epochs_[shard] + 1, claimed);
  shard_active_slot_[shard] = AggregatorSlot(msg.sender);
  ++stats_.shard_failovers;
  if (obs_ != nullptr && obs_->enabled()) {
    ++pending_failovers_;
    obs_->Count("fs_server_shard_failovers_total");
  }
  FS_LOG(Warning) << "shard " << shard << " failed over to aggregator "
                  << msg.sender << " (epoch " << shard_epochs_[shard] << ")";
  if (!started_) return;
  // Whatever the dead incarnation buffered or had in flight is lost:
  // re-broadcast the shard's in-flight cohort through the new aggregator
  // (stale-epoch rejection keeps any late survivor output out).
  std::vector<int> inflight;
  for (const auto& [id, round] : busy_) {
    if (ShardOfClient(options_.topology, id, options_.expected_clients) ==
        shard) {
      inflight.push_back(id);
    }
  }
  if (!inflight.empty()) BroadcastModelSharded(inflight, msg.timestamp);
}

void Server::Replenish(double timestamp) {
  int want = options_.concurrency;
  if (options_.strategy == Strategy::kSyncOverselect) {
    want = static_cast<int>(options_.concurrency *
                            (1.0 + options_.overselect_frac));
  }
  // Only workers whose eventual update can still be tolerated count
  // against the concurrency target; workers stuck on rounds older than
  // the staleness toleration will be dropped anyway (with toleration 0
  // this is exactly the fresh-cohort rule of over-selection).
  int in_flight = 0;
  for (const auto& [id, round] : busy_) {
    if (round_ - round <= options_.staleness_tolerance) ++in_flight;
  }
  const int missing = want - in_flight;
  if (missing <= 0) return;
  auto cohort = SampleIdle(missing);
  sampled_this_round_ = in_flight + static_cast<int>(cohort.size());
  BroadcastModel(cohort, timestamp);
}

void Server::ScheduleTimer(double now) {
  const double delay = options_.strategy == Strategy::kAsyncTime
                           ? options_.time_budget
                           : options_.receive_deadline;
  Message timer;
  timer.receiver = id_;
  timer.msg_type = events::kTimer;
  timer.state = round_;
  timer.timestamp = now + delay;
  Send(std::move(timer));
}

void Server::OnModelUpdate(const Message& msg) {
  if (finished_ || !started_) return;
  busy_.erase(msg.sender);
  const bool record_obs = obs_ != nullptr && obs_->enabled();
  if (record_obs) pending_uplink_bytes_ += msg.payload.ByteSize();

  if (msg.payload.GetInt("declined", 0) != 0) {
    // The client declined this round (low_bandwidth behaviour): free the
    // slot, shrink the cohort the synchronous trigger waits for, and keep
    // the concurrency up under after-receiving broadcasts.
    ++stats_.declined;
    if (record_obs) {
      ++pending_declined_;
      obs_->Count("fs_server_declined_total");
    }
    if (sampled_this_round_ > 0) --sampled_this_round_;
    switch (options_.strategy) {
      case Strategy::kSyncVanilla:
        if (static_cast<int>(buffer_.size()) >= sampled_this_round_) {
          RaiseEvent(events::kAllReceived, msg);
        }
        break;
      default:
        break;
    }
    if (!finished_ &&
        options_.broadcast == BroadcastManner::kAfterReceiving) {
      BroadcastModel(SampleIdle(1), msg.timestamp);
    }
    return;
  }

  const int staleness = round_ - msg.state;
  if (guard_ == nullptr && staleness > options_.staleness_tolerance) {
    // Outdated beyond toleration: dropped entirely (§3.3.1-i).
    ++stats_.dropped_stale;
    if (record_obs) {
      ++pending_dropped_;
      obs_->Count("fs_server_dropped_stale_total");
    }
  } else {
    ClientUpdate update;
    update.client_id = msg.sender;
    update.round_started = msg.state;
    update.staleness = staleness;
    update.num_samples =
        static_cast<double>(msg.payload.GetInt("num_samples", 1));
    update.local_steps =
        static_cast<int>(msg.payload.GetInt("local_steps", 1));
    // Transparent decompression of operator-transformed updates.
    const std::string codec = msg.payload.GetString("codec");
    if (codec == "quant8") {
      auto decoded = DequantizeStateDict(msg.payload);
      if (!decoded.ok()) {
        FS_LOG(Warning) << "dropping undecodable quant8 update from "
                        << msg.sender << ": "
                        << decoded.status().ToString();
        return;
      }
      update.delta = std::move(decoded.value());
    } else if (codec == "topk") {
      auto decoded = DesparsifyStateDict(msg.payload);
      if (!decoded.ok()) {
        FS_LOG(Warning) << "dropping undecodable topk update from "
                        << msg.sender << ": "
                        << decoded.status().ToString();
        return;
      }
      update.delta = std::move(decoded.value());
    } else {
      update.delta = msg.payload.GetStateDict(kDeltaKey);
    }
    if (guard_ != nullptr) {
      // Ingress validation precedes the staleness drop: malformed input is
      // malformed whatever round it claims, which also keeps the
      // delivered-poison accounting exact (fuzz oracle 14).
      const StateDict signature =
          global_model_.GetStateDict(options_.share_filter);
      const GuardDecision decision =
          guard_->Inspect(msg.sender, signature, &update.delta);
      if (decision.verdict == GuardVerdict::kClip) {
        ++stats_.updates_clipped;
        if (record_obs) obs_->Count("fs_server_updates_clipped_total");
      }
      if (decision.rejected()) {
        HandleRejectedUpdate(msg, decision);
        return;
      }
    }
    if (guard_ != nullptr && staleness > options_.staleness_tolerance) {
      // Guard-accepted but outdated beyond toleration: dropped exactly as
      // on the guard-off path (falls through to the trigger checks).
      ++stats_.dropped_stale;
      if (record_obs) {
        ++pending_dropped_;
        obs_->Count("fs_server_dropped_stale_total");
      }
    } else {
      buffer_.push_back(std::move(update));
    }
  }

  if (feedback_consumer_) {
    feedback_consumer_(msg.sender, msg.state, msg.payload);
  }

  // Condition checking (§3.2): has the aggregation trigger fired?
  switch (options_.strategy) {
    case Strategy::kSyncVanilla:
      if (static_cast<int>(buffer_.size()) >= sampled_this_round_) {
        RaiseEvent(events::kAllReceived, msg);
      }
      break;
    case Strategy::kSyncOverselect:
      if (static_cast<int>(buffer_.size()) >= options_.concurrency) {
        RaiseEvent(events::kGoalAchieved, msg);
      }
      break;
    case Strategy::kAsyncGoal:
      if (static_cast<int>(buffer_.size()) >= options_.aggregation_goal) {
        RaiseEvent(events::kGoalAchieved, msg);
      }
      break;
    case Strategy::kAsyncTime:
      break;  // aggregation is driven by the timer
  }

  // After-receiving broadcast (§3.3.1-iii): hand the up-to-date model to
  // one idle client as soon as feedback arrives, keeping concurrency
  // constant (FedBuff-style).
  if (!finished_ && options_.broadcast == BroadcastManner::kAfterReceiving) {
    BroadcastModel(SampleIdle(1), msg.timestamp);
  }
}

void Server::OnTimer(const Message& msg) {
  if (finished_ || !started_) return;
  if (msg.state != round_) return;  // a timer from a completed round
  if (deadline_active()) {
    HandleReceiveDeadline(msg);
    return;
  }
  if (options_.strategy != Strategy::kAsyncTime) return;  // stray timer
  if (static_cast<int>(buffer_.size()) >= options_.min_received) {
    RaiseEvent(events::kTimeUp, msg);
  } else {
    // Remedial measures (§3.3.2): extend the round, pull in more clients.
    FS_LOG(Debug) << "round " << round_
                  << " time budget expired with too little feedback; "
                     "extending round";
    if (CountExtensionAndCheckBackstop(events::kTimeUp, msg)) return;
    Replenish(msg.timestamp);
    ScheduleTimer(msg.timestamp);
  }
}

bool Server::CountExtensionAndCheckBackstop(const std::string& aggregate_event,
                                            const Message& msg) {
  ++stats_.round_extensions;
  ++extensions_this_round_;
  if (obs_ != nullptr && obs_->enabled()) {
    obs_->Count("fs_server_round_extensions_total");
  }
  if (extensions_this_round_ <= options_.max_round_extensions) return false;
  // Liveness backstop: a round that stays starved through this many
  // extensions will never complete normally (e.g. the whole fleet is
  // dead). Aggregate whatever arrived, or give the course up.
  if (!buffer_.empty()) {
    FS_LOG(Warning) << "round " << round_ << " starved after "
                    << options_.max_round_extensions
                    << " extensions; aggregating " << buffer_.size()
                    << " updates below min_received";
    RaiseEvent(aggregate_event, msg);
    return true;
  }
  if (aggregate_event == events::kTimeUp && stats_.updates_rejected > 0 &&
      restaffs_this_round_ < kMaxStarvationRestaffs) {
    // The course has rejected feedback, so the fleet is (or was) provably
    // alive: the silence here is typically phantom in-flight slots — a
    // rejection's replacement handed to a dead client, which Replenish
    // then counts against concurrency forever. Presume the outstanding
    // cohort dead and let the caller restaff it instead of giving the
    // course up. A course that never rejected keeps the legacy abort
    // bit-exactly (the guard-transparency oracle depends on that), and
    // the per-round budget keeps a genuinely dead fleet terminating.
    ++restaffs_this_round_;
    std::vector<int> outstanding;
    outstanding.reserve(busy_.size());
    for (const auto& [id, round] : busy_) outstanding.push_back(id);
    for (int id : outstanding) busy_.erase(id);
    stats_.dropouts += static_cast<int64_t>(outstanding.size());
    if (obs_ != nullptr && obs_->enabled()) {
      pending_dropouts_ += static_cast<int64_t>(outstanding.size());
      obs_->Count("fs_server_dropouts_total",
                  static_cast<double>(outstanding.size()));
    }
    extensions_this_round_ = 0;
    FS_LOG(Warning) << "round " << round_ << " starved after "
                    << options_.max_round_extensions
                    << " extensions with rejected feedback on record; "
                    << "presuming " << outstanding.size()
                    << " in-flight clients dead and restaffing the cohort ("
                    << restaffs_this_round_ << "/" << kMaxStarvationRestaffs
                    << ")";
    return false;
  }
  FS_LOG(Warning) << "round " << round_ << " starved after "
                  << options_.max_round_extensions
                  << " extensions with no feedback at all; aborting course";
  stats_.aborted = true;
  FinishCourse(msg);
  return true;
}

void Server::RestartStarvationBackstop() {
  // A rejection is proof the fleet is alive, and the replacement broadcast
  // just put fresh work in flight — the backstop must time the wait for
  // *that* work, not charge it against the poisoned cohort's extensions
  // (a whole-cohort attack late in a round would otherwise abort the
  // course while honest replacements are still training). Bounded:
  // quarantine exiles each offender after `quarantine_after` rejections,
  // so the reset cannot recur forever. With quarantine disabled there is
  // no such bound, so the backstop keeps its presumed-dead semantics.
  if (options_.guard.quarantine_after > 0) extensions_this_round_ = 0;
}

void Server::HandleReceiveDeadline(const Message& msg) {
  if (static_cast<int>(buffer_.size()) >= options_.min_received) {
    // Graceful degradation: aggregate the partial cohort instead of
    // blocking on the missing members.
    RaiseEvent(events::kReceiveDeadline, msg);
    return;
  }
  if (CountExtensionAndCheckBackstop(events::kReceiveDeadline, msg)) return;
  // Too little feedback to degrade onto: presume the outstanding cohort
  // dead and hand its slots to idle clients. Replacements are sampled
  // before the slots are freed, so a presumed-dead client cannot be drawn
  // as its own replacement.
  std::vector<int> outstanding;
  for (const auto& [id, round] : busy_) {
    if (round == round_) outstanding.push_back(id);
  }
  std::vector<int> replacements =
      SampleIdle(static_cast<int>(outstanding.size()));
  for (int id : outstanding) busy_.erase(id);
  stats_.dropouts += static_cast<int64_t>(outstanding.size());
  stats_.replacements += static_cast<int64_t>(replacements.size());
  if (obs_ != nullptr && obs_->enabled()) {
    pending_dropouts_ += static_cast<int64_t>(outstanding.size());
    pending_replacements_ += static_cast<int64_t>(replacements.size());
    obs_->Count("fs_server_dropouts_total",
                static_cast<double>(outstanding.size()));
    obs_->Count("fs_server_replacements_total",
                static_cast<double>(replacements.size()));
  }
  FS_LOG(Debug) << "round " << round_ << " receive deadline expired; "
                << outstanding.size() << " presumed dead, "
                << replacements.size() << " replacements";
  sampled_this_round_ =
      static_cast<int>(buffer_.size() + replacements.size());
  BroadcastModel(replacements, msg.timestamp);
  ScheduleTimer(msg.timestamp);
  if (replacements.empty() && busy_.empty() && !buffer_.empty()) {
    // Nobody is left in flight, so no further update can arrive; waiting
    // out more deadlines cannot improve on what is buffered.
    RaiseEvent(events::kReceiveDeadline, msg);
  }
}

void Server::OnClientFailure(const Message& msg) {
  if (finished_) return;
  const int id = msg.sender;
  FS_LOG(Warning) << "client " << id << " failed; removed from the course";
  members_.Erase(id);
  ++stats_.dropouts;
  const bool record_obs = obs_ != nullptr && obs_->enabled();
  if (record_obs) {
    ++pending_dropouts_;
    obs_->Count("fs_server_dropouts_total");
  }
  const auto it = busy_.find(id);
  if (it == busy_.end()) return;  // nothing was in flight on this client
  busy_.erase(it);
  if (!started_) return;
  // Hand the dead client's cohort slot to an idle client, keeping the
  // cohort (and the synchronous trigger) at its size; shrink the cohort
  // when nobody is available.
  std::vector<int> replacement = SampleIdle(1);
  if (!replacement.empty()) {
    ++stats_.replacements;
    if (record_obs) {
      ++pending_replacements_;
      obs_->Count("fs_server_replacements_total");
    }
    BroadcastModel(replacement, msg.timestamp);
    return;
  }
  if (sampled_this_round_ > 0) --sampled_this_round_;
  if (options_.strategy != Strategy::kSyncVanilla) return;
  if (options_.topology.hierarchical()) {
    if (covered_this_round_ >= sampled_this_round_ && !buffer_.empty()) {
      RaiseEvent(events::kAllReceived, msg);
    }
    return;
  }
  if (!buffer_.empty() &&
      static_cast<int>(buffer_.size()) >= sampled_this_round_) {
    RaiseEvent(events::kAllReceived, msg);
  }
}

void Server::HandleRejectedUpdate(const Message& msg,
                                  const GuardDecision& decision) {
  const bool record_obs = obs_ != nullptr && obs_->enabled();
  ++stats_.updates_rejected;
  if (record_obs) {
    ++pending_rejected_;
    obs_->Count("fs_server_updates_rejected_total", 1.0,
                {{"reason", GuardReasonLabel(decision.verdict)}});
  }
  FS_LOG(Warning) << "rejecting update from client " << msg.sender << " ("
                  << GuardReasonLabel(decision.verdict) << "): "
                  << decision.detail;
  if (decision.quarantine) QuarantineClient(msg.sender);

  if (options_.broadcast == BroadcastManner::kAfterReceiving) {
    // The rebroadcast below refills the pipeline; shrink the cohort the
    // synchronous trigger waits for, exactly like a declined round.
    if (sampled_this_round_ > 0) --sampled_this_round_;
    if (options_.strategy == Strategy::kSyncVanilla &&
        static_cast<int>(buffer_.size()) >= sampled_this_round_) {
      RaiseEvent(events::kAllReceived, msg);
    }
    if (!finished_) {
      std::vector<int> refill = SampleIdle(1);
      BroadcastModel(refill, msg.timestamp);
      if (!refill.empty()) RestartStarvationBackstop();
    }
    return;
  }
  // After-aggregating broadcasts: hand the freed slot to an idle client so
  // the cohort trigger stays whole. A persistent offender is re-drawable
  // until quarantine exiles it, which bounds the retries at the violation
  // bar; when nobody is idle the cohort shrinks like a declined round.
  std::vector<int> replacement = SampleIdle(1);
  if (!replacement.empty()) {
    ++stats_.replacements;
    if (record_obs) {
      ++pending_replacements_;
      obs_->Count("fs_server_replacements_total");
    }
    BroadcastModel(replacement, msg.timestamp);
    RestartStarvationBackstop();
    return;
  }
  if (sampled_this_round_ > 0) --sampled_this_round_;
  if (options_.strategy == Strategy::kSyncVanilla && !buffer_.empty() &&
      static_cast<int>(buffer_.size()) >= sampled_this_round_) {
    RaiseEvent(events::kAllReceived, msg);
  }
}

void Server::QuarantineClient(int id) {
  members_.Erase(id);
  busy_.erase(id);
  stats_.quarantined.push_back(id);
  if (obs_ != nullptr && obs_->enabled()) {
    ++pending_quarantined_;
    obs_->Count("fs_server_clients_quarantined_total");
  }
  FS_LOG(Warning) << "client " << id << " quarantined after "
                  << options_.guard.quarantine_after
                  << " guard violations; removed from the sampling pool";
}

void Server::PerformAggregation(const std::string& trigger,
                                const Message& context) {
  if (finished_ || buffer_.empty()) return;
  const bool record_obs = obs_ != nullptr && obs_->enabled();

  // Staleness is measured against the version at aggregation time; updates
  // that aged beyond the toleration while buffered are dropped now.
  const bool hierarchical = options_.topology.hierarchical();
  std::vector<ClientUpdate> usable;
  std::vector<std::vector<int>> usable_contribs;
  usable.reserve(buffer_.size());
  for (size_t i = 0; i < buffer_.size(); ++i) {
    ClientUpdate& update = buffer_[i];
    update.staleness = round_ - update.round_started;
    if (update.staleness > options_.staleness_tolerance) {
      const int64_t dropped =
          hierarchical
              ? static_cast<int64_t>(buffer_contributors_[i].size())
              : 1;
      stats_.dropped_stale += dropped;
      if (record_obs) {
        pending_dropped_ += dropped;
        obs_->Count("fs_server_dropped_stale_total",
                    static_cast<double>(dropped));
      }
      continue;
    }
    usable.push_back(std::move(update));
    if (hierarchical) {
      usable_contribs.push_back(std::move(buffer_contributors_[i]));
    }
  }
  buffer_.clear();
  buffer_contributors_.clear();
  covered_this_round_ = 0;
  if (usable.empty()) {
    // Everything buffered had gone stale: keep the round's timer chain
    // alive so a deadline/budget-driven course cannot silently stall.
    if (options_.strategy == Strategy::kAsyncTime || deadline_active()) {
      ScheduleTimer(context.timestamp);
    }
    return;
  }

  if (hierarchical) {
    // Per-client attribution flows through the contributor lists the
    // partials carried, so Figure-10-style stats match a flat course.
    for (size_t i = 0; i < usable.size(); ++i) {
      for (int id : usable_contribs[i]) {
        stats_.staleness_log.push_back(usable[i].staleness);
        if (id >= 1 && id < static_cast<int>(stats_.agg_count.size())) {
          ++stats_.agg_count[id];
        }
      }
    }
  } else {
    for (const auto& update : usable) {
      stats_.staleness_log.push_back(update.staleness);
      if (update.client_id >= 1 &&
          update.client_id < static_cast<int>(stats_.agg_count.size())) {
        ++stats_.agg_count[update.client_id];
      }
    }
  }

  const StateDict global_shared =
      global_model_.GetStateDict(options_.share_filter);
  Result<StateDict> next = aggregator_->Aggregate(global_shared, usable);
  if (!next.ok()) {
    // A hostile or degenerate cohort must extend the round, not kill the
    // course: keep the model, keep the timer chain alive, and let the
    // deadline machinery resample (the extension backstop still bounds it).
    FS_LOG(Warning) << "aggregation failed at round " << round_ << ": "
                    << next.status().ToString();
    if (record_obs) obs_->Count("fs_server_aggregation_failures_total");
    if (options_.strategy == Strategy::kAsyncTime || deadline_active()) {
      ScheduleTimer(context.timestamp);
    }
    return;
  }
  FS_CHECK_OK(global_model_.LoadStateDict(next.value()));

  ++round_;
  stats_.rounds = round_;
  extensions_this_round_ = 0;
  restaffs_this_round_ = 0;

  const size_t curve_size_before = stats_.curve.size();
  const bool stopped = EvaluateAndCheckStop(context);
  if (record_obs) {
    RecordRound(trigger, context, usable, usable_contribs,
                stats_.curve.size() > curve_size_before);
  }
  if (stopped) return;

  if (options_.broadcast == BroadcastManner::kAfterAggregating) {
    Replenish(context.timestamp);
  }
  if (options_.strategy == Strategy::kAsyncTime || deadline_active()) {
    ScheduleTimer(context.timestamp);
  }
}

void Server::RecordRound(const std::string& trigger, const Message& context,
                         const std::vector<ClientUpdate>& usable,
                         const std::vector<std::vector<int>>& usable_contribs,
                         bool evaluated) {
  const double now = context.timestamp;
  const bool hierarchical = options_.topology.hierarchical();
  if (hierarchical) {
    for (size_t i = 0; i < usable.size(); ++i) {
      for (int id : usable_contribs[i]) {
        obs_->Observe("fs_server_staleness", StalenessBounds(),
                      static_cast<double>(usable[i].staleness));
        obs_->Count("fs_server_agg_contributions_total", 1.0,
                    {{"client", std::to_string(id)}});
      }
    }
  } else {
    for (const auto& update : usable) {
      obs_->Observe("fs_server_staleness", StalenessBounds(),
                    static_cast<double>(update.staleness));
      obs_->Count("fs_server_agg_contributions_total", 1.0,
                  {{"client", std::to_string(update.client_id)}});
    }
  }
  obs_->Count("fs_server_aggregations_total", 1.0, {{"trigger", trigger}});
  obs_->Observe("fs_server_round_duration_seconds", LatencyBounds(),
                now - last_agg_time_);
  if (obs_->tracer != nullptr) {
    obs_->tracer->Span(
        "round " + std::to_string(round_), last_agg_time_, now - last_agg_time_,
        kServerId,
        {{"trigger", trigger}, {"updates", std::to_string(usable.size())}});
  }
  if (obs_->course_log != nullptr) {
    CourseRoundRecord record;
    record.round = round_;
    record.trigger = trigger;
    record.time = now;
    if (hierarchical) {
      for (size_t i = 0; i < usable.size(); ++i) {
        for (int id : usable_contribs[i]) {
          record.contributors.push_back(id);
          record.staleness.push_back(usable[i].staleness);
        }
      }
    } else {
      record.contributors.reserve(usable.size());
      record.staleness.reserve(usable.size());
      for (const auto& update : usable) {
        record.contributors.push_back(update.client_id);
        record.staleness.push_back(update.staleness);
      }
    }
    record.uplink_bytes = pending_uplink_bytes_;
    record.downlink_bytes = pending_downlink_bytes_;
    record.broadcasts = pending_broadcasts_;
    record.dropped_stale = pending_dropped_;
    record.declined = pending_declined_;
    record.dropouts = pending_dropouts_;
    record.replacements = pending_replacements_;
    record.partial_updates = pending_partials_;
    record.shard_failovers = pending_failovers_;
    record.updates_rejected = pending_rejected_;
    record.clients_quarantined = pending_quarantined_;
    if (evaluated) {
      record.evaluated = true;
      record.eval_accuracy = stats_.curve.back().second;
      record.eval_loss = last_eval_loss_;
    }
    obs_->course_log->Append(std::move(record));
  }
  last_agg_time_ = now;
  pending_uplink_bytes_ = 0;
  pending_downlink_bytes_ = 0;
  pending_broadcasts_ = 0;
  pending_dropped_ = 0;
  pending_declined_ = 0;
  pending_dropouts_ = 0;
  pending_replacements_ = 0;
  pending_partials_ = 0;
  pending_failovers_ = 0;
  pending_rejected_ = 0;
  pending_quarantined_ = 0;
}

bool Server::EvaluateAndCheckStop(const Message& context) {
  if (evaluator_ &&
      (round_ % std::max(options_.eval_interval, 1) == 0 ||
       round_ >= options_.max_rounds)) {
    EvalResult eval = evaluator_(&global_model_);
    stats_.curve.emplace_back(context.timestamp, eval.accuracy);
    last_eval_loss_ = eval.loss;
    stats_.final_accuracy = eval.accuracy;
    if (eval.accuracy > stats_.best_accuracy) {
      stats_.best_accuracy = eval.accuracy;
      evals_since_best_ = 0;
    } else {
      ++evals_since_best_;
    }
    if (options_.target_accuracy > 0.0 &&
        eval.accuracy >= options_.target_accuracy) {
      stats_.reached_target = true;
      stats_.time_to_target = context.timestamp;
      RaiseEvent(events::kTargetReached, context);
      return true;
    }
    if (options_.early_stop_patience > 0 &&
        evals_since_best_ >= options_.early_stop_patience) {
      RaiseEvent(events::kEarlyStop, context);
      return true;
    }
  }
  if (round_ >= options_.max_rounds) {
    FinishCourse(context);
    return true;
  }
  return false;
}

void Server::FinishCourse(const Message& context) {
  if (finished_) return;
  finished_ = true;
  stats_.finish_time = context.timestamp;
  if (options_.collect_client_metrics) {
    // Final evaluation round: ask every client for its local metrics
    // before dismissing it (the evaluate/metrics flow of Table 2).
    members_.ForEach([&](int id) {
      Message msg;
      msg.receiver = id;
      msg.msg_type = events::kEvaluate;
      msg.state = round_;
      msg.timestamp = context.timestamp;
      Send(std::move(msg));
    });
  }
  if (!members_.empty()) {
    Message msg;
    msg.msg_type = events::kFinish;
    msg.state = round_;
    msg.timestamp = context.timestamp;
    SetReceivers(&msg, members_);
    Send(std::move(msg));
  }
  // Dismiss the edge aggregators too (stops standby watchdog timers).
  for (int shard = 0; shard < options_.topology.num_shards; ++shard) {
    for (int slot = 0; slot <= options_.topology.standbys_per_shard; ++slot) {
      Message msg;
      msg.receiver = AggregatorId(shard, slot);
      msg.msg_type = events::kFinish;
      msg.state = round_;
      msg.timestamp = context.timestamp;
      Send(std::move(msg));
    }
  }
}

void Server::OnMetrics(const Message& msg) {
  stats_.client_metrics[msg.sender] =
      msg.payload.GetDouble("test_acc", -1.0);
  FS_LOG(Debug) << "metrics from client " << msg.sender << ": acc="
                << msg.payload.GetDouble("test_acc", -1.0);
}

}  // namespace fedscope
