#include "fedscope/core/server.h"

#include <algorithm>
#include <cmath>

#include "fedscope/comm/compression.h"
#include "fedscope/core/completeness.h"
#include "fedscope/core/events.h"
#include "fedscope/obs/obs_context.h"
#include "fedscope/util/logging.h"

namespace fedscope {
namespace {

constexpr char kModelKey[] = "model";

/// The by-reason counter of a rejecting guard verdict; its series label is
/// GuardReasonLabel(verdict).
int64_t CourseCounters::*RejectionReason(GuardVerdict verdict) {
  switch (verdict) {
    case GuardVerdict::kRejectSignature:
      return &CourseCounters::rejected_signature;
    case GuardVerdict::kRejectNonFinite:
      return &CourseCounters::rejected_non_finite;
    default:
      return &CourseCounters::rejected_norm;
  }
}

}  // namespace

int CohortSize(const ServerOptions& options) {
  if (options.strategy != Strategy::kSyncOverselect) return options.concurrency;
  return static_cast<int>(options.concurrency *
                          (1.0 + options.overselect_frac));
}

Server::Server(ServerOptions options, Model global_model,
               std::unique_ptr<Aggregator> aggregator, CommChannel* channel)
    : BaseWorker(kServerId, channel),
      options_(std::move(options)),
      global_model_(std::move(global_model)),
      signature_(global_model_.GetStateDict(options_.share_filter)),
      aggregator_(std::move(aggregator)),
      guard_(options_.guard),
      rng_(options_.seed != 0 ? options_.seed : 0x5E17E5) {
  FS_CHECK(aggregator_ != nullptr);
  FS_CHECK_GT(options_.concurrency, 0);
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
  // Only the runner's batch join, sent as kBroadcast (no transport peer can
  // claim it), lists ids and their scores (kJoinIdsKey, kJoinScoresKey, id
  // order); any other join names only its sender — the batch of one.
  IdSet ids;
  std::vector<double> scores;
  if (msg.sender == kBroadcast) {
    auto batch = GetPackedIdSet(msg.payload, kJoinIdsKey);
    scores = GetPackedDoubles(msg.payload, kJoinScoresKey);
    if (!batch.ok() || batch->size() != static_cast<int64_t>(scores.size())) {
      FS_LOG(Warning) << "malformed batch join_in";
      return;
    }
    ids = std::move(batch.value());
  } else {
    ids.Insert(msg.sender);
    scores.push_back(msg.payload.GetDouble("resp_score", 1.0));
  }
  if (ids.empty()) return;
  // Ids outside the population would size the score table: refuse them.
  if (ids.min() < 1 || (options_.expected_clients > 0 &&
                        ids.max() > options_.expected_clients)) {
    FS_LOG(Warning) << "join_in for ids " << ids.min() << ".." << ids.max()
                    << " outside the population";
    return;
  }
  // The responsiveness samplers weight by score and need finite weights: a
  // non-finite score counts as the neutral 1.0 of a join without one.
  for (double& score : scores) {
    if (!std::isfinite(score)) {
      FS_LOG(Warning) << "join_in from " << msg.sender
                      << " carries a non-finite resp_score; using 1.0";
      score = 1.0;
    }
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
      if (ledger_.InFlight(id)) restart.push_back(id);
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

  if (resp_scores_.empty() && ids.min() == 1 &&
      ids.max() == static_cast<int>(scores.size())) {
    // Ids 1..n into an empty table, as a standalone population's batch join
    // brings: the decoded scores are the table. Taking them spares a second
    // population-sized block while the join message is alive (see the
    // reserve in FedRunner::Run).
    resp_scores_ = std::move(scores);
  } else {
    if (ids.max() > static_cast<int>(resp_scores_.size())) {
      resp_scores_.resize(ids.max(), 1.0);
    }
    auto score = scores.begin();
    for (const IdSet::Interval& in : ids.intervals()) {
      const int64_t len = static_cast<int64_t>(in.hi) - in.lo + 1;
      std::copy(score, score + len, resp_scores_.begin() + (in.lo - 1));
      score += len;
    }
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
  ScheduleTimer(context.timestamp);
}

std::vector<int> Server::SampleIdle(int k) {
  if (k <= 0) return {};
  // The idle set is [1, largest member] minus the membership gaps and the
  // in-flight ids, so the sampler draws without enumerating the population
  // (DESIGN.md §13).
  IdSet idle = members_;
  for (const auto& [id, round] : ledger_.in_flight()) idle.Erase(id);
  const int population = members_.empty() ? 0 : members_.max();
  return sampler_->SampleIds(
      CandidateView(population, idle.Complement(1, population).ToVector()),
      k, &rng_);
}

void Server::BroadcastModel(const std::vector<int>& client_ids,
                            double timestamp) {
  if (client_ids.empty()) return;
  for (int id : client_ids) ledger_.Open(id, round_);
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
    stats_.downlink_bytes += msg.payload.ByteSize();
    ++stats_.broadcasts;
    Send(std::move(msg));
  }
}

void Server::Replenish(double timestamp) {
  const int want = CohortSize(options_);
  // Only slots whose eventual update can still be tolerated count against
  // the concurrency target; slots stuck on rounds older than the
  // staleness toleration will be dropped anyway (with toleration 0 this
  // is exactly the fresh-cohort rule of over-selection).
  const int carried =
      ledger_.OpenedSince(round_ - options_.staleness_tolerance);
  if (carried >= want) return;
  const std::vector<int> cohort = SampleIdle(want - carried);
  ledger_.set_awaited(carried + static_cast<int>(cohort.size()));
  BroadcastModel(cohort, timestamp);
}

void Server::AddConditionChain(CompletenessChecker* checker) const {
  auto bridge = [&](const char* from, const char* to) {
    if (registry_.Has(from) && registry_.Has(to)) checker->AddEdge(from, to);
  };
  bridge(events::kJoinIn, events::kAllJoinedIn);
  bridge(events::kModelUpdate, events::kAllReceived);
  bridge(events::kModelUpdate, events::kGoalAchieved);
  bridge(events::kModelUpdate, events::kTargetReached);
  bridge(events::kModelUpdate, events::kEarlyStop);
  if (timed()) {
    // The server schedules a timer to itself at course start and after
    // each expiry; the expiry raises time_up or the receive deadline.
    const char* expiry =
        deadline_active() ? events::kReceiveDeadline : events::kTimeUp;
    bridge(events::kAllJoinedIn, events::kTimer);
    bridge(events::kTimer, expiry);
    bridge(expiry, events::kTimer);
  } else {
    checker->MarkOptional(events::kTimer);
  }
  if (options_.strategy != Strategy::kAsyncTime) {
    checker->MarkOptional(events::kTimeUp);
  }
  if (!deadline_active()) checker->MarkOptional(events::kReceiveDeadline);
}

void Server::ScheduleTimer(double now) {
  if (!timed()) return;
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
  stats_.uplink_bytes += msg.payload.ByteSize();

  // The reply ends the sender's slot, if one is in flight; what the reply
  // carries decides the outcome.
  if (msg.payload.GetInt("declined", 0) != 0) {
    // The client declined this round (low_bandwidth behaviour).
    ++stats_.declined;
    RepairSlots(SlotOutcome::kDeclined, {msg.sender}, msg);
    return;
  }

  // One ingress order for every course (DESIGN.md §14): decode, the
  // guard's screens when it is on, then the staleness drop. Malformed input
  // is malformed whatever round it claims, which also keeps the
  // delivered-poison accounting exact (fuzz oracle 14).
  ClientUpdate update;
  const GuardDecision decision = ScreenUpdate(msg, &update.delta);
  if (decision.verdict == GuardVerdict::kClip) ++stats_.updates_clipped;
  if (decision.rejected()) {
    stats_.Reject(RejectionReason(decision.verdict));
    FS_LOG(Warning) << "rejecting update from client " << msg.sender << " ("
                    << GuardReasonLabel(decision.verdict)
                    << "): " << decision.detail;
    // An offender stays drawable until quarantine exiles it.
    if (decision.quarantine) QuarantineClient(msg.sender);
    RepairSlots(SlotOutcome::kRejected, {msg.sender}, msg);
    return;
  }
  const int staleness = round_ - msg.state;
  if (staleness > options_.staleness_tolerance) {
    // Outdated beyond toleration: dropped entirely (§3.3.1-i).
    ++stats_.dropped_stale;
  } else {
    update.client_id = msg.sender;
    update.round_started = msg.state;
    update.staleness = staleness;
    update.num_samples =
        static_cast<double>(msg.payload.GetInt("num_samples", 1));
    update.local_steps =
        static_cast<int>(msg.payload.GetInt("local_steps", 1));
    buffer_.push_back(std::move(update));
  }
  const bool ended_slot = ledger_.End(msg.sender, SlotOutcome::kReceived);

  if (feedback_consumer_) {
    feedback_consumer_(msg.sender, msg.state, msg.payload);
  }

  CheckTrigger(msg);

  // After-receiving broadcast (§3.3.1-iii): hand the up-to-date model to
  // one idle client as soon as feedback ends a slot, keeping concurrency
  // constant (FedBuff-style).
  if (!finished_ && ended_slot &&
      options_.broadcast == BroadcastManner::kAfterReceiving) {
    BroadcastModel(SampleIdle(1), msg.timestamp);
  }
}

GuardDecision Server::ScreenUpdate(const Message& msg, StateDict* delta) {
  Result<StateDict> decoded = DecodeUpdate(msg.payload, signature_);
  if (!decoded.ok()) {
    return guard_.Book(msg.sender, {GuardVerdict::kRejectSignature, false,
                                    decoded.status().ToString()});
  }
  *delta = std::move(decoded.value());
  return guard_.Inspect(msg.sender, signature_, delta);
}

void Server::CheckTrigger(const Message& msg) {
  // Condition checking (§3.2): has the aggregation trigger fired? A
  // synchronous round waits for every awaited update; over-selection for
  // the first `concurrency` of them.
  const int buffered = static_cast<int>(buffer_.size());
  switch (options_.strategy) {
    case Strategy::kSyncVanilla:
      if (buffered >= ledger_.awaited()) {
        RaiseEvent(events::kAllReceived, msg);
      }
      break;
    case Strategy::kSyncOverselect:
      if (buffered >= std::min(options_.concurrency, ledger_.awaited())) {
        RaiseEvent(events::kGoalAchieved, msg);
      }
      break;
    case Strategy::kAsyncGoal:
      if (buffered >= options_.aggregation_goal) {
        RaiseEvent(events::kGoalAchieved, msg);
      }
      break;
    case Strategy::kAsyncTime:
      break;  // aggregation is driven by the timer
  }
}

void Server::OnTimer(const Message& msg) {
  if (finished_ || !started_) return;
  if (msg.state != round_) return;  // a timer from a completed round
  if (!timed()) return;  // stray timer
  // One termination rule for both timers (DESIGN.md §7): the receive
  // deadline of the synchronous strategies and kAsyncTime's time_up.
  const char* event =
      deadline_active() ? events::kReceiveDeadline : events::kTimeUp;
  if (static_cast<int>(buffer_.size()) >= options_.min_received) {
    RaiseEvent(event, msg);
    return;
  }
  // Remedial measures (§3.3.2) for a starved expiry. A rejected slot was
  // answered, so with quarantine on each one buys the round one more
  // expiry; quarantine bounds how often that can happen.
  ++stats_.round_extensions;
  const bool quarantine = options_.guard.enabled &&
                          options_.guard.quarantine_after > 0;
  const int budget = options_.max_round_extensions +
                     (quarantine ? ledger_.rejected() : 0);
  if (ledger_.CountStarved() > budget) {
    // The round will not complete normally (e.g. the whole fleet is dead):
    // aggregate what arrived, and give the course up if that does not end
    // the round.
    FS_LOG(Warning) << "round " << round_ << " starved after " << budget
                    << " extensions; ending it with " << buffer_.size()
                    << " buffered updates";
    const int round = round_;
    if (!buffer_.empty()) RaiseEvent(event, msg);
    if (!finished_ && round_ == round) {
      stats_.aborted = true;
      FinishCourse(msg);
      // The given-up round's counts close the course log.
      LogRow({}, round_ + 1, kAbortTrigger, msg.timestamp);
    }
    return;
  }
  // Presume the round's outstanding slots dead and repair them. The
  // awaited count is rebased first, so slots still in flight from older
  // rounds stop counting toward this round's trigger. A round that opened
  // no slot of its own counted only carried ones, which left it no fresh
  // cohort (Replenish): those are presumed dead instead, or nothing would
  // ever refill them.
  std::vector<int> outstanding = ledger_.OpenedOn(round_);
  if (outstanding.empty()) {
    for (const auto& [id, round] : ledger_.in_flight()) {
      outstanding.push_back(id);
    }
  }
  ledger_.set_awaited(static_cast<int>(buffer_.size() + outstanding.size()));
  stats_.dropouts += static_cast<int64_t>(outstanding.size());
  FS_LOG(Debug) << "round " << round_ << " " << event << " with too little "
                << "feedback; " << outstanding.size() << " presumed dead";
  ScheduleTimer(msg.timestamp);
  RepairSlots(SlotOutcome::kPresumedDead, outstanding, msg);
}

void Server::RepairSlots(SlotOutcome outcome, const std::vector<int>& ids,
                         const Message& msg) {
  if (finished_) return;
  std::vector<int> ended;
  for (int id : ids) {
    if (ledger_.InFlight(id)) ended.push_back(id);
  }
  // A client that answered (declined, rejected) may be drawn again; a
  // silent one (failed, presumed dead) must not refill its own slot, so
  // its slot ends only after the draw.
  const bool answered =
      outcome == SlotOutcome::kDeclined || outcome == SlotOutcome::kRejected;
  if (answered) {
    for (int id : ended) ledger_.End(id, outcome);
  }
  const std::vector<int> refills =
      SampleIdle(static_cast<int>(ended.size()));
  if (!answered) {
    for (int id : ended) ledger_.End(id, outcome);
  }
  stats_.replacements += static_cast<int64_t>(refills.size());
  ledger_.Lower(static_cast<int>(ended.size() - refills.size()));
  BroadcastModel(refills, msg.timestamp);
  CheckTrigger(msg);
}

void Server::OnClientFailure(const Message& msg) {
  if (finished_) return;
  const int id = msg.sender;
  FS_LOG(Warning) << "client " << id << " failed; removed from the course";
  members_.Erase(id);
  ++stats_.dropouts;
  if (started_ && ledger_.InFlight(id)) {
    RepairSlots(SlotOutcome::kFailed, {id}, msg);
  }
}

void Server::QuarantineClient(int id) {
  members_.Erase(id);
  stats_.quarantined.push_back(id);
  ++stats_.clients_quarantined;
  FS_LOG(Warning) << "client " << id << " quarantined after "
                  << options_.guard.quarantine_after
                  << " guard violations; removed from the sampling pool";
}

void Server::PerformAggregation(const std::string& trigger,
                                const Message& context) {
  if (finished_ || buffer_.empty()) return;

  // Staleness is measured against the version at aggregation time; updates
  // that aged beyond the toleration while buffered are dropped now.
  std::vector<ClientUpdate> usable;
  usable.reserve(buffer_.size());
  CourseRoundRecord row;
  for (ClientUpdate& update : buffer_) {
    update.staleness = round_ - update.round_started;
    if (update.staleness > options_.staleness_tolerance) {
      ++stats_.dropped_stale;
      continue;
    }
    row.contributors.push_back(update.client_id);
    row.staleness.push_back(update.staleness);
    usable.push_back(std::move(update));
  }
  buffer_.clear();
  if (usable.empty()) {
    // Everything buffered had gone stale: keep the round's timer chain
    // alive so a deadline/budget-driven course cannot silently stall.
    ScheduleTimer(context.timestamp);
    return;
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
    ++stats_.aggregation_failures;
    ScheduleTimer(context.timestamp);
    return;
  }
  FS_CHECK_OK(global_model_.LoadStateDict(next.value()));
  stats_.staleness_log.insert(stats_.staleness_log.end(),
                              row.staleness.begin(), row.staleness.end());
  for (int id : row.contributors) {
    if (id >= 1 && id < static_cast<int>(stats_.agg_count.size())) {
      ++stats_.agg_count[id];
    }
  }

  ++round_;
  stats_.rounds = round_;
  ledger_.NewRound();

  const size_t curve_size_before = stats_.curve.size();
  const bool stopped = EvaluateAndCheckStop(context);
  if (stats_.curve.size() > curve_size_before) {
    row.evaluated = true;
    row.eval_accuracy = stats_.curve.back().second;
    row.eval_loss = last_eval_loss_;
  }
  RecordRound(trigger, context.timestamp, std::move(row),
              static_cast<int>(usable.size()));
  if (stopped) return;

  if (options_.broadcast == BroadcastManner::kAfterAggregating) {
    Replenish(context.timestamp);
  }
  ScheduleTimer(context.timestamp);
}

void Server::RecordRound(const std::string& trigger, double now,
                         CourseRoundRecord row, int updates) {
  if (obs_ != nullptr) {
    obs_->Count("fs_server_aggregations_total", 1.0, {{"trigger", trigger}});
    obs_->Observe("fs_server_round_duration_seconds", LatencyBounds(),
                  now - last_agg_time_);
    if (obs_->tracer != nullptr) {
      obs_->tracer->Span("round " + std::to_string(round_), last_agg_time_,
                         now - last_agg_time_, kServerId,
                         {{"trigger", trigger},
                          {"updates", std::to_string(updates)}});
    }
    LogRow(std::move(row), round_, trigger, now);
  }
  last_agg_time_ = now;
  round_base_ = stats_;
}

void Server::LogRow(CourseRoundRecord row, int round,
                    const std::string& trigger, double time) const {
  if (obs_ == nullptr || obs_->course_log == nullptr) return;
  static_cast<CourseCounters&>(row) = stats_ - round_base_;
  row.round = round;
  row.trigger = trigger;
  row.time = time;
  obs_->course_log->Append(std::move(row));
}

void Server::ExportMetrics() const {
  if (obs_ == nullptr || !obs_->recording_metrics()) return;
  for (const CounterField& field : kCounterFields) {
    const int64_t value = stats_.*field.member;
    if (field.series == nullptr || value == 0) continue;
    MetricLabels labels;
    if (*field.label != '\0') labels[field.label] = field.label_value;
    obs_->Count(field.series, static_cast<double>(value), labels);
  }
  for (int staleness : stats_.staleness_log) {
    obs_->Observe("fs_server_staleness", StalenessBounds(),
                  static_cast<double>(staleness));
  }
  for (size_t id = 1; id < stats_.agg_count.size(); ++id) {
    if (stats_.agg_count[id] == 0) continue;
    obs_->Count("fs_server_agg_contributions_total",
                static_cast<double>(stats_.agg_count[id]),
                {{"client", std::to_string(id)}});
  }
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
}

void Server::OnMetrics(const Message& msg) {
  stats_.client_metrics[msg.sender] =
      msg.payload.GetDouble("test_acc", -1.0);
  FS_LOG(Debug) << "metrics from client " << msg.sender << ": acc="
                << msg.payload.GetDouble("test_acc", -1.0);
}

}  // namespace fedscope
