// Server course-snapshot export/restore (DESIGN.md §10). Kept out of
// server.cc so the behaviour handlers stay readable; everything here is
// plain state copying through the wire-codec Payload schema below.
//
// Schema (all keys inside Checkpoint::course):
//   strategy, seed, expected_clients        identity guard
//   started, finished,
//   evals_since_best, last_eval_loss        progress scalars
//   awaited_this_round, busy/ids, busy/rounds,
//   extensions_this_round,
//   rejected_this_round                     cohort-slot ledger (CohortLedger)
//   rng                                     packed u64 words (Rng::SaveState)
//   clients, resp_scores                    membership
//   buffer/count, buffer/<i>/...            pending cohort incl. deltas
//   sampler/..., aggregator/...             plug-in state (their SaveState)
//   stats/...                               full ServerStats
//   obs/...                                 pending per-round accumulators

#include <limits>

#include "fedscope/core/checkpoint.h"
#include "fedscope/core/server.h"
#include "fedscope/util/logging.h"

namespace fedscope {
namespace {

constexpr char kBufferPrefix[] = "buffer/";

std::string BufferKey(int64_t i, const char* field) {
  return kBufferPrefix + std::to_string(i) + "/" + field;
}

}  // namespace

void Server::ExportSnapshot(Checkpoint* checkpoint) {
  checkpoint->round = round_;
  checkpoint->virtual_time = current_time_;
  checkpoint->best_accuracy = stats_.best_accuracy;
  checkpoint->global_state = global_model_.GetStateDict();

  Payload p;
  p.SetInt("strategy", static_cast<int64_t>(options_.strategy));
  p.SetInt("seed", static_cast<int64_t>(options_.seed));
  p.SetInt("expected_clients", options_.expected_clients);

  p.SetInt("started", started_ ? 1 : 0);
  p.SetInt("finished", finished_ ? 1 : 0);
  ledger_.Save(&p);
  p.SetInt("evals_since_best", evals_since_best_);
  p.SetDouble("last_eval_loss", last_eval_loss_);

  SetPackedU64s(&p, "rng", rng_.SaveState());

  std::vector<int64_t> member_ids;
  member_ids.reserve(static_cast<size_t>(members_.size()));
  members_.ForEach([&member_ids](int id) { member_ids.push_back(id); });
  SetPackedInt64s(&p, "clients", member_ids);
  SetPackedDoubles(&p, "resp_scores", resp_scores_);

  p.SetInt("buffer/count", static_cast<int64_t>(buffer_.size()));
  for (int64_t i = 0; i < static_cast<int64_t>(buffer_.size()); ++i) {
    const ClientUpdate& u = buffer_[i];
    p.SetInt(BufferKey(i, "client_id"), u.client_id);
    p.SetInt(BufferKey(i, "round_started"), u.round_started);
    p.SetInt(BufferKey(i, "staleness"), u.staleness);
    p.SetDouble(BufferKey(i, "num_samples"), u.num_samples);
    p.SetInt(BufferKey(i, "local_steps"), u.local_steps);
    p.SetInt(BufferKey(i, "delta_params"),
             static_cast<int64_t>(u.delta.size()));
    p.SetStateDict(BufferKey(i, "delta"), u.delta);
  }

  // Topology keys exist only for hierarchical courses, keeping flat
  // snapshots byte-identical to the pre-topology schema.
  if (options_.topology.hierarchical()) {
    SetPackedInt64s(&p, "topology/shard_epochs", shard_epochs_);
    SetPackedInt64s(&p, "topology/active_slots",
                    std::vector<int64_t>(shard_active_slot_.begin(),
                                         shard_active_slot_.end()));
    for (int64_t i = 0; i < static_cast<int64_t>(buffer_.size()); ++i) {
      SetPackedInt64s(&p, BufferKey(i, "contributors"),
                      std::vector<int64_t>(buffer_contributors_[i].begin(),
                                           buffer_contributors_[i].end()));
    }
    p.SetInt("stats/shard_failovers", stats_.shard_failovers);
    p.SetInt("stats/stale_partials", stats_.stale_partials);
    p.SetInt("obs/pending_partials", pending_partials_);
    p.SetInt("obs/pending_failovers", pending_failovers_);
  }

  // Guard keys exist only for guarded courses, keeping guard-off
  // snapshots byte-identical to the pre-guard schema. Quarantined members
  // need no membership key: they are gaps in `clients`.
  if (guard_ != nullptr) {
    guard_->SaveState(&p, "guard");
    p.SetInt("stats/updates_rejected", stats_.updates_rejected);
    p.SetInt("stats/updates_clipped", stats_.updates_clipped);
    SetPackedInt64s(&p, "stats/quarantined",
                    std::vector<int64_t>(stats_.quarantined.begin(),
                                         stats_.quarantined.end()));
    p.SetInt("obs/pending_rejected", pending_rejected_);
    p.SetInt("obs/pending_quarantined", pending_quarantined_);
  }

  if (sampler_) {
    p.SetInt("has_sampler", 1);
    sampler_->SaveState(&p, "sampler");
  }
  aggregator_->SaveState(&p, "aggregator");

  std::vector<double> curve_times, curve_accs;
  curve_times.reserve(stats_.curve.size());
  curve_accs.reserve(stats_.curve.size());
  for (const auto& [t, acc] : stats_.curve) {
    curve_times.push_back(t);
    curve_accs.push_back(acc);
  }
  SetPackedDoubles(&p, "stats/curve_times", curve_times);
  SetPackedDoubles(&p, "stats/curve_accs", curve_accs);
  SetPackedInt64s(&p, "stats/agg_count", stats_.agg_count);
  SetPackedInt64s(&p, "stats/staleness_log",
                  std::vector<int64_t>(stats_.staleness_log.begin(),
                                       stats_.staleness_log.end()));
  p.SetInt("stats/dropped_stale", stats_.dropped_stale);
  p.SetInt("stats/declined", stats_.declined);
  p.SetInt("stats/dropouts", stats_.dropouts);
  p.SetInt("stats/replacements", stats_.replacements);
  p.SetInt("stats/round_extensions", stats_.round_extensions);
  p.SetInt("stats/aborted", stats_.aborted ? 1 : 0);
  std::vector<int64_t> metric_ids;
  std::vector<double> metric_values;
  for (const auto& [id, acc] : stats_.client_metrics) {
    metric_ids.push_back(id);
    metric_values.push_back(acc);
  }
  SetPackedInt64s(&p, "stats/client_metric_ids", metric_ids);
  SetPackedDoubles(&p, "stats/client_metric_values", metric_values);
  p.SetInt("stats/rounds", stats_.rounds);
  p.SetInt("stats/reached_target", stats_.reached_target ? 1 : 0);
  p.SetDouble("stats/time_to_target", stats_.time_to_target);
  p.SetDouble("stats/best_accuracy", stats_.best_accuracy);
  p.SetDouble("stats/final_accuracy", stats_.final_accuracy);
  p.SetDouble("stats/finish_time", stats_.finish_time);

  p.SetDouble("obs/last_agg_time", last_agg_time_);
  p.SetInt("obs/pending_uplink_bytes", pending_uplink_bytes_);
  p.SetInt("obs/pending_downlink_bytes", pending_downlink_bytes_);
  p.SetInt("obs/pending_broadcasts", pending_broadcasts_);
  p.SetInt("obs/pending_dropped", pending_dropped_);
  p.SetInt("obs/pending_declined", pending_declined_);
  p.SetInt("obs/pending_dropouts", pending_dropouts_);
  p.SetInt("obs/pending_replacements", pending_replacements_);

  checkpoint->course = std::move(p);
}

Status Server::RestoreSnapshot(const Checkpoint& checkpoint) {
  const Payload& p = checkpoint.course;
  if (!p.HasScalar("rng")) {
    return Status::FailedPrecondition(
        "checkpoint has no course section (model-only / v1 checkpoint)");
  }
  if (p.GetInt("strategy", -1) != static_cast<int64_t>(options_.strategy)) {
    return Status::FailedPrecondition(
        "snapshot strategy does not match server options");
  }
  if (p.GetInt("seed", -1) != static_cast<int64_t>(options_.seed)) {
    return Status::FailedPrecondition(
        "snapshot seed does not match server options");
  }
  Status model_status =
      global_model_.LoadStateDict(checkpoint.global_state, /*strict=*/true);
  if (!model_status.ok()) return model_status;

  round_ = checkpoint.round;
  current_time_ = checkpoint.virtual_time;
  started_ = p.GetInt("started") != 0;
  finished_ = p.GetInt("finished") != 0;
  Status ledger_status = ledger_.Load(p);
  if (!ledger_status.ok()) return ledger_status;
  evals_since_best_ = static_cast<int>(p.GetInt("evals_since_best"));
  last_eval_loss_ = p.GetDouble("last_eval_loss");

  Status rng_status = rng_.LoadState(GetPackedU64s(p, "rng"));
  if (!rng_status.ok()) return rng_status;

  members_ = IdSet();
  for (int64_t id : GetPackedInt64s(p, "clients")) {
    if (id < 1 || id > std::numeric_limits<int>::max()) {
      return Status::DataLoss("snapshot member id out of range");
    }
    members_.Insert(static_cast<int>(id));
  }
  resp_scores_ = GetPackedDoubles(p, "resp_scores");

  const int64_t buffer_count = p.GetInt("buffer/count");
  buffer_.clear();
  buffer_contributors_.clear();
  buffer_.reserve(buffer_count);
  for (int64_t i = 0; i < buffer_count; ++i) {
    ClientUpdate u;
    u.client_id = static_cast<int>(p.GetInt(BufferKey(i, "client_id")));
    u.round_started = static_cast<int>(p.GetInt(BufferKey(i, "round_started")));
    u.staleness = static_cast<int>(p.GetInt(BufferKey(i, "staleness")));
    u.num_samples = p.GetDouble(BufferKey(i, "num_samples"));
    u.local_steps = static_cast<int>(p.GetInt(BufferKey(i, "local_steps")));
    u.delta = p.GetStateDict(BufferKey(i, "delta"));
    if (static_cast<int64_t>(u.delta.size()) !=
        p.GetInt(BufferKey(i, "delta_params"))) {
      return Status::DataLoss("snapshot buffered delta is incomplete");
    }
    buffer_.push_back(std::move(u));
    if (options_.topology.hierarchical()) {
      std::vector<int> contributors;
      for (int64_t id : GetPackedInt64s(p, BufferKey(i, "contributors"))) {
        contributors.push_back(static_cast<int>(id));
      }
      buffer_contributors_.push_back(std::move(contributors));
    }
  }

  if (options_.topology.hierarchical()) {
    const std::vector<int64_t> epochs =
        GetPackedInt64s(p, "topology/shard_epochs");
    const std::vector<int64_t> slots =
        GetPackedInt64s(p, "topology/active_slots");
    if (static_cast<int>(epochs.size()) != options_.topology.num_shards ||
        static_cast<int>(slots.size()) != options_.topology.num_shards) {
      return Status::FailedPrecondition(
          "snapshot shard layout does not match server topology");
    }
    shard_epochs_ = epochs;
    for (int shard = 0; shard < options_.topology.num_shards; ++shard) {
      shard_active_slot_[shard] = static_cast<int>(slots[shard]);
    }
  }

  // The sampler object is reconstructed from options + scores (fixed after
  // course start); only its mutable cursor rides in the snapshot.
  if (p.GetInt("has_sampler") != 0) {
    sampler_ = MakeSampler(options_.sampler, resp_scores_,
                           options_.num_groups);
    sampler_->LoadState(p, "sampler");
  } else {
    sampler_.reset();
  }
  aggregator_->LoadState(p, "aggregator");

  const std::vector<double> curve_times =
      GetPackedDoubles(p, "stats/curve_times");
  const std::vector<double> curve_accs =
      GetPackedDoubles(p, "stats/curve_accs");
  if (curve_times.size() != curve_accs.size()) {
    return Status::DataLoss("snapshot accuracy curve length mismatch");
  }
  stats_ = ServerStats();
  for (size_t i = 0; i < curve_times.size(); ++i) {
    stats_.curve.emplace_back(curve_times[i], curve_accs[i]);
  }
  stats_.agg_count = GetPackedInt64s(p, "stats/agg_count");
  for (int64_t s : GetPackedInt64s(p, "stats/staleness_log")) {
    stats_.staleness_log.push_back(static_cast<int>(s));
  }
  stats_.dropped_stale = p.GetInt("stats/dropped_stale");
  stats_.declined = p.GetInt("stats/declined");
  stats_.dropouts = p.GetInt("stats/dropouts");
  stats_.replacements = p.GetInt("stats/replacements");
  stats_.round_extensions = p.GetInt("stats/round_extensions");
  stats_.aborted = p.GetInt("stats/aborted") != 0;
  const std::vector<int64_t> metric_ids =
      GetPackedInt64s(p, "stats/client_metric_ids");
  const std::vector<double> metric_values =
      GetPackedDoubles(p, "stats/client_metric_values");
  if (metric_ids.size() != metric_values.size()) {
    return Status::DataLoss("snapshot client metrics length mismatch");
  }
  for (size_t i = 0; i < metric_ids.size(); ++i) {
    stats_.client_metrics[static_cast<int>(metric_ids[i])] = metric_values[i];
  }
  stats_.rounds = static_cast<int>(p.GetInt("stats/rounds"));
  stats_.reached_target = p.GetInt("stats/reached_target") != 0;
  stats_.time_to_target = p.GetDouble("stats/time_to_target");
  stats_.best_accuracy = p.GetDouble("stats/best_accuracy");
  stats_.final_accuracy = p.GetDouble("stats/final_accuracy");
  stats_.finish_time = p.GetDouble("stats/finish_time");

  if (options_.topology.hierarchical()) {
    stats_.shard_failovers = p.GetInt("stats/shard_failovers");
    stats_.stale_partials = p.GetInt("stats/stale_partials");
  }

  if (guard_ != nullptr) {
    guard_->LoadState(p, "guard");
    stats_.updates_rejected = p.GetInt("stats/updates_rejected");
    stats_.updates_clipped = p.GetInt("stats/updates_clipped");
    stats_.quarantined.clear();
    for (int64_t id : GetPackedInt64s(p, "stats/quarantined")) {
      stats_.quarantined.push_back(static_cast<int>(id));
    }
    pending_rejected_ = p.GetInt("obs/pending_rejected");
    pending_quarantined_ = p.GetInt("obs/pending_quarantined");
  }

  last_agg_time_ = p.GetDouble("obs/last_agg_time");
  pending_uplink_bytes_ = p.GetInt("obs/pending_uplink_bytes");
  pending_downlink_bytes_ = p.GetInt("obs/pending_downlink_bytes");
  pending_broadcasts_ = static_cast<int>(p.GetInt("obs/pending_broadcasts"));
  pending_dropped_ = p.GetInt("obs/pending_dropped");
  pending_declined_ = p.GetInt("obs/pending_declined");
  pending_dropouts_ = p.GetInt("obs/pending_dropouts");
  pending_replacements_ = p.GetInt("obs/pending_replacements");
  pending_partials_ = p.GetInt("obs/pending_partials");
  pending_failovers_ = p.GetInt("obs/pending_failovers");
  return Status::Ok();
}

}  // namespace fedscope
