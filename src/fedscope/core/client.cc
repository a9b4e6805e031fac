#include "fedscope/core/client.h"

#include <algorithm>
#include <utility>

#include "fedscope/comm/codec.h"
#include "fedscope/comm/compression.h"
#include "fedscope/core/checkpoint.h"
#include "fedscope/core/events.h"
#include "fedscope/obs/obs_context.h"
#include "fedscope/util/logging.h"

namespace fedscope {
namespace {

/// Payload key of the broadcast model.
constexpr char kModelKey[] = "model";
/// Key prefix of a layer's private state in ClientResume::trainer_state.
constexpr char kLayerStateKey[] = "layer/";

}  // namespace

Client::Client(int id, ClientOptions options, const Model& model,
               SplitDataset data, std::unique_ptr<BaseTrainer> trainer,
               CommChannel* channel, HeldOutSource held_out)
    : BaseWorker(id, channel) {
  RegisterDefaultHandlers();
  Reset(id, std::move(options), model, std::move(data), std::move(trainer),
        channel, std::move(held_out));
}

void Client::Reset(int id, ClientOptions options, const Model& model,
                   SplitDataset data, std::unique_ptr<BaseTrainer> trainer,
                   CommChannel* channel, HeldOutSource held_out) {
  FS_CHECK(trainer != nullptr);
  id_ = id;
  channel_ = channel;
  current_time_ = 0.0;
  obs_ = nullptr;
  if (registry_.changes() != default_handlers_at_) {
    // Handlers a previous occupant's user replaced must not reach this id.
    registry_ = HandlerRegistry();
    RegisterDefaultHandlers();
  }
  options_ = std::move(options);
  model_ = model;
  data_ = std::move(data);
  held_out_ = std::move(held_out);
  trainer_ = std::move(trainer);
  rng_ = Rng(options_.seed != 0 ? options_.seed
                                : static_cast<uint64_t>(id) + 77);
  response_model_ = ResponseModel(options_.jitter_sigma);
  update_poisoner_ = nullptr;
  finished_ = false;
  rounds_trained_ = 0;
  perf_drop_count_ = 0;
  declined_count_ = 0;
  low_bandwidth_requests_ = 0;
  rejected_globals_ = 0;
  last_val_accuracy_ = -1.0;
  pre_load_snapshot_.clear();
}

void Client::Vacate() {
  data_ = SplitDataset();
  held_out_ = HeldOutSource();
  trainer_.reset();
  update_poisoner_ = nullptr;
}

void Client::RegisterDefaultHandlers() {
  registry_.Register(
      events::kModelPara,
      [this](const Message& msg) { OnModelPara(msg); },
      /*emits=*/{events::kModelUpdate});
  registry_.Register(
      events::kEvaluate, [this](const Message& msg) { OnEvaluate(msg); },
      /*emits=*/{events::kMetrics});
  registry_.Register(
      events::kFinish, [this](const Message& msg) { OnFinish(msg); });
  registry_.Register(events::kAssignId, [](const Message&) {});
  // Default performance_drop behaviour: count and log; with
  // reject_harmful_global the client additionally rolls back to its
  // pre-load parameters ("choose the most suitable snapshot", §3.4.1).
  // Users overwrite this handler for other personalization policies.
  registry_.Register(events::kPerformanceDrop, [this](const Message&) {
    ++perf_drop_count_;
    if (options_.reject_harmful_global && !pre_load_snapshot_.empty()) {
      FS_CHECK_OK(model_.LoadStateDict(pre_load_snapshot_));
      ++rejected_globals_;
      FS_LOG(Debug) << "client " << id_
                    << " rejected a harmful global snapshot";
    } else {
      FS_LOG(Debug) << "client " << id_ << " observed a performance drop";
    }
  });
  // Default low_bandwidth behaviour: decline the training request (the
  // server frees the slot). Combined with the every-other-request check
  // in OnModelPara this halves the communication frequency.
  registry_.Register(
      events::kLowBandwidth,
      [this](const Message& msg) {
        ++declined_count_;
        if (obs_ != nullptr) obs_->Count("fs_client_declines_total");
        Message reply;
        reply.receiver = msg.sender;
        reply.msg_type = events::kModelUpdate;
        reply.state = msg.state;
        reply.payload.SetInt("declined", 1);
        // Only a tiny control message crosses the (slow) uplink.
        WorkEstimate work;
        work.up_bytes = 64;
        ResponseOutcome outcome =
            response_model_.Simulate(options_.device, work, &rng_);
        if (outcome.crashed) return;
        reply.timestamp = msg.timestamp + outcome.latency_seconds;
        Send(std::move(reply));
      },
      /*emits=*/{events::kModelUpdate});
  default_handlers_at_ = registry_.changes();
}

void Client::JoinIn() {
  Message msg;
  msg.receiver = kServerId;
  msg.msg_type = events::kJoinIn;
  msg.timestamp = current_time_;
  // Prior responsiveness estimate from device information (paper §3.3.1-ii:
  // "estimated from device information or historical responses").
  msg.payload.SetDouble("resp_score", ResponsivenessScore(options_.device));
  msg.payload.SetInt("num_train", data_.train.size());
  Send(std::move(msg));
}

ClientResume Client::ExportResume() {
  ClientResume resume;
  resume.rng = rng_;
  resume.time = current_time_;
  resume.last_val_accuracy = last_val_accuracy_;
  resume.rounds_trained = rounds_trained_;
  resume.perf_drops = perf_drop_count_;
  resume.declined = declined_count_;
  resume.low_bandwidth_requests = low_bandwidth_requests_;
  resume.rejected_globals = rejected_globals_;
  resume.finished = finished_;
  // Reserved to the exact size: the record is what a suspended client
  // costs, so it must not carry a doubling vector's slack.
  const std::vector<ParamRef>& params = model_.Params();
  size_t numel = 0;
  for (const ParamRef& p : params) numel += p.value->storage().size();
  resume.params.reserve(numel);
  for (const ParamRef& p : params) {
    const std::vector<float>& values = p.value->storage();
    resume.params.insert(resume.params.end(), values.begin(), values.end());
  }
  Payload state;
  trainer_->SaveState(&state, "trainer");
  for (int i = 0; i < model_.num_layers(); ++i) {
    const std::vector<uint64_t> words = model_.layer(i)->PrivateState();
    if (!words.empty()) {
      SetPackedU64s(&state, kLayerStateKey + model_.layer_name(i), words);
    }
  }
  if (!state.scalars().empty() || !state.tensors().empty()) {
    resume.trainer_state = EncodePayload(state);
  }
  return resume;
}

void Client::RestoreResume(const ClientResume& resume) {
  rng_ = resume.rng;
  current_time_ = resume.time;
  last_val_accuracy_ = resume.last_val_accuracy;
  rounds_trained_ = resume.rounds_trained;
  perf_drop_count_ = resume.perf_drops;
  declined_count_ = resume.declined;
  low_bandwidth_requests_ = resume.low_bandwidth_requests;
  rejected_globals_ = resume.rejected_globals;
  finished_ = resume.finished;
  size_t offset = 0;
  for (const ParamRef& p : model_.Params()) {
    std::vector<float>& values = p.value->storage();
    FS_CHECK_LE(offset + values.size(), resume.params.size());
    std::copy_n(resume.params.begin() + offset, values.size(),
                values.begin());
    offset += values.size();
  }
  FS_CHECK_EQ(offset, resume.params.size());
  if (!resume.trainer_state.empty()) {
    Result<Payload> state = DecodePayload(resume.trainer_state);
    FS_CHECK(state.ok()) << state.status().ToString();
    trainer_->LoadState(state.value(), "trainer", model_);
    for (int i = 0; i < model_.num_layers(); ++i) {
      const std::string key = kLayerStateKey + model_.layer_name(i);
      if (!state->HasScalar(key)) continue;
      FS_CHECK_OK(
          model_.layer(i)->LoadPrivateState(GetPackedU64s(state.value(), key)));
    }
  }
}

const SplitDataset& Client::data() {
  if (held_out_.provider != nullptr) {
    held_out_.provider->MaterializeHeldOut(held_out_, &data_);
    held_out_.provider = nullptr;
  }
  return data_;
}

EvalResult Client::EvaluateLocalTest() {
  return trainer_->Evaluate(&model_, data().test);
}

EvalResult Client::EvaluateLocalVal() {
  return trainer_->Evaluate(&model_, data().val);
}

void Client::PoisonTrainData(const std::function<void(Dataset*)>& poisoner) {
  poisoner(&data_.train);
}

void Client::OnModelPara(const Message& msg) {
  if (finished_) return;

  // Bandwidth-aware behaviour: a client below its bandwidth threshold
  // declines every other training request (condition-checking event of
  // §3.2, "use low_bandwidth to reduce the communication frequency").
  if (options_.low_bandwidth_threshold > 0.0 &&
      std::min(options_.device.up_bandwidth,
               options_.device.down_bandwidth) <
          options_.low_bandwidth_threshold) {
    if (++low_bandwidth_requests_ % 2 == 1) {
      RaiseEvent(events::kLowBandwidth, msg);
      return;
    }
  }

  // Per-round configuration re-specification (FedEx manager plug-in, §4.3,
  // Figure 8): the broadcast may carry hpo.* scalars overriding the native
  // training configuration for this round only.
  TrainConfig round_config = options_.train;
  if (msg.payload.HasScalar("hpo.lr")) {
    round_config.lr = msg.payload.GetDouble("hpo.lr", round_config.lr);
  }
  if (msg.payload.HasScalar("hpo.local_steps")) {
    round_config.local_steps = static_cast<int>(
        msg.payload.GetInt("hpo.local_steps", round_config.local_steps));
  }
  if (msg.payload.HasScalar("hpo.weight_decay")) {
    round_config.weight_decay =
        msg.payload.GetDouble("hpo.weight_decay", round_config.weight_decay);
  }
  if (msg.payload.HasScalar("hpo.momentum")) {
    round_config.momentum =
        msg.payload.GetDouble("hpo.momentum", round_config.momentum);
  }

  const StateDict global_shared = msg.payload.GetStateDict(kModelKey);

  // Validation feedback before/after incorporating the global model — used
  // both by performance_drop detection and as FedEx feedback.
  double val_acc_before = -1.0, val_loss_before = -1.0;
  const bool want_feedback = options_.perf_drop_threshold > 0.0 ||
                             msg.payload.HasScalar("hpo.want_feedback");
  if (want_feedback && !data().val.empty()) {
    EvalResult before = trainer_->Evaluate(&model_, data().val);
    val_acc_before = before.accuracy;
    val_loss_before = before.loss;
  }

  if (options_.perf_drop_threshold > 0.0) {
    pre_load_snapshot_ = model_.GetStateDict();
  }
  trainer_->UpdateModel(&model_, global_shared);

  if (options_.perf_drop_threshold > 0.0 && !data().val.empty() &&
      last_val_accuracy_ >= 0.0) {
    EvalResult after_load = trainer_->Evaluate(&model_, data().val);
    if (after_load.accuracy <
        last_val_accuracy_ - options_.perf_drop_threshold) {
      RaiseEvent(events::kPerformanceDrop, msg);
    }
  }
  pre_load_snapshot_.clear();

  // Local training, decoupled into the Trainer (Figure 5).
  const StateDict before =
      trainer_->GetShareableState(&model_, options_.share_filter);
  TrainResult train_result =
      trainer_->Train(&model_, data_.train, round_config, &rng_);
  ++rounds_trained_;
  StateDict delta = SdSub(
      trainer_->GetShareableState(&model_, options_.share_filter), before);

  // Participant plug-in: a malicious client may rewrite the update.
  if (update_poisoner_) update_poisoner_(&delta);

  // Behaviour plug-in: privacy protection by noise injection (Figure 6).
  ApplyDpToDelta(&delta, options_.dp, &rng_);

  double val_loss_after = -1.0, val_acc_after = -1.0;
  if (want_feedback && !data().val.empty()) {
    EvalResult after = trainer_->Evaluate(&model_, data().val);
    val_loss_after = after.loss;
    val_acc_after = after.accuracy;
    last_val_accuracy_ = after.accuracy;
  } else if (options_.perf_drop_threshold > 0.0 && !data().val.empty()) {
    last_val_accuracy_ = trainer_->Evaluate(&model_, data().val).accuracy;
  }

  const bool record_obs = obs_ != nullptr && obs_->recording_metrics();

  Message reply;
  reply.receiver = msg.sender;
  reply.msg_type = events::kModelUpdate;
  reply.state = msg.state;  // the round this update is based on
  // Message-transform operator: the update leaves the device in the
  // configured codec (the server decodes it transparently).
  reply.payload = EncodeUpdate(delta, options_.compression,
                               options_.compression_keep_frac);
  if (record_obs) {
    const MetricLabels codec_label = {{"codec", options_.compression}};
    obs_->Count("fs_client_updates_total", 1.0, codec_label);
    // Wire bytes of the update alone, before the metadata added below.
    obs_->Count("fs_client_update_bytes_total",
                static_cast<double>(reply.payload.ByteSize()), codec_label);
    obs_->Count("fs_client_update_raw_bytes_total",
                static_cast<double>(RawUpdateBytes(delta)), codec_label);
    const MetricLabels client_label = {{"client", std::to_string(id_)}};
    obs_->Count("fs_client_rounds_total", 1.0, client_label);
    obs_->Count("fs_client_train_steps_total",
                static_cast<double>(train_result.local_steps), client_label);
    obs_->Count("fs_client_train_samples_total",
                static_cast<double>(train_result.num_samples), client_label);
  }
  reply.payload.SetInt("num_samples", train_result.num_samples);
  reply.payload.SetInt("local_steps", train_result.local_steps);
  reply.payload.SetDouble("train_loss", train_result.mean_loss);
  if (val_loss_after >= 0.0) {
    reply.payload.SetDouble("val_loss_before", val_loss_before);
    reply.payload.SetDouble("val_loss_after", val_loss_after);
    reply.payload.SetDouble("val_acc_before", val_acc_before);
    reply.payload.SetDouble("val_acc_after", val_acc_after);
  }

  // Virtual-time latency of download + local compute + upload
  // (FedScale-style estimation, §5.3.1).
  WorkEstimate work;
  work.samples_processed = train_result.num_samples;
  work.down_bytes = msg.payload.ByteSize();
  work.up_bytes = reply.payload.ByteSize();
  ResponseOutcome outcome =
      response_model_.Simulate(options_.device, work, &rng_);
  if (outcome.crashed) {
    FS_LOG(Debug) << "client " << id_ << " crashed during round "
                  << msg.state;
    if (obs_ != nullptr) obs_->Count("fs_client_crashes_total");
    return;  // never responds
  }
  if (obs_ != nullptr) {
    obs_->Observe("fs_client_latency_seconds", LatencyBounds(),
                  outcome.latency_seconds);
    if (obs_->tracer != nullptr) {
      obs_->tracer->Span("client_round", msg.timestamp,
                         outcome.latency_seconds, id_,
                         {{"round", std::to_string(msg.state)}});
    }
  }
  reply.timestamp = msg.timestamp + outcome.latency_seconds;
  Send(std::move(reply));
}

void Client::OnEvaluate(const Message& msg) {
  EvalResult test = trainer_->Evaluate(&model_, data().test);
  Message reply;
  reply.receiver = msg.sender;
  reply.msg_type = events::kMetrics;
  reply.state = msg.state;
  reply.timestamp = msg.timestamp;
  reply.payload.SetDouble("test_loss", test.loss);
  reply.payload.SetDouble("test_acc", test.accuracy);
  reply.payload.SetInt("test_n", test.num_examples);
  Send(std::move(reply));
}

void Client::OnFinish(const Message& msg) {
  (void)msg;
  finished_ = true;
}

}  // namespace fedscope
