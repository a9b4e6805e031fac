#include "fedscope/fault/fault_plan.h"

#include <cmath>
#include <limits>

#include "fedscope/core/events.h"
#include "fedscope/util/logging.h"

namespace fedscope {
namespace {

constexpr uint64_t kDefaultSeed = 0xFA017;

bool IsDataPlane(const std::string& msg_type) {
  return msg_type == events::kModelPara || msg_type == events::kModelUpdate ||
         msg_type == events::kEvaluate || msg_type == events::kMetrics;
}

bool IsUplink(const std::string& msg_type) {
  return msg_type == events::kModelUpdate || msg_type == events::kMetrics;
}

std::set<int> PickClients(double frac, int num_clients, Rng* rng) {
  std::set<int> picked;
  if (frac <= 0.0 || num_clients <= 0) return picked;
  const auto k = static_cast<int64_t>(
      std::lround(frac * static_cast<double>(num_clients)));
  for (int64_t idx : rng->SampleWithoutReplacement(num_clients, k)) {
    picked.insert(static_cast<int>(idx) + 1);  // client ids are 1-based
  }
  return picked;
}

}  // namespace

FaultPlan::FaultPlan(const FaultPlanOptions& options, int num_clients)
    : options_(options) {
  FS_CHECK_GE(options_.dropout_frac, 0.0);
  FS_CHECK_LE(options_.dropout_frac, 1.0);
  FS_CHECK_GE(options_.straggler_frac, 0.0);
  FS_CHECK_LE(options_.straggler_frac, 1.0);
  FS_CHECK_GE(options_.hostile_frac, 0.0);
  FS_CHECK_LE(options_.hostile_frac, 1.0);
  enabled_ = options_.dropout_frac > 0.0 ||
             options_.crash_after_training_prob > 0.0 ||
             (options_.straggler_frac > 0.0 &&
              options_.straggler_delay > 0.0) ||
             options_.msg_loss_prob > 0.0 ||
             options_.msg_duplicate_prob > 0.0 ||
             (options_.msg_delay_prob > 0.0 && options_.msg_delay_max > 0.0) ||
             options_.hostile_frac > 0.0;
  if (!enabled_) return;
  const Rng seeder(options_.seed != 0 ? options_.seed : kDefaultSeed);
  Rng dropout_rng = seeder.Fork(1);
  Rng straggler_rng = seeder.Fork(2);
  dropped_ = PickClients(options_.dropout_frac, num_clients, &dropout_rng);
  stragglers_ =
      PickClients(options_.straggler_frac, num_clients, &straggler_rng);
  rng_ = seeder.Fork(3);
  // Hostile draws live on their own fork so turning the axis on (or off)
  // never perturbs the dropout/straggler/channel streams of a given seed.
  hostile_rng_ = seeder.Fork(4);
  hostile_ = PickClients(options_.hostile_frac, num_clients, &hostile_rng_);
}

FaultPlan::MessageFate FaultPlan::Judge(const Message& msg) {
  MessageFate fate;
  if (!enabled_ || !IsDataPlane(msg.msg_type)) return fate;

  if (IsUplink(msg.msg_type)) {
    if (IsDropped(msg.sender)) {
      // The device went dark after joining: its uplink never arrives.
      fate.drop = true;
      ++counters_.dropout_suppressed;
      return fate;
    }
    if (msg.msg_type == events::kModelUpdate &&
        options_.crash_after_training_prob > 0.0 &&
        rng_.Bernoulli(options_.crash_after_training_prob)) {
      fate.drop = true;
      ++counters_.crashes;
      return fate;
    }
    if (IsStraggler(msg.sender)) {
      fate.extra_delay += options_.straggler_delay;
    }
  }

  if (options_.msg_loss_prob > 0.0 && rng_.Bernoulli(options_.msg_loss_prob)) {
    fate.drop = true;
    ++counters_.lost;
    return fate;
  }
  if (options_.msg_duplicate_prob > 0.0 &&
      rng_.Bernoulli(options_.msg_duplicate_prob)) {
    fate.duplicate = true;
    ++counters_.duplicated;
  }
  if (options_.msg_delay_prob > 0.0 && options_.msg_delay_max > 0.0 &&
      rng_.Bernoulli(options_.msg_delay_prob)) {
    fate.extra_delay += rng_.Uniform(0.0, options_.msg_delay_max);
    ++counters_.delayed;
  }

  // Hostile mutation of surviving model updates. Decided last so a message
  // the channel loses anyway never consumes a hostile draw.
  if (msg.msg_type == events::kModelUpdate && IsHostile(msg.sender) &&
      hostile_rng_.Bernoulli(options_.hostile_prob)) {
    std::string mode = options_.hostile_mode;
    if (mode == "mixed") {
      static constexpr const char* kModes[] = {"nan",       "inf",
                                               "sign_flip", "scale",
                                               "malformed", "replay"};
      mode = kModes[hostile_rng_.UniformInt(0, 5)];
    }
    fate.hostile = mode;
    fate.hostile_scale = options_.hostile_scale;
    if (mode == "nan" || mode == "inf") {
      ++counters_.poisoned_nonfinite;
    } else if (mode == "sign_flip") {
      ++counters_.sign_flipped;
    } else if (mode == "scale") {
      ++counters_.scaled;
    } else if (mode == "malformed") {
      ++counters_.malformed;
    } else if (mode == "replay") {
      ++counters_.replayed;
    }
  }
  return fate;
}

void ApplyHostileMutation(const FaultPlan::MessageFate& fate, Message* msg) {
  if (fate.hostile.empty()) return;
  if (fate.hostile == "replay") {
    // Claim round 0: under nonzero staleness toleration the stale payload
    // must still pass the guard's shape/finiteness screens; beyond it the
    // ordinary staleness drop applies.
    msg->state = 0;
    return;
  }
  std::vector<std::string> keys;
  keys.reserve(msg->payload.tensors().size());
  for (const auto& [name, tensor] : msg->payload.tensors()) {
    keys.push_back(name);
  }
  if (fate.hostile == "malformed") {
    // Rename + flatten one tensor: still a valid wire frame, but the name
    // and shape no longer match the broadcast signature (and a compressed
    // update no longer decodes).
    if (keys.empty()) return;
    Tensor t = msg->payload.GetTensor(keys.front()).value();
    msg->payload.RemoveTensor(keys.front());
    msg->payload.SetTensor(keys.front() + "#", t.Reshape({t.numel()}));
    return;
  }
  for (const std::string& key : keys) {
    Tensor t = msg->payload.GetTensor(key).value();
    if (fate.hostile == "nan") {
      if (t.numel() > 0) t.at(0) = std::numeric_limits<float>::quiet_NaN();
    } else if (fate.hostile == "inf") {
      if (t.numel() > 0) t.at(0) = std::numeric_limits<float>::infinity();
    } else if (fate.hostile == "sign_flip") {
      for (int64_t i = 0; i < t.numel(); ++i) t.at(i) = -t.at(i);
    } else if (fate.hostile == "scale") {
      const float scale = static_cast<float>(fate.hostile_scale);
      for (int64_t i = 0; i < t.numel(); ++i) t.at(i) *= scale;
    }
    msg->payload.SetTensor(key, std::move(t));
  }
}

}  // namespace fedscope
