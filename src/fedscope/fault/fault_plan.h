#ifndef FEDSCOPE_FAULT_FAULT_PLAN_H_
#define FEDSCOPE_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <set>
#include <string>

#include "fedscope/comm/message.h"
#include "fedscope/util/rng.h"

namespace fedscope {

/// Configuration of the deterministic fault model. All knobs default to
/// zero: a default-constructed plan injects nothing and adds no overhead,
/// so courses without faults stay byte-identical to a build without the
/// fault subsystem.
struct FaultPlanOptions {
  // -- per-client faults ----------------------------------------------------
  /// Fraction of the fleet that joins the course and then goes permanently
  /// dark: everything they send after joining (updates, metrics) is lost.
  /// The affected set is round(frac * num_clients) clients chosen once,
  /// seeded, at plan construction.
  double dropout_frac = 0.0;
  /// Per-update probability that a client crashes after local training:
  /// the compute happened but the resulting model_update never leaves the
  /// device. (Distinct from DeviceProfile::crash_prob, which crashes the
  /// client *before* it produces an update.)
  double crash_after_training_prob = 0.0;
  /// Fraction of the fleet whose uplink replies take `straggler_delay`
  /// extra virtual seconds (on top of the device profile's own latency).
  double straggler_frac = 0.0;
  double straggler_delay = 0.0;
  // -- per-message channel faults (both directions) -------------------------
  /// Probability that a data-plane message is silently lost in transit.
  double msg_loss_prob = 0.0;
  /// Probability that a data-plane message is delivered twice
  /// (at-least-once transport semantics).
  double msg_duplicate_prob = 0.0;
  /// Probability that a data-plane message is delayed by a uniform extra
  /// [0, msg_delay_max) virtual seconds.
  double msg_delay_prob = 0.0;
  double msg_delay_max = 0.0;
  // -- server fault ---------------------------------------------------------
  /// Crash-point injection for the standalone recovery drill (DESIGN.md
  /// §10): the FedRunner kills its Server immediately before dispatching
  /// the Nth delivered event (0-based) and restores it from a wire-codec
  /// snapshot; clients and queued messages are the surviving transport.
  /// -1 disables. Handled by the runner, not the channel decorator, so it
  /// does not flip enabled() and adds no per-message rng draws.
  int64_t server_crash_at_event = -1;
  // -- hostile clients (DESIGN.md §14) --------------------------------------
  /// Fraction of the fleet acting as Byzantine attackers: their
  /// model_update payloads are mutated in flight by the channel decorator,
  /// so workers stay unchanged and both transports see identical attacks.
  /// The hostile set is chosen once, seeded, at plan construction.
  double hostile_frac = 0.0;
  /// Attack applied to hostile uplinks: "nan" | "inf" (non-finite poison),
  /// "sign_flip", "scale" (gradient scaling by `hostile_scale`),
  /// "malformed" (renamed + reshaped tensor, still codec-valid), "replay"
  /// (stale-round replay), or "mixed" (per-message seeded draw among the
  /// six).
  std::string hostile_mode = "nan";
  /// Per-update probability that a hostile client actually attacks.
  double hostile_prob = 1.0;
  /// Multiplier used by the "scale" attack.
  double hostile_scale = 1e6;
  /// Seed of the plan's private rng stream (0 picks a fixed default).
  uint64_t seed = 0;
};

/// Seeded, deterministic fault model for one FL course. The plan draws the
/// dropout/straggler sets once at construction and consumes its private
/// rng in message-send order, so same-seed standalone runs (whose delivery
/// order is deterministic) replay the exact same faults.
///
/// Only data-plane traffic (model_para / model_update / evaluate /
/// metrics) is ever faulted; control-plane messages (join_in, assign_id,
/// finish, timer, client_failure) pass through untouched so bootstrap,
/// teardown, and the timer service keep their liveness guarantees.
class FaultPlan {
 public:
  /// What the plan decided for one message.
  struct MessageFate {
    bool drop = false;
    bool duplicate = false;
    /// Extra virtual seconds added to the delivery timestamp.
    double extra_delay = 0.0;
    /// Resolved hostile mutation for this message ("" = none). Applied by
    /// ApplyHostileMutation in the channel decorator.
    std::string hostile;
    double hostile_scale = 1.0;
  };

  /// Fault totals, by cause (for tests and the fault-tolerance bench).
  struct Counters {
    /// Uplink messages suppressed because their sender is dropped.
    int64_t dropout_suppressed = 0;
    /// Updates lost to crash-after-training.
    int64_t crashes = 0;
    /// Messages lost to random channel loss.
    int64_t lost = 0;
    int64_t duplicated = 0;
    int64_t delayed = 0;
    /// Hostile mutations, by kind (what fuzz oracle 14 reconciles against
    /// the server's rejection counts).
    int64_t poisoned_nonfinite = 0;
    int64_t sign_flipped = 0;
    int64_t scaled = 0;
    int64_t malformed = 0;
    int64_t replayed = 0;
  };

  /// All-null plan: enabled() is false and Judge never faults.
  FaultPlan() = default;
  FaultPlan(const FaultPlanOptions& options, int num_clients);

  /// True when any fault knob is nonzero; false for the all-null plan.
  bool enabled() const { return enabled_; }
  bool IsDropped(int client_id) const { return dropped_.count(client_id) > 0; }
  bool IsStraggler(int client_id) const {
    return stragglers_.count(client_id) > 0;
  }
  const std::set<int>& dropped_clients() const { return dropped_; }
  const std::set<int>& straggler_clients() const { return stragglers_; }
  bool IsHostile(int client_id) const { return hostile_.count(client_id) > 0; }
  const std::set<int>& hostile_clients() const { return hostile_; }

  /// Decides the fate of one in-flight message, consuming the plan's rng.
  /// Must be called in a deterministic message order for reproducibility
  /// (standalone Send order qualifies; threaded transports do not).
  MessageFate Judge(const Message& msg);

  const Counters& counters() const { return counters_; }

 private:
  FaultPlanOptions options_;
  bool enabled_ = false;
  std::set<int> dropped_;
  std::set<int> stragglers_;
  std::set<int> hostile_;
  Rng rng_{0};
  /// Separate stream for hostile draws so adding hostility never perturbs
  /// the dropout/straggler/channel fault sequences of an existing seed.
  Rng hostile_rng_{0};
  Counters counters_;
};

/// Applies the mutation `fate.hostile` resolved by Judge to `msg` in
/// place. Every mutation stays wire-codec-valid (the through-wire check
/// still round-trips): non-finite poison and sign flips rewrite tensor
/// values, "malformed" renames and reshapes a tensor, "replay" rewinds the
/// claimed round. No-op when `fate.hostile` is empty.
void ApplyHostileMutation(const FaultPlan::MessageFate& fate, Message* msg);

}  // namespace fedscope

#endif  // FEDSCOPE_FAULT_FAULT_PLAN_H_
