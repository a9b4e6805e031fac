#ifndef FEDSCOPE_FAULT_FAULT_CHANNEL_H_
#define FEDSCOPE_FAULT_FAULT_CHANNEL_H_

#include <cstdint>

#include "fedscope/comm/channel.h"
#include "fedscope/fault/fault_plan.h"
#include "fedscope/obs/obs_context.h"

namespace fedscope {

/// CommChannel decorator that applies a FaultPlan to in-flight messages:
/// drops, duplicates, or delays them before they reach the inner channel.
/// Workers stay unchanged (the architecture invariant) — they just happen
/// to be wired to a lossy channel. With a disabled plan every message is
/// forwarded verbatim, so the decorator adds no behaviour.
class FaultInjectingChannel : public CommChannel {
 public:
  /// Both pointers are borrowed and must outlive the channel.
  FaultInjectingChannel(CommChannel* inner, FaultPlan* plan)
      : inner_(inner), plan_(plan) {}

  void Send(const Message& msg) override;

  /// Attaches observability sinks (borrowed; null restores the no-op
  /// default). Injected faults are then counted by type and cause.
  void set_obs(const ObsContext* obs) { obs_ = obs; }

  /// On: the copy of each message the plan duplicates is counted as
  /// suppressed and never sent (FedJob::suppress_duplicates). Duplicates
  /// are suppressed where the plan makes them, so no receiver keeps
  /// per-sender state to recognise them. Off (the default) sends both.
  void set_suppress_duplicates(bool on) { suppress_duplicates_ = on; }
  /// Duplicate copies suppressed so far (0 while suppression is off).
  int64_t suppressed() const { return suppressed_; }

 private:
  /// Applies the delay/duplicate parts of a fate and hands off to the
  /// inner channel.
  void Forward(const FaultPlan::MessageFate& fate, const Message& msg);

  CommChannel* inner_;
  FaultPlan* plan_;
  const ObsContext* obs_ = nullptr;
  bool suppress_duplicates_ = false;
  int64_t suppressed_ = 0;
};

}  // namespace fedscope

#endif  // FEDSCOPE_FAULT_FAULT_CHANNEL_H_
