#include "fedscope/fault/fault_channel.h"

namespace fedscope {

void FaultInjectingChannel::Send(const Message& msg) {
  if (plan_ == nullptr || !plan_->enabled()) {
    inner_->Send(msg);
    return;
  }
  const FaultPlan::MessageFate fate = plan_->Judge(msg);
  if (fate.drop) {
    if (obs_ != nullptr) {
      obs_->Count("fs_fault_messages_dropped_total", 1.0,
                  {{"type", msg.msg_type}});
    }
    return;
  }
  if (!fate.hostile.empty()) {
    // The mutation happens in flight, after the honest worker produced its
    // update, so both transports see the identical attack surface.
    Message poisoned = msg;
    ApplyHostileMutation(fate, &poisoned);
    if (obs_ != nullptr) {
      obs_->Count("fs_fault_messages_poisoned_total", 1.0,
                  {{"kind", fate.hostile}});
    }
    Forward(fate, poisoned);
    return;
  }
  Forward(fate, msg);
}

void FaultInjectingChannel::Forward(const FaultPlan::MessageFate& fate,
                                    const Message& msg) {
  Message delayed;
  const Message* out = &msg;
  if (fate.extra_delay > 0.0) {
    if (obs_ != nullptr) {
      obs_->Count("fs_fault_messages_delayed_total", 1.0,
                  {{"type", msg.msg_type}});
    }
    delayed = msg;
    delayed.timestamp += fate.extra_delay;
    out = &delayed;
  }
  inner_->Send(*out);
  if (!fate.duplicate) return;
  if (suppress_duplicates_) {
    ++suppressed_;
  } else {
    inner_->Send(*out);
  }
  if (obs_ != nullptr) {
    obs_->Count("fs_fault_messages_duplicated_total", 1.0,
                {{"type", msg.msg_type}});
  }
}

}  // namespace fedscope
