#include "fedscope/core/events.h"

#include <algorithm>

namespace fedscope {

std::vector<std::string> BuiltinMessageEvents() {
  return {events::kJoinIn,   events::kAssignId, events::kModelPara,
          events::kModelUpdate, events::kEvaluate, events::kMetrics,
          events::kFinish,   events::kTimer};
}

std::vector<std::string> BuiltinConditionEvents() {
  return {events::kAllReceived,  events::kGoalAchieved,
          events::kTimeUp,       events::kAllJoinedIn,
          events::kEarlyStop,    events::kTargetReached,
          events::kPerformanceDrop, events::kLowBandwidth};
}

EventClass ClassifyEvent(const std::string& event) {
  auto msgs = BuiltinMessageEvents();
  if (std::find(msgs.begin(), msgs.end(), event) != msgs.end()) {
    return EventClass::kMessagePassing;
  }
  // Delivered as a message despite being a Table 2 extension (it is kept
  // out of BuiltinMessageEvents, which reproduces the table verbatim).
  if (event == events::kClientFailure) return EventClass::kMessagePassing;
  return EventClass::kConditionChecking;
}

}  // namespace fedscope
