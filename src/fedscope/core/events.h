#ifndef FEDSCOPE_CORE_EVENTS_H_
#define FEDSCOPE_CORE_EVENTS_H_

#include <string>
#include <vector>

namespace fedscope {
namespace events {

// ---------------------------------------------------------------------------
// Events related to message passing (paper §3.2, Table 2). Receiving a
// message of type T raises the event named T at the receiver.
// ---------------------------------------------------------------------------

/// Client -> server: request to join the FL course (carries device info).
inline constexpr char kJoinIn[] = "join_in";
/// Server -> client: id assignment / admission acknowledgement.
inline constexpr char kAssignId[] = "assign_id";
/// Server -> client: broadcast of the up-to-date global (shared) model.
inline constexpr char kModelPara[] = "model_para";
/// Client -> server: local model update (delta of the shared part).
inline constexpr char kModelUpdate[] = "model_update";
/// Server -> client: request to evaluate the current model locally.
inline constexpr char kEvaluate[] = "evaluate";
/// Client -> server: local evaluation metrics.
inline constexpr char kMetrics[] = "metrics";
/// Server -> client: the FL course has terminated.
inline constexpr char kFinish[] = "finish";
/// Simulator -> server: a scheduled timer fired (drives "time_up").
inline constexpr char kTimer[] = "timer";
/// Transport/simulator -> server: a participant failed mid-course (its
/// connection dropped, or the fault model declared it dead). Extension
/// beyond the paper's Table 2, so deliberately not in
/// BuiltinMessageEvents (which reproduces the table verbatim).
inline constexpr char kClientFailure[] = "client_failure";

// ---------------------------------------------------------------------------
// Events related to condition checking (paper §3.2). Raised internally by a
// participant when the corresponding condition becomes true.
// ---------------------------------------------------------------------------

/// All sampled clients' updates have been received (synchronous trigger).
inline constexpr char kAllReceived[] = "all_received";
/// The aggregation goal (a configured number of updates) has been reached.
inline constexpr char kGoalAchieved[] = "goal_achieved";
/// The allocated time budget for the training round has run out.
inline constexpr char kTimeUp[] = "time_up";
/// All expected clients have joined the FL course.
inline constexpr char kAllJoinedIn[] = "all_joined_in";
/// The pre-defined early-stop condition is satisfied.
inline constexpr char kEarlyStop[] = "early_stop";
/// The target test accuracy has been reached.
inline constexpr char kTargetReached[] = "target_reached";
/// The received global model degraded this client's local performance.
inline constexpr char kPerformanceDrop[] = "performance_drop";
/// The client's available bandwidth is below its configured threshold;
/// the default handler reduces communication frequency (paper §3.2).
inline constexpr char kLowBandwidth[] = "low_bandwidth";
/// The synchronous receive deadline expired with enough updates buffered:
/// aggregate the partial cohort (graceful degradation; extension beyond
/// Table 2, so deliberately not in BuiltinConditionEvents).
inline constexpr char kReceiveDeadline[] = "receive_deadline";

}  // namespace events

/// Classifies an event name. Unknown names count as condition events
/// (user-defined conditions are expected; user-defined message types should
/// be registered through the message-flow declarations).
enum class EventClass { kMessagePassing, kConditionChecking };
EventClass ClassifyEvent(const std::string& event);

/// All built-in events of each class (for docs / completeness tooling).
std::vector<std::string> BuiltinMessageEvents();
std::vector<std::string> BuiltinConditionEvents();

}  // namespace fedscope

#endif  // FEDSCOPE_CORE_EVENTS_H_
