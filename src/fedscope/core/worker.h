#ifndef FEDSCOPE_CORE_WORKER_H_
#define FEDSCOPE_CORE_WORKER_H_

#include <string>

#include "fedscope/comm/channel.h"
#include "fedscope/comm/message.h"
#include "fedscope/core/handler_registry.h"
#include "fedscope/obs/obs_context.h"

namespace fedscope {

/// Base class of FL participants (the paper's BaseWorker). A worker is
/// driven entirely by events: the simulator delivers messages through
/// HandleMessage, which dispatches on the message type; condition events
/// are raised internally through RaiseEvent. Behaviour is attached by
/// registering handlers — subclasses register defaults, users may overwrite
/// them (§3.2).
class BaseWorker {
 public:
  BaseWorker(int id, CommChannel* channel) : id_(id), channel_(channel) {}
  virtual ~BaseWorker() = default;

  BaseWorker(const BaseWorker&) = delete;
  BaseWorker& operator=(const BaseWorker&) = delete;

  int id() const { return id_; }
  HandlerRegistry& registry() { return registry_; }
  const HandlerRegistry& registry() const { return registry_; }

  /// Delivers a message: advances this worker's virtual clock to the
  /// message timestamp and dispatches the event named by the message type.
  /// Messages without a registered handler are logged and dropped (a
  /// warning, not an error: user-defined courses may ignore some types).
  void HandleMessage(const Message& msg);

  /// Raises a condition-checking event; the context message provides the
  /// timestamp and any payload the handler needs.
  void RaiseEvent(const std::string& event, const Message& context);

  /// This worker's current virtual time (timestamp of the last message).
  double current_time() const { return current_time_; }

  /// Attaches observability sinks (borrowed; must outlive the worker; null
  /// restores the no-op default). Subclass handlers consult `obs()` for
  /// metric / trace / course-log instrumentation.
  void set_obs(const ObsContext* obs) { obs_ = obs; }
  const ObsContext* obs() const { return obs_; }

  /// Points later Sends at `channel` (borrowed; must outlive its use). The
  /// threaded execution backend aims a client at its task's capture while
  /// the task runs, then back at the course channel (DESIGN.md §12).
  void set_channel(CommChannel* channel) { channel_ = channel; }

 protected:
  /// Sends a message, stamping the sender id. The timestamp must not be in
  /// the sender's past.
  void Send(Message msg);

  int id_;
  CommChannel* channel_;
  HandlerRegistry registry_;
  double current_time_ = 0.0;
  const ObsContext* obs_ = nullptr;
};

}  // namespace fedscope

#endif  // FEDSCOPE_CORE_WORKER_H_
