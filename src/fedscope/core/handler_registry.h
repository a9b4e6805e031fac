#ifndef FEDSCOPE_CORE_HANDLER_REGISTRY_H_
#define FEDSCOPE_CORE_HANDLER_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "fedscope/comm/message.h"
#include "fedscope/util/status.h"

namespace fedscope {

/// Binds events to handlers for one participant (paper §3.2 / Figure 4).
///
/// Conflict resolution follows the paper's "overwriting" principle: each
/// event is linked to exactly one handler; registering a second handler for
/// an event logs a warning and the latest registration wins (so defaults
/// are overridden by user customizations). The effective bindings can be
/// listed for the experiment log.
class HandlerRegistry {
 public:
  using Handler = std::function<void(const Message&)>;

  /// Registers `handler` for `event`. `emits` declares which message types
  /// this handler may send as a consequence — the message-flow metadata
  /// consumed by the completeness checker (Appendix E). Returns true if a
  /// previous handler was overwritten.
  bool Register(const std::string& event, Handler handler,
                std::vector<std::string> emits = {});

  /// Removes the handler for `event` (paper: "users can remove some
  /// handlers ... to make sure the intended handlers take effect").
  bool Unregister(const std::string& event);

  bool Has(const std::string& event) const;

  /// Invokes the handler bound to `event`; NotFound if none.
  Status Dispatch(const std::string& event, const Message& msg) const;

  /// Events with handlers, in registration order (effective bindings).
  std::vector<std::string> RegisteredEvents() const;

  /// Declared message flows: event -> message types the handler emits.
  const std::map<std::string, std::vector<std::string>>& Flows() const {
    return flows_;
  }

  /// Number of times registration overwrote an existing handler.
  int overwrite_count() const { return overwrite_count_; }

  /// Number of Register and Unregister calls so far: bindings are unchanged
  /// between two equal readings.
  int64_t changes() const { return changes_; }

 private:
  std::map<std::string, Handler> handlers_;
  std::map<std::string, std::vector<std::string>> flows_;
  std::vector<std::string> order_;
  int overwrite_count_ = 0;
  int64_t changes_ = 0;
};

}  // namespace fedscope

#endif  // FEDSCOPE_CORE_HANDLER_REGISTRY_H_
