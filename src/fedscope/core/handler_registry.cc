#include "fedscope/core/handler_registry.h"

#include <algorithm>

#include "fedscope/util/logging.h"

namespace fedscope {

bool HandlerRegistry::Register(const std::string& event, Handler handler,
                               std::vector<std::string> emits) {
  FS_CHECK(handler != nullptr);
  ++changes_;
  const bool overwrite = handlers_.count(event) > 0;
  if (overwrite) {
    // The paper's default conflict resolution: warn, latest wins.
    FS_LOG(Warning) << "event '" << event
                    << "' is already linked to a handler; the latest "
                       "registration overwrites the older one";
    ++overwrite_count_;
    order_.erase(std::remove(order_.begin(), order_.end(), event),
                 order_.end());
  }
  handlers_[event] = std::move(handler);
  flows_[event] = std::move(emits);
  order_.push_back(event);
  return overwrite;
}

bool HandlerRegistry::Unregister(const std::string& event) {
  ++changes_;
  order_.erase(std::remove(order_.begin(), order_.end(), event),
               order_.end());
  flows_.erase(event);
  return handlers_.erase(event) > 0;
}

bool HandlerRegistry::Has(const std::string& event) const {
  return handlers_.count(event) > 0;
}

Status HandlerRegistry::Dispatch(const std::string& event,
                                 const Message& msg) const {
  auto it = handlers_.find(event);
  if (it == handlers_.end()) {
    return Status::NotFound("no handler registered for event: " + event);
  }
  it->second(msg);
  return Status::Ok();
}

std::vector<std::string> HandlerRegistry::RegisteredEvents() const {
  return order_;
}

}  // namespace fedscope
