#include "fedscope/comm/message.h"

#include <sstream>

namespace fedscope {

int64_t Payload::GetInt(const std::string& key, int64_t def) const {
  auto it = scalars_.find(key);
  if (it == scalars_.end()) return def;
  if (std::holds_alternative<int64_t>(it->second)) {
    return std::get<int64_t>(it->second);
  }
  if (std::holds_alternative<double>(it->second)) {
    return static_cast<int64_t>(std::get<double>(it->second));
  }
  return def;
}

double Payload::GetDouble(const std::string& key, double def) const {
  auto it = scalars_.find(key);
  if (it == scalars_.end()) return def;
  if (std::holds_alternative<double>(it->second)) {
    return std::get<double>(it->second);
  }
  if (std::holds_alternative<int64_t>(it->second)) {
    return static_cast<double>(std::get<int64_t>(it->second));
  }
  return def;
}

std::string Payload::GetString(const std::string& key,
                               const std::string& def) const {
  auto it = scalars_.find(key);
  if (it == scalars_.end()) return def;
  if (std::holds_alternative<std::string>(it->second)) {
    return std::get<std::string>(it->second);
  }
  return def;
}

Result<Tensor> Payload::GetTensor(const std::string& key) const {
  auto it = tensors_.find(key);
  if (it == tensors_.end()) {
    return Status::NotFound("payload tensor: " + key);
  }
  return it->second;
}

void Payload::SetStateDict(const std::string& prefix, const StateDict& state) {
  for (const auto& [name, tensor] : state) {
    tensors_[prefix + "/" + name] = tensor;
  }
}

StateDict Payload::GetStateDict(const std::string& prefix) const {
  StateDict state;
  const std::string full_prefix = prefix + "/";
  for (const auto& [key, tensor] : tensors_) {
    if (key.rfind(full_prefix, 0) == 0) {
      state[key.substr(full_prefix.size())] = tensor;
    }
  }
  return state;
}

int64_t Payload::ByteSize() const {
  int64_t bytes = 0;
  for (const auto& [key, value] : scalars_) {
    bytes += static_cast<int64_t>(key.size()) + 16;
    if (std::holds_alternative<std::string>(value)) {
      bytes += static_cast<int64_t>(std::get<std::string>(value).size());
    }
  }
  for (const auto& [key, tensor] : tensors_) {
    bytes += static_cast<int64_t>(key.size()) + 16 +
             tensor.numel() * static_cast<int64_t>(sizeof(float)) +
             tensor.ndim() * 8;
  }
  return bytes;
}

std::string MessageSummary(const Message& msg) {
  std::ostringstream os;
  os << "Message{type=" << msg.msg_type << ", " << msg.sender << "->"
     << msg.receiver << ", state=" << msg.state << ", t=" << msg.timestamp
     << ", tensors=" << msg.payload.tensors().size()
     << ", scalars=" << msg.payload.scalars().size() << "}";
  return os.str();
}

}  // namespace fedscope
