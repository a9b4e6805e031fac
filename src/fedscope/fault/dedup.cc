#include "fedscope/fault/dedup.h"

#include "fedscope/comm/codec.h"

namespace fedscope {

bool DuplicateSuppressor::IsDuplicate(const Message& msg) {
  auto it = last_.find(msg.sender);
  if (it != last_.end() && it->second.state == msg.state &&
      it->second.msg_type == msg.msg_type &&
      it->second.payload == msg.payload) {
    ++suppressed_;
    return true;
  }
  LastSeen& seen = last_[msg.sender];
  seen.state = msg.state;
  seen.msg_type = msg.msg_type;
  seen.payload = msg.payload;
  return false;
}

void DuplicateSuppressor::SaveState(Payload* p,
                                    const std::string& prefix) const {
  p->SetInt(prefix + "/count", static_cast<int64_t>(last_.size()));
  p->SetInt(prefix + "/suppressed", suppressed_);
  int64_t i = 0;
  for (const auto& [sender, seen] : last_) {
    const std::string base = prefix + "/" + std::to_string(i);
    p->SetInt(base + "/sender", sender);
    p->SetInt(base + "/state", seen.state);
    p->SetString(base + "/msg_type", seen.msg_type);
    const std::vector<uint8_t> encoded = EncodePayload(seen.payload);
    p->SetString(base + "/payload",
                 std::string(encoded.begin(), encoded.end()));
    ++i;
  }
}

Status DuplicateSuppressor::LoadState(const Payload& p,
                                      const std::string& prefix) {
  std::map<int, LastSeen> restored;
  const int64_t count = p.GetInt(prefix + "/count");
  for (int64_t i = 0; i < count; ++i) {
    const std::string base = prefix + "/" + std::to_string(i);
    LastSeen seen;
    seen.state = static_cast<int>(p.GetInt(base + "/state"));
    seen.msg_type = p.GetString(base + "/msg_type");
    const std::string bytes = p.GetString(base + "/payload");
    auto payload = DecodePayload(
        std::vector<uint8_t>(bytes.begin(), bytes.end()));
    if (!payload.ok()) return payload.status();
    seen.payload = std::move(payload.value());
    restored[static_cast<int>(p.GetInt(base + "/sender"))] = std::move(seen);
  }
  last_ = std::move(restored);
  suppressed_ = p.GetInt(prefix + "/suppressed");
  return Status::Ok();
}

}  // namespace fedscope
