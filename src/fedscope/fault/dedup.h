#ifndef FEDSCOPE_FAULT_DEDUP_H_
#define FEDSCOPE_FAULT_DEDUP_H_

#include <cstdint>
#include <map>
#include <string>

#include "fedscope/comm/message.h"

namespace fedscope {

/// Transport-level duplicate suppression for at-least-once delivery. A
/// message is a duplicate iff it repeats the previous message accepted
/// from the same sender with the same (state, msg_type) key AND an
/// identical payload: retransmission produces byte-identical frames
/// back-to-back, while a legitimate second contribution to the same round
/// (possible under after-receiving broadcasts) carries a fresh delta, so
/// payload equality must be part of the key. Not thread-safe; callers
/// serialize (the server host dedups under its incoming-queue mutex).
class DuplicateSuppressor {
 public:
  /// Returns true (and suppresses) when `msg` duplicates the last message
  /// accepted from its sender; otherwise records it and returns false.
  bool IsDuplicate(const Message& msg);

  int64_t suppressed() const { return suppressed_; }

  /// Persists the per-sender last-seen table into `p` under `prefix`
  /// (nested payloads ride as wire-encoded string scalars), so a restarted
  /// server keeps suppressing retransmissions that straddle the crash.
  void SaveState(Payload* p, const std::string& prefix) const;
  /// Restores a table written by SaveState, replacing the current one.
  Status LoadState(const Payload& p, const std::string& prefix);

 private:
  struct LastSeen {
    int state = 0;
    std::string msg_type;
    Payload payload;
  };

  std::map<int, LastSeen> last_;
  int64_t suppressed_ = 0;
};

}  // namespace fedscope

#endif  // FEDSCOPE_FAULT_DEDUP_H_
