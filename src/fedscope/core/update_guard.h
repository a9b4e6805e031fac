#ifndef FEDSCOPE_CORE_UPDATE_GUARD_H_
#define FEDSCOPE_CORE_UPDATE_GUARD_H_

#include <map>
#include <set>
#include <string>

#include "fedscope/comm/message.h"
#include "fedscope/nn/model.h"

namespace fedscope {

/// Server-ingress validation policy (DESIGN.md §14). Off by default: a
/// guard-less course is byte-identical to the pre-guard behaviour.
struct UpdateGuardOptions {
  bool enabled = false;
  /// L2 norm bound on the whole update delta; 0 disables the bound. An
  /// over-norm delta is rejected, or scaled down to the bound when
  /// `clip_to_bound` is set (clipping is a repair, not a violation).
  double l2_bound = 0.0;
  bool clip_to_bound = false;
  /// Hard violations (signature / non-finite / over-norm reject) before a
  /// client is quarantined out of the sampling pool; 0 disables quarantine.
  int quarantine_after = 3;
};

/// Outcome of inspecting one update. kClip means the delta was scaled to
/// the L2 bound in place and is usable; the kReject* verdicts mean the
/// delta must not reach an aggregator.
enum class GuardVerdict {
  kAccept,
  kClip,
  kRejectSignature,
  kRejectNonFinite,
  kRejectNorm,
};

/// Metric label for a rejecting verdict ("signature" / "non_finite" /
/// "norm"); kAccept/kClip have no rejection label.
const char* GuardReasonLabel(GuardVerdict verdict);

struct GuardDecision {
  GuardVerdict verdict = GuardVerdict::kAccept;
  /// True when this violation tripped the quarantine bar for the sender.
  bool quarantine = false;
  /// Human-readable cause, for logs.
  std::string detail;

  bool rejected() const {
    return verdict == GuardVerdict::kRejectSignature ||
           verdict == GuardVerdict::kRejectNonFinite ||
           verdict == GuardVerdict::kRejectNorm;
  }
};

/// Deterministic ingress pipeline validating every received update against
/// the broadcast model signature (tensor names, shapes, element counts),
/// screening NaN/Inf, and applying the optional L2 bound. Decisions are a
/// pure function of the delta and the accumulated violation counts — no
/// randomness — so guarded courses stay bit-reproducible and snapshot
/// restore (SaveState/LoadState) resumes them bit-identically.
class UpdateGuard {
 public:
  explicit UpdateGuard(UpdateGuardOptions options);

  const UpdateGuardOptions& options() const { return options_; }

  /// Validates `delta` against `signature`; clips it in place when the L2
  /// bound is exceeded in clip mode. A rejecting verdict books a violation
  /// against `client_id`.
  GuardDecision Inspect(int client_id, const StateDict& signature,
                        StateDict* delta);
  /// Books a rejecting `decision` against `client_id` (a no-op when
  /// disabled): Inspect's rejections, and an update that did not decode.
  GuardDecision Book(int client_id, GuardDecision decision);

  bool IsQuarantined(int client_id) const {
    return quarantined_.count(client_id) > 0;
  }
  const std::set<int>& quarantined() const { return quarantined_; }
  const std::map<int, int>& violations() const { return violations_; }

  /// Persists / restores violation counts and the quarantine set for
  /// crash snapshots (keys under `prefix`).
  void SaveState(Payload* p, const std::string& prefix) const;
  void LoadState(const Payload& p, const std::string& prefix);

 private:
  UpdateGuardOptions options_;
  std::map<int, int> violations_;
  std::set<int> quarantined_;
};

}  // namespace fedscope

#endif  // FEDSCOPE_CORE_UPDATE_GUARD_H_
