#include "fedscope/core/update_guard.h"

#include <cmath>
#include <utility>
#include <vector>

#include "fedscope/core/checkpoint.h"
#include "fedscope/util/logging.h"

namespace fedscope {

const char* GuardReasonLabel(GuardVerdict verdict) {
  switch (verdict) {
    case GuardVerdict::kRejectSignature: return "signature";
    case GuardVerdict::kRejectNonFinite: return "non_finite";
    case GuardVerdict::kRejectNorm: return "norm";
    case GuardVerdict::kAccept:
    case GuardVerdict::kClip:
      break;
  }
  return "none";
}

UpdateGuard::UpdateGuard(UpdateGuardOptions options)
    : options_(options) {
  FS_CHECK_GE(options_.l2_bound, 0.0);
  FS_CHECK_GE(options_.quarantine_after, 0);
}

GuardDecision UpdateGuard::Inspect(int client_id, const StateDict& signature,
                                   StateDict* delta) {
  GuardDecision decision;
  if (!options_.enabled) return decision;

  // Signature: exactly the broadcast tensor names, each with the broadcast
  // shape (shape equality implies element-count equality).
  if (delta->size() != signature.size()) {
    decision.verdict = GuardVerdict::kRejectSignature;
    decision.detail = "tensor count " + std::to_string(delta->size()) +
                      " != " + std::to_string(signature.size());
  } else {
    for (const auto& [name, tensor] : signature) {
      const auto it = delta->find(name);
      if (it == delta->end()) {
        decision.verdict = GuardVerdict::kRejectSignature;
        decision.detail = "missing tensor " + name;
        break;
      }
      if (it->second.shape() != tensor.shape()) {
        decision.verdict = GuardVerdict::kRejectSignature;
        decision.detail = "shape mismatch for " + name;
        break;
      }
    }
  }

  // NaN/Inf screen and L2 norm in one pass over the (now shape-checked)
  // payload.
  double sq_norm = 0.0;
  if (decision.verdict == GuardVerdict::kAccept) {
    for (const auto& [name, tensor] : *delta) {
      for (int64_t i = 0; i < tensor.numel(); ++i) {
        const float v = tensor.at(i);
        if (!std::isfinite(v)) {
          decision.verdict = GuardVerdict::kRejectNonFinite;
          decision.detail = "non-finite element in " + name;
          break;
        }
        sq_norm += static_cast<double>(v) * v;
      }
      if (decision.verdict != GuardVerdict::kAccept) break;
    }
  }

  if (decision.verdict == GuardVerdict::kAccept && options_.l2_bound > 0.0) {
    const double norm = std::sqrt(sq_norm);
    if (norm > options_.l2_bound) {
      if (options_.clip_to_bound) {
        const float scale = static_cast<float>(options_.l2_bound / norm);
        for (auto& [name, tensor] : *delta) {
          for (int64_t i = 0; i < tensor.numel(); ++i) tensor.at(i) *= scale;
        }
        decision.verdict = GuardVerdict::kClip;
      } else {
        decision.verdict = GuardVerdict::kRejectNorm;
      }
      decision.detail = "l2 norm " + std::to_string(norm) + " > bound " +
                        std::to_string(options_.l2_bound);
    }
  }

  if (decision.rejected()) return Book(client_id, std::move(decision));
  return decision;
}

GuardDecision UpdateGuard::Book(int client_id, GuardDecision decision) {
  FS_CHECK(decision.rejected());
  if (!options_.enabled) return decision;
  const int count = ++violations_[client_id];
  decision.quarantine = options_.quarantine_after > 0 &&
                        count >= options_.quarantine_after &&
                        quarantined_.insert(client_id).second;
  return decision;
}

void UpdateGuard::SaveState(Payload* p, const std::string& prefix) const {
  std::vector<int64_t> pairs;
  pairs.reserve(violations_.size() * 2);
  for (const auto& [id, count] : violations_) {
    pairs.push_back(id);
    pairs.push_back(count);
  }
  SetPackedInt64s(p, prefix + "/violations", pairs);
  std::vector<int64_t> ids(quarantined_.begin(), quarantined_.end());
  SetPackedInt64s(p, prefix + "/quarantined", ids);
}

void UpdateGuard::LoadState(const Payload& p, const std::string& prefix) {
  violations_.clear();
  quarantined_.clear();
  const std::vector<int64_t> pairs =
      GetPackedInt64s(p, prefix + "/violations");
  for (size_t i = 0; i + 1 < pairs.size(); i += 2) {
    violations_[static_cast<int>(pairs[i])] = static_cast<int>(pairs[i + 1]);
  }
  for (int64_t id : GetPackedInt64s(p, prefix + "/quarantined")) {
    quarantined_.insert(static_cast<int>(id));
  }
}

}  // namespace fedscope
