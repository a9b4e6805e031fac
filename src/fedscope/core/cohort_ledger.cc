#include "fedscope/core/cohort_ledger.h"

#include <numeric>

#include "fedscope/core/checkpoint.h"
#include "fedscope/util/logging.h"

namespace fedscope {

void CohortLedger::Open(int id, int round) {
  if (in_flight_.insert_or_assign(id, round).second) ++opened_;
  CheckConservation();
}

bool CohortLedger::End(int id, SlotOutcome outcome) {
  if (in_flight_.erase(id) == 0) return false;
  ++ended_[static_cast<size_t>(outcome)];
  if (outcome == SlotOutcome::kRejected) ++rejected_;
  CheckConservation();
  return true;
}

std::vector<int> CohortLedger::OpenedOn(int round) const {
  std::vector<int> ids;
  for (const auto& [id, r] : in_flight_) {
    if (r == round) ids.push_back(id);
  }
  return ids;
}

int CohortLedger::OpenedSince(int round) const {
  int n = 0;
  for (const auto& [id, r] : in_flight_) n += r >= round ? 1 : 0;
  return n;
}

void CohortLedger::set_awaited(int awaited) {
  awaited_ = awaited;
  CheckConservation();
}

void CohortLedger::CheckConservation() const {
  const int64_t ended = std::accumulate(ended_.begin(), ended_.end(),
                                        int64_t{0});
  FS_CHECK_EQ(opened_, ended + static_cast<int64_t>(in_flight_.size()))
      << "cohort slots opened != ended + in flight";
  FS_CHECK_GE(awaited_, 0) << "negative awaited count";
}

void CohortLedger::Save(Payload* p) const {
  p->SetInt("awaited_this_round", awaited_);
  p->SetInt("extensions_this_round", starved_);
  p->SetInt("rejected_this_round", rejected_);
  std::vector<int64_t> ids, rounds;
  for (const auto& [id, r] : in_flight_) {
    ids.push_back(id);
    rounds.push_back(r);
  }
  SetPackedInt64s(p, "busy/ids", ids);
  SetPackedInt64s(p, "busy/rounds", rounds);
}

Status CohortLedger::Load(const Payload& p) {
  const std::vector<int64_t> ids = GetPackedInt64s(p, "busy/ids");
  const std::vector<int64_t> rounds = GetPackedInt64s(p, "busy/rounds");
  const int64_t awaited = p.GetInt("awaited_this_round");
  if (ids.size() != rounds.size() || awaited < 0) {
    return Status::DataLoss("snapshot cohort ledger is inconsistent");
  }
  *this = CohortLedger();
  for (size_t i = 0; i < ids.size(); ++i) {
    in_flight_[static_cast<int>(ids[i])] = static_cast<int>(rounds[i]);
  }
  opened_ = static_cast<int64_t>(in_flight_.size());
  starved_ = static_cast<int>(p.GetInt("extensions_this_round"));
  rejected_ = static_cast<int>(p.GetInt("rejected_this_round"));
  set_awaited(static_cast<int>(awaited));
  return Status::Ok();
}

}  // namespace fedscope
