#ifndef FEDSCOPE_CORE_COHORT_LEDGER_H_
#define FEDSCOPE_CORE_COHORT_LEDGER_H_

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "fedscope/comm/message.h"
#include "fedscope/util/status.h"

namespace fedscope {

/// How a cohort slot ended (DESIGN.md §7). A broadcast opens one slot per
/// client; the slot ends exactly once, with one of these outcomes.
enum class SlotOutcome {
  kReceived,      ///< an update arrived (buffered, or dropped as stale)
  kDeclined,      ///< the client declined the round (low_bandwidth)
  kRejected,      ///< the update did not decode or the guard refused it
  kFailed,        ///< the transport reported the client gone
  kPresumedDead,  ///< a starved timer expiry gave up on the client
};

/// The server's cohort slots: which clients are in flight on which round,
/// how many updates the round's trigger awaits, and the round's starved
/// expiries and rejections. Every transition checks with FS_CHECK that
/// slots opened == slots ended + slots in flight.
class CohortLedger {
 public:
  /// Opens a slot for `id` on `round`. A client already in flight keeps
  /// its slot, now on `round` (a re-sent broadcast after a re-join).
  void Open(int id, int round);
  /// Ends id's in-flight slot with `outcome`; false when it has none.
  bool End(int id, SlotOutcome outcome);
  bool InFlight(int id) const { return in_flight_.count(id) > 0; }
  /// In-flight client id -> the round its slot was opened on.
  const std::map<int, int>& in_flight() const { return in_flight_; }
  /// Clients whose slot was opened on `round`, ascending.
  std::vector<int> OpenedOn(int round) const;
  /// Slots in flight that were opened on `round` or later.
  int OpenedSince(int round) const;

  /// Updates the round's synchronous trigger waits for.
  int awaited() const { return awaited_; }
  void set_awaited(int awaited);
  /// Lowers the awaited count by `n` slots that ended without an update
  /// or a refill, saturating at zero: a slot carried from an older round
  /// may already have been dropped from the target (DESIGN.md §7).
  void Lower(int n) { set_awaited(awaited_ > n ? awaited_ - n : 0); }

  /// Counts a starved timer expiry of the round; returns the new count.
  int CountStarved() { return ++starved_; }
  /// Slots ended as rejected this round.
  int rejected() const { return rejected_; }
  void NewRound() { starved_ = rejected_ = 0; }

  int64_t opened() const { return opened_; }
  int64_t ended(SlotOutcome outcome) const {
    return ended_[static_cast<size_t>(outcome)];
  }

  /// Snapshot keys (DESIGN.md §10). Load restarts the conservation counts
  /// at the restored in-flight slots.
  void Save(Payload* p) const;
  Status Load(const Payload& p);

 private:
  void CheckConservation() const;

  std::map<int, int> in_flight_;
  int awaited_ = 0;
  int starved_ = 0;
  int rejected_ = 0;
  int64_t opened_ = 0;
  std::array<int64_t, 5> ended_{};  // by SlotOutcome
};

}  // namespace fedscope

#endif  // FEDSCOPE_CORE_COHORT_LEDGER_H_
