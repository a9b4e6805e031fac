#include "fedscope/core/cohort_ledger.h"

#include <gtest/gtest.h>

#include "fedscope/core/checkpoint.h"

namespace fedscope {
namespace {

TEST(CohortLedgerTest, EverySlotEndsExactlyOnce) {
  CohortLedger ledger;
  ledger.Open(1, 0);
  ledger.Open(2, 0);
  ledger.Open(3, 1);
  EXPECT_EQ(ledger.opened(), 3);
  EXPECT_TRUE(ledger.End(1, SlotOutcome::kReceived));
  EXPECT_FALSE(ledger.End(1, SlotOutcome::kReceived));  // already ended
  EXPECT_FALSE(ledger.End(9, SlotOutcome::kFailed));    // never opened
  EXPECT_TRUE(ledger.End(2, SlotOutcome::kPresumedDead));
  EXPECT_EQ(ledger.ended(SlotOutcome::kReceived), 1);
  EXPECT_EQ(ledger.ended(SlotOutcome::kPresumedDead), 1);
  EXPECT_EQ(ledger.ended(SlotOutcome::kFailed), 0);
  EXPECT_EQ(ledger.in_flight().size(), 1u);
  EXPECT_TRUE(ledger.InFlight(3));
}

TEST(CohortLedgerTest, ResendKeepsTheSlotOnTheNewRound) {
  CohortLedger ledger;
  ledger.Open(4, 0);
  ledger.Open(4, 2);  // failover / re-join re-sends the same slot
  EXPECT_EQ(ledger.opened(), 1);
  EXPECT_EQ(ledger.in_flight().at(4), 2);
}

TEST(CohortLedgerTest, RoundQueries) {
  CohortLedger ledger;
  ledger.Open(5, 3);
  ledger.Open(1, 3);
  ledger.Open(2, 1);
  ledger.Open(7, 0);
  EXPECT_EQ(ledger.OpenedOn(3), (std::vector<int>{1, 5}));
  EXPECT_EQ(ledger.OpenedSince(1), 3);
  EXPECT_EQ(ledger.OpenedSince(4), 0);
}

TEST(CohortLedgerTest, AwaitedCountSaturatesAtZero) {
  CohortLedger ledger;
  ledger.set_awaited(3);
  ledger.Lower(2);
  EXPECT_EQ(ledger.awaited(), 1);
  ledger.Lower(4);
  EXPECT_EQ(ledger.awaited(), 0);
  EXPECT_DEATH(ledger.set_awaited(-1), "negative awaited count");
}

TEST(CohortLedgerTest, RoundCountersRestart) {
  CohortLedger ledger;
  ledger.Open(1, 0);
  ledger.End(1, SlotOutcome::kRejected);
  EXPECT_EQ(ledger.CountStarved(), 1);
  EXPECT_EQ(ledger.CountStarved(), 2);
  EXPECT_EQ(ledger.rejected(), 1);
  ledger.NewRound();
  EXPECT_EQ(ledger.rejected(), 0);
  EXPECT_EQ(ledger.CountStarved(), 1);
}

TEST(CohortLedgerTest, SnapshotRoundTrip) {
  CohortLedger ledger;
  ledger.Open(3, 2);
  ledger.Open(8, 1);
  ledger.Open(9, 2);
  ledger.End(9, SlotOutcome::kRejected);
  ledger.set_awaited(4);
  ledger.CountStarved();
  Payload p;
  ledger.Save(&p);

  CohortLedger restored;
  ASSERT_TRUE(restored.Load(p).ok());
  EXPECT_EQ(restored.in_flight(), ledger.in_flight());
  EXPECT_EQ(restored.awaited(), 4);
  EXPECT_EQ(restored.CountStarved(), 2);
  EXPECT_EQ(restored.rejected(), 1);
  // Conservation restarts at the restored in-flight slots.
  EXPECT_EQ(restored.opened(), 2);
  EXPECT_TRUE(restored.End(3, SlotOutcome::kReceived));

  Payload torn = p;
  SetPackedInt64s(&torn, "busy/rounds", {1});
  EXPECT_FALSE(CohortLedger().Load(torn).ok());
}

}  // namespace
}  // namespace fedscope
