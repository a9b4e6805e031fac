// IdSet (DESIGN.md §13): interval membership, its packed wire form, and
// the multicast addressing built on it.

#include "fedscope/core/id_set.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "fedscope/core/checkpoint.h"
#include "fedscope/core/events.h"
#include "fedscope/util/rng.h"

namespace fedscope {
namespace {

TEST(IdSetTest, InsertMergesNeighboursAndBridgesGaps) {
  IdSet ids;
  EXPECT_TRUE(ids.Insert(5));
  EXPECT_TRUE(ids.Insert(7));
  EXPECT_TRUE(ids.Insert(3));
  EXPECT_FALSE(ids.Insert(5));
  EXPECT_EQ(ids.intervals(), (std::vector<IdSet::Interval>{{3, 3}, {5, 5},
                                                          {7, 7}}));
  EXPECT_TRUE(ids.Insert(6));  // bridges 5 and 7
  EXPECT_TRUE(ids.Insert(4));  // bridges 3 and 5..7
  EXPECT_EQ(ids.intervals(), (std::vector<IdSet::Interval>{{3, 7}}));
  EXPECT_EQ(ids.size(), 5);
  EXPECT_EQ(ids.min(), 3);
  EXPECT_EQ(ids.max(), 7);
}

TEST(IdSetTest, EraseSplitsAndShrinks) {
  IdSet ids = IdSet::Range(1, 10);
  EXPECT_TRUE(ids.Erase(5));
  EXPECT_FALSE(ids.Erase(5));
  EXPECT_TRUE(ids.Erase(1));
  EXPECT_TRUE(ids.Erase(10));
  EXPECT_EQ(ids.intervals(), (std::vector<IdSet::Interval>{{2, 4}, {6, 9}}));
  EXPECT_EQ(ids.size(), 7);
  EXPECT_FALSE(ids.Contains(5));
  EXPECT_TRUE(ids.Contains(6));
  EXPECT_FALSE(ids.Contains(11));
}

TEST(IdSetTest, ComplementAndInsertAll) {
  IdSet ids;
  for (int id : {2, 3, 7, 9}) ids.Insert(id);
  EXPECT_EQ(ids.Complement(1, 10).ToVector(),
            (std::vector<int>{1, 4, 5, 6, 8, 10}));
  EXPECT_EQ(ids.Complement(3, 8).ToVector(), (std::vector<int>{4, 5, 6, 8}));
  EXPECT_TRUE(ids.Complement(1, 0).empty());

  ids.InsertAll(IdSet::Range(4, 8));
  EXPECT_EQ(ids.intervals(), (std::vector<IdSet::Interval>{{2, 9}}));
  EXPECT_EQ(ids.size(), 8);
}

TEST(IdSetTest, MatchesStdSetUnderRandomEdits) {
  Rng rng(17);
  IdSet ids;
  std::set<int> reference;
  for (int step = 0; step < 2000; ++step) {
    const int id = static_cast<int>(rng.UniformInt(1, 60));
    if (rng.Bernoulli(0.6)) {
      EXPECT_EQ(ids.Insert(id), reference.insert(id).second);
    } else {
      EXPECT_EQ(ids.Erase(id), reference.erase(id) > 0);
    }
  }
  EXPECT_EQ(ids.ToVector(), std::vector<int>(reference.begin(),
                                             reference.end()));
  EXPECT_EQ(ids.size(), static_cast<int64_t>(reference.size()));
  for (size_t i = 1; i < ids.intervals().size(); ++i) {
    // Disjoint and non-adjacent: the representation is canonical.
    EXPECT_GT(ids.intervals()[i].lo, ids.intervals()[i - 1].hi + 1);
  }
}

TEST(IdSetTest, PackedRoundTripAndRejects) {
  IdSet ids;
  for (int id : {1, 2, 3, 10, 1000000}) ids.Insert(id);
  Payload p;
  SetPackedIdSet(&p, "ids", ids);
  const Result<IdSet> back = GetPackedIdSet(p, "ids");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(*back == ids);
  EXPECT_EQ(back->size(), 5);

  const Result<IdSet> missing = GetPackedIdSet(p, "absent");
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->empty());

  const std::vector<std::vector<int64_t>> malformed = {
      {1, 2, 3},              // odd word count
      {5, 4},                 // lo > hi
      {1, 5, 4, 8},           // overlapping
      {1, 5, 6, 8},           // adjacent: not canonical
      {6, 8, 1, 2},           // descending
      {1, int64_t{1} << 40},  // beyond int
  };
  for (const auto& words : malformed) {
    Payload bad;
    SetPackedInt64s(&bad, "ids", words);
    EXPECT_FALSE(GetPackedIdSet(bad, "ids").ok());
  }
}

TEST(IdSetTest, MulticastExpandsToOneAddressedCopyPerReceiver) {
  Message msg;
  msg.msg_type = events::kFinish;
  msg.state = 4;
  IdSet receivers = IdSet::Range(2, 4);
  receivers.Insert(9);
  SetReceivers(&msg, receivers);
  EXPECT_EQ(msg.receiver, kBroadcast);
  const Result<IdSet> decoded = GetReceivers(msg);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(*decoded == receivers);

  std::vector<int> delivered;
  ForEachDelivery(msg, receivers, [&](const Message& copy) {
    delivered.push_back(copy.receiver);
    EXPECT_EQ(copy.msg_type, events::kFinish);
    EXPECT_EQ(copy.state, 4);
    EXPECT_FALSE(copy.payload.HasScalar(kReceiversKey));
  });
  EXPECT_EQ(delivered, (std::vector<int>{2, 3, 4, 9}));

  Message unicast;
  unicast.receiver = 3;
  EXPECT_FALSE(GetReceivers(unicast).ok());
}

}  // namespace
}  // namespace fedscope
