#ifndef FEDSCOPE_CORE_ID_SET_H_
#define FEDSCOPE_CORE_ID_SET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fedscope/comm/message.h"
#include "fedscope/util/status.h"

namespace fedscope {

class IdSet;
Result<IdSet> GetPackedIdSet(const Payload& p, const std::string& key);

/// A set of worker ids held as ascending, disjoint, non-adjacent closed
/// intervals. A dense population of any size is one interval, so course
/// membership, batch joins and multicast receiver sets cost O(gaps), not
/// O(population) (DESIGN.md §13).
class IdSet {
 public:
  /// The closed id range [lo, hi].
  struct Interval {
    int lo = 0;
    int hi = 0;
    bool operator==(const Interval&) const = default;
  };

  IdSet() = default;
  /// The ids lo..hi (empty when hi < lo).
  static IdSet Range(int lo, int hi);

  bool empty() const { return intervals_.empty(); }
  int64_t size() const { return size_; }
  /// Smallest / largest id; the set must be non-empty.
  int min() const;
  int max() const;
  bool Contains(int id) const;

  /// Adds `id`; false when it was already present.
  bool Insert(int id);
  /// Removes `id`; false when it was absent.
  bool Erase(int id);
  /// Adds every id of `other` (linear merge of the interval lists).
  void InsertAll(const IdSet& other);
  /// The ids in [lo, hi] that are not in this set.
  IdSet Complement(int lo, int hi) const;

  const std::vector<Interval>& intervals() const { return intervals_; }
  /// Calls fn(id) for every id, ascending.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const Interval& in : intervals_) {
      for (int id = in.lo;; ++id) {
        fn(id);
        if (id == in.hi) break;
      }
    }
  }
  /// Every id, ascending.
  std::vector<int> ToVector() const;

  bool operator==(const IdSet&) const = default;

 private:
  friend Result<IdSet> GetPackedIdSet(const Payload& p,
                                      const std::string& key);

  /// Index of the first interval whose hi >= id (intervals_.size() when
  /// none).
  size_t FirstEndingAtOrAfter(int id) const;

  std::vector<Interval> intervals_;
  int64_t size_ = 0;
};

/// Wire form of an IdSet: packed int64 words lo0, hi0, lo1, hi1, ...
void SetPackedIdSet(Payload* p, const std::string& key, const IdSet& ids);
/// Decodes SetPackedIdSet output; a missing key is the empty set, and an
/// odd word count, an out-of-int range, or intervals that are not
/// ascending, disjoint and non-adjacent are DataLoss.
Result<IdSet> GetPackedIdSet(const Payload& p, const std::string& key);

// -- batch join ---------------------------------------------------------------
// A join_in either announces its sender (with a `resp_score` scalar) or,
// as the standalone runner sends it, a whole population: the ids as a
// packed IdSet plus every id's responsiveness score in id order.

inline constexpr char kJoinIdsKey[] = "ids";
inline constexpr char kJoinScoresKey[] = "resp_scores";

// -- multicast ----------------------------------------------------------------
// A message addressed to kBroadcast carries its receivers as a packed
// IdSet under kReceiversKey. Transports expand it into one delivery per
// receiver, in ascending id order; each delivered copy is addressed to
// that receiver alone and keeps the msg_type.

inline constexpr char kReceiversKey[] = "receivers";

/// Addresses `msg` to every id in `receivers`.
void SetReceivers(Message* msg, const IdSet& receivers);
/// The receiver set of a multicast message (receiver == kBroadcast).
Result<IdSet> GetReceivers(const Message& msg);

/// Calls deliver(copy) for each id of `receivers`, ascending, where copy
/// is the multicast `msg` addressed to that id alone.
template <typename Fn>
void ForEachDelivery(const Message& msg, const IdSet& receivers, Fn deliver) {
  Message copy = msg;
  copy.payload.RemoveScalar(kReceiversKey);
  receivers.ForEach([&](int id) {
    copy.receiver = id;
    deliver(static_cast<const Message&>(copy));
  });
}

}  // namespace fedscope

#endif  // FEDSCOPE_CORE_ID_SET_H_
