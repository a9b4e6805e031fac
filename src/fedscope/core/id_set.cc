#include "fedscope/core/id_set.h"

#include <algorithm>
#include <limits>

#include "fedscope/core/checkpoint.h"
#include "fedscope/util/logging.h"

namespace fedscope {

IdSet IdSet::Range(int lo, int hi) {
  IdSet set;
  if (lo <= hi) {
    set.intervals_.push_back({lo, hi});
    set.size_ = static_cast<int64_t>(hi) - lo + 1;
  }
  return set;
}

int IdSet::min() const {
  FS_CHECK(!empty());
  return intervals_.front().lo;
}

int IdSet::max() const {
  FS_CHECK(!empty());
  return intervals_.back().hi;
}

size_t IdSet::FirstEndingAtOrAfter(int id) const {
  return std::lower_bound(
             intervals_.begin(), intervals_.end(), id,
             [](const Interval& in, int value) { return in.hi < value; }) -
         intervals_.begin();
}

bool IdSet::Contains(int id) const {
  const size_t i = FirstEndingAtOrAfter(id);
  return i < intervals_.size() && intervals_[i].lo <= id;
}

bool IdSet::Insert(int id) {
  auto it = intervals_.begin() + FirstEndingAtOrAfter(id);
  if (it != intervals_.end() && it->lo <= id) return false;
  // `id` falls in the gap before `it` (or past the end): extend a
  // neighbour, bridge two, or open a new interval.
  const bool joins_next = it != intervals_.end() &&
                          static_cast<int64_t>(id) + 1 == it->lo;
  const bool joins_prev = it != intervals_.begin() &&
                          static_cast<int64_t>((it - 1)->hi) + 1 == id;
  if (joins_prev && joins_next) {
    (it - 1)->hi = it->hi;
    intervals_.erase(it);
  } else if (joins_prev) {
    (it - 1)->hi = id;
  } else if (joins_next) {
    it->lo = id;
  } else {
    intervals_.insert(it, {id, id});
  }
  ++size_;
  return true;
}

bool IdSet::Erase(int id) {
  auto it = intervals_.begin() + FirstEndingAtOrAfter(id);
  if (it == intervals_.end() || it->lo > id) return false;
  if (it->lo == id && it->hi == id) {
    intervals_.erase(it);
  } else if (it->lo == id) {
    ++it->lo;
  } else if (it->hi == id) {
    --it->hi;
  } else {
    const Interval tail{id + 1, it->hi};
    it->hi = id - 1;
    intervals_.insert(it + 1, tail);
  }
  --size_;
  return true;
}

void IdSet::InsertAll(const IdSet& other) {
  if (other.empty()) return;
  if (empty()) {
    *this = other;
    return;
  }
  std::vector<Interval> merged;
  merged.reserve(intervals_.size() + other.intervals_.size());
  size_t a = 0;
  size_t b = 0;
  while (a < intervals_.size() || b < other.intervals_.size()) {
    const bool take_a =
        b == other.intervals_.size() ||
        (a < intervals_.size() && intervals_[a].lo <= other.intervals_[b].lo);
    const Interval next = take_a ? intervals_[a++] : other.intervals_[b++];
    if (!merged.empty() &&
        static_cast<int64_t>(next.lo) <=
            static_cast<int64_t>(merged.back().hi) + 1) {
      merged.back().hi = std::max(merged.back().hi, next.hi);
    } else {
      merged.push_back(next);
    }
  }
  intervals_ = std::move(merged);
  size_ = 0;
  for (const Interval& in : intervals_) {
    size_ += static_cast<int64_t>(in.hi) - in.lo + 1;
  }
}

IdSet IdSet::Complement(int lo, int hi) const {
  IdSet out;
  int64_t next = lo;  // smallest id not yet classified
  for (const Interval& in : intervals_) {
    if (next > hi) break;
    if (in.hi < next) continue;
    if (in.lo > next) {
      const int gap_hi = static_cast<int>(std::min<int64_t>(in.lo - 1, hi));
      out.intervals_.push_back({static_cast<int>(next), gap_hi});
      out.size_ += gap_hi - next + 1;
    }
    next = static_cast<int64_t>(in.hi) + 1;
  }
  if (next <= hi) {
    out.intervals_.push_back({static_cast<int>(next), hi});
    out.size_ += hi - next + 1;
  }
  return out;
}

std::vector<int> IdSet::ToVector() const {
  std::vector<int> ids;
  ids.reserve(static_cast<size_t>(size_));
  ForEach([&ids](int id) { ids.push_back(id); });
  return ids;
}

void SetPackedIdSet(Payload* p, const std::string& key, const IdSet& ids) {
  std::vector<int64_t> words;
  words.reserve(2 * ids.intervals().size());
  for (const IdSet::Interval& in : ids.intervals()) {
    words.push_back(in.lo);
    words.push_back(in.hi);
  }
  SetPackedInt64s(p, key, words);
}

Result<IdSet> GetPackedIdSet(const Payload& p, const std::string& key) {
  const std::vector<int64_t> words = GetPackedInt64s(p, key);
  if (words.size() % 2 != 0) {
    return Status::DataLoss("id set '" + key + "' has an odd word count");
  }
  IdSet ids;
  int64_t prev_hi = std::numeric_limits<int64_t>::min();
  for (size_t i = 0; i < words.size(); i += 2) {
    const int64_t lo = words[i];
    const int64_t hi = words[i + 1];
    if (lo > hi || lo < std::numeric_limits<int>::min() ||
        hi > std::numeric_limits<int>::max() ||
        (i > 0 && lo <= prev_hi + 1)) {
      return Status::DataLoss("id set '" + key +
                              "' is not ascending disjoint intervals");
    }
    ids.intervals_.push_back({static_cast<int>(lo), static_cast<int>(hi)});
    ids.size_ += hi - lo + 1;
    prev_hi = hi;
  }
  return ids;
}

void SetReceivers(Message* msg, const IdSet& receivers) {
  msg->receiver = kBroadcast;
  SetPackedIdSet(&msg->payload, kReceiversKey, receivers);
}

Result<IdSet> GetReceivers(const Message& msg) {
  if (msg.receiver != kBroadcast) {
    return Status::InvalidArgument("not a multicast message");
  }
  return GetPackedIdSet(msg.payload, kReceiversKey);
}

}  // namespace fedscope
