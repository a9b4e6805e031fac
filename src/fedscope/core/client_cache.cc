#include "fedscope/core/client_cache.h"

#include <algorithm>
#include <utility>

#include "fedscope/util/logging.h"

namespace fedscope {

ClientCache::ClientCache(int population, int capacity, EntryFactory factory)
    : population_(population),
      capacity_(capacity),
      factory_(std::move(factory)),
      finished_(static_cast<size_t>(population) + 1, 0) {
  FS_CHECK_GT(population_, 0);
  FS_CHECK_GE(capacity_, 1);
  FS_CHECK(factory_ != nullptr);
}

Client* ClientCache::Get(int id) {
  FS_CHECK_GE(id, 1);
  FS_CHECK_LE(id, population_);
  auto it = live_.find(id);
  if (it != live_.end()) {
    // Relinks the node in place: no allocation, and lru_pos_ stays valid.
    lru_.splice(lru_.begin(), lru_, lru_pos_.find(id)->second);
    return it->second.client.get();
  }
  Entry entry = factory_(id);
  FS_CHECK(entry.client != nullptr);
  ++stats_.instantiations;
  auto sit = suspended_.find(id);
  if (sit != suspended_.end()) {
    entry.client->RestoreResume(sit->second);
    suspended_.erase(sit);
    ++stats_.restores;
  } else if (finished_[id] != 0) {
    Payload resume;
    resume.SetInt("finished", 1);
    entry.client->RestoreResume(resume);
    ++stats_.restores;
  }
  finished_[id] = 0;  // tracked by the live client from here on
  Client* raw = entry.client.get();
  live_.emplace(id, std::move(entry));
  lru_.push_front(id);
  lru_pos_[id] = lru_.begin();
  ++stats_.live;
  stats_.live_peak = std::max(stats_.live_peak, stats_.live);
  return raw;
}

BufferingChannel* ClientCache::Port(int id) {
  auto it = live_.find(id);
  FS_CHECK(it != live_.end());
  FS_CHECK(it->second.port != nullptr);
  return it->second.port.get();
}

void ClientCache::MarkFinished(const IdSet& ids) {
  if (ids.empty()) return;
  FS_CHECK_GE(ids.min(), 1);
  FS_CHECK_LE(ids.max(), population_);
  for (const IdSet::Interval& in : ids.intervals()) {
    std::fill(finished_.begin() + in.lo, finished_.begin() + in.hi + 1, 1);
  }
  // The flag is only for clients with no other state: live clients track
  // finish themselves, suspended ones in their resume payload.
  for (const auto& [id, entry] : live_) {
    if (ids.Contains(id)) finished_[id] = 0;
  }
  for (auto& [id, resume] : suspended_) {
    if (!ids.Contains(id)) continue;
    resume.SetInt("finished", 1);
    finished_[id] = 0;
  }
}

IdSet ClientCache::LiveIn(const IdSet& ids) const {
  std::vector<int> live;
  for (const auto& [id, entry] : live_) {
    if (ids.Contains(id)) live.push_back(id);
  }
  std::sort(live.begin(), live.end());
  IdSet out;
  for (int id : live) out.Insert(id);
  return out;
}

bool ClientCache::Finished(int id) const {
  FS_CHECK_GE(id, 1);
  FS_CHECK_LE(id, population_);
  const auto live = live_.find(id);
  if (live != live_.end()) return live->second.client->finished();
  const auto suspended = suspended_.find(id);
  if (suspended != suspended_.end()) {
    return suspended->second.GetInt("finished") != 0;
  }
  return finished_[id] != 0;
}

void ClientCache::EvictOne() {
  FS_CHECK(!lru_.empty());
  const int victim = lru_.back();
  lru_.pop_back();
  lru_pos_.erase(victim);
  auto it = live_.find(victim);
  FS_CHECK(it != live_.end());
  Payload resume;
  it->second.client->ExportResume(&resume);
  suspended_[victim] = std::move(resume);
  live_.erase(it);
  ++stats_.evictions;
  --stats_.live;
}

void ClientCache::Trim() {
  while (static_cast<int>(live_.size()) > capacity_) EvictOne();
}

}  // namespace fedscope
