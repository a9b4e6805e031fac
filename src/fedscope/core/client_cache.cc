#include "fedscope/core/client_cache.h"

#include <algorithm>
#include <utility>

#include "fedscope/util/logging.h"

namespace fedscope {

ClientCache::ClientCache(int population, int capacity, Factory factory)
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
    return it->second.get();
  }
  std::unique_ptr<Client> spare;
  if (!spares_.empty()) {
    spare = std::move(spares_.back());
    spares_.pop_back();
  }
  std::unique_ptr<Client> client = factory_(id, std::move(spare));
  FS_CHECK(client != nullptr);
  ++stats_.instantiations;
  auto sit = suspended_.find(id);
  if (sit != suspended_.end()) {
    client->RestoreResume(sit->second);
    suspended_.erase(sit);
    ++stats_.restores;
  } else if (finished_[id] != 0) {
    client->MarkFinished();
    ++stats_.restores;
  }
  finished_[id] = 0;  // tracked by the live client from here on
  Client* raw = client.get();
  live_.emplace(id, std::move(client));
  lru_.push_front(id);
  lru_pos_[id] = lru_.begin();
  ++stats_.live;
  stats_.live_peak = std::max(stats_.live_peak, stats_.live);
  return raw;
}

void ClientCache::MarkFinished(const IdSet& ids) {
  if (ids.empty()) return;
  FS_CHECK_GE(ids.min(), 1);
  FS_CHECK_LE(ids.max(), population_);
  for (const IdSet::Interval& in : ids.intervals()) {
    std::fill(finished_.begin() + in.lo, finished_.begin() + in.hi + 1, 1);
  }
  // The flag is only for clients with no other state: live clients track
  // finish themselves, suspended ones in their resume record.
  for (const auto& [id, client] : live_) {
    if (ids.Contains(id)) finished_[id] = 0;
  }
  for (auto& [id, resume] : suspended_) {
    if (!ids.Contains(id)) continue;
    resume.finished = true;
    finished_[id] = 0;
  }
}

IdSet ClientCache::LiveIn(const IdSet& ids) const {
  std::vector<int> live;
  for (const auto& [id, client] : live_) {
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
  if (live != live_.end()) return live->second->finished();
  const auto suspended = suspended_.find(id);
  if (suspended != suspended_.end()) {
    return suspended->second.finished;
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
  suspended_.emplace(victim, it->second->ExportResume());
  it->second->Vacate();
  spares_.push_back(std::move(it->second));
  live_.erase(it);
  ++stats_.evictions;
  --stats_.live;
}

void ClientCache::Trim() {
  while (static_cast<int>(live_.size()) > capacity_) EvictOne();
}

}  // namespace fedscope
