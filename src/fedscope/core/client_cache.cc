#include "fedscope/core/client_cache.h"

#include <algorithm>
#include <string>
#include <utility>

#include "fedscope/core/checkpoint.h"
#include "fedscope/util/logging.h"

namespace fedscope {
namespace {

std::string IdPrefix(int id) { return "vc/" + std::to_string(id) + "/"; }

}  // namespace

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
    auto pos = lru_pos_.find(id);
    lru_.erase(pos->second);
    lru_.push_front(id);
    pos->second = lru_.begin();
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

void ClientCache::ExportState(Payload* p) {
  p->SetInt("population", population_);
  std::vector<int64_t> suspended_ids;
  suspended_ids.reserve(suspended_.size() + live_.size());
  for (const auto& [id, payload] : suspended_) {
    suspended_ids.push_back(id);
    MergePayloadWithPrefix(p, IdPrefix(id), payload);
  }
  // Live clients checkpoint through the same resume path but stay live.
  for (auto& [id, entry] : live_) {
    suspended_ids.push_back(id);
    Payload resume;
    entry.client->ExportResume(&resume);
    MergePayloadWithPrefix(p, IdPrefix(id), resume);
  }
  std::sort(suspended_ids.begin(), suspended_ids.end());
  SetPackedInt64s(p, "suspended_ids", suspended_ids);
  std::vector<int64_t> finished_ids;
  for (int id = 1; id <= population_; ++id) {
    if (finished_[id] != 0) finished_ids.push_back(id);
  }
  SetPackedInt64s(p, "finished_ids", finished_ids);
}

void ClientCache::RestoreState(const Payload& p) {
  FS_CHECK(live_.empty());
  FS_CHECK_EQ(p.GetInt("population"), population_);
  suspended_.clear();
  std::fill(finished_.begin(), finished_.end(), 0);
  for (int64_t id : GetPackedInt64s(p, "suspended_ids")) {
    suspended_[static_cast<int>(id)] =
        ExtractPayloadPrefix(p, IdPrefix(static_cast<int>(id)));
  }
  for (int64_t id : GetPackedInt64s(p, "finished_ids")) {
    finished_[static_cast<size_t>(id)] = 1;
  }
}

}  // namespace fedscope
