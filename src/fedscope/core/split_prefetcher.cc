#include "fedscope/core/split_prefetcher.h"

#include <pthread.h>

#include <algorithm>
#include <utility>

namespace fedscope {

SplitPrefetcher::SplitPrefetcher(const ClientDataProvider* provider,
                                 int bound)
    : provider_(provider), bound_(static_cast<size_t>(bound)) {
  CPU_ZERO(&cpus_);
  sched_getaffinity(0, sizeof(cpus_), &cpus_);
}

SplitPrefetcher::~SplitPrefetcher() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    PublishWork();
  }
  work_.notify_one();
  if (helper_.joinable()) helper_.join();
}

void SplitPrefetcher::Request(int id) {
  // On one CPU the helper could only take turns with the pump.
  if (CPU_COUNT(&cpus_) < 2) return;
  pump_cpu_.store(sched_getcpu());
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (slots_.count(id) > 0) return;
    if (slots_.size() >= bound_) {
      ++stats_.dropped;
      return;
    }
    slots_.emplace(id, Slot{});
    queue_.push_back(id);
    PublishWork();
    stats_.held_peak =
        std::max(stats_.held_peak, static_cast<int64_t>(slots_.size()));
  }
  if (!helper_.joinable()) helper_ = std::thread([this] { Loop(); });
  work_.notify_one();
}

Dataset SplitPrefetcher::Take(int id, HeldOutSource* held_out) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(id);
    if (it != slots_.end()) {
      Slot& slot = it->second;
      switch (slot.state) {
        case State::kReady: {
          Dataset train = std::move(slot.train);
          *held_out = slot.held_out;
          slots_.erase(it);
          return train;
        }
        case State::kRequested:
          queue_.erase(std::find(queue_.begin(), queue_.end(), id));
          slots_.erase(it);
          PublishWork();
          break;
        case State::kBuilding:
          // Waiting would stall the pump for as long as the helper is
          // descheduled mid-build, which on a busy host is milliseconds.
          slot.state = State::kAbandoned;
          ++stats_.abandoned;
          break;
        case State::kAbandoned:
          break;
      }
    }
  }
  return provider_->MaterializeTrain(id, held_out);
}

SplitPrefetcher::Stats SplitPrefetcher::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void SplitPrefetcher::PublishWork() {
  has_work_.store(stop_ || !queue_.empty());
}

void SplitPrefetcher::Spin() {
  const auto until = std::chrono::steady_clock::now() + kSpin;
  while (!has_work_.load() && std::chrono::steady_clock::now() < until) {
    LeavePumpCpu();
    std::this_thread::yield();
  }
}

void SplitPrefetcher::LeavePumpCpu() {
  const int pump = pump_cpu_.load();
  if (pump < 0 || sched_getcpu() != pump) return;
  cpu_set_t others = cpus_;
  CPU_CLR(pump, &others);
  if (CPU_COUNT(&others) > 0) {
    pthread_setaffinity_np(pthread_self(), sizeof(others), &others);
  }
}

void SplitPrefetcher::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (queue_.empty() && !stop_) {
      lock.unlock();
      Spin();
      lock.lock();
      work_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    }
    if (stop_) return;
    const int id = queue_.front();
    queue_.pop_front();
    PublishWork();
    // Take erases a slot only when it is requested or ready, so the
    // reference outlives the build.
    Slot& slot = slots_.at(id);
    slot.state = State::kBuilding;
    lock.unlock();
    LeavePumpCpu();
    HeldOutSource held_out;
    Dataset train = provider_->MaterializeTrain(id, &held_out);
    lock.lock();
    if (slot.state == State::kAbandoned) {
      slots_.erase(id);
      continue;
    }
    slot.train = std::move(train);
    slot.held_out = held_out;
    slot.state = State::kReady;
    ++stats_.built;
  }
}

}  // namespace fedscope
