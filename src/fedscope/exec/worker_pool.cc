#include "fedscope/exec/worker_pool.h"

#include "fedscope/util/logging.h"

namespace fedscope {

WorkerPool::WorkerPool(int num_threads) {
  FS_CHECK_GE(num_threads, 0);
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::Run(std::vector<std::function<void()>>* tasks) {
  FS_CHECK(tasks != nullptr);
  if (tasks->empty()) return;
  std::unique_lock<std::mutex> lock(mu_);
  FS_CHECK_EQ(remaining_, 0u);  // not reentrant
  tasks_ = tasks;
  next_ = 0;
  remaining_ = tasks->size();
  ++generation_;
  work_cv_.notify_all();
  Drain(&lock);
  done_cv_.wait(lock, [this] { return remaining_ == 0; });
  tasks_ = nullptr;
}

void WorkerPool::Drain(std::unique_lock<std::mutex>* lock) {
  while (tasks_ != nullptr && next_ < tasks_->size()) {
    const size_t i = next_++;
    lock->unlock();
    (*tasks_)[i]();
    lock->lock();
    if (--remaining_ == 0) done_cv_.notify_all();
  }
}

void WorkerPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  int64_t seen = 0;
  for (;;) {
    work_cv_.wait(lock,
                  [this, seen] { return shutdown_ || generation_ != seen; });
    if (shutdown_) return;
    seen = generation_;
    Drain(&lock);
  }
}

}  // namespace fedscope
