#ifndef FEDSCOPE_EXEC_WORKER_POOL_H_
#define FEDSCOPE_EXEC_WORKER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fedscope {

/// Fixed-size pool of persistent helper threads executing one batch of
/// tasks at a time. The thread that calls Run claims tasks alongside the
/// helpers, so a pool of N helpers runs up to N + 1 tasks at once and a
/// pool of 0 helpers runs every task inline on the caller. Determinism
/// does not depend on which thread claims which task: callers index
/// results by task position and commit them in canonical order after Run
/// returns. Run provides the happens-before edge — every effect of every
/// task is visible to the caller once Run returns, and no task runs
/// outside a Run call.
class WorkerPool {
 public:
  /// Spawns `num_threads` helpers (must be >= 0).
  explicit WorkerPool(int num_threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Helper threads; Run's caller is one more task runner.
  int num_threads() const { return static_cast<int>(threads_.size()); }

  /// Runs every task to completion and blocks until all returned. Tasks
  /// are claimed by ascending index; `tasks` is borrowed for the duration
  /// of the call. Not reentrant (single batch in flight): a task must not
  /// call Run on the pool that runs it.
  void Run(std::vector<std::function<void()>>* tasks);

 private:
  void WorkerLoop();
  /// Claims and runs tasks of the current batch until none is left to
  /// claim. Called with `lock` held on mu_; returns with it held.
  void Drain(std::unique_lock<std::mutex>* lock);

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::function<void()>>* tasks_ = nullptr;  // guarded by mu_
  size_t next_ = 0;                                      // guarded by mu_
  size_t remaining_ = 0;                                 // guarded by mu_
  int64_t generation_ = 0;                               // guarded by mu_
  bool shutdown_ = false;                                // guarded by mu_
  std::vector<std::thread> threads_;
};

}  // namespace fedscope

#endif  // FEDSCOPE_EXEC_WORKER_POOL_H_
