#ifndef FEDSCOPE_CORE_SPLIT_PREFETCHER_H_
#define FEDSCOPE_CORE_SPLIT_PREFETCHER_H_

#include <sched.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "fedscope/data/client_data_provider.h"
#include "fedscope/data/dataset.h"

namespace fedscope {

/// Builds clients' train splits ahead of their cache misses on one helper
/// thread (DESIGN.md §13). The pump requests the split of a client that a
/// queued message will instantiate, and the cache factory takes it at the
/// miss. A split is a pure function of (provider, id), so the client gets
/// the same bits whichever thread built it, and however late it is taken.
/// The public methods are called from one thread, the pump.
///
/// The helper is worth its thread only when it is awake and on a CPU of
/// its own when a round's requests arrive, so it spins between bursts of
/// requests and moves off the pump's CPU when it finds itself there.
/// When the thread that makes this object may run on one CPU only, the
/// helper is never started: every request is dropped and every take
/// builds inline.
class SplitPrefetcher {
 public:
  /// What the helper did. These depend on thread timing, so they stay out
  /// of every course export.
  struct Stats {
    /// Splits the helper built and kept.
    int64_t built = 0;
    /// Builds in flight when their split was taken: the take built it
    /// itself, and the helper dropped its copy.
    int64_t abandoned = 0;
    /// Requests refused at the bound.
    int64_t dropped = 0;
    /// High-water mark of splits requested, being built or ready.
    int64_t held_peak = 0;
  };

  /// `provider` is borrowed and must outlive this object. At most `bound`
  /// splits are requested, being built or ready at once.
  SplitPrefetcher(const ClientDataProvider* provider, int bound);
  /// Stops the helper after the build in flight, if any, and joins it.
  ~SplitPrefetcher();
  SplitPrefetcher(const SplitPrefetcher&) = delete;
  SplitPrefetcher& operator=(const SplitPrefetcher&) = delete;

  /// Asks for client `id`'s split. A no-op when it is already requested,
  /// being built or ready, when `bound` splits are held, or on one CPU.
  /// The first request starts the helper.
  void Request(int id);

  /// Client `id`'s train split, with `held_out` pointed at its val and test
  /// source, exactly as `provider->MaterializeTrain` returns them. A ready
  /// split is taken. Any other is built here, so the caller never waits
  /// for the helper: a request not yet started is withdrawn, and a build
  /// in flight is abandoned to the helper, which drops it when done.
  Dataset Take(int id, HeldOutSource* held_out);

  /// The counts so far.
  Stats stats() const;

 private:
  enum class State { kRequested, kBuilding, kReady, kAbandoned };
  struct Slot {
    State state = State::kRequested;
    Dataset train;
    HeldOutSource held_out;
  };

  /// How long the helper spins for the next request before it parks. A
  /// parked helper took 80-480 us (mean per course) to wake on a 4-vCPU
  /// VM, as long as a cross-device round, whose requests come a fraction
  /// of a millisecond after the last round's; spinning across that gap
  /// keeps the helper awake for a whole course.
  static constexpr std::chrono::milliseconds kSpin{2};

  /// The helper: builds requested splits, oldest request first.
  void Loop();
  /// Spins until there is work or kSpin has passed.
  void Spin();
  /// Moves the helper to the process's other CPUs when it runs on the
  /// pump's, where it would only take turns with the pump. Waking does not
  /// fix that: the scheduler may place a woken helper on the waker's CPU
  /// again and again.
  void LeavePumpCpu();
  /// Publishes whether the helper has work (a request or the stop) to the
  /// spinning helper. Called with `mu_` held after either changes.
  void PublishWork();

  const ClientDataProvider* provider_;
  const size_t bound_;
  /// The CPUs the constructing thread may run on.
  cpu_set_t cpus_;
  /// The CPU of the pump's latest request, or -1.
  std::atomic<int> pump_cpu_{-1};
  mutable std::mutex mu_;
  /// The helper parks here for a request or the stop.
  std::condition_variable work_;
  std::unordered_map<int, Slot> slots_;
  /// Ids whose slot is kRequested, oldest first.
  std::deque<int> queue_;
  bool stop_ = false;
  /// stop_ or !queue_.empty(), readable without `mu_`.
  std::atomic<bool> has_work_{false};
  Stats stats_;
  /// Declared last: started after every member it reads.
  std::thread helper_;
};

}  // namespace fedscope

#endif  // FEDSCOPE_CORE_SPLIT_PREFETCHER_H_
