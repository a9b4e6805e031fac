#ifndef FEDSCOPE_EXEC_EXECUTION_H_
#define FEDSCOPE_EXEC_EXECUTION_H_

namespace fedscope {

/// How the standalone runner executes the deliveries of one virtual-time
/// instant (DESIGN.md §12).
enum class ExecutionBackend {
  /// One thread pumps and handles everything, in event-queue order. The
  /// default, and the reference semantics every other backend must match
  /// bit for bit.
  kSerial,
  /// Client-targeted deliveries that share a virtual timestamp are handled
  /// concurrently on a worker pool, with the pump thread taking tasks
  /// alongside the helpers; their effects (emitted messages, metric/trace
  /// ops, delivery taps) are committed in canonical order — the serial pop
  /// order: ascending insertion sequence within the timestamp, then each
  /// delivery's send sequence. The default server evaluator runs its row
  /// blocks on the same pool. Same-seed runs are bit-identical to kSerial,
  /// including obs exports. Server handlers, aggregator, fault-injection,
  /// and codec work stay on the pump thread.
  kThreaded,
};

/// Execution-backend selection for one FedJob.
struct ExecutionOptions {
  ExecutionBackend backend = ExecutionBackend::kSerial;
  /// Helper threads for kThreaded (ignored by kSerial). The pump thread
  /// runs pool tasks too, so up to num_threads + 1 tasks run at once;
  /// <= 0 uses std::thread::hardware_concurrency() - 1 helpers.
  int num_threads = 0;
};

}  // namespace fedscope

#endif  // FEDSCOPE_EXEC_EXECUTION_H_
