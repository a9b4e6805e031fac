#ifndef FEDSCOPE_PERFBENCH_TRACE_H_
#define FEDSCOPE_PERFBENCH_TRACE_H_

// Outside-in tracing for bench_e2e: spans recorded around the calls the
// benchmark can reach through FedJob's public hooks. Nothing here changes
// what a course computes; the traced course is checked bit-identical to
// the untraced one.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "fedscope/core/aggregator.h"
#include "fedscope/core/trainer.h"

namespace fedscope {
namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  /// Static string (one of the span names below).
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint32_t course = 0;
  uint32_t thread = 0;
  /// Work the span did, where it has a count: samples trained, updates
  /// aggregated.
  int64_t value = 0;
};

namespace span {
inline constexpr char kCourse[] = "course";
inline constexpr char kSetup[] = "setup";
inline constexpr char kConstruct[] = "setup.construct";
inline constexpr char kJoin[] = "setup.join";
inline constexpr char kRound[] = "round";
inline constexpr char kTeardown[] = "teardown";
inline constexpr char kTrain[] = "trainer.train";
inline constexpr char kEval[] = "trainer.eval";
inline constexpr char kUpdateModel[] = "trainer.update_model";
inline constexpr char kShareable[] = "trainer.shareable_state";
inline constexpr char kSaveState[] = "trainer.save_state";
inline constexpr char kLoadState[] = "trainer.load_state";
inline constexpr char kAggregate[] = "aggregator.aggregate";
inline constexpr char kServerEval[] = "server.evaluate";
inline constexpr char kExport[] = "replay.checkpoint.export";
inline constexpr char kSerialize[] = "replay.checkpoint.serialize";
inline constexpr char kWrite[] = "replay.checkpoint.write";
}  // namespace span

/// Span store with one buffer per recording thread, so worker-pool
/// threads append without locking. One recorder per process: a thread
/// remembers its buffer for the life of the thread.
class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Course id stamped on every span until the next call.
  void set_course(uint32_t course) {
    course_.store(course, std::memory_order_relaxed);
  }
  /// Parent of spans recorded without an explicit one: the open round,
  /// setup or teardown span of the pump.
  void set_parent(uint64_t id) { parent_.store(id, std::memory_order_relaxed); }
  uint64_t parent() const { return parent_.load(std::memory_order_relaxed); }

  void Record(const char* name, int64_t start_ns, int64_t end_ns, uint64_t id,
              uint64_t parent, int64_t value = 0) {
    Buffer& buffer = Local();
    buffer.spans.push_back(Span{name, start_ns, end_ns, id, parent,
                                course_.load(std::memory_order_relaxed),
                                buffer.thread, value});
  }
  void Record(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t value = 0) {
    Record(name, start_ns, end_ns, NewId(), parent(), value);
  }

  /// Moves out every span recorded since the last call. No thread may be
  /// recording (call between courses).
  std::vector<Span> Drain() {
    std::vector<Span> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& buffer : buffers_) {
      out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
      buffer->spans.clear();
    }
    return out;
  }

 private:
  struct Buffer {
    std::vector<Span> spans;
    uint32_t thread = 0;
  };

  Buffer& Local() {
    thread_local Buffer* local = nullptr;
    if (local == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      buffers_.back()->thread = static_cast<uint32_t>(buffers_.size());
      local = buffers_.back().get();
    }
    return *local;
  }

  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> parent_{0};
  std::atomic<uint32_t> course_{0};
  std::mutex mu_;
  /// Guarded by mu_ for registration; each buffer's spans are written by
  /// its own thread only.
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Records one span over its scope, parented to the recorder's current
/// parent.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), name_(name), start_(NowNs()) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { recorder_->Record(name_, start_, NowNs(), value_); }

  void set_value(int64_t value) { value_ = value; }

 private:
  SpanRecorder* recorder_;
  const char* name_;
  int64_t start_;
  int64_t value_ = 0;
};

/// Forwards every BaseTrainer virtual to `inner`, timing each. A virtual
/// added to BaseTrainer and not forwarded here runs the base behaviour
/// instead of the inner trainer's; the traced-equals-untraced check
/// catches that whenever it changes the course.
class TimedTrainer : public BaseTrainer {
 public:
  TimedTrainer(std::unique_ptr<BaseTrainer> inner, SpanRecorder* spans)
      : inner_(std::move(inner)), spans_(spans) {}

  void UpdateModel(Model* model, const StateDict& global_shared) override {
    ScopedSpan s(spans_, span::kUpdateModel);
    inner_->UpdateModel(model, global_shared);
  }
  TrainResult Train(Model* model, const Dataset& train,
                    const TrainConfig& config, Rng* rng) override {
    ScopedSpan s(spans_, span::kTrain);
    TrainResult result = inner_->Train(model, train, config, rng);
    s.set_value(result.num_samples);
    return result;
  }
  EvalResult Evaluate(Model* model, const Dataset& data) override {
    ScopedSpan s(spans_, span::kEval);
    return inner_->Evaluate(model, data);
  }
  StateDict GetShareableState(Model* model,
                              const NameFilter& filter) override {
    ScopedSpan s(spans_, span::kShareable);
    return inner_->GetShareableState(model, filter);
  }
  void SaveState(Payload* p, const std::string& prefix) override {
    ScopedSpan s(spans_, span::kSaveState);
    inner_->SaveState(p, prefix);
  }
  void LoadState(const Payload& p, const std::string& prefix,
                 const Model& reference) override {
    ScopedSpan s(spans_, span::kLoadState);
    inner_->LoadState(p, prefix, reference);
  }

 private:
  std::unique_ptr<BaseTrainer> inner_;
  SpanRecorder* spans_;
};

/// Forwards every Aggregator virtual to `inner`, timing Aggregate.
class TimedAggregator : public Aggregator {
 public:
  TimedAggregator(std::unique_ptr<Aggregator> inner, SpanRecorder* spans)
      : inner_(std::move(inner)), spans_(spans) {}

  std::string Name() const override { return inner_->Name(); }
  Result<StateDict> Aggregate(
      const StateDict& global,
      const std::vector<ClientUpdate>& updates) override {
    ScopedSpan s(spans_, span::kAggregate);
    s.set_value(static_cast<int64_t>(updates.size()));
    return inner_->Aggregate(global, updates);
  }
  void SaveState(Payload* p, const std::string& prefix) const override {
    inner_->SaveState(p, prefix);
  }
  void LoadState(const Payload& p, const std::string& prefix) override {
    inner_->LoadState(p, prefix);
  }

 private:
  std::unique_ptr<Aggregator> inner_;
  SpanRecorder* spans_;
};

/// Writes `spans` as Chrome trace_event JSON (chrome://tracing, Perfetto).
inline bool WriteChromeTrace(const std::string& path,
                             const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %llu, \"parent\": %llu, \"course\": %u, "
                 "\"value\": %lld}}",
                 i == 0 ? "" : ",\n", s.name, s.thread,
                 (s.start_ns - origin) / 1e3, (s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.course,
                 static_cast<long long>(s.value));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
}  // namespace fedscope

#endif  // FEDSCOPE_PERFBENCH_TRACE_H_
