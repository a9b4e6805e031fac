// bench_e2e: end-to-end benchmark of standalone FL courses, measured from
// outside the library.
//
//   bench_e2e --workload=NAME [--seed=S] [--seconds=T] [--out=FILE]
//             [--trace=FILE] [--tmp=DIR]
//   bench_e2e --smoke
//
// A run's courses are fixed by S and T alone: T seconds' worth of the
// workload's courses (Workload::courses_per_s). Untraced (the default),
// it runs them closed-loop — one course in flight, back to back — checks
// every course, and reports the end-to-end metrics, its timings adjusted
// for the host's speed (host_probe.h). With --trace=FILE it runs fewer
// courses, each twice, untraced and then traced through FedJob's public
// hooks, checks that the two runs are bit-identical, reports the
// per-layer metrics and writes the spans to FILE as Chrome trace_event
// JSON.
// --smoke runs one course of every workload at toy size both ways, with
// every check.
//
// The last line of stdout is a one-line JSON summary (report.h); --out
// writes the full report. Exit status: 0 when every check passed, 1 when
// one failed, 2 on bad usage.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fedscope/comm/codec.h"
#include "fedscope/core/checkpoint.h"
#include "fedscope/core/events.h"
#include "fedscope/core/update_guard.h"
#include "fedscope/util/logging.h"
#include "host_probe.h"
#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace fedscope {
namespace perfbench {
namespace {

namespace fs = std::filesystem;

/// Checkpoint replays per traced course.
constexpr int kCheckpointReplays = 20;
/// Spans kept for the trace file; later courses are summarized only.
constexpr size_t kMaxFileSpans = 100000;
/// Wall time of a traced run's course (untraced, then traced) over that
/// of an untraced run's.
constexpr double kTracedCost = 2.5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  std::string out;
  std::string trace;
  std::string tmp = "bench_e2e_tmp";
  bool smoke = false;
};

double ToSeconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// The delivery tap of one course. Untraced, it only timestamps round
/// boundaries and counts server-bound updates; traced, it also counts
/// every delivery, replays it through the wire codec (and server-bound
/// updates through a fresh UpdateGuard), and opens the round spans that
/// parent the trainer, aggregator and evaluator spans.
class CourseTap {
 public:
  CourseTap(SpanRecorder* spans, UpdateGuardOptions guard)
      : spans_(spans), guard_(guard) {
    guard_.enabled = true;
  }
  CourseTap(const CourseTap&) = delete;
  CourseTap& operator=(const CourseTap&) = delete;

  /// Before FedRunner construction.
  void Start() {
    t_start_ = NowNs();
    if (spans_ != nullptr) {
      course_id_ = spans_->NewId();
      setup_id_ = spans_->NewId();
      spans_->set_parent(setup_id_);
    }
  }
  /// Between construction and Run().
  void Constructed(FedRunner* runner) {
    runner_ = runner;
    t_constructed_ = NowNs();
  }
  /// After Run() returned.
  void Returned() {
    t_returned_ = NowNs();
    if (!started_) t_first_para_ = t_returned_;
    if (!finished_) {
      if (started_) CloseRound(t_returned_);
      t_finish_ = t_returned_;
    }
    if (spans_ == nullptr) return;
    spans_->Record(span::kConstruct, t_start_, t_constructed_,
                   spans_->NewId(), setup_id_);
    spans_->Record(span::kJoin, t_constructed_, t_first_para_,
                   spans_->NewId(), setup_id_);
    spans_->Record(span::kSetup, t_start_, t_first_para_, setup_id_,
                   course_id_);
    spans_->Record(span::kTeardown, t_finish_, t_returned_,
                   teardown_id_ != 0 ? teardown_id_ : spans_->NewId(),
                   course_id_);
    spans_->Record(span::kCourse, t_start_, t_returned_, course_id_, 0);
    spans_->set_parent(0);
  }

  void OnDelivery(const Message& msg) {
    const std::string& type = msg.msg_type;
    if (type == events::kModelPara) {
      if (!started_ || msg.state > round_) {
        const int64_t now = NowNs();
        if (started_) {
          CloseRound(now);
        } else {
          t_first_para_ = now;
        }
        started_ = true;
        round_ = msg.state;
        round_start_ = now;
        if (spans_ != nullptr) {
          round_id_ = spans_->NewId();
          spans_->set_parent(round_id_);
        }
      }
    } else if (type == events::kModelUpdate) {
      if (msg.receiver == kServerId) ++model_updates_;
    } else if (type == events::kFinish && !finished_) {
      const int64_t now = NowNs();
      if (started_) CloseRound(now);
      finished_ = true;
      t_finish_ = now;
      if (spans_ != nullptr) {
        teardown_id_ = spans_->NewId();
        spans_->set_parent(teardown_id_);
      }
    }
    if (spans_ != nullptr) Trace(msg);
  }

  double setup_s() const { return ToSeconds(t_first_para_ - t_start_); }
  double course_s() const { return ToSeconds(t_returned_ - t_start_); }
  int64_t model_updates() const { return model_updates_; }
  const std::vector<double>& round_ms() const { return round_ms_; }

  /// The traced course's layer metrics, from its spans and this tap's
  /// counts. The metric names are BENCHMARK.json's per_layer names.
  std::map<std::string, double> LayerMetrics(const std::vector<Span>& spans)
      const {
    struct Sum {
      double s = 0.0;
      int64_t n = 0;
      int64_t value = 0;
    };
    std::map<std::string, Sum> by_name;
    // Children of the round spans, clipped to the rounds' window, for the
    // pump's self time.
    std::vector<std::pair<int64_t, int64_t>> children;
    for (const Span& s : spans) {
      Sum& sum = by_name[s.name];
      sum.s += ToSeconds(s.end_ns - s.start_ns);
      ++sum.n;
      sum.value += s.value;
      const std::string name = s.name;
      if (name.rfind("trainer.", 0) == 0 || name == span::kAggregate ||
          name == span::kServerEval) {
        const int64_t a = std::max(s.start_ns, t_first_para_);
        const int64_t b = std::min(s.end_ns, t_finish_);
        if (a < b) children.emplace_back(a, b);
      }
    }
    std::sort(children.begin(), children.end());
    int64_t covered = 0;
    int64_t reach = t_first_para_;
    for (const auto& [a, b] : children) {
      const int64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    const auto sum = [&by_name](const char* name) {
      auto it = by_name.find(name);
      return it == by_name.end() ? Sum{} : it->second;
    };
    const auto ratio = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    const Sum train = sum(span::kTrain);
    const Sum aggregate = sum(span::kAggregate);
    const Sum server_eval = sum(span::kServerEval);
    const double updates = static_cast<double>(model_updates_);

    std::map<std::string, double> m;
    m["fed_runner.construct_s"] = ToSeconds(t_constructed_ - t_start_);
    m["fed_runner.join_s"] = ToSeconds(t_first_para_ - t_constructed_);
    m["fed_runner.join_msgs"] = static_cast<double>(join_in_);
    m["fed_runner.deliveries"] = static_cast<double>(deliveries_);
    m["fed_runner.pump_self_s"] =
        ToSeconds(t_finish_ - t_first_para_ - covered - replay_in_rounds_ns_);
    m["fed_runner.teardown_s"] = ToSeconds(t_returned_ - t_finish_);
    m["trainer.train_s"] = train.s;
    m["trainer.train_calls"] = static_cast<double>(train.n);
    m["trainer.samples"] = static_cast<double>(train.value);
    m["trainer.us_per_sample"] =
        ratio(train.s * 1e6, static_cast<double>(train.value));
    m["trainer.eval_s"] = sum(span::kEval).s;
    m["trainer.state_s"] =
        sum(span::kUpdateModel).s + sum(span::kShareable).s;
    m["server.eval_s"] = server_eval.s;
    m["server.eval_calls"] = static_cast<double>(server_eval.n);
    m["server.update_yield"] =
        ratio(static_cast<double>(aggregate.value), updates);
    m["aggregator.aggregate_s"] = aggregate.s;
    m["aggregator.calls"] = static_cast<double>(aggregate.n);
    m["aggregator.updates_per_call"] = ratio(
        static_cast<double>(aggregate.value), static_cast<double>(aggregate.n));
    m["comm.messages.join_in"] = static_cast<double>(join_in_);
    m["comm.messages.model_para"] = static_cast<double>(model_para_);
    m["comm.messages.model_update"] = updates;
    m["comm.messages.finish"] = static_cast<double>(finish_);
    m["comm.downlink_bytes"] = static_cast<double>(downlink_bytes_);
    m["comm.uplink_bytes"] = static_cast<double>(uplink_bytes_);
    m["codec.encode_s"] = ToSeconds(encode_ns_);
    m["codec.decode_s"] = ToSeconds(decode_ns_);
    m["guard.inspect_s"] = ToSeconds(inspect_ns_);
    m["client_cache.hit_ratio"] = ratio(static_cast<double>(cache_hits_),
                                        static_cast<double>(cache_lookups_));
    m["exec.train_concurrency"] =
        ratio(train.s, ToSeconds(t_returned_ - t_first_para_));
    return m;
  }

  int64_t codec_errors() const { return codec_errors_; }

 private:
  void CloseRound(int64_t now) {
    round_ms_.push_back(static_cast<double>(now - round_start_) * 1e-6);
    if (spans_ != nullptr) {
      spans_->Record(span::kRound, round_start_, now, round_id_, course_id_);
    }
  }

  void Trace(const Message& msg) {
    ++deliveries_;
    const std::string& type = msg.msg_type;
    if (type == events::kJoinIn) ++join_in_;
    if (type == events::kModelPara) ++model_para_;
    if (type == events::kFinish) ++finish_;
    const bool in_rounds = started_ && !finished_;

    // Codec and guard replays are summed here rather than recorded as
    // spans: a million-client course delivers two million join and finish
    // messages.
    const int64_t t0 = NowNs();
    const std::vector<uint8_t> bytes = EncodeMessage(msg);
    const int64_t t1 = NowNs();
    const bool decoded = DecodeMessage(bytes).ok();
    const int64_t t2 = NowNs();
    encode_ns_ += t1 - t0;
    decode_ns_ += t2 - t1;
    if (in_rounds) replay_in_rounds_ns_ += t2 - t0;
    if (!decoded) ++codec_errors_;
    const int64_t size = static_cast<int64_t>(bytes.size());
    if (msg.sender == kServerId && msg.receiver != kServerId) {
      downlink_bytes_ += size;
    } else if (msg.receiver == kServerId && msg.sender != kServerId) {
      uplink_bytes_ += size;
    }

    if (type == events::kModelPara && msg.receiver >= 1) {
      ++cache_lookups_;
      const ClientCache* cache = runner_->client_cache();
      if (cache == nullptr || cache->IsLive(msg.receiver)) ++cache_hits_;
    }
    if (type == events::kModelUpdate && msg.receiver == kServerId) {
      const int64_t t3 = NowNs();
      StateDict delta = msg.payload.GetStateDict("delta");
      Server* server = runner_->server();
      const StateDict signature =
          server->global_model()->GetStateDict(server->options().share_filter);
      UpdateGuard(guard_).Inspect(msg.sender, signature, &delta);
      const int64_t t4 = NowNs();
      inspect_ns_ += t4 - t3;
      if (in_rounds) replay_in_rounds_ns_ += t4 - t3;
    }
  }

  SpanRecorder* spans_;
  UpdateGuardOptions guard_;
  FedRunner* runner_ = nullptr;

  int64_t t_start_ = 0;
  int64_t t_constructed_ = 0;
  int64_t t_first_para_ = 0;
  int64_t t_finish_ = 0;
  int64_t t_returned_ = 0;
  bool started_ = false;
  bool finished_ = false;
  int round_ = 0;
  int64_t round_start_ = 0;
  std::vector<double> round_ms_;
  int64_t model_updates_ = 0;

  // Traced only.
  uint64_t course_id_ = 0;
  uint64_t setup_id_ = 0;
  uint64_t round_id_ = 0;
  uint64_t teardown_id_ = 0;
  int64_t deliveries_ = 0;
  int64_t join_in_ = 0;
  int64_t model_para_ = 0;
  int64_t finish_ = 0;
  int64_t downlink_bytes_ = 0;
  int64_t uplink_bytes_ = 0;
  int64_t encode_ns_ = 0;
  int64_t decode_ns_ = 0;
  int64_t inspect_ns_ = 0;
  int64_t replay_in_rounds_ns_ = 0;
  int64_t codec_errors_ = 0;
  int64_t cache_lookups_ = 0;
  int64_t cache_hits_ = 0;
};

/// Installs the timing wrappers: trainer, aggregator and evaluator, each
/// forwarding to what the job would have used without them.
void Instrument(FedJob* job, SpanRecorder* spans) {
  auto trainer_factory = job->trainer_factory;
  job->trainer_factory =
      [trainer_factory, spans](int id) -> std::unique_ptr<BaseTrainer> {
    std::unique_ptr<BaseTrainer> inner =
        trainer_factory ? trainer_factory(id)
                        : std::make_unique<GeneralTrainer>();
    return std::make_unique<TimedTrainer>(std::move(inner), spans);
  };
  auto aggregator_factory = job->aggregator_factory;
  const double rho = job->staleness_rho;
  job->aggregator_factory =
      [aggregator_factory, rho, spans]() -> std::unique_ptr<Aggregator> {
    std::unique_ptr<Aggregator> inner =
        aggregator_factory
            ? aggregator_factory()
            : std::make_unique<FedAvgAggregator>(FedAvgOptions{1.0, rho});
    return std::make_unique<TimedAggregator>(std::move(inner), spans);
  };
  // FedRunner's default evaluator, timed.
  const Dataset* test = job->provider != nullptr
                            ? &job->provider->server_test()
                            : &job->data->server_test;
  auto evaluator = job->evaluator;
  if (!evaluator) {
    evaluator = [test](Model* model) { return EvaluateClassifier(model, *test); };
  }
  job->evaluator = [evaluator, spans](Model* model) {
    ScopedSpan s(spans, span::kServerEval);
    return evaluator(model);
  };
}

/// Times the three steps of a durable snapshot on the final server,
/// kCheckpointReplays times each, into the checkpoint.*_s metrics.
void ReplayCheckpoints(Server* server, const std::string& dir,
                       SpanRecorder* spans, std::map<std::string, double>* m,
                       Report* report) {
  std::vector<double> export_s, serialize_s, write_s;
  const std::string path = dir + "/replay.ckpt";
  bool written = true;
  for (int i = 0; i < kCheckpointReplays; ++i) {
    Checkpoint checkpoint;
    const int64_t a = NowNs();
    server->ExportSnapshot(&checkpoint);
    const int64_t b = NowNs();
    const std::vector<uint8_t> bytes = SerializeCheckpoint(checkpoint);
    const int64_t c = NowNs();
    written = WriteCheckpointFileAtomic(path, checkpoint).ok() && written;
    const int64_t d = NowNs();
    spans->Record(span::kExport, a, b);
    spans->Record(span::kSerialize, b, c, static_cast<int64_t>(bytes.size()));
    spans->Record(span::kWrite, c, d);
    export_s.push_back(ToSeconds(b - a));
    serialize_s.push_back(ToSeconds(c - b));
    write_s.push_back(ToSeconds(d - c));
  }
  report->Check("checkpoint_replay_written", written,
                "WriteCheckpointFileAtomic failed under " + dir);
  (*m)["checkpoint.export_s"] = Median(export_s);
  (*m)["checkpoint.serialize_s"] = Median(serialize_s);
  (*m)["checkpoint.write_s"] = Median(write_s);
}

/// The per-layer metrics a finished course reports through the runner's
/// and the server's counters.
void AddOutcomeMetrics(const FedJob& job, const CourseOutcome& o,
                       int64_t model_updates,
                       std::map<std::string, double>* layers) {
  const ServerStats& s = o.result.server;
  const double updates = static_cast<double>(model_updates);
  auto& m = *layers;
  m["guard.rejected"] = static_cast<double>(s.updates_rejected);
  m["guard.clipped"] = static_cast<double>(s.updates_clipped);
  m["guard.quarantined"] = static_cast<double>(s.quarantined.size());
  m["guard.accept_ratio"] =
      updates > 0 ? 1.0 - static_cast<double>(s.updates_rejected) / updates
                  : 0.0;
  m["fault.lost"] = static_cast<double>(o.faults.lost);
  m["fault.duplicated"] = static_cast<double>(o.faults.duplicated);
  m["fault.poisoned"] = static_cast<double>(
      o.faults.poisoned_nonfinite + o.faults.sign_flipped + o.faults.scaled +
      o.faults.malformed + o.faults.replayed);
  m["fault.dedup_suppressed"] = static_cast<double>(o.duplicates_suppressed);
  m["fault.dropouts"] = static_cast<double>(s.dropouts);
  m["fault.replacements"] = static_cast<double>(s.replacements);
  m["fault.round_extensions"] = static_cast<double>(s.round_extensions);
  m["checkpoint.snapshots"] = static_cast<double>(o.snapshots);
  m["checkpoint.bytes"] = static_cast<double>(o.snapshot_bytes);
  m["checkpoint.recoveries"] = static_cast<double>(o.recoveries);
  m["client_cache.instantiations"] =
      static_cast<double>(o.cache.instantiations);
  m["client_cache.restores"] = static_cast<double>(o.cache.restores);
  m["client_cache.evictions"] = static_cast<double>(o.cache.evictions);
  m["client_cache.live_peak"] = static_cast<double>(o.cache.live_peak);
  m["exec.workers"] = job.exec.backend == ExecutionBackend::kThreaded
                          ? static_cast<double>(job.exec.num_threads)
                          : 1.0;
}

/// One run of one course.
struct Execution {
  CourseOutcome outcome;
  double setup_s = 0.0;
  double course_s = 0.0;
  int64_t model_updates = 0;
  std::vector<double> round_ms;
  /// Traced runs: the per-layer metric values of this course.
  std::map<std::string, double> layers;
};

/// Runs `course` once. `spans` null runs it untraced. `dir` is this
/// process's scratch directory (snapshots, checkpoint replays).
Execution Execute(const Course& course, SpanRecorder* spans,
                  const std::string& dir, std::vector<Span>* file_spans,
                  Report* report) {
  FedJob job = course.job;
  CourseTap tap(spans, job.server.guard);
  job.delivery_tap = [&tap](const Message& msg) { tap.OnDelivery(msg); };
  if (spans != nullptr) Instrument(&job, spans);
  // A recipe that snapshots names a relative directory; each run of it
  // gets that directory afresh under `dir`.
  const bool snapshots = !job.snapshot.directory.empty();
  const std::string snapshot_dir = dir + "/" + job.snapshot.directory;
  if (snapshots) {
    fs::remove_all(snapshot_dir);
    job.snapshot.directory = snapshot_dir;
  }

  Execution e;
  tap.Start();
  FedRunner runner(std::move(job));
  tap.Constructed(&runner);
  e.outcome.result = runner.Run();
  tap.Returned();

  e.setup_s = tap.setup_s();
  e.course_s = tap.course_s();
  e.model_updates = tap.model_updates();
  e.round_ms = tap.round_ms();
  CourseOutcome& o = e.outcome;
  o.faults = runner.fault_plan().counters();
  o.hostile_clients = runner.fault_plan().hostile_clients();
  o.duplicates_suppressed = runner.duplicates_suppressed();
  o.recoveries = runner.recoveries();
  o.snapshots = runner.snapshot_writer().snapshots_written();
  o.snapshot_bytes = runner.snapshot_writer().bytes_written();
  if (runner.client_cache() != nullptr) {
    o.cache = runner.client_cache()->stats();
    o.cache_capacity = runner.client_cache()->capacity();
  }

  if (spans != nullptr) {
    report->Check("codec_replay_decodes", tap.codec_errors() == 0,
                  std::to_string(tap.codec_errors()) +
                      " delivered messages failed to decode");
    ReplayCheckpoints(runner.server(), dir, spans, &e.layers, report);
    std::vector<Span> course_spans = spans->Drain();
    e.layers.merge(tap.LayerMetrics(course_spans));
    AddOutcomeMetrics(course.job, o, e.model_updates, &e.layers);
    const size_t room =
        kMaxFileSpans - std::min(kMaxFileSpans, file_spans->size());
    file_spans->insert(
        file_spans->end(), course_spans.begin(),
        course_spans.begin() +
            static_cast<std::ptrdiff_t>(std::min(room, course_spans.size())));
  }
  if (snapshots) fs::remove_all(snapshot_dir);
  return e;
}

uint64_t CourseSeed(uint64_t run_seed, int k) {
  return Rng(run_seed).Fork(static_cast<uint64_t>(k)).Next();
}

/// Whether course `k` of the run is to be run. Depends on the arguments
/// only. A traced run runs each course twice, the second time slower, so
/// it runs fewer courses.
bool MoreCourses(const Workload& w, const Args& args, bool traced, int k) {
  if (args.smoke) return k < 1;
  const double cost = traced ? kTracedCost : 1.0;
  return k < std::max(1LL,
                      std::llround(args.seconds * w.courses_per_s / cost));
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double CpuMhz() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("cpu MHz", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return std::atof(line.c_str() + colon + 1);
    }
  }
  return 0.0;
}

Report NewReport(const Workload& w, const Args& args, bool traced) {
  Report r;
  r.num_cpus = NumCpus();
  r.cpu_mhz = CpuMhz();
  r.workload = w.name;
  r.seed = args.seed;
  r.traced = traced;
  r.seconds = args.seconds;
  return r;
}

int64_t TotalFailures(const Report& r) {
  int64_t n = 0;
  for (const auto& [name, t] : r.checks) n += t.failed;
  return n;
}

/// Threaded workloads: a 10-round course on the threaded backend must be
/// bit-identical to the same course run serially.
void CheckThreadedMatchesSerial(const Workload& w, uint64_t seed, bool smoke,
                                Report* report) {
  std::unique_ptr<Course> c = w.make(seed, smoke);
  if (c->job.exec.backend != ExecutionBackend::kThreaded) return;
  c->job.server.max_rounds = std::min(c->job.server.max_rounds, 10);
  FedJob serial = c->job;
  serial.exec = ExecutionOptions{};
  RunResult a = FedRunner(std::move(serial)).Run();
  RunResult b = FedRunner(c->job).Run();
  report->Check("threaded_equals_serial", SameCourse(a, b),
                "a threaded course diverged from its serial run");
}

Metric MakeMetric(const std::string& name, const std::string& unit,
                  std::vector<double> samples) {
  Metric m;
  m.name = name;
  m.unit = unit;
  m.dist = Summarize(std::move(samples));
  m.value = m.dist.median;
  return m;
}

/// Each probe's time over the reference host's; the value is the median,
/// the run's slowdown.
Metric HostSlowdown(const HostProbe& probe) {
  std::vector<double> slowdowns;
  for (double ms : probe.samples_ms()) {
    slowdowns.push_back(ms / HostProbe::kReferenceMs);
  }
  return MakeMetric("host.slowdown", "ratio", slowdowns);
}

/// The run's courses closed-loop, then the end-to-end metrics. Timings
/// are host-adjusted: wall time divided by the run's host slowdown
/// (host_probe.h), which the probe measures between courses; the
/// report's info section keeps the wall times.
Report RunUntraced(const Workload& w, const Args& args,
                   const std::string& dir) {
  Report report = NewReport(w, args, /*traced=*/false);
  HostProbe probe;
  std::vector<double> setup_s, course_s, busy_s, rates, round_ms, virtual_h,
      accuracy;
  int64_t updates = 0;
  for (int k = 0; MoreCourses(w, args, /*traced=*/false, k); ++k) {
    probe.Sample();
    std::unique_ptr<Course> course = w.make(CourseSeed(args.seed, k),
                                            args.smoke);
    const int64_t failures = TotalFailures(report);
    Execution e = Execute(*course, nullptr, dir, nullptr, &report);
    w.check(*course, e.outcome, &report);
    ++report.attempted;
    if (TotalFailures(report) > failures) ++report.failed;

    const ServerStats& s = e.outcome.result.server;
    setup_s.push_back(e.setup_s);
    course_s.push_back(e.course_s);
    busy_s.push_back(e.course_s - e.setup_s);
    rates.push_back(static_cast<double>(e.model_updates) / busy_s.back());
    updates += e.model_updates;
    round_ms.insert(round_ms.end(), e.round_ms.begin(), e.round_ms.end());
    const double virtual_s = s.reached_target ? s.time_to_target
                                              : s.finish_time;
    virtual_h.push_back(virtual_s / 3600.0);
    accuracy.push_back(s.final_accuracy);
  }
  probe.Sample();
  const double peak_rss = PeakRssMb();
  CheckThreadedMatchesSerial(w, CourseSeed(args.seed, 0), args.smoke,
                             &report);

  double busy_total = 0.0;
  for (double b : busy_s) busy_total += b;
  std::vector<Metric> timings;
  timings.push_back(MakeMetric("setup_s", "s", setup_s));
  timings.push_back(MakeMetric("course_s", "s", course_s));
  Metric rate = MakeMetric("updates_per_s", "1/s", rates);
  rate.value = static_cast<double>(updates) / busy_total;
  timings.push_back(rate);
  // The mean, not the median: a round runs either on a quiet core or on
  // a contended one, nearly twice as slow, so the pooled median jumps
  // between the two when the contended share nears one half, while the
  // mean moves with that share as smoothly as the host probe does. The
  // tail (p99 of the pooled rounds) stays in the report, ungated: other
  // tenants set it.
  Metric mean = MakeMetric("round_ms_mean", "ms", round_ms);
  mean.value = Mean(round_ms);
  timings.push_back(mean);

  report.info.push_back(HostSlowdown(probe));
  const double slowdown = report.info.back().value;
  for (const Metric& wall : timings) {
    // A rate rises as the host slows down; a duration falls.
    const double scale = wall.unit == "1/s" ? slowdown : 1.0 / slowdown;
    Metric adjusted = wall;
    adjusted.value *= scale;
    adjusted.dist.median *= scale;
    adjusted.dist.q1 *= scale;
    adjusted.dist.q3 *= scale;
    adjusted.dist.tail *= scale;
    report.metrics.push_back(adjusted);
    Metric raw = wall;
    raw.name = "wall." + wall.name;
    report.info.push_back(raw);
  }
  // Means over courses. A run's virtual clock: across seeds the mean
  // spreads half as much as the median on hostile_cifar, whose deadlines
  // and dropouts skew a course's clock. Accuracy: a course's accuracy is
  // a multiple of 1/256 (the server's test set), so the median of a few
  // dozen courses moves in steps of 0.2-0.4%, against a bound of 0.625%.
  Metric virtual_time = MakeMetric("virtual_h_to_target", "h", virtual_h);
  virtual_time.value = Mean(virtual_h);
  report.metrics.push_back(virtual_time);
  Metric final_accuracy = MakeMetric("final_accuracy", "fraction", accuracy);
  final_accuracy.value = Mean(accuracy);
  report.metrics.push_back(final_accuracy);
  report.metrics.push_back(MakeMetric("peak_rss_mb", "MB", {peak_rss}));
  // Not gated: a gated metric must never read 0, and this one should.
  report.info.push_back(MakeMetric(
      "failed_frac", "fraction",
      {static_cast<double>(report.failed) /
       static_cast<double>(report.attempted)}));
  return report;
}

/// A per-layer metric: its name, unit, and whether it is a replay.
struct LayerMetric {
  const char* name;
  const char* unit;
  bool replay;
};

const std::vector<LayerMetric>& PerLayerMetrics() {
  static const std::vector<LayerMetric> all = {
      {"fed_runner.construct_s", "s", false},
      {"fed_runner.join_s", "s", false},
      {"fed_runner.join_msgs", "count", false},
      {"fed_runner.deliveries", "count", false},
      {"fed_runner.pump_self_s", "s", false},
      {"fed_runner.teardown_s", "s", false},
      {"trainer.train_s", "s", false},
      {"trainer.train_calls", "count", false},
      {"trainer.samples", "count", false},
      {"trainer.us_per_sample", "us", false},
      {"trainer.eval_s", "s", false},
      {"trainer.state_s", "s", false},
      {"server.eval_s", "s", false},
      {"server.eval_calls", "count", false},
      {"server.update_yield", "ratio", false},
      {"aggregator.aggregate_s", "s", false},
      {"aggregator.calls", "count", false},
      {"aggregator.updates_per_call", "count", false},
      {"comm.messages.join_in", "count", false},
      {"comm.messages.model_para", "count", false},
      {"comm.messages.model_update", "count", false},
      {"comm.messages.finish", "count", false},
      {"comm.downlink_bytes", "bytes", false},
      {"comm.uplink_bytes", "bytes", false},
      {"codec.encode_s", "s", true},
      {"codec.decode_s", "s", true},
      {"guard.inspect_s", "s", true},
      {"guard.rejected", "count", false},
      {"guard.clipped", "count", false},
      {"guard.quarantined", "count", false},
      {"guard.accept_ratio", "ratio", false},
      {"fault.lost", "count", false},
      {"fault.duplicated", "count", false},
      {"fault.poisoned", "count", false},
      {"fault.dedup_suppressed", "count", false},
      {"fault.dropouts", "count", false},
      {"fault.replacements", "count", false},
      {"fault.round_extensions", "count", false},
      {"checkpoint.snapshots", "count", false},
      {"checkpoint.bytes", "bytes", false},
      {"checkpoint.recoveries", "count", false},
      {"checkpoint.export_s", "s", true},
      {"checkpoint.serialize_s", "s", true},
      {"checkpoint.write_s", "s", true},
      {"client_cache.instantiations", "count", false},
      {"client_cache.restores", "count", false},
      {"client_cache.evictions", "count", false},
      {"client_cache.live_peak", "count", false},
      {"client_cache.hit_ratio", "ratio", false},
      {"exec.workers", "count", false},
      {"exec.train_concurrency", "ratio", false},
      {"trace.overhead", "ratio", false},
  };
  return all;
}

/// The workload's fixed courses, each run untraced and then traced; the
/// per-layer metrics are medians over courses, in wall time (the report's
/// info section gives the host slowdown they were measured at).
Report RunTraced(const Workload& w, const Args& args, const std::string& dir,
                 SpanRecorder* spans) {
  Report report = NewReport(w, args, /*traced=*/true);
  HostProbe probe;
  std::map<std::string, std::vector<double>> per_course;
  std::vector<Span> file_spans;
  for (int k = 0; MoreCourses(w, args, /*traced=*/true, k); ++k) {
    probe.Sample();
    std::unique_ptr<Course> course = w.make(CourseSeed(args.seed, k),
                                            args.smoke);
    const int64_t failures = TotalFailures(report);
    Execution plain = Execute(*course, nullptr, dir, nullptr, &report);
    w.check(*course, plain.outcome, &report);
    spans->set_course(static_cast<uint32_t>(k));
    Execution traced = Execute(*course, spans, dir, &file_spans, &report);
    report.Check("traced_equals_untraced",
                 SameCourse(plain.outcome.result, traced.outcome.result),
                 "course " + std::to_string(k) +
                     " diverged when traced");
    ++report.attempted;
    if (TotalFailures(report) > failures) ++report.failed;

    traced.layers["trace.overhead"] = traced.course_s / plain.course_s - 1.0;
    for (const auto& [name, value] : traced.layers) {
      per_course[name].push_back(value);
    }
  }
  probe.Sample();
  report.info.push_back(HostSlowdown(probe));
  CheckThreadedMatchesSerial(w, CourseSeed(args.seed, 0), args.smoke,
                             &report);
  for (const LayerMetric& lm : PerLayerMetrics()) {
    Metric m = MakeMetric(lm.name, lm.unit, per_course[lm.name]);
    m.replay = lm.replay;
    report.metrics.push_back(m);
  }
  if (!args.trace.empty()) {
    report.Check("span_file_written", WriteChromeTrace(args.trace, file_spans),
                 "cannot write " + args.trace);
  }
  return report;
}

void PrintReport(const Report& r) {
  std::printf("bench_e2e %s seed=%llu %s: %lld courses, %lld failed "
              "(host: %d CPUs, %.0f MHz)\n",
              r.workload.c_str(), static_cast<unsigned long long>(r.seed),
              r.traced ? "traced" : "untraced",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed), r.num_cpus, r.cpu_mhz);
  std::printf("  %-30s %14s %-8s %7s %14s %14s%s\n", "metric", "value", "unit",
              "n", "q1", "q3", "");
  std::vector<Metric> all = r.metrics;
  all.insert(all.end(), r.info.begin(), r.info.end());
  for (const Metric& m : all) {
    std::printf("  %-30s %14.6g %-8s %7lld %14.6g %14.6g%s\n", m.name.c_str(),
                m.value, m.unit.c_str(), static_cast<long long>(m.dist.n),
                m.dist.q1, m.dist.q3, m.replay ? "  (replay)" : "");
  }
  for (const auto& [name, t] : r.checks) {
    std::printf("  check %-28s %s (%lld passed, %lld failed)%s%s\n",
                name.c_str(), t.failed == 0 ? "ok" : "FAIL",
                static_cast<long long>(t.passed),
                static_cast<long long>(t.failed), t.failed ? ": " : "",
                t.detail.c_str());
  }
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg](const char* name) -> const char* {
      const std::string prefix = std::string("--") + name + "=";
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + prefix.size()
                                       : nullptr;
    };
    if (const char* v = value("workload")) {
      args->workload = v;
    } else if (const char* v = value("seed")) {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("seconds")) {
      args->seconds = std::atoi(v);
    } else if (const char* v = value("out")) {
      args->out = v;
    } else if (const char* v = value("trace")) {
      args->trace = v;
    } else if (const char* v = value("tmp")) {
      args->tmp = v;
    } else if (arg == "--smoke") {
      args->smoke = true;
    } else {
      return false;
    }
  }
  return args->smoke || (!args->workload.empty() && args->seconds >= 0);
}

void CreateParent(const std::string& path) {
  const fs::path parent = fs::path(path).parent_path();
  if (!parent.empty()) fs::create_directories(parent);
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload=NAME [--seed=S] [--seconds=T] "
                 "[--out=FILE] [--trace=FILE] [--tmp=DIR]\n"
                 "       bench_e2e --smoke\n");
    return 2;
  }
  // hostile_cifar logs dozens of guard and fault warnings per course.
  Logging::set_min_level(LogLevel::kError);
  const std::string dir =
      args.tmp + "/" + std::to_string(static_cast<long long>(getpid()));
  fs::create_directories(dir);
  // The recorder outlives every course: worker threads keep a pointer to
  // their buffer in it.
  SpanRecorder spans;

  int status = 0;
  if (args.smoke) {
    args.seconds = 0;
    for (const Workload& w : Workloads()) {
      for (bool traced : {false, true}) {
        Report r = traced ? RunTraced(w, args, dir, &spans)
                          : RunUntraced(w, args, dir);
        PrintReport(r);
        if (!r.correct()) status = 1;
      }
    }
    std::printf("%s\n", status == 0 ? "smoke: ok" : "smoke: FAIL");
  } else {
    const Workload* w = FindWorkload(args.workload);
    if (w == nullptr) {
      std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
      fs::remove_all(dir);
      return 2;
    }
    const bool traced = !args.trace.empty();
    if (traced) CreateParent(args.trace);
    Report r = traced ? RunTraced(*w, args, dir, &spans)
                      : RunUntraced(*w, args, dir);
    PrintReport(r);
    if (!args.out.empty()) {
      CreateParent(args.out);
      std::ofstream(args.out) << r.ToJson() << "\n";
    }
    std::printf("%s\n", r.SummaryLine().c_str());
    status = r.correct() ? 0 : 1;
  }
  fs::remove_all(dir);
  return status;
}

}  // namespace
}  // namespace perfbench
}  // namespace fedscope

int main(int argc, char** argv) { return fedscope::perfbench::Main(argc, argv); }
