#include "fedscope/testing/oracles.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "fedscope/comm/socket_transport.h"
#include "fedscope/core/distributed.h"
#include "fedscope/core/events.h"
#include "fedscope/obs/tracer.h"
#include "fedscope/personalization/fedbn.h"
#include "fedscope/util/rng.h"

namespace fedscope {
namespace testing {
namespace {

bool StateDictsBitEqual(const StateDict& a, const StateDict& b,
                        std::string* detail) {
  if (a.size() != b.size()) {
    *detail = "parameter count differs";
    return false;
  }
  for (const auto& [name, tensor] : a) {
    const auto it = b.find(name);
    if (it == b.end()) {
      *detail = "missing parameter " + name;
      return false;
    }
    if (tensor.shape() != it->second.shape()) {
      *detail = "shape mismatch on " + name;
      return false;
    }
    for (int64_t k = 0; k < tensor.numel(); ++k) {
      // Bitwise comparison through memcmp semantics: NaN != NaN under
      // operator== would hide a NaN-poisoned model from the oracle.
      const float x = tensor.at(k);
      const float y = it->second.at(k);
      if (std::memcmp(&x, &y, sizeof(float)) != 0) {
        std::ostringstream out;
        out << name << "[" << k << "]: " << x << " vs " << y;
        *detail = out.str();
        return false;
      }
    }
  }
  return true;
}

void Check(std::vector<Violation>* v, bool ok, const std::string& oracle,
           const std::string& detail) {
  if (!ok) v->push_back({oracle, detail});
}

/// Files one differential oracle's violations under its label, each
/// detail prefixed by its tag, which names the rerun; a check that belongs
/// to another oracle names that oracle's label.
struct Report {
  std::vector<Violation>* v;
  const char* oracle;
  std::string tag;
  void operator()(bool ok, const std::string& detail,
                  const char* label = nullptr) const {
    Check(v, ok, label != nullptr ? label : oracle, tag + detail);
  }
};

/// True when every element is finite; otherwise names the first that is
/// not in `detail`, when given.
bool StateDictFinite(const StateDict& sd, std::string* detail = nullptr) {
  for (const auto& [name, tensor] : sd) {
    for (int64_t k = 0; k < tensor.numel(); ++k) {
      if (!std::isfinite(tensor.at(k))) {
        if (detail != nullptr) {
          *detail = name + "[" + std::to_string(k) + "] is non-finite";
        }
        return false;
      }
    }
  }
  return true;
}

template <typename T>
std::string Vs(const char* what, T expected, T observed) {
  std::ostringstream out;
  out << what << ": expected " << expected << ", observed " << observed;
  return out.str();
}

/// Drops the fs_virtual_* series (and their TYPE headers) from a
/// Prometheus exposition — the only lines a virtualized run may add.
std::string StripVirtualSeries(const std::string& text) {
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("fs_virtual_") != std::string::npos) continue;
    out << line << "\n";
  }
  return out.str();
}

/// Requires `run` to reproduce the reference run `ref` bit for bit:
/// termination, final model, accuracy curve, message, fault and server
/// counters, client accuracies, and round structure. (Non-const:
/// Model::GetStateDict is a mutating accessor.)
void CheckReproduces(const Report& report, CourseObservation& ref,
                     CourseObservation& run) {
  report(run.finished == ref.finished, "termination differs");
  std::string detail;
  const bool same_model =
      StateDictsBitEqual(ref.result.final_model.GetStateDict(),
                         run.result.final_model.GetStateDict(), &detail);
  report(same_model, "final model differs: " + detail);
  report(ref.result.server.curve == run.result.server.curve,
         "accuracy curve differs");
  report(ref.sent == run.sent && ref.delivered == run.delivered,
         Vs("message counts differ (sent)", ref.sent, run.sent) + " / " +
             Vs("delivered", ref.delivered, run.delivered));
  report(ref.suppressed == run.suppressed,
         Vs("suppressed differs", ref.suppressed, run.suppressed));
  report(ref.fault.dropout_suppressed == run.fault.dropout_suppressed &&
             ref.fault.crashes == run.fault.crashes &&
             ref.fault.lost == run.fault.lost &&
             ref.fault.duplicated == run.fault.duplicated &&
             ref.fault.delayed == run.fault.delayed,
         "fault-plan counters differ (fault rng consumed off-order)");
  report(static_cast<const CourseCounters&>(ref.result.server) ==
             static_cast<const CourseCounters&>(run.result.server),
         "server counters differ (CourseCounters)");
  report(ref.result.client_test_accuracy == run.result.client_test_accuracy,
         "client accuracies differ");
  report(ref.result.server.rounds == run.result.server.rounds &&
             ref.result.server.staleness_log ==
                 run.result.server.staleness_log &&
             ref.result.server.agg_count == run.result.server.agg_count,
         "round structure differs");
}

/// True when two course logs hold the same rows: the same exported record
/// and the same counters, including those the exports leave out.
bool SameRows(const CourseLog& a, const CourseLog& b) {
  return a.ToJsonl() == b.ToJsonl() &&
         std::equal(a.rounds().begin(), a.rounds().end(), b.rounds().begin(),
                    [](const CourseCounters& x, const CourseCounters& y) {
                      return x == y;
                    });
}

/// The cohort-derived auto capacity of the virtualized client cache
/// (FedRunner::CacheCapacity) plus the one-client transient a delivery to
/// a non-live client creates before Trim runs — the bound oracle 12 holds
/// the auto-capacity arm's live_peak to.
int64_t CohortCacheBound(const CourseSpec& spec) {
  int cohort = spec.concurrency;
  if (spec.strategy == "sync_overselect") {
    cohort =
        static_cast<int>(std::ceil(cohort * (1.0 + spec.overselect_frac)));
  }
  return cohort + 2 + 1;
}

/// A spec and the knobs it runs under.
struct CourseRun {
  CourseSpec spec;
  RunKnobs knobs;
  bool operator==(const CourseRun& other) const = default;
};

/// One differential oracle: `run` must reproduce `base` bit for bit
/// (CheckReproduces), plus the row's own comparisons and extras below.
struct DifferentialRow {
  const char* oracle;  ///< the violation label
  std::string tag;     ///< names the rerun in every violation
  CourseRun run;
  /// Comparator: the metrics exposition (a virtualized run may add only
  /// its fs_virtual_* gauges), and the course-log rows (oracle 16).
  bool same_exposition = false;
  bool same_log_rows = false;
  /// Extras on `run`: one server restore performed; peak live clients in
  /// [1, live_bound] when > 0; a guard that rejected, clipped and
  /// quarantined nothing.
  bool recovered = false;
  int64_t live_bound = 0;
  bool guard_idle = false;
  /// The run compared against; the reference run when unset.
  std::optional<CourseRun> base = std::nullopt;
};

/// The differential oracles as one table against `reference` (DESIGN.md
/// §9). `delivered` is the reference's delivery count: both crash drills
/// kill the server at the spec's crash_frac point of it.
std::vector<DifferentialRow> DifferentialRows(
    const CourseRun& reference, const std::vector<int>& parallel_threads,
    int64_t delivered) {
  const CourseSpec& spec = reference.spec;
  const int threads = reference.knobs.exec_threads;
  CourseSpec wired = spec;
  wired.through_wire = !spec.through_wire;
  // A pure-screening guard over a benign course must be bit-invisible.
  // The norm-bound knobs are active interventions: both twins take the
  // canonical guard-off values (no bound, no clip, guard_k 3).
  CourseSpec unguarded = spec;
  unguarded.guard = false;
  unguarded = CourseGen::Clamp(unguarded);
  CourseSpec guarded = unguarded;
  guarded.guard = true;
  const int64_t crash_at = std::min<int64_t>(
      delivered - 1,
      static_cast<int64_t>(spec.crash_frac * static_cast<double>(delivered)));

  // The rerun without sinks is oracle 4 and oracle 16 at once: it differs
  // from the reference on nondeterminism and on any sink side effect.
  std::vector<DifferentialRow> rows = {
      {"reproducibility",
       "same seed, no sinks (nondeterminism or a sink side effect): ",
       {spec, {.exec_threads = threads}}},
      {"through_wire", "codec round-trip: ",
       {wired, {.exec_threads = threads}}},
  };
  for (int helpers : parallel_threads) {
    rows.push_back({"parallel_differential",
                    "threads=" + std::to_string(helpers) + ": ",
                    {spec, {.exec_threads = helpers}}});
  }
  for (const int capacity : {kAutoCapacity, 1}) {
    rows.push_back({.oracle = "virtualization_differential",
                    .tag = capacity == 1 ? "capacity 1: " : "auto capacity: ",
                    .run = {spec, {-1, threads, capacity, true}},
                    .same_exposition = true,
                    .live_bound = capacity == 1 ? 2 : CohortCacheBound(spec)});
  }
  if (delivered > 0) {
    rows.push_back({.oracle = "crash_resume",
                    .tag = "crash-resume: ",
                    .run = {spec, {crash_at, threads}},
                    .recovered = true});
    // The cache survives the server kill; the rows after the restore
    // count from the baseline the snapshot carried.
    rows.push_back({.oracle = "virtualization_differential",
                    .tag = "virtualized crash-resume: ",
                    .run = {spec, {crash_at, threads, kAutoCapacity, true}},
                    .same_log_rows = true,
                    .recovered = true});
  }
  if (!spec.Hostile()) {
    rows.push_back({.oracle = "guard_transparency",
                    .tag = "benign guard: ",
                    .run = {guarded, reference.knobs},
                    .same_exposition = true,
                    .guard_idle = true,
                    .base = CourseRun{unguarded, reference.knobs}});
  }
  return rows;
}

}  // namespace

std::string FormatViolations(const std::vector<Violation>& violations) {
  std::ostringstream out;
  for (const Violation& v : violations) {
    out << "  [" << v.oracle << "] " << v.detail << "\n";
  }
  return out.str();
}

CourseObservation RunInstrumentedCourse(const CourseSpec& spec,
                                        const RunKnobs& knobs) {
  auto fixture = MakeCourseFixture(spec);
  FedJob job = fixture->MakeJob();
  job.fault.server_crash_at_event = knobs.crash_at_event;
  if (knobs.exec_threads > 0) {
    job.exec.backend = ExecutionBackend::kThreaded;
    job.exec.num_threads = knobs.exec_threads;
  }
  job.virtualize = knobs.cache_capacity != kPopulationCapacity;
  job.client_cache_capacity = std::max(knobs.cache_capacity, 0);

  CourseObservation obs;
  MetricsRegistry metrics;
  Tracer tracer;
  if (knobs.all_sinks) {
    job.obs.metrics = &metrics;
    job.obs.tracer = &tracer;
    job.obs.course_log = &obs.course_log;
  }
  double last_delivery_time = -1.0;
  // Oracle 14 reconciles delivered poison against ingress rejections; the
  // scan only runs for hostile specs, and reads the live server through the
  // runner so the crash drill's server replacement cannot dangle it.
  const bool hostile_watch = spec.Hostile();
  FedRunner* live_runner = nullptr;
  job.send_tap = [&obs](const Message&) { ++obs.sent; };
  job.delivery_tap = [&obs, &last_delivery_time, hostile_watch,
                      &live_runner](const Message& msg) {
    ++obs.delivered;
    if (msg.timestamp < last_delivery_time && obs.time_regression.empty()) {
      std::ostringstream out;
      out << "delivery #" << obs.delivered << " (" << msg.msg_type << " "
          << msg.sender << "->" << msg.receiver << ") at t=" << msg.timestamp
          << " after t=" << last_delivery_time;
      obs.time_regression = out.str();
    }
    last_delivery_time = std::max(last_delivery_time, msg.timestamp);
    if (hostile_watch && msg.msg_type == events::kModelUpdate &&
        live_runner != nullptr && !live_runner->server()->finished() &&
        !StateDictFinite(msg.payload.tensors())) {
      ++obs.nonfinite_updates_delivered;
    }
  };

  FedRunner runner(std::move(job));
  live_runner = &runner;
  obs.result = runner.Run();
  obs.finished = runner.server()->finished();
  obs.suppressed = runner.duplicates_suppressed();
  obs.recoveries = runner.recoveries();
  obs.fault = runner.fault_plan().counters();
  obs.hostile = runner.fault_plan().hostile_clients();
  obs.cache = runner.client_cache()->stats();
  obs.metrics = metrics.Snapshot();
  return obs;
}

bool DistributedEligible(const CourseSpec& spec) {
  return spec.population == 0 && spec.strategy == "sync_vanilla" &&
         spec.concurrency == spec.num_clients &&
         spec.receive_deadline == 0.0 && !spec.suppress_duplicates &&
         spec.fault_dropout_frac == 0.0 && spec.fault_crash_prob == 0.0 &&
         spec.fault_straggler_frac == 0.0 && spec.fault_msg_loss_prob == 0.0 &&
         spec.fault_msg_duplicate_prob == 0.0 &&
         spec.fault_msg_delay_prob == 0.0 && spec.hostile_frac == 0.0 &&
         spec.low_bandwidth_frac == 0.0;
}

namespace {

/// Runs the spec's course over loopback TCP with the exact worker wiring
/// FedRunner uses (same client seeds, same factories) and returns the
/// server stats. Requires DistributedEligible(spec).
ServerStats RunDistributedCourse(const CourseSpec& spec, Status* status) {
  auto fixture = MakeCourseFixture(spec);
  FedJob job = fixture->MakeJob();
  const int n = spec.num_clients;

  auto listener = TcpListener::Bind(0);
  if (!listener.ok()) {
    *status = listener.status();
    return {};
  }
  const int port = listener->port();

  ServerOptions server_options = job.server;
  server_options.expected_clients = n;
  if (server_options.seed == 0) server_options.seed = job.seed;
  if (!job.aggregator_factory) {
    job.aggregator_factory = [&spec]() { return MakeSpecAggregator(spec); };
  }
  DistributedServerHost host(server_options, job.init_model,
                             job.aggregator_factory(),
                             std::move(listener.value()));
  const Dataset* server_test = &fixture->data.server_test;
  host.server()->set_evaluator([server_test](Model* model) {
    return EvaluateClassifier(model, *server_test);
  });

  ServerStats stats;
  std::thread server_thread([&] { stats = host.Run(); });

  if (job.fleet.empty()) job.fleet.assign(n, DeviceProfile{});
  if (!job.trainer_factory) {
    job.trainer_factory = [](int) { return std::make_unique<GeneralTrainer>(); };
  }
  Rng seeder(job.seed);
  std::vector<std::thread> client_threads;
  std::vector<Status> client_status(n);
  for (int id = 1; id <= n; ++id) {
    client_threads.emplace_back([&, id] {
      ClientOptions options = job.client;
      options.device = job.fleet[id - 1];
      options.seed = seeder.Fork(static_cast<uint64_t>(id)).Next();
      if (job.client_customizer) job.client_customizer(id, &options);
      DistributedClientHost client_host(
          id, std::move(options), job.init_model,
          fixture->data.clients[id - 1], job.trainer_factory(id), "127.0.0.1",
          port);
      client_status[id - 1] = client_host.Run();
    });
  }
  for (auto& t : client_threads) t.join();
  server_thread.join();

  *status = Status::Ok();
  for (const Status& s : client_status) {
    if (!s.ok()) *status = s;
  }
  return stats;
}

}  // namespace

std::vector<Violation> CheckCounterSinks(const ServerStats& stats,
                                         const MetricsSnapshot& metrics,
                                         const CourseLog& log) {
  std::vector<Violation> v;
  const Report report{&v, "obs_transparency", ""};
  auto series = [&metrics](const std::string& name, MetricLabels labels) {
    const MetricSample* sample = metrics.Find(name, labels);
    return sample == nullptr ? MetricSample() : *sample;
  };
  CourseCounters row_sum;
  for (const CourseRoundRecord& row : log.rounds()) {
    for (const CounterField& f : kCounterFields) {
      row_sum.*f.member += row.*f.member;
    }
  }
  for (const CounterField& f : kCounterFields) {
    const int64_t expected = stats.*f.member;
    std::string name = f.series != nullptr ? f.series : "updates_rejected";
    if (*f.label != '\0') name += "{" + std::string(f.label_value) + "}";
    name += ": ";
    report(row_sum.*f.member == expected,
           Vs((name + "course-log rows vs ServerStats").c_str(), expected,
              row_sum.*f.member));
    if (f.series == nullptr) continue;
    MetricLabels labels;
    if (*f.label != '\0') labels[f.label] = f.label_value;
    const double exported = series(f.series, labels).value;
    report(exported == static_cast<double>(expected),
           Vs((name + "series vs ServerStats").c_str(),
              static_cast<double>(expected), exported));
  }

  const MetricSample staleness = series("fs_server_staleness", {});
  report(staleness.value == static_cast<double>(stats.staleness_log.size()) &&
             staleness.sum == std::accumulate(stats.staleness_log.begin(),
                                              stats.staleness_log.end(), 0.0),
         "fs_server_staleness differs from staleness_log");
  std::vector<int64_t> contributions(stats.agg_count.size(), 0);
  double aggregations = 0.0;
  for (const MetricSample& sample : metrics.samples) {
    if (sample.name == "fs_server_aggregations_total") {
      aggregations += sample.value;
    } else if (sample.name == "fs_server_agg_contributions_total") {
      const size_t id = std::stoul(sample.labels.at("client"));
      if (id >= contributions.size()) contributions.resize(id + 1, 0);
      contributions[id] = static_cast<int64_t>(sample.value);
    }
  }
  report(contributions == stats.agg_count,
         "fs_server_agg_contributions_total differs from agg_count");
  report(aggregations == static_cast<double>(stats.rounds),
         Vs("fs_server_aggregations_total vs rounds",
            static_cast<double>(stats.rounds), aggregations));

  // One row per aggregation, plus the abort row of a course given up.
  const bool closed =
      log.num_rounds() > 0 && log.rounds().back().trigger == kAbortTrigger;
  report(closed == stats.aborted && log.num_rounds() - closed == stats.rounds,
         "course log has " + std::to_string(log.num_rounds()) + " rows for " +
             std::to_string(stats.rounds) + " rounds" +
             (stats.aborted ? " and an abort" : ""));
  report(log.AllStaleness() == stats.staleness_log,
         "course-log staleness differs from staleness_log");
  report(log.AggCountPerClient(static_cast<int>(stats.agg_count.size()) - 1) ==
             stats.agg_count,
         "course-log contributors differ from agg_count");
  return v;
}

std::vector<Violation> CheckAggregateWeightConservation(
    const CourseSpec& spec) {
  std::vector<Violation> v;
  Rng rng(spec.seed ^ 0xa99ull);

  StateDict global;
  StateDict delta;
  for (const char* name : {"fc.weight", "fc.bias"}) {
    Tensor g({3, 2});
    Tensor d({3, 2});
    for (int64_t k = 0; k < g.numel(); ++k) {
      g.at(k) = static_cast<float>(rng.Uniform(-1.0, 1.0));
      d.at(k) = static_cast<float>(rng.Uniform(-0.5, 0.5));
    }
    global.emplace(name, std::move(g));
    delta.emplace(name, std::move(d));
  }

  // Identical deltas, equal local steps, varying sample counts and
  // staleness: normalized weights must sum to one, so the aggregate is
  // exactly global + delta (FedNova's tau_eff rescaling cancels too).
  std::vector<ClientUpdate> updates;
  const int k = 3;
  for (int i = 0; i < k; ++i) {
    ClientUpdate u;
    u.client_id = i + 1;
    u.staleness = i;
    u.num_samples = static_cast<double>(rng.UniformInt(2, 40));
    u.local_steps = 2;
    u.delta = delta;
    updates.push_back(std::move(u));
  }

  auto aggregator = MakeSpecAggregator(spec);
  const Result<StateDict> aggregated = aggregator->Aggregate(global, updates);
  if (!aggregated.ok()) {
    v.push_back({"aggregate_weight_conservation",
                 "aggregation of a benign cohort failed: " +
                     aggregated.status().ToString()});
    return v;
  }
  const StateDict& next = *aggregated;
  for (const auto& [name, tensor] : next) {
    const Tensor& g = global.at(name);
    const Tensor& d = delta.at(name);
    for (int64_t idx = 0; idx < tensor.numel(); ++idx) {
      const double expected = static_cast<double>(g.at(idx)) + d.at(idx);
      const double observed = tensor.at(idx);
      if (!std::isfinite(observed) || std::abs(observed - expected) > 1e-4) {
        std::ostringstream out;
        out << spec.aggregator << " " << name << "[" << idx
            << "]: expected global+delta=" << expected << ", got " << observed;
        v.push_back({"aggregate_weight_conservation", out.str()});
        return v;  // one coordinate is enough evidence
      }
    }
  }
  return v;
}

std::vector<Violation> CheckCourse(const CourseSpec& spec,
                                   const OracleOptions& options) {
  std::vector<Violation> v;

  // -- the reference run ----------------------------------------------------
  // The spec as given, eager, on the configured backend, with every sink
  // attached. The single-run oracles read it; the differential rows compare
  // against it. (non-const: Model::GetStateDict is a mutating accessor)
  const CourseRun reference{
      spec, {.exec_threads = options.exec_threads, .all_sinks = true}};
  CourseObservation a = RunInstrumentedCourse(spec, reference.knobs);

  // -- oracle 1+2+3 ---------------------------------------------------------
  Check(&v, a.finished, "termination",
        "course neither finished nor aborted (stalled event graph)");
  const ServerStats& stats = a.result.server;
  Check(&v, stats.rounds <= spec.max_rounds, "stats_sanity",
        Vs("rounds > max_rounds", spec.max_rounds, stats.rounds));
  Check(&v, stats.rounds > 0 || stats.aborted || spec.max_rounds == 0,
        "stats_sanity", "zero rounds without an abort");
  for (const auto& [t, acc] : stats.curve) {
    Check(&v, std::isfinite(acc) && acc >= 0.0 && acc <= 1.0, "stats_sanity",
          Vs("curve accuracy out of [0,1]", 0.0, acc));
    Check(&v, std::isfinite(t) && t >= 0.0, "time_monotonicity",
          Vs("negative/NaN curve time", 0.0, t));
  }
  for (size_t i = 1; i < stats.curve.size(); ++i) {
    Check(&v, stats.curve[i].first >= stats.curve[i - 1].first,
          "time_monotonicity",
          Vs("curve time regressed", stats.curve[i - 1].first,
             stats.curve[i].first));
  }
  for (int staleness : stats.staleness_log) {
    Check(&v, staleness >= 0 && staleness <= spec.staleness_tolerance,
          "stats_sanity",
          Vs("aggregated staleness outside tolerance", spec.staleness_tolerance,
             staleness));
  }
  for (double acc : a.result.client_test_accuracy) {
    Check(&v, std::isfinite(acc) && acc >= 0.0 && acc <= 1.0, "stats_sanity",
          Vs("client accuracy out of [0,1]", 0.0, acc));
  }
  Check(&v, a.time_regression.empty(), "time_monotonicity", a.time_regression);

  // -- oracle 15: round liveness --------------------------------------------
  // At most (max_round_extensions + 1) starved expiries per completed or
  // aborted round, plus guard_k per plan-hostile client under quarantine
  // (DESIGN.md §7); slot conservation is FS_CHECKed by the server's ledger.
  const int64_t starvable_rounds = stats.rounds + (stats.aborted ? 1 : 0);
  int64_t extension_bound =
      starvable_rounds * (spec.max_round_extensions + 1);
  if (spec.guard && spec.guard_k > 0) {
    extension_bound += static_cast<int64_t>(spec.guard_k) *
                       static_cast<int64_t>(a.hostile.size());
  }
  Check(&v, stats.round_extensions <= extension_bound, "round_liveness",
        Vs("starved expiries beyond the course's bound", extension_bound,
           stats.round_extensions));

  const int64_t vanished =
      a.fault.dropout_suppressed + a.fault.crashes + a.fault.lost;
  Check(&v, a.delivered == a.sent - vanished + a.fault.duplicated - a.suppressed,
        "message_conservation",
        Vs("delivered != sent - dropped + duplicated - suppressed",
           a.sent - vanished + a.fault.duplicated - a.suppressed, a.delivered));
  // Suppression is exact: every injected duplicate and nothing else.
  const int64_t duplicates = spec.suppress_duplicates ? a.fault.duplicated : 0;
  Check(&v, a.suppressed == duplicates, "message_conservation",
        Vs("suppressed != fault-duplicated (0 with suppression off)",
           duplicates, a.suppressed));

  // -- oracle 6: aggregate-weight conservation ------------------------------
  for (Violation& violation : CheckAggregateWeightConservation(spec)) {
    v.push_back(std::move(violation));
  }

  // -- oracle 7: standalone-vs-distributed differential ---------------------
  if (options.run_distributed && DistributedEligible(spec)) {
    Status status = Status::Ok();
    const ServerStats dist = RunDistributedCourse(spec, &status);
    const Report report{&v, "distributed_differential", ""};
    report(status.ok(), "distributed run failed: " + status.ToString());
    if (status.ok()) {
      report(dist.rounds == stats.rounds,
             Vs("round count differs", stats.rounds, dist.rounds));
      report(dist.curve.size() == stats.curve.size(),
             Vs("curve length differs", stats.curve.size(), dist.curve.size()));
      // Arrival order changes float summation order, so accuracies agree
      // only approximately (the structure above must agree exactly).
      report(std::abs(dist.final_accuracy - stats.final_accuracy) < 0.25,
             Vs("final accuracy diverged", stats.final_accuracy,
                dist.final_accuracy));
    }
  }

  // -- the differential rows ------------------------------------------------
  for (const DifferentialRow& row :
       DifferentialRows(reference, options.parallel_threads, a.delivered)) {
    std::optional<CourseObservation> reruns[2];
    const auto observe = [&](const CourseRun& run,
                             std::optional<CourseObservation>& slot)
        -> CourseObservation& {
      return run == reference
                 ? a
                 : slot.emplace(RunInstrumentedCourse(run.spec, run.knobs));
    };
    CourseObservation& base = observe(row.base.value_or(reference), reruns[0]);
    CourseObservation& run = observe(row.run, reruns[1]);
    const Report report{&v, row.oracle, row.tag};
    CheckReproduces(report, base, run);
    if (row.same_exposition) {
      const std::string text = run.metrics.ToPrometheusText();
      const bool eager = row.run.knobs.cache_capacity == kPopulationCapacity;
      report((eager ? text : StripVirtualSeries(text)) ==
                 base.metrics.ToPrometheusText(),
             "metrics exposition differs");
    }
    if (row.same_log_rows) {
      report(SameRows(base.course_log, run.course_log),
             "changed the course log", "obs_transparency");
    }
    if (row.recovered) {
      report(run.recoveries == 1,
             Vs("server restores performed", int64_t{1}, run.recoveries));
    }
    if (row.live_bound > 0) {
      report(run.cache.live_peak >= 1 && run.cache.live_peak <= row.live_bound,
             Vs("peak live clients outside [1, bound]", row.live_bound,
                run.cache.live_peak));
    }
    if (row.guard_idle) {
      const ServerStats& guarded = run.result.server;
      report(guarded.updates_rejected == 0 && guarded.updates_clipped == 0 &&
                 guarded.quarantined.empty(),
             "rejected, clipped, or quarantined");
    }
  }

  // -- oracle 16: every sink agrees with ServerStats ------------------------
  for (Violation& violation :
       CheckCounterSinks(stats, a.metrics, a.course_log)) {
    v.push_back(std::move(violation));
  }

  // -- oracle 14: Byzantine tolerance ---------------------------------------
  // Under a minority of plan-hostile clients and an active guard, the
  // course completes, the shared model stays finite, honest clients are
  // never quarantined, and every non-finite update delivered while the
  // course was live was rejected at ingress. (Sign-flip/scale attacks
  // inside the norm bound are the robust aggregator's job; finiteness of
  // the final model is what witnesses that they stayed outvoted.)
  if (spec.Hostile()) {
    // Clean completion is owed only once the guard has rejected something:
    // rejections are the exact signal that hostility touched liveness, and
    // heavy benign faults can silence the fleet before any hostile member
    // lands in a cohort (DESIGN.md §9, oracle 14).
    const Report report{&v, "byzantine_tolerance", ""};
    if (stats.updates_rejected > 0) {
      report(a.finished && !stats.aborted,
             "hostile course did not complete cleanly");
    }
    std::string detail;
    const bool finite =
        StateDictFinite(a.result.final_model.GetStateDict(), &detail);
    report(finite, "poison reached the final model: " + detail);
    for (int id : stats.quarantined) {
      report(a.hostile.count(id) > 0,
             "honest client " + std::to_string(id) + " was quarantined");
    }
    const std::set<int> distinct_quarantined(stats.quarantined.begin(),
                                             stats.quarantined.end());
    report(distinct_quarantined.size() == stats.quarantined.size(),
           "a client was quarantined twice");
    report(a.nonfinite_updates_delivered <= stats.updates_rejected,
           Vs("non-finite updates delivered vs rejected at ingress",
              stats.updates_rejected, a.nonfinite_updates_delivered));
  }
  return v;
}

}  // namespace testing
}  // namespace fedscope
