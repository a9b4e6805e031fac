#include "fedscope/testing/oracles.h"

#include <cmath>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "fedscope/comm/socket_transport.h"
#include "fedscope/core/distributed.h"
#include "fedscope/core/events.h"
#include "fedscope/personalization/fedbn.h"
#include "fedscope/util/rng.h"

namespace fedscope {
namespace testing {
namespace {

bool Finite(double v) { return std::isfinite(v); }

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

bool StateDictFinite(const StateDict& sd, std::string* detail) {
  for (const auto& [name, tensor] : sd) {
    for (int64_t k = 0; k < tensor.numel(); ++k) {
      if (!std::isfinite(tensor.at(k))) {
        *detail = name + "[" + std::to_string(k) + "] is non-finite";
        return false;
      }
    }
  }
  return true;
}

bool PayloadHasNonFiniteTensor(const Payload& payload) {
  for (const auto& [name, tensor] : payload.tensors()) {
    for (int64_t k = 0; k < tensor.numel(); ++k) {
      if (!std::isfinite(tensor.at(k))) return true;
    }
  }
  return false;
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
/// termination, final model, accuracy curve, message and fault counters,
/// client accuracies, and round structure. `tag` names the rerun in every
/// violation. (Non-const: Model::GetStateDict is a mutating accessor.)
void CheckReproduces(std::vector<Violation>* v, const std::string& oracle,
                     const std::string& tag, CourseObservation& ref,
                     CourseObservation& run) {
  Check(v, run.finished == ref.finished, oracle, tag + "termination differs");
  std::string detail;
  const bool same_model =
      StateDictsBitEqual(ref.result.final_model.GetStateDict(),
                         run.result.final_model.GetStateDict(), &detail);
  Check(v, same_model, oracle, tag + "final model differs: " + detail);
  Check(v, ref.result.server.curve == run.result.server.curve, oracle,
        tag + "accuracy curve differs");
  Check(v, ref.sent == run.sent && ref.delivered == run.delivered, oracle,
        tag + Vs("message counts differ (sent)", ref.sent, run.sent) +
            " / " + Vs("delivered", ref.delivered, run.delivered));
  Check(v, ref.suppressed == run.suppressed, oracle,
        tag + Vs("suppressed differs", ref.suppressed, run.suppressed));
  Check(v,
        ref.fault.dropout_suppressed == run.fault.dropout_suppressed &&
            ref.fault.crashes == run.fault.crashes &&
            ref.fault.lost == run.fault.lost &&
            ref.fault.duplicated == run.fault.duplicated &&
            ref.fault.delayed == run.fault.delayed &&
            ref.fault.aggregator_dropped == run.fault.aggregator_dropped,
        oracle,
        tag + "fault-plan counters differ (fault rng consumed off-order)");
  Check(v,
        ref.result.client_test_accuracy == run.result.client_test_accuracy,
        oracle, tag + "client accuracies differ");
  Check(v,
        ref.result.server.rounds == run.result.server.rounds &&
            ref.result.server.staleness_log ==
                run.result.server.staleness_log &&
            ref.result.server.agg_count == run.result.server.agg_count,
        oracle, tag + "round structure differs");
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

}  // namespace

std::string FormatViolations(const std::vector<Violation>& violations) {
  std::ostringstream out;
  for (const Violation& v : violations) {
    out << "  [" << v.oracle << "] " << v.detail << "\n";
  }
  return out.str();
}

CourseObservation RunInstrumentedCourse(const CourseSpec& spec,
                                        int64_t crash_at_event,
                                        int exec_threads, int cache_capacity,
                                        std::string* metrics_export) {
  auto fixture = MakeCourseFixture(spec);
  FedJob job = fixture->MakeJob();
  job.fault.server_crash_at_event = crash_at_event;
  if (exec_threads > 0) {
    job.exec.backend = ExecutionBackend::kThreaded;
    job.exec.num_threads = exec_threads;
  }
  job.virtualize = cache_capacity != kPopulationCapacity;
  job.client_cache_capacity = std::max(cache_capacity, 0);

  CourseObservation obs;
  MetricsRegistry metrics;
  if (metrics_export != nullptr) job.obs.metrics = &metrics;
  if (spec.Hierarchical()) {
    // Flat courses keep the all-null ObsContext (byte-identity with the
    // uninstrumented build); hierarchical oracles need the per-round
    // contributor record to check weight conservation across failovers.
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
        PayloadHasNonFiniteTensor(msg.payload)) {
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
  obs.aggregators_killed = runner.aggregators_killed();
  for (const auto& agg : runner.aggregators()) {
    obs.promotions += agg->promotions();
    obs.partials_forwarded += agg->partials_forwarded();
  }
  obs.cache = runner.client_cache()->stats();
  if (metrics_export != nullptr) *metrics_export = metrics.PrometheusText();
  return obs;
}

bool DistributedEligible(const CourseSpec& spec) {
  return spec.population == 0 && spec.topology_shards == 0 &&
         spec.strategy == "sync_vanilla" &&
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
      if (!Finite(observed) || std::abs(observed - expected) > 1e-4) {
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

  // -- oracle 1+2+3: one instrumented run ----------------------------------
  // (non-const: Model::GetStateDict is a mutating accessor)
  CourseObservation a = RunInstrumentedCourse(spec, -1, options.exec_threads);

  Check(&v, a.finished, "termination",
        "course neither finished nor aborted (stalled event graph)");
  const ServerStats& stats = a.result.server;
  Check(&v, stats.rounds <= spec.max_rounds, "stats_sanity",
        Vs("rounds > max_rounds", spec.max_rounds, stats.rounds));
  Check(&v, stats.rounds > 0 || stats.aborted || spec.max_rounds == 0,
        "stats_sanity", "zero rounds without an abort");
  for (const auto& [t, acc] : stats.curve) {
    Check(&v, Finite(acc) && acc >= 0.0 && acc <= 1.0, "stats_sanity",
          Vs("curve accuracy out of [0,1]", 0.0, acc));
    Check(&v, Finite(t) && t >= 0.0, "time_monotonicity",
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
    Check(&v, Finite(acc) && acc >= 0.0 && acc <= 1.0, "stats_sanity",
          Vs("client accuracy out of [0,1]", 0.0, acc));
  }
  Check(&v, a.time_regression.empty(), "time_monotonicity", a.time_regression);

  // -- oracle 15: round liveness --------------------------------------------
  // A round ends on its (max_round_extensions + 1)-th starved timer expiry
  // at the latest, plus one expiry per slot rejected in it while
  // quarantine is on; each plan-hostile client is rejected at most guard_k
  // times before it is exiled (DESIGN.md §7). The rounds that can starve
  // are the completed ones and an aborted last one. Termination itself is
  // checked above; slot conservation is FS_CHECKed by the server's ledger.
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

  // aggregator_dropped is deliberately absent from `vanished`: messages
  // addressed to a crashed aggregator are dispatched by the pump (the
  // delivery tap sees them) and then eaten by the dead endpoint, so at
  // pump level they are delivered, not lost in transit.
  const int64_t vanished =
      a.fault.dropout_suppressed + a.fault.crashes + a.fault.lost;
  Check(&v, a.delivered == a.sent - vanished + a.fault.duplicated - a.suppressed,
        "message_conservation",
        Vs("delivered != sent - dropped + duplicated - suppressed",
           a.sent - vanished + a.fault.duplicated - a.suppressed, a.delivered));
  if (spec.suppress_duplicates) {
    Check(&v, a.suppressed == a.fault.duplicated, "message_conservation",
          Vs("suppressed != fault-duplicated", a.fault.duplicated,
             a.suppressed));
  } else {
    Check(&v, a.suppressed == 0, "message_conservation",
          Vs("suppression off but deliveries suppressed", int64_t{0},
             a.suppressed));
  }

  // -- oracle 4: same-seed bit-reproducibility ------------------------------
  CourseObservation b = RunInstrumentedCourse(spec, -1, options.exec_threads);
  std::string detail;
  Check(&v,
        StateDictsBitEqual(a.result.final_model.GetStateDict(),
                           b.result.final_model.GetStateDict(), &detail),
        "reproducibility", "same-seed final models differ: " + detail);
  Check(&v, a.result.server.curve == b.result.server.curve, "reproducibility",
        "same-seed accuracy curves differ");
  Check(&v, a.sent == b.sent && a.delivered == b.delivered, "reproducibility",
        Vs("same-seed message counts differ", a.sent, b.sent) + " / " +
            Vs("delivered", a.delivered, b.delivered));
  Check(&v,
        a.result.client_test_accuracy == b.result.client_test_accuracy,
        "reproducibility", "same-seed client accuracies differ");

  // -- oracle 5: through_wire equivalence -----------------------------------
  CourseSpec wired = spec;
  wired.through_wire = !spec.through_wire;
  CourseObservation w = RunInstrumentedCourse(wired, -1, options.exec_threads);
  Check(&v,
        StateDictsBitEqual(a.result.final_model.GetStateDict(),
                           w.result.final_model.GetStateDict(), &detail),
        "through_wire", "codec round-trip changed the final model: " + detail);
  Check(&v, a.result.server.curve == w.result.server.curve, "through_wire",
        "codec round-trip changed the accuracy curve");
  Check(&v, a.sent == w.sent && a.delivered == w.delivered, "through_wire",
        Vs("codec round-trip changed message counts", a.sent, w.sent));

  // -- oracle 6: aggregate-weight conservation ------------------------------
  for (Violation& violation : CheckAggregateWeightConservation(spec)) {
    v.push_back(std::move(violation));
  }

  // -- oracle 7: standalone-vs-distributed differential ---------------------
  if (options.run_distributed && DistributedEligible(spec)) {
    Status status = Status::Ok();
    const ServerStats dist = RunDistributedCourse(spec, &status);
    Check(&v, status.ok(), "distributed_differential",
          "distributed run failed: " + status.ToString());
    if (status.ok()) {
      Check(&v, dist.rounds == stats.rounds, "distributed_differential",
            Vs("round count differs", stats.rounds, dist.rounds));
      Check(&v, dist.curve.size() == stats.curve.size(),
            "distributed_differential",
            Vs("curve length differs", stats.curve.size(), dist.curve.size()));
      // Arrival order changes float summation order, so accuracies agree
      // only approximately (the structure above must agree exactly).
      Check(&v, std::abs(dist.final_accuracy - stats.final_accuracy) < 0.25,
            "distributed_differential",
            Vs("final accuracy diverged", stats.final_accuracy,
               dist.final_accuracy));
    }
  }

  // -- oracle 8: crash-resume bit-identity ----------------------------------
  // Kill the server between two deliveries at the spec's crash_frac point,
  // restore a freshly built server from a wire-codec-serialized snapshot
  // (exactly what a restarted process reads from disk), and require the
  // resumed course to be indistinguishable from the uninterrupted run: any
  // divergence means some server state escaped the snapshot schema.
  if (a.delivered > 0) {
    const int64_t crash_at = std::min<int64_t>(
        a.delivered - 1,
        static_cast<int64_t>(spec.crash_frac *
                             static_cast<double>(a.delivered)));
    CourseObservation c = RunInstrumentedCourse(spec, crash_at, options.exec_threads);
    Check(&v, c.recoveries == 1, "crash_resume",
          Vs("server restores performed", int64_t{1}, c.recoveries));
    Check(&v,
          StateDictsBitEqual(a.result.final_model.GetStateDict(),
                             c.result.final_model.GetStateDict(), &detail),
          "crash_resume", "crash-resume changed the final model: " + detail);
    Check(&v, a.result.server.curve == c.result.server.curve, "crash_resume",
          "crash-resume changed the accuracy curve");
    Check(&v, a.sent == c.sent && a.delivered == c.delivered, "crash_resume",
          Vs("crash-resume changed sent", a.sent, c.sent) + " / " +
              Vs("delivered", a.delivered, c.delivered));
    Check(&v, a.result.client_test_accuracy == c.result.client_test_accuracy,
          "crash_resume", "crash-resume changed client accuracies");
    Check(&v,
          a.result.server.rounds == c.result.server.rounds &&
              a.result.server.staleness_log == c.result.server.staleness_log,
          "crash_resume", "crash-resume changed the round structure");
  }

  // -- oracle 9: flat-vs-sharded equivalence --------------------------------
  // FedAvg pre-aggregation is exact in real arithmetic: Σ_s (N_s/N)(Σ_i
  // n_i δ_i / N_s) == Σ_i (n_i/N) δ_i. The flat twin (same spec, topology
  // axis zeroed) must therefore produce the same round structure and the
  // same per-client aggregation counts; accuracies agree only to float
  // reassociation tolerance.
  // Hostile specs are excluded: the hostile draws consume the plan's rng in
  // send order, and the sharded and flat message sequences differ, so the
  // two runs are attacked differently — no equivalence to check. Specs
  // with declining clients are excluded too: a flat root refills each
  // declined slot as the decline arrives, a sharded one when the shard's
  // partial reports it, so the two draw different refills.
  if (spec.Hierarchical() && spec.topology_kill_shard < 0 && !spec.Hostile() &&
      spec.low_bandwidth_frac == 0.0) {
    CourseSpec flat_spec = spec;
    flat_spec.topology_shards = 0;
    flat_spec = CourseGen::Clamp(std::move(flat_spec));
    CourseObservation f = RunInstrumentedCourse(flat_spec, -1, options.exec_threads);
    Check(&v, f.finished, "sharding_equivalence", "flat twin stalled");
    Check(&v, f.result.server.rounds == stats.rounds, "sharding_equivalence",
          Vs("flat twin round count differs", stats.rounds,
             f.result.server.rounds));
    Check(&v, f.result.server.curve.size() == stats.curve.size(),
          "sharding_equivalence",
          Vs("flat twin curve length differs", stats.curve.size(),
             f.result.server.curve.size()));
    Check(&v, f.result.server.agg_count == stats.agg_count,
          "sharding_equivalence",
          "flat twin per-client aggregation counts differ");
    Check(&v,
          std::abs(f.result.server.final_accuracy - stats.final_accuracy) <
              0.1,
          "sharding_equivalence",
          Vs("flat twin final accuracy diverged", f.result.server.final_accuracy,
             stats.final_accuracy));
    Check(&v, stats.shard_failovers == 0, "sharding_equivalence",
          Vs("failover without a kill schedule", int64_t{0},
             stats.shard_failovers));
  }

  // -- oracle 10: aggregator failover ---------------------------------------
  if (spec.Hierarchical()) {
    // Weight conservation across the failover boundary: a client may train
    // twice (original broadcast + post-promotion re-broadcast) but only one
    // of its updates may reach aggregation per round.
    for (const CourseRoundRecord& r : a.course_log.rounds()) {
      std::set<int> distinct(r.contributors.begin(), r.contributors.end());
      Check(&v, distinct.size() == r.contributors.size(),
            "aggregator_failover",
            "round " + std::to_string(r.round) +
                " aggregated a client twice (" +
                std::to_string(r.contributors.size()) + " contributions, " +
                std::to_string(distinct.size()) + " distinct)");
      for (int id : r.contributors) {
        Check(&v, id >= 1 && id <= spec.EffectiveClients(),
              "aggregator_failover",
              Vs("contributor id out of fleet range", spec.EffectiveClients(),
                 id));
      }
    }
    if (spec.topology_kill_shard >= 0) {
      Check(&v, a.aggregators_killed >= 1, "aggregator_failover",
            Vs("kill scheduled but no aggregator died", int64_t{1},
               a.aggregators_killed));
      Check(&v, a.promotions >= 1, "aggregator_failover",
            Vs("no standby promoted after the kill", int64_t{1},
               a.promotions));
      Check(&v, stats.shard_failovers >= 1, "aggregator_failover",
            Vs("root acknowledged no failover", int64_t{1},
               stats.shard_failovers));
      Check(&v, !stats.aborted, "aggregator_failover",
            "course aborted instead of failing over");
    }
  }

  // -- oracle 11: serial-vs-threaded differential ---------------------------
  // The threaded backend commits parallel client work in canonical order
  // (DESIGN.md §12), so at every helper count the course must reproduce
  // the base run bit for bit — models, curve, counters, round structure.
  for (int threads : options.parallel_threads) {
    CourseObservation p = RunInstrumentedCourse(spec, -1, threads);
    CheckReproduces(&v, "parallel_differential",
                    "threads=" + std::to_string(threads) + ": ", a, p);
  }

  // -- oracle 12: client-cache capacity sweep ------------------------------
  // Every course keeps its clients in one ClientCache (DESIGN.md §13), and
  // capacity is a pure performance knob. The eager course — a cache as
  // large as the population, filled at construction — is the reference;
  // the virtualized auto capacity and the pathological capacity 1 must
  // reproduce it bit for bit. Every arm runs with a metrics registry
  // attached so the full obs exposition is compared too — a virtualized
  // run may add only its fs_virtual_* gauges, which are stripped before
  // comparing.
  {
    std::string eager_metrics;
    CourseObservation e =
        RunInstrumentedCourse(spec, -1, options.exec_threads,
                              kPopulationCapacity, &eager_metrics);
    struct Arm {
      int capacity;
      int64_t live_bound;  // Get runs before Trim: capacity + 1 at most
      const char* tag;
    };
    for (const Arm& arm :
         {Arm{kAutoCapacity, CohortCacheBound(spec), "auto capacity: "},
          Arm{1, 2, "capacity 1: "}}) {
      const std::string tag = arm.tag;
      std::string virt_metrics;
      CourseObservation vv = RunInstrumentedCourse(
          spec, -1, options.exec_threads, arm.capacity, &virt_metrics);
      CheckReproduces(&v, "virtualization_differential", tag, e, vv);
      Check(&v, StripVirtualSeries(virt_metrics) == eager_metrics,
            "virtualization_differential",
            tag + "metrics exposition differs beyond the fs_virtual_ gauges");
      Check(&v, vv.cache.live_peak >= 1 && vv.cache.live_peak <= arm.live_bound,
            "virtualization_differential",
            tag + Vs("peak live clients outside [1, bound]", arm.live_bound,
                     vv.cache.live_peak));
    }

    // Virtualized crash drill — oracle 8 under virtualization: the cache
    // (the "other processes") survives the server kill, and the resumed
    // course must still match the eager uninterrupted run bit for bit.
    if (e.delivered > 0) {
      const int64_t crash_at = std::min<int64_t>(
          e.delivered - 1,
          static_cast<int64_t>(spec.crash_frac *
                               static_cast<double>(e.delivered)));
      CourseObservation vc = RunInstrumentedCourse(
          spec, crash_at, options.exec_threads, kAutoCapacity);
      Check(&v, vc.recoveries == 1, "virtualization_differential",
            Vs("virtualized server restores performed", int64_t{1},
               vc.recoveries));
      Check(&v,
            StateDictsBitEqual(e.result.final_model.GetStateDict(),
                               vc.result.final_model.GetStateDict(), &detail),
            "virtualization_differential",
            "virtualized crash-resume changed the final model: " + detail);
      Check(&v, e.result.server.curve == vc.result.server.curve,
            "virtualization_differential",
            "virtualized crash-resume changed the accuracy curve");
      Check(&v, e.sent == vc.sent && e.delivered == vc.delivered,
            "virtualization_differential",
            Vs("virtualized crash-resume changed sent", e.sent, vc.sent) +
                " / " + Vs("delivered", e.delivered, vc.delivered));
      Check(&v,
            e.result.client_test_accuracy == vc.result.client_test_accuracy,
            "virtualization_differential",
            "virtualized crash-resume changed client accuracies");
    }
  }

  // -- oracle 13: guard transparency ----------------------------------------
  // A pure-screening ingress guard (no norm bound) over a benign course
  // inspects every update and rejects none; it must be bit-invisible. The
  // norm-bound/clip knobs are active interventions and are normalized out
  // of both twins — transparency is a claim about screening only.
  if (!spec.Hostile()) {
    CourseSpec on = spec;
    on.guard = true;
    on.guard_l2 = 0.0;
    on.guard_clip = false;
    on.guard_k = 3;
    CourseSpec off = on;
    off.guard = false;
    std::string on_metrics;
    std::string off_metrics;
    CourseObservation gon = RunInstrumentedCourse(
        on, -1, options.exec_threads, kPopulationCapacity, &on_metrics);
    CourseObservation goff = RunInstrumentedCourse(
        off, -1, options.exec_threads, kPopulationCapacity, &off_metrics);
    Check(&v, gon.finished == goff.finished, "guard_transparency",
          "guard toggle changed termination");
    Check(&v,
          StateDictsBitEqual(gon.result.final_model.GetStateDict(),
                             goff.result.final_model.GetStateDict(), &detail),
          "guard_transparency",
          "benign guard changed the final model: " + detail);
    Check(&v, gon.result.server.curve == goff.result.server.curve,
          "guard_transparency", "benign guard changed the accuracy curve");
    Check(&v, gon.sent == goff.sent && gon.delivered == goff.delivered,
          "guard_transparency",
          Vs("benign guard changed message counts (sent)", goff.sent,
             gon.sent) +
              " / " + Vs("delivered", goff.delivered, gon.delivered));
    Check(&v, gon.result.client_test_accuracy ==
                  goff.result.client_test_accuracy,
          "guard_transparency", "benign guard changed client accuracies");
    Check(&v,
          gon.result.server.rounds == goff.result.server.rounds &&
              gon.result.server.staleness_log ==
                  goff.result.server.staleness_log &&
              gon.result.server.agg_count == goff.result.server.agg_count,
          "guard_transparency", "benign guard changed the round structure");
    Check(&v, on_metrics == off_metrics, "guard_transparency",
          "benign guard changed the metrics exposition");
    Check(&v,
          gon.result.server.updates_rejected == 0 &&
              gon.result.server.updates_clipped == 0 &&
              gon.result.server.quarantined.empty(),
          "guard_transparency",
          "benign guard rejected, clipped, or quarantined");
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
    // the plan draws hostile *clients*, but heavy benign faults
    // (crash/loss/dropout) can silence the fleet before any hostile member
    // lands in a cohort — such a run is bit-identical to its benign twin,
    // and an abort there is a benign-fault outcome this oracle has no
    // business blaming on the adversary. Accepted mutations (sign-flip or
    // scale inside the norm bound) are counted like honest updates and
    // cannot stall a round either, so rejections are the exact signal that
    // hostility touched liveness. The server answers each rejected slot
    // with a refill and one more expiry of budget for the round (DESIGN.md
    // §7), so the fleet's honest members get to finish it. Finiteness,
    // quarantine soundness, and the delivered-vs-rejected reconciliation
    // below still bind unconditionally.
    if (stats.updates_rejected > 0) {
      Check(&v, a.finished && !stats.aborted, "byzantine_tolerance",
            "hostile course did not complete cleanly");
    }
    Check(&v,
          StateDictFinite(a.result.final_model.GetStateDict(), &detail),
          "byzantine_tolerance",
          "poison reached the final model: " + detail);
    for (int id : stats.quarantined) {
      Check(&v, a.hostile.count(id) > 0, "byzantine_tolerance",
            "honest client " + std::to_string(id) + " was quarantined");
    }
    const std::set<int> distinct_quarantined(stats.quarantined.begin(),
                                             stats.quarantined.end());
    Check(&v, distinct_quarantined.size() == stats.quarantined.size(),
          "byzantine_tolerance", "a client was quarantined twice");
    if (spec.topology_kill_shard < 0) {
      // With a kill schedule a poisoned update can be eaten by the dead
      // aggregator incarnation before any guard sees it, so the exact
      // reconciliation only holds without one.
      Check(&v, a.nonfinite_updates_delivered <= stats.updates_rejected,
            "byzantine_tolerance",
            Vs("non-finite updates delivered vs rejected at ingress",
               stats.updates_rejected, a.nonfinite_updates_delivered));
    }
  }

  return v;
}

}  // namespace testing
}  // namespace fedscope
