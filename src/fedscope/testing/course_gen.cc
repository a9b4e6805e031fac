#include "fedscope/testing/course_gen.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>
#include <vector>

#include "fedscope/data/synthetic_cifar.h"
#include "fedscope/data/synthetic_twitter.h"
#include "fedscope/nn/model_zoo.h"
#include "fedscope/personalization/ditto.h"
#include "fedscope/personalization/fedbn.h"
#include "fedscope/personalization/pfedme.h"
#include "fedscope/sim/device_profile.h"
#include "fedscope/util/logging.h"
#include "fedscope/util/rng.h"

namespace fedscope {
namespace testing {
namespace {

template <typename T>
T PickOne(Rng* rng, const std::vector<T>& choices) {
  return choices[static_cast<size_t>(
      rng->UniformInt(0, static_cast<int>(choices.size()) - 1))];
}

Strategy ParseStrategy(const std::string& name) {
  if (name == "sync_vanilla") return Strategy::kSyncVanilla;
  if (name == "sync_overselect") return Strategy::kSyncOverselect;
  if (name == "async_goal") return Strategy::kAsyncGoal;
  if (name == "async_time") return Strategy::kAsyncTime;
  FS_CHECK(false) << "unknown strategy " << name;
  return Strategy::kSyncVanilla;
}

bool OneOf(const std::string& v, std::initializer_list<const char*> allowed) {
  for (const char* a : allowed) {
    if (v == a) return true;
  }
  return false;
}

}  // namespace

bool CourseSpec::operator==(const CourseSpec& other) const {
  return ToConfig() == other.ToConfig();
}

Config CourseSpec::ToConfig() const {
  Config c;
  c.Set("seed", static_cast<int64_t>(seed));
  c.Set("dataset", dataset);
  c.Set("model", model);
  c.Set("num_clients", num_clients);
  c.Set("pool_size", pool_size);
  c.Set("hidden", hidden);
  c.Set("strategy", strategy);
  c.Set("broadcast", broadcast);
  c.Set("sampler", sampler);
  c.Set("num_groups", num_groups);
  c.Set("concurrency", concurrency);
  c.Set("overselect_frac", overselect_frac);
  c.Set("aggregation_goal", aggregation_goal);
  c.Set("staleness_tolerance", staleness_tolerance);
  c.Set("staleness_rho", staleness_rho);
  c.Set("time_budget", time_budget);
  c.Set("min_received", min_received);
  c.Set("receive_deadline", receive_deadline);
  c.Set("max_round_extensions", max_round_extensions);
  c.Set("max_rounds", max_rounds);
  c.Set("eval_interval", eval_interval);
  c.Set("collect_client_metrics", collect_client_metrics);
  c.Set("lr", lr);
  c.Set("local_steps", local_steps);
  c.Set("batch_size", batch_size);
  c.Set("jitter_sigma", jitter_sigma);
  c.Set("aggregator", aggregator);
  c.Set("trim_frac", trim_frac);
  c.Set("personalization", personalization);
  c.Set("compression", compression);
  c.Set("compression_keep_frac", compression_keep_frac);
  c.Set("dp_enable", dp_enable);
  c.Set("dp_noise", dp_noise);
  c.Set("dp_clip", dp_clip);
  c.Set("heterogeneous_fleet", heterogeneous_fleet);
  c.Set("through_wire", through_wire);
  c.Set("suppress_duplicates", suppress_duplicates);
  c.Set("crash_frac", crash_frac);
  c.Set("population", population);
  c.Set("topology.shards", topology_shards);
  c.Set("topology.standbys", topology_standbys);
  c.Set("topology.assignment", topology_assignment);
  c.Set("topology.failure_timeout", topology_failure_timeout);
  c.Set("topology.kill_shard", topology_kill_shard);
  c.Set("topology.kill_round", topology_kill_round);
  c.Set("fault.dropout_frac", fault_dropout_frac);
  c.Set("fault.crash_prob", fault_crash_prob);
  c.Set("fault.straggler_frac", fault_straggler_frac);
  c.Set("fault.straggler_delay", fault_straggler_delay);
  c.Set("fault.msg_loss_prob", fault_msg_loss_prob);
  c.Set("fault.msg_duplicate_prob", fault_msg_duplicate_prob);
  c.Set("fault.msg_delay_prob", fault_msg_delay_prob);
  c.Set("fault.msg_delay_max", fault_msg_delay_max);
  c.Set("guard.enabled", guard);
  c.Set("guard.l2", guard_l2);
  c.Set("guard.clip", guard_clip);
  c.Set("guard.quarantine_after", guard_k);
  c.Set("fault.hostile_frac", hostile_frac);
  c.Set("fault.hostile_mode", hostile_mode);
  c.Set("fault.hostile_prob", hostile_prob);
  c.Set("fault.hostile_scale", hostile_scale);
  c.Set("low_bandwidth_frac", low_bandwidth_frac);
  return c;
}

Result<CourseSpec> CourseSpec::FromConfig(const Config& config) {
  CourseSpec s;
  const Config defaults = s.ToConfig();
  // Unknown keys are configuration typos, not silently-ignored extras.
  for (const std::string& key : config.Keys()) {
    if (!defaults.Has(key)) {
      return Status::InvalidArgument("unknown course-spec key: " + key);
    }
  }
  s.seed = static_cast<uint64_t>(config.GetInt("seed", 1));
  s.dataset = config.GetString("dataset", s.dataset);
  s.model = config.GetString("model", s.model);
  s.num_clients = static_cast<int>(config.GetInt("num_clients", s.num_clients));
  s.pool_size = static_cast<int>(config.GetInt("pool_size", s.pool_size));
  s.hidden = static_cast<int>(config.GetInt("hidden", s.hidden));
  s.strategy = config.GetString("strategy", s.strategy);
  s.broadcast = config.GetString("broadcast", s.broadcast);
  s.sampler = config.GetString("sampler", s.sampler);
  s.num_groups = static_cast<int>(config.GetInt("num_groups", s.num_groups));
  s.concurrency = static_cast<int>(config.GetInt("concurrency", s.concurrency));
  s.overselect_frac = config.GetDouble("overselect_frac", s.overselect_frac);
  s.aggregation_goal =
      static_cast<int>(config.GetInt("aggregation_goal", s.aggregation_goal));
  s.staleness_tolerance = static_cast<int>(
      config.GetInt("staleness_tolerance", s.staleness_tolerance));
  s.staleness_rho = config.GetDouble("staleness_rho", s.staleness_rho);
  s.time_budget = config.GetDouble("time_budget", s.time_budget);
  s.min_received =
      static_cast<int>(config.GetInt("min_received", s.min_received));
  s.receive_deadline = config.GetDouble("receive_deadline", s.receive_deadline);
  s.max_round_extensions = static_cast<int>(
      config.GetInt("max_round_extensions", s.max_round_extensions));
  s.max_rounds = static_cast<int>(config.GetInt("max_rounds", s.max_rounds));
  s.eval_interval =
      static_cast<int>(config.GetInt("eval_interval", s.eval_interval));
  s.collect_client_metrics =
      config.GetBool("collect_client_metrics", s.collect_client_metrics);
  s.lr = config.GetDouble("lr", s.lr);
  s.local_steps = static_cast<int>(config.GetInt("local_steps", s.local_steps));
  s.batch_size = static_cast<int>(config.GetInt("batch_size", s.batch_size));
  s.jitter_sigma = config.GetDouble("jitter_sigma", s.jitter_sigma);
  s.aggregator = config.GetString("aggregator", s.aggregator);
  s.trim_frac = config.GetDouble("trim_frac", s.trim_frac);
  s.personalization = config.GetString("personalization", s.personalization);
  s.compression = config.GetString("compression", s.compression);
  s.compression_keep_frac =
      config.GetDouble("compression_keep_frac", s.compression_keep_frac);
  s.dp_enable = config.GetBool("dp_enable", s.dp_enable);
  s.dp_noise = config.GetDouble("dp_noise", s.dp_noise);
  s.dp_clip = config.GetDouble("dp_clip", s.dp_clip);
  s.heterogeneous_fleet =
      config.GetBool("heterogeneous_fleet", s.heterogeneous_fleet);
  s.through_wire = config.GetBool("through_wire", s.through_wire);
  s.suppress_duplicates =
      config.GetBool("suppress_duplicates", s.suppress_duplicates);
  s.crash_frac = config.GetDouble("crash_frac", s.crash_frac);
  s.population = static_cast<int>(config.GetInt("population", s.population));
  s.topology_shards =
      static_cast<int>(config.GetInt("topology.shards", s.topology_shards));
  s.topology_standbys =
      static_cast<int>(config.GetInt("topology.standbys", s.topology_standbys));
  s.topology_assignment =
      config.GetString("topology.assignment", s.topology_assignment);
  s.topology_failure_timeout =
      config.GetDouble("topology.failure_timeout", s.topology_failure_timeout);
  s.topology_kill_shard = static_cast<int>(
      config.GetInt("topology.kill_shard", s.topology_kill_shard));
  s.topology_kill_round = static_cast<int>(
      config.GetInt("topology.kill_round", s.topology_kill_round));
  s.fault_dropout_frac =
      config.GetDouble("fault.dropout_frac", s.fault_dropout_frac);
  s.fault_crash_prob = config.GetDouble("fault.crash_prob", s.fault_crash_prob);
  s.fault_straggler_frac =
      config.GetDouble("fault.straggler_frac", s.fault_straggler_frac);
  s.fault_straggler_delay =
      config.GetDouble("fault.straggler_delay", s.fault_straggler_delay);
  s.fault_msg_loss_prob =
      config.GetDouble("fault.msg_loss_prob", s.fault_msg_loss_prob);
  s.fault_msg_duplicate_prob =
      config.GetDouble("fault.msg_duplicate_prob", s.fault_msg_duplicate_prob);
  s.fault_msg_delay_prob =
      config.GetDouble("fault.msg_delay_prob", s.fault_msg_delay_prob);
  s.fault_msg_delay_max =
      config.GetDouble("fault.msg_delay_max", s.fault_msg_delay_max);
  s.guard = config.GetBool("guard.enabled", s.guard);
  s.guard_l2 = config.GetDouble("guard.l2", s.guard_l2);
  s.guard_clip = config.GetBool("guard.clip", s.guard_clip);
  s.guard_k =
      static_cast<int>(config.GetInt("guard.quarantine_after", s.guard_k));
  s.hostile_frac = config.GetDouble("fault.hostile_frac", s.hostile_frac);
  s.hostile_mode = config.GetString("fault.hostile_mode", s.hostile_mode);
  s.hostile_prob = config.GetDouble("fault.hostile_prob", s.hostile_prob);
  s.hostile_scale = config.GetDouble("fault.hostile_scale", s.hostile_scale);
  s.low_bandwidth_frac =
      config.GetDouble("low_bandwidth_frac", s.low_bandwidth_frac);
  FS_RETURN_IF_ERROR(CourseGen::Validate(s));
  return s;
}

std::string CourseSpec::ToString() const {
  const Config c = ToConfig();
  std::ostringstream out;
  bool first = true;
  for (const std::string& key : c.Keys()) {
    if (!first) out << ",";
    first = false;
    // Config::ToString emits "key = value" lines; rebuild compactly.
    if (auto b = c.Bool(key); b.ok()) {
      out << key << "=" << (*b ? "true" : "false");
    } else if (auto i = c.Int(key); i.ok()) {
      out << key << "=" << *i;
    } else if (auto d = c.Double(key); d.ok()) {
      std::ostringstream v;
      v.precision(17);
      v << *d;
      out << key << "=" << v.str();
    } else {
      out << key << "=" << c.GetString(key, "");
    }
  }
  return out.str();
}

Result<CourseSpec> CourseSpec::FromString(const std::string& line) {
  Config c;
  std::string token;
  std::istringstream in(line);
  while (std::getline(in, token, ',')) {
    if (token.empty()) continue;
    FS_RETURN_IF_ERROR(c.ParseAssignment(token));
  }
  return FromConfig(c);
}

CourseSpec CourseGen::Sample(uint64_t seed) {
  Rng rng(seed);
  CourseSpec s;
  s.seed = seed;

  s.dataset = PickOne<std::string>(&rng, {"cifar", "twitter"});
  s.personalization =
      PickOne<std::string>(&rng, {"none", "none", "fedbn", "ditto", "pfedme"});
  s.model = s.personalization == "fedbn"
                ? "mlp_bn"
                : PickOne<std::string>(&rng, {"mlp", "logreg"});
  s.num_clients = rng.UniformInt(4, 8);
  s.pool_size = rng.UniformInt(14, 22) * s.num_clients;
  s.hidden = rng.UniformInt(4, 12);

  s.strategy = PickOne<std::string>(
      &rng, {"sync_vanilla", "sync_overselect", "async_goal", "async_time"});
  s.broadcast =
      PickOne<std::string>(&rng, {"after_aggregating", "after_receiving"});
  s.sampler =
      PickOne<std::string>(&rng, {"uniform", "responsiveness", "group"});
  s.num_groups = rng.UniformInt(2, 3);
  s.concurrency = rng.UniformInt(2, s.num_clients);
  s.overselect_frac = rng.Uniform(0.1, 0.6);
  s.aggregation_goal = rng.UniformInt(1, s.concurrency);
  s.staleness_tolerance = rng.UniformInt(2, 8);
  s.staleness_rho = PickOne<double>(&rng, {0.0, 0.5});
  s.time_budget = rng.Uniform(0.2, 1.5);
  s.min_received = rng.UniformInt(1, s.concurrency);
  s.receive_deadline = rng.Bernoulli(0.5) ? rng.Uniform(0.3, 1.5) : 0.0;
  s.max_round_extensions = rng.UniformInt(3, 12);
  s.max_rounds = rng.UniformInt(2, 4);
  s.eval_interval = rng.UniformInt(1, 2);
  s.collect_client_metrics = rng.Bernoulli(0.25);

  s.lr = rng.Uniform(0.05, 0.4);
  s.local_steps = rng.UniformInt(1, 3);
  s.batch_size = rng.UniformInt(4, 8);
  s.jitter_sigma = PickOne<double>(&rng, {0.0, 0.1, 0.3});

  s.aggregator = PickOne<std::string>(
      &rng, {"fedavg", "fedopt", "fednova", "median", "trimmed_mean"});
  s.trim_frac = rng.Uniform(0.1, 0.4);
  s.compression = PickOne<std::string>(&rng, {"none", "quant8", "topk"});
  s.compression_keep_frac = rng.Uniform(0.1, 0.6);
  s.dp_enable = rng.Bernoulli(0.25);
  s.dp_noise = PickOne<double>(&rng, {0.0, 0.01, 0.05});
  s.dp_clip = rng.Uniform(0.5, 2.0);
  s.heterogeneous_fleet = rng.Bernoulli(0.5);
  s.through_wire = rng.Bernoulli(0.35);

  if (rng.Bernoulli(0.5)) {
    // Faulted course. Lossy knobs stay modest so most courses make
    // progress; Clamp forces a deadline wherever loss could stall a
    // synchronous round.
    s.fault_dropout_frac = rng.Bernoulli(0.4) ? rng.Uniform(0.1, 0.4) : 0.0;
    s.fault_crash_prob = rng.Bernoulli(0.3) ? rng.Uniform(0.05, 0.3) : 0.0;
    s.fault_straggler_frac = rng.Bernoulli(0.4) ? rng.Uniform(0.1, 0.5) : 0.0;
    s.fault_straggler_delay = rng.Uniform(0.1, 1.0);
    s.fault_msg_loss_prob = rng.Bernoulli(0.3) ? rng.Uniform(0.02, 0.2) : 0.0;
    s.fault_msg_duplicate_prob =
        rng.Bernoulli(0.4) ? rng.Uniform(0.05, 0.4) : 0.0;
    s.fault_msg_delay_prob = rng.Bernoulli(0.4) ? rng.Uniform(0.1, 0.5) : 0.0;
    s.fault_msg_delay_max = rng.Uniform(0.05, 0.5);
  }
  s.suppress_duplicates =
      s.fault_msg_duplicate_prob > 0.0 && rng.Bernoulli(0.5);

  // Sampled last so older corpus seeds keep drawing the same spec for
  // every pre-existing field.
  s.crash_frac = rng.Uniform(0.0, 1.0);

  // Topology axis (flat / 2-shard / 4-shard / standby failover), appended
  // after crash_frac for the same corpus-stability reason. Kept a minority
  // draw: Clamp projects hierarchical specs onto the synchronous
  // weighted-mean sub-lattice, so a frequent draw would collapse most of
  // the strategy/aggregator/fault diversity sampled above.
  const int topo = rng.Bernoulli(0.3) ? rng.UniformInt(1, 3) : 0;
  if (topo != 0) {
    s.topology_shards = topo == 2 ? 4 : 2;
    s.topology_assignment =
        PickOne<std::string>(&rng, {"round_robin", "contiguous"});
    s.topology_failure_timeout = rng.Uniform(10.0, 50.0);
    s.topology_standbys = rng.UniformInt(0, 2);
    if (topo == 3) {
      s.topology_standbys = std::max(1, s.topology_standbys);
      s.topology_kill_shard = rng.UniformInt(0, s.topology_shards - 1);
      s.topology_kill_round = rng.UniformInt(0, s.max_rounds - 1);
    }
  }

  // Population axis (client virtualization, DESIGN.md §13), appended after
  // the topology draws for corpus stability. A minority draw: it multiplies
  // course size by ~3x, so most specs stay small and fast.
  if (rng.Bernoulli(0.25)) s.population = rng.UniformInt(12, 28);

  // Hostility axis (ingress guard + Byzantine clients, DESIGN.md §14),
  // appended last for the same corpus-stability reason. A minority draw:
  // Clamp projects hostile specs onto the guarded robust-aggregator
  // sub-lattice, so a frequent draw would erode benign diversity. A second
  // small draw turns the guard on for benign courses, so the
  // guard-transparency oracle also sees guards that never fire.
  if (rng.Bernoulli(0.2)) {
    s.hostile_frac = rng.Uniform(0.1, 0.35);
    s.hostile_mode = PickOne<std::string>(
        &rng, {"nan", "inf", "sign_flip", "scale", "malformed", "replay",
               "mixed"});
    s.hostile_prob = rng.Uniform(0.5, 1.0);
    s.hostile_scale = PickOne<double>(&rng, {1e3, 1e6});
    s.guard_k = rng.UniformInt(1, 3);
    s.guard_l2 = rng.Bernoulli(0.3) ? 50.0 : 0.0;
    s.guard_clip = s.guard_l2 > 0.0 && rng.Bernoulli(0.5);
  } else if (rng.Bernoulli(0.15)) {
    s.guard = true;
  }

  // Decline axis (low_bandwidth clients), drawn last for the same
  // corpus-stability reason. Half of its draws make the whole fleet slow,
  // so round 0's cohort declines entirely.
  if (rng.Bernoulli(0.2)) {
    s.low_bandwidth_frac = rng.Bernoulli(0.5) ? 1.0 : rng.Uniform(0.2, 0.8);
  }
  return Clamp(s);
}

CourseSpec CourseGen::Clamp(CourseSpec s) {
  auto clamp_int = [](int v, int lo, int hi) {
    return std::max(lo, std::min(hi, v));
  };
  auto clamp_double = [](double v, double lo, double hi) {
    return std::max(lo, std::min(hi, v));
  };

  if (!OneOf(s.dataset, {"cifar", "twitter"})) s.dataset = "cifar";
  if (!OneOf(s.model, {"mlp", "logreg", "mlp_bn"})) s.model = "mlp";
  if (!OneOf(s.strategy,
             {"sync_vanilla", "sync_overselect", "async_goal", "async_time"})) {
    s.strategy = "sync_vanilla";
  }
  if (!OneOf(s.broadcast, {"after_aggregating", "after_receiving"})) {
    s.broadcast = "after_aggregating";
  }
  if (!OneOf(s.sampler, {"uniform", "responsiveness", "group"})) {
    s.sampler = "uniform";
  }
  if (!OneOf(s.aggregator, {"fedavg", "fedopt", "fednova", "median",
                            "trimmed_mean", "krum"})) {
    s.aggregator = "fedavg";
  }
  if (!OneOf(s.personalization, {"none", "fedbn", "ditto", "pfedme"})) {
    s.personalization = "none";
  }
  if (!OneOf(s.compression, {"none", "quant8", "topk"})) s.compression = "none";

  // FedBN needs BatchNorm parameters to withhold.
  if (s.personalization == "fedbn") s.model = "mlp_bn";

  s.num_clients = clamp_int(s.num_clients, 4, 10);
  s.pool_size = clamp_int(s.pool_size, 12 * s.num_clients, 400);
  s.hidden = clamp_int(s.hidden, 4, 24);
  s.num_groups = clamp_int(s.num_groups, 2, 4);
  s.concurrency = clamp_int(s.concurrency, 2, s.num_clients);
  s.overselect_frac = clamp_double(s.overselect_frac, 0.0, 1.0);
  s.aggregation_goal = clamp_int(s.aggregation_goal, 1, s.concurrency);
  s.staleness_tolerance = clamp_int(s.staleness_tolerance, 2, 20);
  s.staleness_rho = clamp_double(s.staleness_rho, 0.0, 2.0);
  s.time_budget = clamp_double(s.time_budget, 0.05, 5.0);
  s.min_received = clamp_int(s.min_received, 1, s.concurrency);
  s.receive_deadline =
      s.receive_deadline <= 0.0 ? 0.0
                                : clamp_double(s.receive_deadline, 0.1, 5.0);
  s.max_round_extensions = clamp_int(s.max_round_extensions, 1, 30);
  s.max_rounds = clamp_int(s.max_rounds, 1, 6);
  s.eval_interval = clamp_int(s.eval_interval, 1, s.max_rounds);
  s.lr = clamp_double(s.lr, 0.01, 1.0);
  s.local_steps = clamp_int(s.local_steps, 1, 4);
  s.batch_size = clamp_int(s.batch_size, 2, 16);
  s.jitter_sigma = clamp_double(s.jitter_sigma, 0.0, 0.5);
  s.trim_frac = clamp_double(s.trim_frac, 0.0, 0.45);
  s.compression_keep_frac = clamp_double(s.compression_keep_frac, 0.05, 1.0);
  s.dp_noise = clamp_double(s.dp_noise, 0.0, 0.2);
  s.dp_clip = clamp_double(s.dp_clip, 0.1, 5.0);
  s.low_bandwidth_frac = clamp_double(s.low_bandwidth_frac, 0.0, 1.0);

  s.crash_frac = clamp_double(s.crash_frac, 0.0, 1.0);
  s.fault_dropout_frac = clamp_double(s.fault_dropout_frac, 0.0, 1.0);
  s.fault_crash_prob = clamp_double(s.fault_crash_prob, 0.0, 0.5);
  s.fault_straggler_frac = clamp_double(s.fault_straggler_frac, 0.0, 1.0);
  s.fault_straggler_delay = clamp_double(s.fault_straggler_delay, 0.0, 2.0);
  s.fault_msg_loss_prob = clamp_double(s.fault_msg_loss_prob, 0.0, 0.3);
  s.fault_msg_duplicate_prob =
      clamp_double(s.fault_msg_duplicate_prob, 0.0, 0.5);
  s.fault_msg_delay_prob = clamp_double(s.fault_msg_delay_prob, 0.0, 0.8);
  s.fault_msg_delay_max = clamp_double(s.fault_msg_delay_max, 0.0, 2.0);
  if (s.fault_msg_delay_prob > 0.0 && s.fault_msg_delay_max <= 0.0) {
    s.fault_msg_delay_max = 0.1;
  }
  if (s.fault_straggler_frac > 0.0 && s.fault_straggler_delay <= 0.0) {
    s.fault_straggler_delay = 0.1;
  }

  // -- liveness rules -------------------------------------------------------
  const Strategy strategy = ParseStrategy(s.strategy);
  if (strategy == Strategy::kAsyncGoal) {
    // Goal-triggered aggregation has no timer backstop: lossy faults could
    // starve the goal forever, so they are out of this strategy's lattice.
    s.fault_dropout_frac = 0.0;
    s.fault_crash_prob = 0.0;
    s.fault_msg_loss_prob = 0.0;
    s.receive_deadline = 0.0;
  }
  if (strategy == Strategy::kAsyncTime) s.receive_deadline = 0.0;
  if (strategy == Strategy::kAsyncTime &&
      s.broadcast == "after_receiving" && s.fault_msg_duplicate_prob > 0.0) {
    // Every delivered update triggers a broadcast and every broadcast
    // triggers an update; duplication makes that feedback loop multiply
    // messages geometrically within the round's time budget (found by
    // fuzzing: seed 20). Delivery-side dedup is the system's mitigation,
    // so the lattice requires it for this corner instead of excluding it.
    s.suppress_duplicates = true;
  }
  const bool is_sync = strategy == Strategy::kSyncVanilla ||
                       strategy == Strategy::kSyncOverselect;
  if (is_sync && s.HasLossyFaults() && s.receive_deadline <= 0.0) {
    // A synchronous round that loses an update would block forever without
    // the deadline backstop.
    s.receive_deadline = 0.75;
  }

  // -- topology rules (DESIGN.md §11) ---------------------------------------
  if (!OneOf(s.topology_assignment, {"round_robin", "contiguous"})) {
    s.topology_assignment = "round_robin";
  }
  if (s.topology_shards <= 0) {
    // Flat: the whole axis collapses to defaults, so flat specs (and every
    // pre-topology corpus line) keep a single canonical form.
    s.topology_shards = 0;
    s.topology_standbys = 0;
    s.topology_assignment = "round_robin";
    s.topology_failure_timeout = 30.0;
    s.topology_kill_shard = -1;
    s.topology_kill_round = 0;
  } else {
    s.topology_shards = clamp_int(s.topology_shards, 2, 4);
    s.topology_standbys = clamp_int(s.topology_standbys, 0, 2);
    s.topology_failure_timeout =
        clamp_double(s.topology_failure_timeout, 10.0, 50.0);
    if (s.topology_kill_shard >= 0) {
      s.topology_kill_shard =
          clamp_int(s.topology_kill_shard, 0, s.topology_shards - 1);
      s.topology_kill_round =
          clamp_int(s.topology_kill_round, 0, s.max_rounds - 1);
      // A killed primary needs a standby to take over, or the shard (and
      // with it the synchronous round) is gone for good.
      s.topology_standbys = std::max(1, s.topology_standbys);
    } else {
      s.topology_kill_shard = -1;
      s.topology_kill_round = 0;
    }
    // Hierarchical pre-aggregation is defined for the weighted-mean root
    // under the synchronous full-coverage trigger; other strategies and
    // aggregators are outside the topology lattice.
    s.strategy = "sync_vanilla";
    s.broadcast = "after_aggregating";
    s.receive_deadline = 0.0;
    s.aggregator = "fedavg";
    // Standalone lossy faults suppress uplinks silently (no client_failure
    // control message exists in standalone mode), which would stall a
    // shard's sub-cohort forever — there is no deadline backstop in the
    // hierarchical trigger. Duplicated partials would double-count client
    // weight. Delay-only faults stay in the lattice.
    s.fault_dropout_frac = 0.0;
    s.fault_crash_prob = 0.0;
    s.fault_msg_loss_prob = 0.0;
    s.fault_msg_duplicate_prob = 0.0;
    s.suppress_duplicates = false;
    // Per-client metric collection reads model_update payloads the root
    // never sees under sharding.
    s.collect_client_metrics = false;
  }

  // -- population rules -----------------------------------------------------
  if (s.population <= 0) {
    s.population = 0;  // canonical "use num_clients" form
  } else {
    s.population = clamp_int(s.population, 12, 32);
    // Keep per-client partitions non-degenerate at the larger count (the
    // result stays within the [12*num_clients, 400] window above, so this
    // second clamp is idempotent).
    s.pool_size = clamp_int(s.pool_size, 8 * s.population, 400);
  }

  // -- hostility + guard rules (DESIGN.md §14) ------------------------------
  if (!OneOf(s.hostile_mode, {"nan", "inf", "sign_flip", "scale", "malformed",
                              "replay", "mixed"})) {
    s.hostile_mode = "nan";
  }
  s.hostile_frac = clamp_double(s.hostile_frac, 0.0, 0.35);
  if (!s.Hostile()) {
    // Benign: the hostile knobs collapse to canonical defaults so every
    // pre-guard corpus line keeps its historical repro form.
    s.hostile_mode = "nan";
    s.hostile_prob = 1.0;
    s.hostile_scale = 1e6;
  } else {
    s.hostile_prob = clamp_double(s.hostile_prob, 0.1, 1.0);
    s.hostile_scale = clamp_double(s.hostile_scale, 2.0, 1e8);
    // Every hostile course runs guarded: malformed payloads must be
    // screened at ingress or aggregation itself becomes the failure point.
    s.guard = true;
    // Poisoned quantized/sparse payloads would fail transport decoding
    // instead of ingress validation; hostile courses pin the raw encoding
    // so the guard, not the codec, is what the attack meets.
    s.compression = "none";
    // Leave idle benign capacity to replace quarantined attackers.
    s.concurrency = clamp_int(s.concurrency, 2,
                              std::max(2, (s.EffectiveClients() * 3) / 5));
    s.aggregation_goal = std::min(s.aggregation_goal, s.concurrency);
    s.min_received = std::min(s.min_received, s.concurrency);
    if (!s.Hierarchical()) {
      // The root aggregates raw cohorts: it needs a Byzantine-robust
      // aggregator. (Hierarchical roots see edge-guarded partials and stay
      // on the weighted mean the topology lattice requires.)
      if (s.aggregator == "fedavg") {
        s.aggregator = "median";
      } else if (s.aggregator == "fedopt") {
        s.aggregator = "trimmed_mean";
      } else if (s.aggregator == "fednova") {
        s.aggregator = "krum";
      }
      if (s.aggregator == "trimmed_mean") {
        // The trim must out-vote the hostile share, or the attack sits
        // inside the aggregator's breakdown point by construction.
        s.trim_frac = clamp_double(s.trim_frac, s.hostile_frac + 0.05, 0.45);
      }
      if (s.strategy == "async_goal") {
        // Rejected updates never fill the goal; the rebroadcast-per-reply
        // cycle keeps feedback flowing until quarantine exiles attackers.
        s.broadcast = "after_receiving";
      }
      const bool hostile_sync = s.strategy == "sync_vanilla" ||
                                s.strategy == "sync_overselect";
      if (hostile_sync && s.receive_deadline <= 0.0) {
        // Same backstop as lossy faults: a rejection can shrink a
        // synchronous cohort mid-round.
        s.receive_deadline = 0.75;
      }
    }
  }
  if (!s.guard) {
    // Guard-off canonical form (pre-guard corpus lines keep their shape).
    s.guard_l2 = 0.0;
    s.guard_clip = false;
    s.guard_k = 3;
  } else {
    s.guard_k = clamp_int(s.guard_k, 1, 5);
    s.guard_l2 =
        s.guard_l2 <= 0.0 ? 0.0 : clamp_double(s.guard_l2, 10.0, 1e4);
    if (s.guard_l2 <= 0.0) s.guard_clip = false;
  }
  return s;
}

Status CourseGen::Validate(const CourseSpec& spec) {
  const CourseSpec clamped = Clamp(spec);
  if (clamped != spec) {
    return Status::InvalidArgument(
        "course spec outside the valid lattice; clamped form:\n  " +
        clamped.ToString());
  }
  return Status::Ok();
}

std::unique_ptr<Aggregator> MakeSpecAggregator(const CourseSpec& spec) {
  if (spec.aggregator == "fedopt") {
    return std::make_unique<FedOptAggregator>(
        /*server_lr=*/1.0, /*server_momentum=*/0.3, spec.staleness_rho);
  }
  if (spec.aggregator == "fednova") {
    return std::make_unique<FedNovaAggregator>();
  }
  if (spec.aggregator == "median") {
    return std::make_unique<MedianAggregator>();
  }
  if (spec.aggregator == "trimmed_mean") {
    return std::make_unique<TrimmedMeanAggregator>(spec.trim_frac);
  }
  if (spec.aggregator == "krum") {
    // Budget f from the spec's own hostile share of one cohort; Krum wants
    // at least n - f - 2 honest-majority neighbours, so multi_k shrinks
    // with the cohort rather than going negative.
    const int f = std::max(
        1, static_cast<int>(std::lround(spec.hostile_frac * spec.concurrency)));
    const int multi_k = std::max(1, spec.concurrency - f - 2);
    return std::make_unique<KrumAggregator>(f, multi_k);
  }
  return std::make_unique<FedAvgAggregator>(
      FedAvgOptions{1.0, spec.staleness_rho});
}

std::unique_ptr<CourseFixture> MakeCourseFixture(const CourseSpec& spec) {
  auto fixture = std::make_unique<CourseFixture>();
  fixture->spec = CourseGen::Clamp(spec);
  const CourseSpec& s = fixture->spec;
  const int n = s.EffectiveClients();
  if (s.dataset == "twitter") {
    SyntheticTwitterOptions opts;
    opts.num_clients = n;
    opts.vocab = 24;
    opts.words_per_text = 10;
    opts.min_texts = std::max(4, s.pool_size / (2 * n));
    opts.max_texts = std::max<int64_t>(opts.min_texts + 2, s.pool_size / n);
    opts.server_test_size = 64;
    opts.seed = s.seed * 2 + 5;
    fixture->data = MakeSyntheticTwitter(opts);
  } else {
    SyntheticCifarOptions opts;
    opts.num_clients = n;
    opts.classes = 4;
    opts.channels = 1;
    opts.image_size = 6;
    opts.pool_size = s.pool_size;
    opts.alpha = 0.5;
    opts.server_test_size = 64;
    opts.seed = s.seed * 2 + 5;
    fixture->data = MakeSyntheticCifar(opts);
  }
  return fixture;
}

FedJob CourseFixture::MakeJob() const {
  const CourseSpec& s = spec;
  FedJob job;
  job.data = &data;
  job.seed = s.seed;

  const int64_t features = data.server_test.x.numel() /
                           std::max<int64_t>(1, data.server_test.x.dim(0));
  const int64_t classes = s.dataset == "twitter" ? 2 : 4;
  Rng model_rng(s.seed ^ 0x5eedull);
  Model body;
  if (s.model == "logreg") {
    body = MakeLogisticRegression(features, classes, &model_rng);
  } else if (s.model == "mlp_bn") {
    body = MakeMlpBn({features, s.hidden, classes}, &model_rng);
  } else {
    body = MakeMlp({features, s.hidden, classes}, &model_rng);
  }
  // cifar examples are [N, C, H, W]; the dense models expect [N, features].
  Model model;
  model.Add("flat", std::make_unique<Flatten>());
  for (int i = 0; i < body.num_layers(); ++i) {
    model.Add(body.layer_name(i), body.layer(i)->Clone());
  }
  job.init_model = std::move(model);

  job.server.strategy = ParseStrategy(s.strategy);
  job.server.broadcast = s.broadcast == "after_receiving"
                             ? BroadcastManner::kAfterReceiving
                             : BroadcastManner::kAfterAggregating;
  job.server.sampler = s.sampler;
  job.server.num_groups = s.num_groups;
  job.server.concurrency = s.concurrency;
  job.server.overselect_frac = s.overselect_frac;
  job.server.aggregation_goal = s.aggregation_goal;
  job.server.staleness_tolerance = s.staleness_tolerance;
  job.server.time_budget = s.time_budget;
  job.server.min_received = s.min_received;
  job.server.receive_deadline = s.receive_deadline;
  job.server.max_round_extensions = s.max_round_extensions;
  job.server.max_rounds = s.max_rounds;
  job.server.eval_interval = s.eval_interval;
  job.server.collect_client_metrics = s.collect_client_metrics;

  job.client.train.lr = s.lr;
  job.client.train.local_steps = s.local_steps;
  job.client.train.batch_size = s.batch_size;
  job.client.jitter_sigma = s.jitter_sigma;
  job.client.compression = s.compression;
  job.client.compression_keep_frac = s.compression_keep_frac;
  job.client.dp.enable = s.dp_enable;
  job.client.dp.noise_multiplier = s.dp_noise;
  job.client.dp.clip_norm = s.dp_clip;

  job.staleness_rho = s.staleness_rho;
  job.aggregator_factory = [spec = s]() { return MakeSpecAggregator(spec); };
  if (s.personalization == "ditto") {
    job.trainer_factory = [](int) {
      return std::make_unique<DittoTrainer>(DittoOptions{0.5, 0});
    };
  } else if (s.personalization == "pfedme") {
    job.trainer_factory = [](int) {
      return std::make_unique<PFedMeTrainer>(PFedMeOptions{1.0, 2, 0.0, 0.05});
    };
  }

  if (s.heterogeneous_fleet) {
    FleetOptions fleet_opts;
    fleet_opts.compute_median = 400.0;
    fleet_opts.compute_sigma = 0.6;
    fleet_opts.bandwidth_median = 4e6;
    fleet_opts.bandwidth_sigma = 0.6;
    fleet_opts.straggler_frac = 0.2;
    fleet_opts.straggler_slowdown = 0.25;
    Rng fleet_rng(s.seed ^ 0xf1ee7ull);
    job.fleet = MakeFleet(s.EffectiveClients(), fleet_opts, &fleet_rng);
  }

  job.server.topology.num_shards = s.topology_shards;
  job.server.topology.standbys_per_shard = s.topology_standbys;
  job.server.topology.assignment = s.topology_assignment;
  job.server.topology.failure_timeout = s.topology_failure_timeout;
  if (s.topology_kill_shard >= 0) {
    job.fault.aggregator_crashes.push_back(
        AggregatorCrash{s.topology_kill_shard, /*slot=*/0,
                        s.topology_kill_round});
  }

  job.through_wire = s.through_wire;
  job.suppress_duplicates = s.suppress_duplicates;
  job.fault.dropout_frac = s.fault_dropout_frac;
  job.fault.crash_after_training_prob = s.fault_crash_prob;
  job.fault.straggler_frac = s.fault_straggler_frac;
  job.fault.straggler_delay = s.fault_straggler_delay;
  job.fault.msg_loss_prob = s.fault_msg_loss_prob;
  job.fault.msg_duplicate_prob = s.fault_msg_duplicate_prob;
  job.fault.msg_delay_prob = s.fault_msg_delay_prob;
  job.fault.msg_delay_max = s.fault_msg_delay_max;
  job.fault.seed = s.seed ^ 0xfa017ull;

  job.server.guard.enabled = s.guard;
  job.server.guard.l2_bound = s.guard_l2;
  job.server.guard.clip_to_bound = s.guard_clip;
  job.server.guard.quarantine_after = s.guard_k;
  job.fault.hostile_frac = s.hostile_frac;
  job.fault.hostile_mode = s.hostile_mode;
  job.fault.hostile_prob = s.hostile_prob;
  job.fault.hostile_scale = s.hostile_scale;

  if (s.low_bandwidth_frac > 0.0) {
    // The first round(frac * N) clients get a link below the threshold.
    constexpr double kThreshold = 2e5;  // bytes/s
    job.client.low_bandwidth_threshold = kThreshold;
    const int n = s.EffectiveClients();
    if (job.fleet.empty()) job.fleet.assign(n, DeviceProfile{});
    const int slow = static_cast<int>(std::lround(s.low_bandwidth_frac * n));
    for (int i = 0; i < slow; ++i) {
      job.fleet[i].up_bandwidth = kThreshold / 2;
      job.fleet[i].down_bandwidth = kThreshold / 2;
    }
  }

  if (s.personalization == "fedbn") ApplyFedBn(&job);
  return job;
}

}  // namespace testing
}  // namespace fedscope
