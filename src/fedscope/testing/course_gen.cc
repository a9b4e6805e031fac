#include "fedscope/testing/course_gen.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <type_traits>
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

std::span<const SpecField> SpecFields() {
  using S = CourseSpec;
  static constexpr SpecField kFields[] = {
      {"seed", &S::seed},
      {"dataset", &S::dataset},
      {"model", &S::model},
      {"num_clients", &S::num_clients},
      {"pool_size", &S::pool_size},
      {"hidden", &S::hidden},
      {"strategy", &S::strategy},
      {"broadcast", &S::broadcast},
      {"sampler", &S::sampler},
      {"num_groups", &S::num_groups},
      {"concurrency", &S::concurrency},
      {"overselect_frac", &S::overselect_frac},
      {"aggregation_goal", &S::aggregation_goal},
      {"staleness_tolerance", &S::staleness_tolerance},
      {"staleness_rho", &S::staleness_rho},
      {"time_budget", &S::time_budget},
      {"min_received", &S::min_received},
      {"receive_deadline", &S::receive_deadline},
      {"max_round_extensions", &S::max_round_extensions},
      {"max_rounds", &S::max_rounds},
      {"eval_interval", &S::eval_interval},
      {"collect_client_metrics", &S::collect_client_metrics},
      {"lr", &S::lr},
      {"local_steps", &S::local_steps},
      {"batch_size", &S::batch_size},
      {"jitter_sigma", &S::jitter_sigma},
      {"aggregator", &S::aggregator},
      {"trim_frac", &S::trim_frac},
      {"personalization", &S::personalization},
      {"compression", &S::compression},
      {"compression_keep_frac", &S::compression_keep_frac},
      {"dp_enable", &S::dp_enable},
      {"dp_noise", &S::dp_noise},
      {"dp_clip", &S::dp_clip},
      {"heterogeneous_fleet", &S::heterogeneous_fleet},
      {"through_wire", &S::through_wire},
      {"suppress_duplicates", &S::suppress_duplicates},
      {"crash_frac", &S::crash_frac},
      {"population", &S::population},
      {"fault.dropout_frac", &S::fault_dropout_frac},
      {"fault.crash_prob", &S::fault_crash_prob},
      {"fault.straggler_frac", &S::fault_straggler_frac},
      {"fault.straggler_delay", &S::fault_straggler_delay},
      {"fault.msg_loss_prob", &S::fault_msg_loss_prob},
      {"fault.msg_duplicate_prob", &S::fault_msg_duplicate_prob},
      {"fault.msg_delay_prob", &S::fault_msg_delay_prob},
      {"fault.msg_delay_max", &S::fault_msg_delay_max},
      {"guard.enabled", &S::guard},
      {"guard.l2", &S::guard_l2},
      {"guard.clip", &S::guard_clip},
      {"guard.quarantine_after", &S::guard_k},
      {"fault.hostile_frac", &S::hostile_frac},
      {"fault.hostile_mode", &S::hostile_mode},
      {"fault.hostile_prob", &S::hostile_prob},
      {"fault.hostile_scale", &S::hostile_scale},
      {"low_bandwidth_frac", &S::low_bandwidth_frac},
  };
  return kFields;
}

Config CourseSpec::ToConfig() const {
  Config c;
  for (const SpecField& f : SpecFields()) {
    std::visit(
        [&](auto member) {
          if constexpr (std::is_same_v<decltype(member),
                                       uint64_t CourseSpec::*>) {
            c.Set(f.key, static_cast<int64_t>(this->*member));
          } else {
            c.Set(f.key, this->*member);
          }
        },
        f.member);
  }
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
  for (const SpecField& f : SpecFields()) {
    std::visit(
        [&](auto member) {
          auto& value = s.*member;
          using T = std::decay_t<decltype(value)>;
          if constexpr (std::is_same_v<T, std::string>) {
            value = config.GetString(f.key, value);
          } else if constexpr (std::is_same_v<T, bool>) {
            value = config.GetBool(f.key, value);
          } else if constexpr (std::is_same_v<T, double>) {
            value = config.GetDouble(f.key, value);
          } else {
            value = static_cast<T>(
                config.GetInt(f.key, static_cast<int64_t>(value)));
          }
        },
        f.member);
  }
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

  // Population axis (client virtualization, DESIGN.md §13), appended after
  // crash_frac for the same corpus-stability reason. A minority draw: it
  // multiplies course size by ~3x, so most specs stay small and fast.
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
    // fuzzing: seed 20). Duplicate suppression in the fault channel is the
    // system's mitigation, so the lattice requires it for this corner
    // instead of excluding it.
    s.suppress_duplicates = true;
  }
  const bool is_sync = strategy == Strategy::kSyncVanilla ||
                       strategy == Strategy::kSyncOverselect;
  if (is_sync && s.HasLossyFaults() && s.receive_deadline <= 0.0) {
    // A synchronous round that loses an update would block forever without
    // the deadline backstop.
    s.receive_deadline = 0.75;
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
    // Leave idle benign capacity to replace quarantined attackers.
    s.concurrency = clamp_int(s.concurrency, 2,
                              std::max(2, (s.EffectiveClients() * 3) / 5));
    s.aggregation_goal = std::min(s.aggregation_goal, s.concurrency);
    s.min_received = std::min(s.min_received, s.concurrency);
    // The server aggregates raw cohorts: it needs a Byzantine-robust
    // aggregator.
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
    const bool hostile_sync =
        s.strategy == "sync_vanilla" || s.strategy == "sync_overselect";
    if (hostile_sync && s.receive_deadline <= 0.0) {
      // Same backstop as lossy faults: a rejection can shrink a
      // synchronous cohort mid-round.
      s.receive_deadline = 0.75;
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
