#ifndef FEDSCOPE_TESTING_COURSE_GEN_H_
#define FEDSCOPE_TESTING_COURSE_GEN_H_

#include <memory>
#include <string>

#include "fedscope/core/fed_runner.h"
#include "fedscope/util/config.h"
#include "fedscope/util/status.h"

namespace fedscope {
namespace testing {

/// One point in the paper's plug-in configuration lattice, small enough to
/// run as a sub-second standalone course. Every field round-trips through
/// Config (key=value), so a failing draw prints as a one-line repro and
/// replays from the corpus. String fields use the same vocabulary as the
/// production options they map to (see MakeCourseFixture).
struct CourseSpec {
  uint64_t seed = 1;

  // -- data / model (tiny by construction) ----------------------------------
  std::string dataset = "cifar";  ///< "cifar" | "twitter"
  std::string model = "mlp";      ///< "mlp" | "logreg" | "mlp_bn"
  int num_clients = 6;
  int pool_size = 160;  ///< global example pool (cifar) / text budget (twitter)
  int hidden = 8;       ///< MLP hidden width

  // -- server strategy (§3.3) -----------------------------------------------
  std::string strategy = "sync_vanilla";
  ///< "sync_vanilla" | "sync_overselect" | "async_goal" | "async_time"
  std::string broadcast = "after_aggregating";  ///< | "after_receiving"
  std::string sampler = "uniform";  ///< "uniform" | "responsiveness" | "group"
  int num_groups = 3;
  int concurrency = 4;
  double overselect_frac = 0.3;
  int aggregation_goal = 2;
  int staleness_tolerance = 5;
  double staleness_rho = 0.0;
  double time_budget = 1.0;
  int min_received = 1;
  double receive_deadline = 0.0;
  int max_round_extensions = 10;
  int max_rounds = 3;
  int eval_interval = 1;
  bool collect_client_metrics = false;

  // -- local training -------------------------------------------------------
  double lr = 0.1;
  int local_steps = 1;
  int batch_size = 4;
  double jitter_sigma = 0.0;

  // -- plug-ins -------------------------------------------------------------
  std::string aggregator = "fedavg";
  ///< "fedavg"|"fedopt"|"fednova"|"median"|"trimmed_mean"|"krum"
  double trim_frac = 0.2;
  std::string personalization = "none";  ///< "none"|"fedbn"|"ditto"|"pfedme"
  std::string compression = "none";      ///< "none" | "quant8" | "topk"
  double compression_keep_frac = 0.3;
  bool dp_enable = false;
  double dp_noise = 0.0;
  double dp_clip = 1.0;
  bool heterogeneous_fleet = false;
  bool through_wire = false;
  bool suppress_duplicates = false;

  // -- crash-recovery drill (oracle 8) --------------------------------------
  /// Where in the course the server is killed and restored from a
  /// serialized snapshot, as a fraction of the uninterrupted run's
  /// delivered-event count (0 = before the first delivery, 1 = before the
  /// last). The resumed course must be bit-identical to the uninterrupted
  /// one. Always exercised: courses cannot opt out of crash consistency.
  double crash_frac = 0.5;

  // -- topology (hierarchical sharded aggregation, DESIGN.md §11) -----------
  /// Shard count of the aggregation tree; 0 = flat (the default). Flat
  /// specs collapse the whole topology axis to defaults under Clamp so
  /// pre-topology corpus lines keep their historical repro form.
  int topology_shards = 0;
  /// Hot standbys per shard (slots 1..N behind the slot-0 primary).
  int topology_standbys = 0;
  std::string topology_assignment = "round_robin";  ///< | "contiguous"
  /// Standby watchdog silence threshold (virtual seconds).
  double topology_failure_timeout = 30.0;
  /// Shard whose slot-0 primary is crash-scheduled mid-course; -1 = no
  /// kill. A kill forces topology_standbys >= 1 (someone must take over).
  int topology_kill_shard = -1;
  int topology_kill_round = 0;

  // -- population (client virtualization, DESIGN.md §13) --------------------
  /// Total participant count when it exceeds the dataset-diversity axis:
  /// 0 = num_clients (the historical default; every pre-population corpus
  /// line keeps its form). > 0 draws a population larger than any cohort
  /// (clamped to [12, 32]), so virtualized runs exercise eviction and
  /// re-instantiation. The client-cache capacity sweep (oracle 12) runs
  /// on every spec either way.
  int population = 0;

  // -- fault plan -----------------------------------------------------------
  double fault_dropout_frac = 0.0;
  double fault_crash_prob = 0.0;
  double fault_straggler_frac = 0.0;
  double fault_straggler_delay = 0.0;
  double fault_msg_loss_prob = 0.0;
  double fault_msg_duplicate_prob = 0.0;
  double fault_msg_delay_prob = 0.0;
  double fault_msg_delay_max = 0.0;

  // -- ingress guard + hostile clients (DESIGN.md §14) ----------------------
  /// Server-side ingress validation of every received update (shape
  /// signature, finiteness, optional L2 bound). Forced on whenever
  /// hostile_frac > 0; may also be on for benign courses (oracle 13 checks
  /// that a guard which never fires is bit-invisible).
  bool guard = false;
  /// L2-norm bound on accepted deltas; 0 disables the norm screen.
  double guard_l2 = 0.0;
  /// Clip over-norm deltas to the bound instead of rejecting them.
  bool guard_clip = false;
  /// Violations before a client is quarantined out of the sampling pool.
  int guard_k = 3;
  /// Fraction of the fleet mutated in flight by the fault plan (0 = none).
  double hostile_frac = 0.0;
  std::string hostile_mode = "nan";
  ///< "nan"|"inf"|"sign_flip"|"scale"|"malformed"|"replay"|"mixed"
  double hostile_prob = 1.0;
  double hostile_scale = 1e6;

  // -- bandwidth-aware clients (the paper's §3.2 low_bandwidth behaviour) ---
  /// Fraction of the fleet below the low-bandwidth threshold; those
  /// clients decline every other training request, so at 1 a whole
  /// cohort declines round 0.
  double low_bandwidth_frac = 0.0;

  bool operator==(const CourseSpec& other) const;
  bool operator!=(const CourseSpec& other) const { return !(*this == other); }

  /// True when any lossy fault knob is set (messages can disappear).
  bool HasLossyFaults() const {
    return fault_dropout_frac > 0.0 || fault_crash_prob > 0.0 ||
           fault_msg_loss_prob > 0.0;
  }

  /// True when the spec runs a hierarchical (sharded) aggregation tree.
  bool Hierarchical() const { return topology_shards > 0; }

  /// True when part of the fleet attacks (hostile-client axis active).
  bool Hostile() const { return hostile_frac > 0.0; }

  /// The participant count the course actually runs with.
  int EffectiveClients() const {
    return population > 0 ? population : num_clients;
  }

  Config ToConfig() const;
  static Result<CourseSpec> FromConfig(const Config& config);
  /// Comma-joined "key=value" pairs — the one-line repro format.
  std::string ToString() const;
  static Result<CourseSpec> FromString(const std::string& line);
};

/// Seeded generator over the valid region of the lattice.
class CourseGen {
 public:
  /// Draws a random valid spec. Same seed -> identical spec.
  static CourseSpec Sample(uint64_t seed);

  /// Projects an arbitrary spec onto the valid region (ranges clamped,
  /// cross-field liveness rules enforced). Sample and the shrinker both
  /// route through this, so every spec the harness ever runs is valid.
  static CourseSpec Clamp(CourseSpec spec);

  /// Error iff the spec violates a range or liveness rule Clamp enforces.
  static Status Validate(const CourseSpec& spec);
};

/// A materialized course: the spec plus the (owning) dataset behind the
/// FedJob. Keep the fixture alive while any FedRunner built from MakeJob
/// is running.
struct CourseFixture {
  CourseSpec spec;
  FedDataset data;

  /// Builds the FedJob this spec describes (borrowing `data`).
  FedJob MakeJob() const;
};

std::unique_ptr<CourseFixture> MakeCourseFixture(const CourseSpec& spec);

/// The aggregator the spec's course would use (also used stand-alone by
/// the aggregate-weight-conservation oracle).
std::unique_ptr<Aggregator> MakeSpecAggregator(const CourseSpec& spec);

}  // namespace testing
}  // namespace fedscope

#endif  // FEDSCOPE_TESTING_COURSE_GEN_H_
