#ifndef FEDSCOPE_TESTING_ORACLES_H_
#define FEDSCOPE_TESTING_ORACLES_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "fedscope/core/fed_runner.h"
#include "fedscope/fault/fault_plan.h"
#include "fedscope/obs/course_log.h"
#include "fedscope/testing/course_gen.h"

namespace fedscope {
namespace testing {

/// One broken invariant, attributed to the oracle that caught it.
struct Violation {
  std::string oracle;  ///< e.g. "reproducibility", "message_conservation"
  std::string detail;  ///< human-readable evidence (expected vs observed)
};

std::string FormatViolations(const std::vector<Violation>& violations);

/// One instrumented standalone run of a course: the result plus everything
/// the delivery taps observed.
struct CourseObservation {
  RunResult result;
  bool finished = false;
  int64_t sent = 0;
  int64_t delivered = 0;
  int64_t suppressed = 0;
  /// Server kill+restore drills performed (0 unless crash_at_event >= 0).
  int64_t recoveries = 0;
  FaultPlan::Counters fault;
  /// First delivery whose virtual timestamp regressed ("" if monotone).
  std::string time_regression;
  /// Aggregator incarnations killed by the plan's crash schedule.
  int64_t aggregators_killed = 0;
  /// Standby promotions across all edge-aggregator incarnations.
  int64_t promotions = 0;
  /// Partial updates forwarded across all edge-aggregator incarnations.
  int64_t partials_forwarded = 0;
  /// Per-round course record; attached only for hierarchical specs (flat
  /// courses run with the all-null ObsContext, preserving byte-identity).
  CourseLog course_log;
  /// The client-cache counters at course end.
  ClientCacheStats cache;
  /// Hostile-client set drawn by the fault plan (empty for benign specs).
  std::set<int> hostile;
  /// model_update deliveries carrying a non-finite tensor while the course
  /// was still live (late post-finish arrivals excluded); counted only for
  /// hostile specs, 0 otherwise.
  int64_t nonfinite_updates_delivered = 0;
};

/// Client-cache capacities for RunInstrumentedCourse. kPopulationCapacity
/// runs the eager course: a cache as large as the population, filled at
/// construction. kAutoCapacity virtualizes with the cohort-derived auto
/// bound. Any value >= 1 virtualizes with that explicit capacity
/// (DESIGN.md §13).
inline constexpr int kPopulationCapacity = -1;
inline constexpr int kAutoCapacity = 0;

/// `crash_at_event` >= 0 kills the server between the crash_at_event-th
/// and the next delivery and restores it from a wire-codec-serialized
/// snapshot (FaultPlanOptions::server_crash_at_event); -1 runs untouched.
/// `exec_threads` > 0 runs the course under ExecutionBackend::kThreaded
/// with that many pool helper threads; 0 keeps the serial default.
/// `cache_capacity` picks the client lifecycle (kPopulationCapacity,
/// kAutoCapacity, or an explicit capacity). A non-null `metrics_export`
/// attaches a private MetricsRegistry and stores its Prometheus exposition
/// after the run.
CourseObservation RunInstrumentedCourse(
    const CourseSpec& spec, int64_t crash_at_event = -1, int exec_threads = 0,
    int cache_capacity = kPopulationCapacity,
    std::string* metrics_export = nullptr);

struct OracleOptions {
  /// Also run the standalone-vs-distributed differential when the spec is
  /// eligible (threads + loopback TCP; ~50-200 ms per course).
  bool run_distributed = false;
  /// Helper-thread counts for the serial-vs-threaded differential (oracle
  /// 11): each entry reruns the course under ExecutionBackend::kThreaded
  /// on a pool of that many helpers plus the pump thread, and requires a
  /// bit-identical result. Empty disables the oracle.
  std::vector<int> parallel_threads = {2, 4};
  /// Backend for every base oracle run: 0 = serial (the default), > 0 =
  /// kThreaded with that many pool helpers. fuzz_course --threads sets
  /// this so shrunk repros replay under either backend.
  int exec_threads = 0;
};

/// True when the spec can be compared against a distributed run: the TCP
/// hosts support neither virtual-time strategies (kAsyncTime, receive
/// deadlines) nor fault decorators, and only full-participation sync
/// courses have an arrival-order-independent round structure.
bool DistributedEligible(const CourseSpec& spec);

/// Runs every invariant oracle against one course spec:
///   1. termination + stats sanity (finished/aborted, bounded accuracies,
///      staleness within tolerance, round count within max_rounds),
///   2. virtual-time monotonicity of deliveries and of the accuracy curve,
///   3. message conservation under the fault plan (delivered == sent
///      - dropped + duplicated - suppressed; suppression exact),
///   4. same-seed bit-reproducibility (final model, curve, counters),
///   5. through_wire equivalence (flipping the codec flag is invisible),
///   6. aggregate-weight conservation of the spec's aggregator,
///   7. (optional) standalone-vs-distributed differential,
///   8. crash-resume bit-identity: kill the server at the spec's
///      crash_frac point, restore from a serialized snapshot, and require
///      the resumed course to match the uninterrupted run bit for bit,
///   9. flat-vs-sharded equivalence (hierarchical specs without a kill):
///      the flat twin of the spec must produce the same round structure
///      and per-client aggregation counts, and a final accuracy within
///      float-reassociation tolerance (FedAvg pre-aggregation is exact in
///      real arithmetic),
///  10. aggregator failover (specs with a kill schedule): the course still
///      finishes unaborted, a standby promotion is observed, and no client
///      is aggregated twice in one round (weight conservation across the
///      failover boundary),
///  11. serial-vs-threaded differential: the course rerun under
///      ExecutionBackend::kThreaded at each OracleOptions::parallel_threads
///      helper count must reproduce the base run bit for bit (final model,
///      curve, client accuracies, message counts, round structure),
///  12. client-cache capacity sweep (DESIGN.md §13): the eager course (a
///      cache as large as the population, the reference) is rerun
///      virtualized at the auto capacity and at capacity 1, and each must
///      reproduce it bit for bit — final model, curve, client accuracies,
///      message and fault counters, round structure, and the metrics
///      exposition (up to the fs_virtual_* gauges only virtualized runs
///      emit). Peak live clients must stay within the cohort-derived bound
///      at the auto capacity and within 2 at capacity 1, and the
///      auto-capacity crash drill must resume bit-identically too,
///  13. guard transparency (benign specs, DESIGN.md §14): a pure-screening
///      ingress guard (no norm bound) over a course with zero hostile
///      clients must be bit-invisible — final model, curve, counters,
///      round structure, and the full metrics exposition all match the
///      guard-off twin, and nothing is rejected or quarantined,
///  14. Byzantine tolerance (hostile specs): the course completes without
///      aborting, the final shared model is finite, only plan-hostile
///      clients are ever quarantined (each at most once), and every
///      non-finite update delivered while the course was live was rejected
///      at ingress (delivered-poison count <= rejection count),
///  15. round liveness: the course's starved timer expiries
///      (ServerStats::round_extensions) stay within (max_round_extensions
///      + 1) per completed or aborted round, plus guard_k per plan-hostile
///      client when quarantine is on (DESIGN.md §7); termination is check
///      1, and
///      slot conservation is FS_CHECKed by the server's cohort ledger on
///      every transition.
/// Returns every violation found (empty = course passed).
std::vector<Violation> CheckCourse(const CourseSpec& spec,
                                   const OracleOptions& options = {});

/// Oracle 6 stand-alone: with identical deltas and equal local step
/// counts, any sane aggregation must return global + delta regardless of
/// sample counts and staleness (weights are normalized). Exposed for
/// direct property tests.
std::vector<Violation> CheckAggregateWeightConservation(const CourseSpec& spec);

}  // namespace testing
}  // namespace fedscope

#endif  // FEDSCOPE_TESTING_ORACLES_H_
