#ifndef FEDSCOPE_TESTING_ORACLES_H_
#define FEDSCOPE_TESTING_ORACLES_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "fedscope/core/fed_runner.h"
#include "fedscope/fault/fault_plan.h"
#include "fedscope/obs/course_log.h"
#include "fedscope/obs/metrics.h"
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
  /// Per-round course record; empty unless every sink was attached.
  CourseLog course_log;
  /// The metrics registry at course end; empty unless every sink was
  /// attached.
  MetricsSnapshot metrics;
  /// The client-cache counters at course end.
  ClientCacheStats cache;
  /// Hostile-client set drawn by the fault plan (empty for benign specs).
  std::set<int> hostile;
  /// model_update deliveries carrying a non-finite tensor while the course
  /// was still live (late post-finish arrivals excluded); counted only for
  /// hostile specs, 0 otherwise.
  int64_t nonfinite_updates_delivered = 0;
};

/// Client-cache capacities for RunKnobs. kPopulationCapacity runs the
/// eager course: a cache as large as the population, filled at
/// construction. kAutoCapacity virtualizes with the cohort-derived auto
/// bound. Any value >= 1 virtualizes with that explicit capacity
/// (DESIGN.md §13).
inline constexpr int kPopulationCapacity = -1;
inline constexpr int kAutoCapacity = 0;

/// How RunInstrumentedCourse runs a spec: the knobs the differential
/// oracles vary besides the spec itself.
struct RunKnobs {
  /// >= 0 kills the server between the crash_at_event-th and the next
  /// delivery and restores it from a wire-codec-serialized snapshot
  /// (FaultPlanOptions::server_crash_at_event); -1 runs untouched.
  int64_t crash_at_event = -1;
  /// > 0 runs under ExecutionBackend::kThreaded with that many pool
  /// helper threads; 0 keeps the serial default.
  int exec_threads = 0;
  /// The client lifecycle: kPopulationCapacity, kAutoCapacity, or an
  /// explicit capacity.
  int cache_capacity = kPopulationCapacity;
  /// Attaches a private MetricsRegistry, Tracer and the observation's
  /// CourseLog, and stores the registry's snapshot in `metrics`; otherwise
  /// the ObsContext stays null.
  bool all_sinks = false;

  bool operator==(const RunKnobs& other) const = default;
};

/// Runs `spec` once under `knobs`, observed through the FedJob taps.
CourseObservation RunInstrumentedCourse(const CourseSpec& spec,
                                        const RunKnobs& knobs = {});

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

/// Runs every invariant oracle against one course spec (DESIGN.md §9
/// lists them). One reference run — the spec as given, eager, on
/// OracleOptions::exec_threads, with every sink attached — feeds the
/// single-run oracles: 1 termination + stats sanity, 2 virtual-time
/// monotonicity, 3 message conservation, 14 Byzantine tolerance (hostile
/// specs), 15 round liveness, and 16's agreement of every sink with
/// ServerStats (CheckCounterSinks). Oracle 6 runs no course; oracle 7
/// keeps its own TCP runner. Every other oracle is a row of one table: a
/// spec and RunKnobs whose run must reproduce the reference bit for bit,
/// plus the row's own comparator and extras — 4 + 16 the same spec
/// without sinks, 5 through_wire flipped, 8 a server crash at crash_frac
/// of the reference's deliveries, 11 each parallel_threads count, 12 the
/// auto capacity, capacity 1 and the auto-capacity crash drill, 13 a
/// benign spec's guard on vs off. A row run equal to the reference run is
/// the reference itself. Returns every violation found (empty = course
/// passed).
std::vector<Violation> CheckCourse(const CourseSpec& spec,
                                   const OracleOptions& options = {});

/// Oracle 16's agreement check: every fs_server_* counter series in
/// `metrics` (an absent series reads 0) equals its ServerStats field, the
/// staleness histogram and per-client contribution counters match
/// staleness_log and agg_count, fs_server_aggregations_total sums to the
/// round count, and the course log's rows sum to ServerStats field by
/// field, with one `abort` row exactly when the course aborted.
std::vector<Violation> CheckCounterSinks(const ServerStats& stats,
                                         const MetricsSnapshot& metrics,
                                         const CourseLog& log);

/// Oracle 6 stand-alone: with identical deltas and equal local step
/// counts, any sane aggregation must return global + delta regardless of
/// sample counts and staleness (weights are normalized). Exposed for
/// direct property tests.
std::vector<Violation> CheckAggregateWeightConservation(const CourseSpec& spec);

}  // namespace testing
}  // namespace fedscope

#endif  // FEDSCOPE_TESTING_ORACLES_H_
