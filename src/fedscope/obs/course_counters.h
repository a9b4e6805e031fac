#ifndef FEDSCOPE_OBS_COURSE_COUNTERS_H_
#define FEDSCOPE_OBS_COURSE_COUNTERS_H_

#include <cstdint>
#include <iterator>

namespace fedscope {

/// The server's event counters: each event is counted once, here, whether
/// or not a sink is attached, and every sink reads the table (DESIGN.md
/// §3). ServerStats holds the course totals; a CourseLog row holds the
/// counts since the previous aggregation; a snapshot stores the fields as
/// one array; the Prometheus exposition carries one series per field
/// (kCounterFields), written at course end.
struct CourseCounters {
  /// Payload bytes of model_update messages received (declined notices
  /// included).
  int64_t uplink_bytes = 0;
  /// Payload bytes of model_para messages sent.
  int64_t downlink_bytes = 0;
  /// model_para broadcasts sent.
  int64_t broadcasts = 0;
  /// Updates dropped past the staleness toleration.
  int64_t dropped_stale = 0;
  /// Training requests declined by clients (e.g. low_bandwidth behaviour).
  int64_t declined = 0;
  /// Clients presumed dead: starved timer expiries in standalone mode,
  /// mid-course connection failures in distributed mode.
  int64_t dropouts = 0;
  /// Clients drawn to refill cohort slots that ended without an update
  /// (declined, rejected, failed or presumed dead).
  int64_t replacements = 0;
  /// Starved timer expiries: deadlines or time budgets that found fewer than
  /// min_received updates (the remedial measures of §3.3.2).
  int64_t round_extensions = 0;
  /// Updates the ingress guard rejected (DESIGN.md §14): the sum of the
  /// by-reason counts below (see Reject).
  int64_t updates_rejected = 0;
  /// Rejected by the guard, by verdict (GuardReasonLabel).
  int64_t rejected_signature = 0;
  int64_t rejected_non_finite = 0;
  int64_t rejected_norm = 0;
  /// Over-norm updates scaled down to the L2 bound (guard clip mode).
  int64_t updates_clipped = 0;
  /// Clients exiled from the sampling pool by the guard's quarantine.
  int64_t clients_quarantined = 0;
  /// Aggregations the aggregator refused (the round went on without one).
  int64_t aggregation_failures = 0;

  /// Books one rejected update under `reason`, a rejected_* field.
  void Reject(int64_t CourseCounters::*reason) {
    ++updates_rejected;
    ++(this->*reason);
  }

  bool operator==(const CourseCounters&) const = default;
};

/// One CourseCounters field and the Prometheus counter series exporting it.
struct CounterField {
  int64_t CourseCounters::*member;
  /// Series name; null for updates_rejected, exported through its reasons.
  const char* series;
  /// The series' one label ("" for none) and its value.
  const char* label = "";
  const char* label_value = "";
};

/// Every CourseCounters field, in declaration order: the order of the
/// snapshot's counter arrays.
inline constexpr CounterField kCounterFields[] = {
    {&CourseCounters::uplink_bytes, "fs_server_uplink_bytes_total"},
    {&CourseCounters::downlink_bytes, "fs_server_downlink_bytes_total"},
    {&CourseCounters::broadcasts, "fs_server_broadcasts_total"},
    {&CourseCounters::dropped_stale, "fs_server_dropped_stale_total"},
    {&CourseCounters::declined, "fs_server_declined_total"},
    {&CourseCounters::dropouts, "fs_server_dropouts_total"},
    {&CourseCounters::replacements, "fs_server_replacements_total"},
    {&CourseCounters::round_extensions, "fs_server_round_extensions_total"},
    {&CourseCounters::updates_rejected, nullptr},
    {&CourseCounters::rejected_signature, "fs_server_updates_rejected_total",
     "reason", "signature"},
    {&CourseCounters::rejected_non_finite, "fs_server_updates_rejected_total",
     "reason", "non_finite"},
    {&CourseCounters::rejected_norm, "fs_server_updates_rejected_total",
     "reason", "norm"},
    {&CourseCounters::updates_clipped, "fs_server_updates_clipped_total"},
    {&CourseCounters::clients_quarantined,
     "fs_server_clients_quarantined_total"},
    {&CourseCounters::aggregation_failures,
     "fs_server_aggregation_failures_total"},
};
static_assert(sizeof(CourseCounters) ==
                  std::size(kCounterFields) * sizeof(int64_t),
              "kCounterFields must list every CourseCounters field");

/// The counts between two readings of the table, field by field.
inline CourseCounters operator-(CourseCounters later,
                                const CourseCounters& earlier) {
  for (const CounterField& f : kCounterFields) {
    later.*f.member -= earlier.*f.member;
  }
  return later;
}

}  // namespace fedscope

#endif  // FEDSCOPE_OBS_COURSE_COUNTERS_H_
