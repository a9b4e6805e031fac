#ifndef FEDSCOPE_OBS_COURSE_LOG_H_
#define FEDSCOPE_OBS_COURSE_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fedscope/obs/course_counters.h"
#include "fedscope/util/status.h"

namespace fedscope {

/// Trigger of the row that closes the log of a course the server gave up.
inline constexpr char kAbortTrigger[] = "abort";

/// One aggregation round of an FL course, as the server observed it. This
/// is the structured record the paper's evaluation is built from: who
/// contributed (Fig. 10), how stale the updates were (Fig. 11), how many
/// bytes crossed the wire (compression ablation), and what the global
/// model scored (Table 1 / Fig. 9 curves). Its counters are the server's
/// counts since the previous aggregation; the exports carry the ones the
/// format has always had.
struct CourseRoundRecord : CourseCounters {
  /// Round number after this aggregation (1-based); on an `abort` row, the
  /// round the server gave up.
  int round = 0;
  /// Condition event that triggered the aggregation (all_received /
  /// goal_achieved / time_up / receive_deadline), or `abort` for the last
  /// row of a course the server gave up.
  std::string trigger;
  /// Virtual timestamp of the aggregation (wall seconds in distributed
  /// mode).
  double time = 0.0;
  /// Client ids whose updates entered this aggregation, in buffer order.
  std::vector<int> contributors;
  /// Staleness of each contributing update (parallel to `contributors`).
  std::vector<int> staleness;
  /// True when the server evaluated the global model after this round.
  bool evaluated = false;
  double eval_accuracy = 0.0;
  double eval_loss = 0.0;
  /// Durable snapshots written right after this aggregation and their
  /// total byte size (0 when snapshotting is off — the default).
  int snapshots = 0;
  int64_t snapshot_bytes = 0;
};

/// Append-only per-round course record with JSONL/CSV export and the
/// aggregations the benches need. Deterministic: rounds are stored in
/// append order and exports use fixed number formatting.
class CourseLog {
 public:
  void Append(CourseRoundRecord record);

  /// Marks the newest row of aggregation `round` as snapshotted with
  /// `bytes` on disk. Separate from Append because the runner/host learns
  /// that the snapshot persisted only after later rows may be in the log.
  /// No-op when no row has that round.
  void AnnotateSnapshot(int round, int64_t bytes);

  const std::vector<CourseRoundRecord>& rounds() const { return rounds_; }
  int num_rounds() const { return static_cast<int>(rounds_.size()); }
  void Clear() { rounds_.clear(); }

  /// Effective aggregation count per client id (1-based, index 0 unused;
  /// size num_clients + 1) — the quantity of Figure 10.
  std::vector<int64_t> AggCountPerClient(int num_clients) const;
  /// Staleness of every contributing update across all rounds, in
  /// aggregation order — the distribution of Figure 11.
  std::vector<int> AllStaleness() const;
  /// Total contributing updates across all rounds.
  int64_t TotalContributions() const;
  int64_t TotalUplinkBytes() const;
  int64_t TotalDownlinkBytes() const;

  /// One JSON object per line per round.
  std::string ToJsonl() const;
  /// Flat CSV (contributors/staleness joined with ';' inside one cell).
  std::string ToCsv() const;
  Status WriteJsonl(const std::string& path) const;
  Status WriteCsv(const std::string& path) const;

 private:
  std::vector<CourseRoundRecord> rounds_;
};

}  // namespace fedscope

#endif  // FEDSCOPE_OBS_COURSE_LOG_H_
