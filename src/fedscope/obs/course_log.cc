#include "fedscope/obs/course_log.h"

#include <cstdio>
#include <sstream>
#include <utility>

namespace fedscope {
namespace {

std::string FormatTime(double t) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", t);
  return buf;
}

std::string FormatEval(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string JoinInts(const std::vector<int>& values, const char* sep) {
  std::ostringstream os;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) os << sep;
    os << values[i];
  }
  return os.str();
}

Status WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  if (written != text.size()) {
    return Status::DataLoss("short write to " + path);
  }
  return Status::Ok();
}

}  // namespace

void CourseLog::Append(CourseRoundRecord record) {
  rounds_.push_back(std::move(record));
}

void CourseLog::AnnotateSnapshot(int round, int64_t bytes) {
  for (auto row = rounds_.rbegin(); row != rounds_.rend(); ++row) {
    if (row->round == round) {
      ++row->snapshots;
      row->snapshot_bytes += bytes;
      return;
    }
  }
}

std::vector<int64_t> CourseLog::AggCountPerClient(int num_clients) const {
  std::vector<int64_t> counts(num_clients + 1, 0);
  for (const auto& round : rounds_) {
    for (int id : round.contributors) {
      if (id >= 1 && id < static_cast<int>(counts.size())) ++counts[id];
    }
  }
  return counts;
}

std::vector<int> CourseLog::AllStaleness() const {
  std::vector<int> all;
  for (const auto& round : rounds_) {
    all.insert(all.end(), round.staleness.begin(), round.staleness.end());
  }
  return all;
}

int64_t CourseLog::TotalContributions() const {
  int64_t total = 0;
  for (const auto& round : rounds_) {
    total += static_cast<int64_t>(round.contributors.size());
  }
  return total;
}

int64_t CourseLog::TotalUplinkBytes() const {
  int64_t total = 0;
  for (const auto& round : rounds_) total += round.uplink_bytes;
  return total;
}

int64_t CourseLog::TotalDownlinkBytes() const {
  int64_t total = 0;
  for (const auto& round : rounds_) total += round.downlink_bytes;
  return total;
}

std::string CourseLog::ToJsonl() const {
  std::ostringstream os;
  for (const auto& r : rounds_) {
    os << "{\"round\":" << r.round << ",\"trigger\":\"" << r.trigger
       << "\",\"time\":" << FormatTime(r.time) << ",\"contributors\":["
       << JoinInts(r.contributors, ",") << "],\"staleness\":["
       << JoinInts(r.staleness, ",") << "],\"uplink_bytes\":" << r.uplink_bytes
       << ",\"downlink_bytes\":" << r.downlink_bytes
       << ",\"broadcasts\":" << r.broadcasts
       << ",\"dropped_stale\":" << r.dropped_stale
       << ",\"declined\":" << r.declined;
    // Fault fields appear only when faults occurred, keeping fault-free
    // course logs byte-identical to the pre-fault format.
    if (r.dropouts != 0 || r.replacements != 0) {
      os << ",\"dropouts\":" << r.dropouts
         << ",\"replacements\":" << r.replacements;
    }
    // Guard fields appear only on rounds with guard activity, keeping
    // guard-off course logs byte-identical to the pre-guard format.
    if (r.updates_rejected != 0 || r.clients_quarantined != 0) {
      os << ",\"updates_rejected\":" << r.updates_rejected
         << ",\"clients_quarantined\":" << r.clients_quarantined;
    }
    // Snapshot fields appear only on snapshotted rounds, keeping
    // snapshot-free course logs byte-identical to the previous format.
    if (r.snapshots != 0) {
      os << ",\"snapshots\":" << r.snapshots
         << ",\"snapshot_bytes\":" << r.snapshot_bytes;
    }
    os << ",\"evaluated\":" << (r.evaluated ? "true" : "false");
    if (r.evaluated) {
      os << ",\"eval_accuracy\":" << FormatEval(r.eval_accuracy)
         << ",\"eval_loss\":" << FormatEval(r.eval_loss);
    }
    os << "}\n";
  }
  return os.str();
}

std::string CourseLog::ToCsv() const {
  // Guard columns appear only when some round rejected or quarantined,
  // keeping guard-off CSVs byte-identical to the pre-guard format.
  bool guard = false;
  for (const auto& r : rounds_) {
    if (r.updates_rejected != 0 || r.clients_quarantined != 0) guard = true;
  }
  std::ostringstream os;
  os << "round,trigger,time,contributors,staleness,uplink_bytes,"
        "downlink_bytes,broadcasts,dropped_stale,declined,dropouts,"
        "replacements,";
  if (guard) os << "updates_rejected,clients_quarantined,";
  os << "snapshots,snapshot_bytes,evaluated,eval_accuracy,eval_loss\n";
  for (const auto& r : rounds_) {
    os << r.round << "," << r.trigger << "," << FormatTime(r.time) << ","
       << JoinInts(r.contributors, ";") << "," << JoinInts(r.staleness, ";")
       << "," << r.uplink_bytes << "," << r.downlink_bytes << ","
       << r.broadcasts << "," << r.dropped_stale << "," << r.declined << ","
       << r.dropouts << "," << r.replacements << ",";
    if (guard) {
      os << r.updates_rejected << "," << r.clients_quarantined << ",";
    }
    os << r.snapshots << "," << r.snapshot_bytes << "," << (r.evaluated ? 1 : 0)
       << "," << (r.evaluated ? FormatEval(r.eval_accuracy) : "") << ","
       << (r.evaluated ? FormatEval(r.eval_loss) : "") << "\n";
  }
  return os.str();
}

Status CourseLog::WriteJsonl(const std::string& path) const {
  return WriteFile(path, ToJsonl());
}

Status CourseLog::WriteCsv(const std::string& path) const {
  return WriteFile(path, ToCsv());
}

}  // namespace fedscope
