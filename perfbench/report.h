#ifndef FEDSCOPE_PERFBENCH_REPORT_H_
#define FEDSCOPE_PERFBENCH_REPORT_H_

// The one result schema of bench_e2e. A run writes a Report as JSON
// (`--out=FILE`) and prints its one-line summary last on stdout:
//
//   {"schema": 1, "host": {"num_cpus": 4, "cpu_mhz": 2000},
//    "workload": "...", "seed": 1, "traced": false, "seconds": 12,
//    "attempted": 310, "failed": 0,
//    "metrics": {"course_s": {"unit": "s", "value": 0.031, "n": 310,
//                             "median": 0.031, "q1": 0.027, "q3": 0.036,
//                             "tail": {"p": 0.9, "value": 0.045,
//                                      "beyond": 31}, "replay": false}},
//    "info": {"failed_frac": {...}},
//    "checks": {"reached_target": {"pass": 310, "fail": 0, "detail": ""}}}
//
// `metrics` are the ones BENCHMARK.json names (and bounds, for an untraced
// run); `info` metrics are reported but not gated. `value` is what a
// metric reports; it equals `median` except for updates_per_s (pooled
// over the run) and the means (round_ms_mean, virtual_h_to_target,
// final_accuracy), whose median/q1/q3 describe the per-sample
// distribution the value comes from. `tail` is the highest of
// p90/p99/p99.9 that has at least ten samples beyond it: round_ms_mean's
// is the round-time tail. An untraced run's timings are host-adjusted;
// `info` holds `host.slowdown` and each timing's wall-clock reading as
// `wall.NAME`. compare_runs.py reads these files.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace fedscope {
namespace perfbench {

inline constexpr int kSchemaVersion = 1;

/// Quantile `p` in (0, 1) of sorted `v`, interpolated like Python's
/// statistics.quantiles (method "exclusive"), so in-run spreads and
/// compare_runs.py agree. `v` must be non-empty.
inline double Quantile(const std::vector<double>& v, double p) {
  const size_t n = v.size();
  if (n == 1) return v[0];
  const double h = p * static_cast<double>(n + 1);
  const size_t j = std::clamp<size_t>(static_cast<size_t>(std::floor(h)), 1,
                                      n - 1);
  const double delta = h - static_cast<double>(j);
  return v[j - 1] + delta * (v[j] - v[j - 1]);
}

inline double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Summary {
  int64_t n = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  /// Tail percentile (0 when fewer than 100 samples) and its value.
  double tail_p = 0.0;
  double tail = 0.0;
};

inline Summary Summarize(std::vector<double> v) {
  Summary s;
  s.n = static_cast<int64_t>(v.size());
  if (v.empty()) return s;
  s.median = Median(v);
  std::sort(v.begin(), v.end());
  s.q1 = Quantile(v, 0.25);
  s.q3 = Quantile(v, 0.75);
  for (double p : {0.999, 0.99, 0.9}) {
    if ((1.0 - p) * static_cast<double>(s.n) >= 10.0 - 1e-9) {
      s.tail_p = p;
      s.tail = Quantile(v, p);
      break;
    }
  }
  return s;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  Summary dist;
  /// Measured by replaying a public function outside the course.
  bool replay = false;
};

/// One named check, accumulated over every course it ran on.
struct CheckTally {
  int64_t passed = 0;
  int64_t failed = 0;
  /// First failure, for the log.
  std::string detail;
};

inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

struct Report {
  int num_cpus = 0;
  double cpu_mhz = 0.0;
  std::string workload;
  uint64_t seed = 0;
  bool traced = false;
  int seconds = 0;
  /// Courses run and courses that failed a check.
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Gated metrics: the summary line carries exactly these.
  std::vector<Metric> metrics;
  /// Reported in the file only.
  std::vector<Metric> info;
  std::map<std::string, CheckTally> checks;

  void Check(const std::string& name, bool ok, const std::string& detail) {
    CheckTally& t = checks[name];
    if (ok) {
      ++t.passed;
    } else {
      if (t.failed == 0) t.detail = detail;
      ++t.failed;
    }
  }
  bool correct() const {
    if (failed != 0 || attempted < 1) return false;
    for (const auto& [name, t] : checks) {
      if (t.failed != 0) return false;
    }
    return true;
  }

  std::string ToJson() const {
    std::string j = "{\"schema\": " + std::to_string(kSchemaVersion);
    j += ", \"host\": {\"num_cpus\": " + std::to_string(num_cpus) +
         ", \"cpu_mhz\": " + JsonNumber(cpu_mhz) + "}";
    j += ", \"workload\": " + JsonString(workload);
    j += ", \"seed\": " + std::to_string(seed);
    j += std::string(", \"traced\": ") + (traced ? "true" : "false");
    j += ", \"seconds\": " + std::to_string(seconds);
    j += ", \"attempted\": " + std::to_string(attempted);
    j += ", \"failed\": " + std::to_string(failed);
    j += ", \"metrics\": " + MetricsJson(metrics);
    j += ", \"info\": " + MetricsJson(info);
    j += ", \"checks\": {";
    bool first = true;
    for (const auto& [name, t] : checks) {
      j += (first ? "" : ", ") + JsonString(name) +
           ": {\"pass\": " + std::to_string(t.passed) +
           ", \"fail\": " + std::to_string(t.failed) +
           ", \"detail\": " + JsonString(t.detail) + "}";
      first = false;
    }
    return j + "}}";
  }

  static std::string MetricsJson(const std::vector<Metric>& list) {
    std::string j = "{";
    for (size_t i = 0; i < list.size(); ++i) {
      const Metric& m = list[i];
      j += (i == 0 ? "" : ", ") + JsonString(m.name) + ": {\"unit\": " +
           JsonString(m.unit) + ", \"value\": " + JsonNumber(m.value) +
           ", \"n\": " + std::to_string(m.dist.n) +
           ", \"median\": " + JsonNumber(m.dist.median) +
           ", \"q1\": " + JsonNumber(m.dist.q1) +
           ", \"q3\": " + JsonNumber(m.dist.q3);
      if (m.dist.tail_p > 0.0) {
        const double beyond = (1.0 - m.dist.tail_p) * m.dist.n;
        j += ", \"tail\": {\"p\": " + JsonNumber(m.dist.tail_p) +
             ", \"value\": " + JsonNumber(m.dist.tail) +
             ", \"beyond\": " + std::to_string(std::llround(beyond)) + "}";
      }
      j += std::string(", \"replay\": ") + (m.replay ? "true" : "false") +
           "}";
    }
    return j + "}";
  }

  /// The one-line summary: correctness, course counts, and each metric's
  /// value with its unit.
  std::string SummaryLine() const {
    std::string j = std::string("{\"correct\": ") +
                    (correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      j += (i == 0 ? "" : ", ") + JsonString(metrics[i].name) +
           ": {\"value\": " + JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
    }
    return j + "}}";
  }
};

}  // namespace perfbench
}  // namespace fedscope

#endif  // FEDSCOPE_PERFBENCH_REPORT_H_
