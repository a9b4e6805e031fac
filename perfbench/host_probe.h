#ifndef FEDSCOPE_PERFBENCH_HOST_PROBE_H_
#define FEDSCOPE_PERFBENCH_HOST_PROBE_H_

// How fast the host runs right now, measured with a fixed piece of work
// the benchmark owns. On a shared host a contended core runs a course's
// code 1.6-1.9 times slower than a quiet one, depending on what other
// tenants run beside it, and the contended spells last from milliseconds
// to minutes: ten runs of one workload can spread by more than any bound
// BENCHMARK.json allows on wall time alone. bench_e2e times this probe
// between courses and divides every end-to-end timing by the run's
// slowdown, the probe's median time over its time on the reference host
// (perfbench/README.md, "Host adjustment"). The probe mixes the kinds of
// work the courses do (integer arithmetic, a small dense matrix product,
// hash-map inserts and lookups, cache-resident and cache-missing pointer
// chasing, small allocations), so that a contended core slows it about as
// much as it slows a course. The probe is not library code: no change to
// src/ can make it faster or slower.

#include <cstdint>
#include <numeric>
#include <unordered_map>
#include <utility>
#include <vector>

#include "trace.h"

namespace fedscope {
namespace perfbench {

class HostProbe {
 public:
  /// Median time of one probe on the reference host (Intel Xeon at
  /// 2.0 GHz, 4 vCPUs of a shared virtual machine) in a quiet spell.
  static constexpr double kReferenceMs = 0.60;
  /// Least wall time between two bursts of probes.
  static constexpr int64_t kIntervalNs = 200'000'000;
  /// Share of the wall time since the last burst that a burst spends
  /// probing.
  static constexpr double kDuty = 0.015;

  HostProbe() : l2_(Cycle(64 * 1024)), l3_(Cycle(1024 * 1024)) {}

  /// Call between courses: not during one, where the course's own heap
  /// and cache footprint would slow the probe. Unless the last burst was
  /// less than kIntervalNs ago, probes for kDuty of the time since then,
  /// at least once.
  void Sample() {
    const int64_t now = NowNs();
    if (!samples_.empty() && now - last_ns_ < kIntervalNs) return;
    // Untimed: the course just run has evicted the probe's data.
    Probe();
    const int64_t budget_ns = samples_.empty()
                                  ? 0
                                  : static_cast<int64_t>(
                                        kDuty *
                                        static_cast<double>(now - last_ns_));
    do {
      samples_.push_back(Probe());
    } while (NowNs() - now < budget_ns);
    last_ns_ = NowNs();
  }

  /// Every probe's time since construction, in milliseconds.
  const std::vector<double>& samples_ms() const { return samples_; }

 private:
  /// A pointer-chasing cycle through `n` slots in a fixed random order.
  static std::vector<uint32_t> Cycle(uint32_t n) {
    std::vector<uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    uint64_t h = 0x9E3779B97F4A7C15ull;
    for (uint32_t i = n - 1; i > 0; --i) {
      h = h * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(order[i], order[(h >> 33) % (i + 1)]);
    }
    std::vector<uint32_t> next(n);
    for (uint32_t i = 0; i < n; ++i) next[order[i]] = order[(i + 1) % n];
    return next;
  }

  /// One probe: the same work every time, timed. Milliseconds.
  double Probe() {
    const int64_t t0 = NowNs();
    uint64_t h = 88172645463325252ull + sink_;
    for (int i = 0; i < 100000; ++i) {
      h ^= h << 13;
      h ^= h >> 7;
      h ^= h << 17;
    }
    constexpr int kN = 64;
    std::vector<float> a(kN * kN), b(kN * kN), c(kN * kN);
    for (int i = 0; i < kN * kN; ++i) {
      a[i] = static_cast<float>(i % 7) * 0.1f + static_cast<float>(h & 1);
      b[i] = static_cast<float>(i % 5) * 0.2f;
    }
    for (int i = 0; i < kN; ++i) {
      for (int j = 0; j < kN; ++j) {
        float acc = 0.0f;
        for (int k = 0; k < kN; ++k) acc += a[i * kN + k] * b[k * kN + j];
        c[i * kN + j] = acc;
      }
    }
    std::unordered_map<int, int> map;
    for (int i = 0; i < 2000; ++i) map[i * 7919] = i;
    int64_t found = 0;
    for (int i = 0; i < 4000; ++i) {
      auto it = map.find(i * 7919);
      if (it != map.end()) found += it->second;
    }
    uint32_t p = 0;
    for (int i = 0; i < 20000; ++i) p = l2_[p];
    uint32_t q = 0;
    for (int i = 0; i < 3000; ++i) q = l3_[q];
    int64_t allocated = 0;
    for (int i = 0; i < 300; ++i) {
      std::vector<float> v(1024 + (i & 7));
      v[static_cast<size_t>(i)] = 1.0f;
      allocated += static_cast<int64_t>(v.size());
    }
    sink_ = sink_ + h + p + q + static_cast<uint64_t>(found + allocated) +
            static_cast<uint64_t>(c[5]);
    return static_cast<double>(NowNs() - t0) * 1e-6;
  }

  std::vector<uint32_t> l2_;
  std::vector<uint32_t> l3_;
  /// Keeps the probe's work from being optimized away.
  volatile uint64_t sink_ = 0;
  int64_t last_ns_ = 0;
  std::vector<double> samples_;
};

}  // namespace perfbench
}  // namespace fedscope

#endif  // FEDSCOPE_PERFBENCH_HOST_PROBE_H_
