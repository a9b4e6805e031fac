#include "fedscope/sim/device_profile.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "fedscope/util/logging.h"

namespace fedscope {

std::vector<DeviceProfile> MakeFleet(int n, const FleetOptions& options,
                                     Rng* rng) {
  FS_CHECK_GT(n, 0);
  std::vector<DeviceProfile> fleet(n);
  const double compute_mu = std::log(options.compute_median);
  const double bw_mu = std::log(options.bandwidth_median);
  for (int i = 0; i < n; ++i) {
    DeviceProfile& d = fleet[i];
    d.compute_speed = rng->Lognormal(compute_mu, options.compute_sigma);
    d.up_bandwidth = rng->Lognormal(bw_mu, options.bandwidth_sigma);
    d.down_bandwidth = rng->Lognormal(bw_mu, options.bandwidth_sigma);
    if (rng->Bernoulli(options.straggler_frac)) {
      d.compute_speed *= options.straggler_slowdown;
      d.up_bandwidth *= options.straggler_slowdown;
      d.down_bandwidth *= options.straggler_slowdown;
    }
    d.crash_prob = options.crash_prob;
  }
  return fleet;
}

Result<std::vector<DeviceProfile>> ParseFleetTrace(const std::string& csv) {
  std::vector<DeviceProfile> fleet;
  size_t line_start = 0;
  int line_no = 0;
  while (line_start <= csv.size()) {
    size_t line_end = csv.find('\n', line_start);
    if (line_end == std::string::npos) line_end = csv.size();
    std::string line = csv.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    ++line_no;
    // Strip comments and whitespace-only lines.
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      if (line_end == csv.size()) break;
      continue;
    }
    std::vector<double> fields;
    size_t pos = 0;
    while (pos <= line.size()) {
      size_t comma = line.find(',', pos);
      if (comma == std::string::npos) comma = line.size();
      const std::string field = line.substr(pos, comma - pos);
      char* end = nullptr;
      const double value = std::strtod(field.c_str(), &end);
      if (end == field.c_str()) {
        return Status::InvalidArgument("trace line " +
                                       std::to_string(line_no) +
                                       ": bad field '" + field + "'");
      }
      fields.push_back(value);
      pos = comma + 1;
    }
    if (fields.size() < 3 || fields.size() > 4) {
      return Status::InvalidArgument(
          "trace line " + std::to_string(line_no) +
          ": expected 3-4 fields, got " + std::to_string(fields.size()));
    }
    DeviceProfile device;
    device.compute_speed = fields[0];
    device.up_bandwidth = fields[1];
    device.down_bandwidth = fields[2];
    device.crash_prob = fields.size() == 4 ? fields[3] : 0.0;
    if (device.compute_speed <= 0.0 || device.up_bandwidth <= 0.0 ||
        device.down_bandwidth <= 0.0 || device.crash_prob < 0.0 ||
        device.crash_prob > 1.0) {
      return Status::InvalidArgument("trace line " +
                                     std::to_string(line_no) +
                                     ": out-of-range value");
    }
    fleet.push_back(device);
    if (line_end == csv.size()) break;
  }
  if (fleet.empty()) return Status::InvalidArgument("empty fleet trace");
  return fleet;
}

std::string FleetToTrace(const std::vector<DeviceProfile>& fleet) {
  std::string out =
      "# compute_speed,up_bandwidth,down_bandwidth,crash_prob\n";
  char line[160];
  for (const auto& device : fleet) {
    std::snprintf(line, sizeof(line), "%.6g,%.6g,%.6g,%.6g\n",
                  device.compute_speed, device.up_bandwidth,
                  device.down_bandwidth, device.crash_prob);
    out += line;
  }
  return out;
}

double ResponsivenessScore(const DeviceProfile& device) {
  // Harmonic combination of compute and communication capability: the
  // response time is dominated by the slower of the two resources.
  const double compute = device.compute_speed;
  const double bw = std::min(device.up_bandwidth, device.down_bandwidth);
  return 2.0 / (1.0 / std::max(compute, 1e-9) +
                1.0 / std::max(bw / 1e4, 1e-9));
}

std::vector<double> ResponsivenessScores(
    const std::vector<DeviceProfile>& fleet) {
  std::vector<double> scores(fleet.size());
  for (size_t i = 0; i < fleet.size(); ++i) {
    scores[i] = ResponsivenessScore(fleet[i]);
  }
  return scores;
}

std::vector<std::vector<int>> GroupByResponsiveness(
    const std::vector<DeviceProfile>& fleet, int num_groups) {
  FS_CHECK_GT(num_groups, 0);
  auto scores = ResponsivenessScores(fleet);
  std::vector<int> order(fleet.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return scores[a] > scores[b]; });
  std::vector<std::vector<int>> groups(num_groups);
  const size_t per_group =
      (fleet.size() + static_cast<size_t>(num_groups) - 1) /
      static_cast<size_t>(num_groups);
  for (size_t rank = 0; rank < order.size(); ++rank) {
    groups[std::min<size_t>(rank / per_group, num_groups - 1)].push_back(
        order[rank]);
  }
  return groups;
}

}  // namespace fedscope
