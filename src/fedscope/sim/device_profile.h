#ifndef FEDSCOPE_SIM_DEVICE_PROFILE_H_
#define FEDSCOPE_SIM_DEVICE_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fedscope/util/rng.h"
#include "fedscope/util/status.h"

namespace fedscope {

/// Per-client system resources (the "heterogeneity in participants'
/// resources" of §1). Stands in for FedScale's device traces: compute
/// speed and bandwidth are drawn from heavy-tailed lognormal distributions
/// so that a realistic population of stragglers emerges.
struct DeviceProfile {
  /// Training throughput in samples/second.
  double compute_speed = 100.0;
  /// Uplink and downlink bandwidth in bytes/second.
  double up_bandwidth = 1e6;
  double down_bandwidth = 1e6;
  /// Probability that a given local-training request is lost entirely
  /// (device crash / network drop); the client never responds.
  double crash_prob = 0.0;
};

/// Parameters of the synthetic fleet generator.
struct FleetOptions {
  /// Median compute speed (samples/sec) and lognormal sigma.
  double compute_median = 200.0;
  double compute_sigma = 0.8;
  /// Median bandwidth (bytes/sec) and lognormal sigma.
  double bandwidth_median = 2e6;
  double bandwidth_sigma = 0.8;
  /// Fraction of clients that are extreme stragglers.
  double straggler_frac = 0.1;
  /// Speed multiplier applied to stragglers (0.1 = 10x slower).
  double straggler_slowdown = 0.1;
  /// Per-round crash probability for every client.
  double crash_prob = 0.0;
};

/// Generates `n` heterogeneous device profiles.
std::vector<DeviceProfile> MakeFleet(int n, const FleetOptions& options,
                                     Rng* rng);

/// Parses a FedScale-style device-trace table: one device per line,
/// `compute_speed,up_bandwidth,down_bandwidth[,crash_prob]` (comments with
/// '#' and blank lines allowed). This is how real trace data would drive
/// the simulator instead of the synthetic lognormal fleet.
Result<std::vector<DeviceProfile>> ParseFleetTrace(const std::string& csv);

/// Renders a fleet back into the trace format (round-trips ParseFleetTrace).
std::string FleetToTrace(const std::vector<DeviceProfile>& fleet);

/// A device's responsiveness score (higher = faster): the prior a client
/// reports when it joins.
double ResponsivenessScore(const DeviceProfile& device);

/// Ranks clients by ResponsivenessScore. Used by the responsiveness-related
/// and group sampling strategies, and by the bias-CIFAR data generator that
/// couples rare labels to slow clients.
std::vector<double> ResponsivenessScores(
    const std::vector<DeviceProfile>& fleet);

/// Partitions client ids into `num_groups` groups of similar responsiveness
/// (group 0 = fastest).
std::vector<std::vector<int>> GroupByResponsiveness(
    const std::vector<DeviceProfile>& fleet, int num_groups);

}  // namespace fedscope

#endif  // FEDSCOPE_SIM_DEVICE_PROFILE_H_
