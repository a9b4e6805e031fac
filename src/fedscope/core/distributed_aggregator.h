#ifndef FEDSCOPE_CORE_DISTRIBUTED_AGGREGATOR_H_
#define FEDSCOPE_CORE_DISTRIBUTED_AGGREGATOR_H_

#include <memory>
#include <string>

#include "fedscope/core/distributed.h"
#include "fedscope/core/edge_aggregator.h"

namespace fedscope {

/// Hosts one edge aggregator of a hierarchical topology (DESIGN.md §11):
/// connects to the root DistributedServerHost, announces its worker id
/// with a host-level join_in, and serves the unchanged EdgeAggregator
/// worker over that single upstream connection. The root host relays
/// shard traffic (model relays, client updates, replication heartbeats)
/// in both directions, so aggregators — like clients — need exactly one
/// upstream address.
///
/// Failure detection is the hub's: a mid-course EOF on this host's
/// connection makes the root wake the shard's lowest live standby with a
/// synthesized watchdog timer. The worker's self-armed watchdog
/// (StartWatchdog) is never started here — a self-addressed timer would
/// bounce through the hub as fast as TCP allows, a busy-poll the
/// standalone simulator's timer service exists to avoid.
class DistributedAggregatorHost {
 public:
  DistributedAggregatorHost(EdgeAggregatorOptions options,
                            const std::string& server_host, int server_port,
                            TransportOptions transport = {});
  ~DistributedAggregatorHost();

  EdgeAggregator* aggregator() { return aggregator_.get(); }

  /// Attaches observability sinks (borrowed; must outlive the host) to
  /// the worker and the uplink.
  void set_obs(const ObsContext* obs);

  /// Enables durable snapshots of the replicable shard state, taken after
  /// every forwarded partial that matches the policy and persisted before
  /// the next one (and before Run() returns). An empty
  /// policy.worker_prefix defaults to "s<shard>-": every slot of a shard
  /// shares the prefix, so a cold-restarted standby can restore whatever
  /// incarnation wrote last, while other shards sharing the directory
  /// stay invisible (checkpoint.h). Must be set before Run().
  void set_snapshot_policy(SnapshotPolicy policy);
  const SnapshotWriter& snapshot_writer() const { return snapshot_writer_; }

  /// Restores the replicable shard state (epoch, round, forwarded count)
  /// from the newest valid snapshot under this host's prefix. Must be
  /// called before Run(); NotFound when the directory has none.
  Status RestoreFromSnapshotDir(const std::string& directory);

  /// Test knob simulating a crash: Run() returns abruptly once the worker
  /// has forwarded this many partial updates (0 disables). The root
  /// observes a mid-course EOF — exactly what a SIGKILLed aggregator
  /// process produces — and fails the shard over to a standby.
  void set_halt_after_forwards(int64_t forwards) {
    halt_after_forwards_ = forwards;
  }

  /// Joins the root and serves shard events until "finish" (or the
  /// connection drops — aggregator hosts do not re-join; a replacement
  /// standby carries the shard instead). Returns Ok on a clean finish
  /// and on a simulated halt.
  Status Run();

 private:
  /// Shared per-shard snapshot prefix (see set_snapshot_policy).
  std::string ShardPrefix() const;

  std::string server_host_;
  int server_port_;
  TransportOptions transport_;
  std::unique_ptr<EpochUplink> uplink_;
  std::unique_ptr<EdgeAggregator> aggregator_;
  Status connect_status_;
  SnapshotWriter snapshot_writer_;
  int64_t halt_after_forwards_ = 0;
};

}  // namespace fedscope

#endif  // FEDSCOPE_CORE_DISTRIBUTED_AGGREGATOR_H_
