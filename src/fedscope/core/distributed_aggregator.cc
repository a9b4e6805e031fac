#include "fedscope/core/distributed_aggregator.h"

#include <algorithm>
#include <utility>

#include "fedscope/core/events.h"
#include "fedscope/util/logging.h"

namespace fedscope {

DistributedAggregatorHost::DistributedAggregatorHost(
    EdgeAggregatorOptions options, const std::string& server_host,
    int server_port, TransportOptions transport)
    : server_host_(server_host),
      server_port_(server_port),
      transport_(transport),
      uplink_(new EpochUplink()) {
  connect_status_ = uplink_->Open(server_host, server_port, transport);
  aggregator_ =
      std::make_unique<EdgeAggregator>(std::move(options), uplink_.get());
}

DistributedAggregatorHost::~DistributedAggregatorHost() = default;

void DistributedAggregatorHost::set_obs(const ObsContext* obs) {
  uplink_->set_obs(obs);
  aggregator_->set_obs(obs);
}

std::string DistributedAggregatorHost::ShardPrefix() const {
  return "s" + std::to_string(aggregator_->shard()) + "-";
}

void DistributedAggregatorHost::set_snapshot_policy(SnapshotPolicy policy) {
  if (policy.worker_prefix.empty()) policy.worker_prefix = ShardPrefix();
  snapshot_writer_ = SnapshotWriter(std::move(policy));
}

Status DistributedAggregatorHost::RestoreFromSnapshotDir(
    const std::string& directory) {
  const std::string prefix = snapshot_writer_.enabled()
                                 ? snapshot_writer_.policy().worker_prefix
                                 : ShardPrefix();
  auto checkpoint = LoadLatestSnapshot(directory, prefix);
  if (!checkpoint.ok()) return checkpoint.status();
  aggregator_->RestoreSnapshot(checkpoint->course);
  FS_LOG(Info) << "aggregator " << aggregator_->id()
               << " restored shard state: round " << aggregator_->round_seen()
               << ", shard epoch " << aggregator_->epoch();
  return Status::Ok();
}

Status DistributedAggregatorHost::Run() {
  FS_RETURN_IF_ERROR(connect_status_);
  // Host-level handshake: teaches the root hub which connection carries
  // this worker id. Deliberately NOT a worker event — the root Server
  // worker never sees aggregator joins.
  Message hello;
  hello.sender = aggregator_->id();
  hello.receiver = kServerId;
  hello.msg_type = events::kJoinIn;
  uplink_->Send(hello);

  // An edge aggregator's snapshots reach no metrics sink: failures are
  // only logged. Every exit persists the snapshot in flight before the
  // root can see the connection drop and wake a standby that restores
  // from it.
  auto stop = [&](Status status) {
    BookSnapshot(nullptr, snapshot_writer_.Flush(), "aggregator snapshot",
                 /*annotate=*/false);
    uplink_->Close();
    return status;
  };

  int64_t last_forwarded = aggregator_->partials_forwarded();
  while (!aggregator_->finished()) {
    auto msg = uplink_->Receive();
    if (!msg.ok()) {
      if (msg.status().code() == StatusCode::kDeadlineExceeded) {
        continue;  // idle between rounds (recv_timeout), keep waiting
      }
      return stop(msg.status());
    }
    // Adopt the session epoch the root stamps on every relay before
    // handling it, so replies authenticate to the epoch they answer.
    if (msg->payload.HasScalar(kSessionEpochKey)) {
      uplink_->set_epoch(msg->payload.GetInt(kSessionEpochKey));
    }
    aggregator_->HandleMessage(*msg);
    if (aggregator_->partials_forwarded() != last_forwarded) {
      last_forwarded = aggregator_->partials_forwarded();
      if (snapshot_writer_.ShouldSnapshot(
              std::max(aggregator_->round_seen(), 1))) {
        BookSnapshot(nullptr,
                     snapshot_writer_.Write(aggregator_->MakeCheckpoint()),
                     "aggregator snapshot", /*annotate=*/false);
      }
      // Simulated crash (tests/CI): die abruptly. Dropping the socket is
      // exactly what a SIGKILLed process does (the kernel closes its
      // descriptors); the root sees mid-course EOF and fails over.
      if (halt_after_forwards_ > 0 &&
          last_forwarded >= halt_after_forwards_) {
        FS_LOG(Warning) << "aggregator " << aggregator_->id()
                        << " halting after " << last_forwarded
                        << " forwarded partials (simulated crash)";
        return stop(Status::Ok());
      }
    }
  }
  return stop(Status::Ok());
}

}  // namespace fedscope
