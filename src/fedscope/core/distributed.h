#ifndef FEDSCOPE_CORE_DISTRIBUTED_H_
#define FEDSCOPE_CORE_DISTRIBUTED_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "fedscope/comm/socket_transport.h"
#include "fedscope/core/client.h"
#include "fedscope/core/server.h"
#include "fedscope/fault/dedup.h"

namespace fedscope {

/// Payload key carrying the server's session epoch. The epoch starts at 0
/// and is bumped every time a restarted server restores from a snapshot
/// (DESIGN.md §10). The server host stamps it on every outgoing message;
/// clients adopt it from incoming messages and echo it on their uplink.
/// Non-join messages carrying a different (or no) epoch are rejected at
/// the transport ingress — they were produced against a dead incarnation
/// of the course. join_in is exempt: it is how a client learns the epoch.
inline constexpr char kSessionEpochKey[] = "session_epoch";

/// Distributed mode: the same Server/Client workers as the standalone
/// simulator, but messages travel over TCP between real processes (or
/// threads). This is the paper's second deployment mode; the event-driven
/// workers are unchanged — only the CommChannel implementation differs,
/// which is the point of the abstraction.
///
/// Scope: the synchronous and goal-triggered strategies (kSyncVanilla /
/// kSyncOverselect / kAsyncGoal). kAsyncTime needs a wall-clock timer
/// service and is standalone-only.
///
/// Timestamps carry wall-clock seconds since the host started; they order
/// messages but are not the virtual-time measurements of the simulator.

/// CommChannel over one upstream TCP connection that echoes the session
/// epoch the server host stamps on its traffic (see kSessionEpochKey).
/// The client host's uplink.
class EpochUplink : public CommChannel {
 public:
  Status Open(const std::string& host, int port,
              const TransportOptions& transport);

  /// Drops the dead connection and reconnects with the same seeded
  /// backoff. The session epoch is forgotten: the restarted server
  /// teaches the new one through the re-join handshake.
  Status Reopen(const std::string& host, int port,
                const TransportOptions& transport);

  void Send(const Message& msg) override;

  void set_obs(const ObsContext* obs) { obs_ = obs; }
  void set_epoch(int64_t epoch) { epoch_ = epoch; }

  Result<Message> Receive() { return connection_.ReceiveMessage(); }
  void Close() { connection_.Close(); }

 private:
  TcpConnection connection_{-1};
  const ObsContext* obs_ = nullptr;
  /// Last session epoch adopted from an incoming message; -1 = unknown.
  int64_t epoch_ = -1;
};

/// Hosts the FL server: accepts one connection per client id in
/// 1..expected_clients and feeds what each client sends to the Server
/// worker. A connection carries one client's frames to the server and
/// nothing else: a bad hello closes it, and a frame naming another sender
/// or another receiver is dropped, both counted in rejected_frames().
class DistributedServerHost {
 public:
  /// The listener determines the port (use TcpListener::Bind(0) and
  /// publish listener.port() to clients). `transport` timeouts are applied
  /// to every accepted connection; a recv timeout keeps reader threads
  /// responsive without treating idle clients as failed.
  /// ServerOptions::receive_deadline must stay 0 here: the distributed host
  /// detects failure through mid-course EOF, not virtual-time deadlines.
  DistributedServerHost(ServerOptions options, Model global_model,
                        std::unique_ptr<Aggregator> aggregator,
                        TcpListener listener,
                        TransportOptions transport = {});
  ~DistributedServerHost();

  Server* server() { return server_.get(); }

  /// Clients whose connection dropped before the course finished. Each one
  /// was reported to the Server worker as a client_failure event.
  int64_t failed_clients() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failed_clients_;
  }

  /// Frames refused at the transport: hellos that are not a join_in from
  /// an unused id in 1..expected_clients (their connection is closed), and
  /// frames whose sender is not their connection's client or whose
  /// receiver is not the server (dropped).
  int64_t rejected_frames() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rejected_frames_;
  }

  /// Retransmitted messages suppressed before reaching the Server worker.
  int64_t duplicates_suppressed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dedup_.suppressed();
  }

  /// Attaches observability sinks (borrowed; must outlive the host) to the
  /// server worker and the outgoing router. Distributed-mode timestamps are
  /// wall seconds, so traces/metrics are not bit-reproducible across runs.
  void set_obs(const ObsContext* obs) {
    obs_ = obs;
    server_->set_obs(obs);
  }

  /// Restores a restarted server host from a durable snapshot: loads the
  /// course section into the Server worker, restores the transport extras
  /// (DuplicateSuppressor state), and bumps the session epoch past the
  /// snapshot's. Must be called before Run(), on a host constructed with
  /// the same options/model/aggregator shape as the crashed one. The next
  /// Run() then accepts `expected_clients` *re-joins*: the Server worker
  /// re-acks known clients and re-broadcasts to the interrupted cohort.
  Status RestoreFromCheckpoint(const Checkpoint& checkpoint);

  /// Enables durable snapshots (taken right after each round that matches
  /// the policy, with the session epoch and suppressor state as transport
  /// extras, and persisted while the next round runs; all are on disk when
  /// Run() returns). Must be set before Run(). Disabled by default.
  void set_snapshot_policy(const SnapshotPolicy& policy) {
    snapshot_writer_ = SnapshotWriter(policy);
  }
  const SnapshotWriter& snapshot_writer() const { return snapshot_writer_; }

  /// Test knob simulating a crash: Run() returns abruptly (no finish
  /// broadcast, connections dropped) once the server passes this round.
  /// 0 disables. Clients observe a mid-course EOF — exactly what a
  /// SIGKILLed server process produces.
  void set_halt_after_round(int round) { halt_after_round_ = round; }

  /// Session epoch of this incarnation (0 for a fresh course).
  int64_t session_epoch() const { return session_epoch_; }

  /// Messages rejected at the transport ingress for carrying a stale (or
  /// missing) session epoch.
  int64_t stale_epoch_rejected() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stale_epoch_rejected_;
  }

  /// Accepts clients, runs the course to completion, disconnects.
  /// Returns the server stats.
  ServerStats Run();

  /// Transport ingress: epoch check + duplicate suppression, then enqueue
  /// for the event loop. Public so protocol tests can inject frames
  /// without a socket; real traffic arrives via reader threads.
  void PushIncoming(Message msg);

 private:
  /// Outgoing channel: routes by msg.receiver over the TCP connections.
  class Router;

  void ReaderLoop(int client_id, TcpConnection* connection);
  /// Accepts one connection and reads its hello. Returns the join_in of a
  /// client id in 1..`expected` that has not joined yet (`joined`, by id),
  /// with the connection registered and its reader started; otherwise
  /// closes the connection, counts the hello in rejected_frames_ and
  /// returns nullopt. A failing accept is a local error and aborts.
  std::optional<Message> AcceptClient(int expected, std::vector<bool>* joined);
  /// Exports a snapshot (Server course state + transport extras) and hands
  /// it to the writer per the policy. Event-loop thread only.
  void WriteSnapshot();

  TcpListener listener_;
  TransportOptions transport_;
  std::unique_ptr<Router> router_;
  std::unique_ptr<Server> server_;
  const ObsContext* obs_ = nullptr;

  /// Set by the event-loop thread once the Server worker finished; readers
  /// use it to tell an orderly course-end hangup from a mid-course failure.
  std::atomic<bool> course_finished_{false};

  /// Written only before Run() starts (constructor default or
  /// RestoreFromCheckpoint); reader threads are created after, so plain
  /// reads are race-free.
  int64_t session_epoch_ = 0;
  int halt_after_round_ = 0;
  SnapshotWriter snapshot_writer_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Message> incoming_;
  DuplicateSuppressor dedup_;  // guarded by mu_
  int64_t failed_clients_ = 0;  // guarded by mu_
  int64_t rejected_frames_ = 0;  // guarded by mu_
  int64_t stale_epoch_rejected_ = 0;  // guarded by mu_
  int eof_count_ = 0;

  std::map<int, TcpConnection> connections_;
  std::mutex send_mu_;
  std::vector<std::thread> readers_;
};

/// Hosts one FL client: connects to the server, joins in, and serves
/// events until the course finishes.
class DistributedClientHost {
 public:
  /// `client_id` must be unique across the federation (1-based) and is
  /// announced to the server in the join_in message. `transport` governs
  /// connect retry/backoff (clients may start before the server's listener
  /// is bound) and socket timeouts; defaults keep the untuned behaviour.
  DistributedClientHost(int client_id, ClientOptions options, Model model,
                        SplitDataset data,
                        std::unique_ptr<BaseTrainer> trainer,
                        const std::string& server_host, int server_port,
                        TransportOptions transport = {});
  ~DistributedClientHost();

  Client* client() { return client_.get(); }

  /// Attaches observability sinks (borrowed; must outlive the host) to the
  /// client worker and the uplink channel.
  void set_obs(const ObsContext* obs);

  /// Joins the course and processes messages until "finish" (or the
  /// connection drops). A mid-course connection loss triggers up to
  /// TransportOptions::rejoin_attempts reconnect + re-join cycles against
  /// a restarted server (adopting its new session epoch) before giving
  /// up. Returns Ok on a clean finish.
  Status Run();

  /// Re-joins performed after mid-course connection losses.
  int rejoins() const { return rejoins_; }

 private:
  int client_id_;
  std::string server_host_;
  int server_port_;
  TransportOptions transport_;
  std::unique_ptr<EpochUplink> uplink_;
  std::unique_ptr<Client> client_;
  Status connect_status_;
  int rejoins_ = 0;
};

}  // namespace fedscope

#endif  // FEDSCOPE_CORE_DISTRIBUTED_H_
