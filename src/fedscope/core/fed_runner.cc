#include "fedscope/core/fed_runner.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <utility>

#include "fedscope/comm/codec.h"
#include "fedscope/core/events.h"
#include "fedscope/util/logging.h"

namespace fedscope {

FedRunner::FedRunner(FedJob job) : job_(std::move(job)) {
  if (job_.provider == nullptr) {
    owned_provider_ = std::make_unique<EagerDataProvider>(job_.data);
    job_.provider = owned_provider_.get();
  }
  population_ = job_.provider->num_clients();
  FS_CHECK_GT(population_, 0);
  BuildWorkers();
}

Client* FedRunner::client(int id) {
  FS_CHECK_GE(id, 1);
  FS_CHECK_LE(id, population_);
  Client* live = cache_->Get(id);
  cache_->Trim();  // `live` survives: Get marked it most recently used
  return live;
}

EdgeAggregator* FedRunner::aggregator(int shard, int slot) {
  auto it = aggregator_index_.find(AggregatorId(shard, slot));
  return it == aggregator_index_.end() ? nullptr
                                       : aggregators_[it->second].get();
}

void FedRunner::BuildWorkers() {
  const int n = population_;

  // An empty fleet gives every id the default profile (FleetDevice).
  if (!job_.fleet.empty()) {
    FS_CHECK_EQ(static_cast<int>(job_.fleet.size()), n);
  }

  if (!job_.trainer_factory) {
    job_.trainer_factory = [](int) { return std::make_unique<GeneralTrainer>(); };
  }
  if (!job_.aggregator_factory) {
    const double rho = job_.staleness_rho;
    job_.aggregator_factory = [rho]() {
      return std::make_unique<FedAvgAggregator>(FedAvgOptions{1.0, rho});
    };
  }

  fault_plan_ = FaultPlan(job_.fault, n);
  CommChannel* channel = this;
  if (fault_plan_.enabled()) {
    // Workers are wired to the fault decorator instead of the queue; the
    // workers themselves stay unchanged (architecture invariant).
    fault_channel_ =
        std::make_unique<FaultInjectingChannel>(this, &fault_plan_);
    channel = fault_channel_.get();
  }
  if (job_.send_tap) {
    // The tap sits between the workers and the fault decorator so it sees
    // every send as the worker issued it, before faults alter or drop it.
    tap_channel_ = std::make_unique<TapChannel>(channel, &job_.send_tap);
    channel = tap_channel_.get();
  }

  worker_channel_ = channel;
  if (job_.exec.backend == ExecutionBackend::kThreaded) {
    // The pump thread runs pool tasks too, so the default leaves it one
    // core of its own.
    int helpers = job_.exec.num_threads;
    if (helpers <= 0) {
      helpers = static_cast<int>(std::thread::hardware_concurrency()) - 1;
    }
    pool_ = std::make_unique<WorkerPool>(std::max(helpers, 0));
  }
  server_ = MakeServer();
  snapshot_writer_ = SnapshotWriter(job_.snapshot);

  // Hierarchical topology: one EdgeAggregator per shard × slot, wired to
  // the same decorated channel as every other worker (transport and
  // behaviour stay decoupled).
  aggregators_.clear();
  aggregator_index_.clear();
  dead_aggregators_.clear();
  shard_writers_.clear();
  const Topology& topo = job_.server.topology;
  if (topo.hierarchical()) {
    for (int shard = 0; shard < topo.num_shards; ++shard) {
      for (int slot = 0; slot <= topo.standbys_per_shard; ++slot) {
        EdgeAggregatorOptions options;
        options.topology = topo;
        options.shard = shard;
        options.slot = slot;
        options.guard = job_.server.guard;
        aggregator_index_[AggregatorId(shard, slot)] = aggregators_.size();
        aggregators_.push_back(
            std::make_unique<EdgeAggregator>(options, channel));
      }
    }
    shard_forwarded_.assign(topo.num_shards, 0);
    for (int shard = 0; shard < topo.num_shards; ++shard) {
      SnapshotPolicy policy = job_.snapshot;
      policy.worker_prefix += "s" + std::to_string(shard) + "-";
      shard_writers_.emplace_back(std::move(policy));
    }
  }

  cache_ = std::make_unique<ClientCache>(
      n, CacheCapacity(), [this](int id) { return MakeCacheEntry(id); });
  if (!job_.virtualize) {
    // Eager: the cache holds the population, built here in id order and
    // never evicted — the reference the virtualized capacities match.
    for (int id = 1; id <= n; ++id) cache_->Get(id);
  }

  if (job_.obs.enabled()) {
    queue_.set_obs(&job_.obs);
    server_->set_obs(&job_.obs);
    for (auto& agg : aggregators_) agg->set_obs(&job_.obs);
    if (fault_channel_ != nullptr) fault_channel_->set_obs(&job_.obs);
  }
}

DeviceProfile FedRunner::FleetDevice(int id) const {
  return job_.fleet.empty() ? DeviceProfile{} : job_.fleet[id - 1];
}

ClientOptions FedRunner::DeriveClientOptions(int id) const {
  ClientOptions options = job_.client;
  options.device = FleetDevice(id);
  // Same stream as a one-pass `seeder.Fork(1..n)` sweep: Fork is const and
  // keyed on the id, so the per-client seed is re-derivable in isolation —
  // the property re-instantiation after eviction depends on.
  options.seed = Rng(job_.seed).Fork(static_cast<uint64_t>(id)).Next();
  if (job_.client_customizer) job_.client_customizer(id, &options);
  return options;
}

ClientCache::Entry FedRunner::MakeCacheEntry(int id) {
  ClientCache::Entry entry;
  CommChannel* client_channel = worker_channel_;
  if (job_.exec.backend == ExecutionBackend::kThreaded) {
    // A pass-through port per client; the parallel stage opens capture
    // windows on it so a task's sends drain at commit, not mid-task.
    entry.port = std::make_unique<BufferingChannel>(worker_channel_);
    client_channel = entry.port.get();
  }
  entry.client = std::make_unique<Client>(
      id, DeriveClientOptions(id), job_.init_model,
      job_.provider->MaterializeClient(id), job_.trainer_factory(id),
      client_channel);
  if (job_.obs.enabled()) entry.client->set_obs(&job_.obs);
  return entry;
}

int FedRunner::CacheCapacity() const {
  if (!job_.virtualize) return population_;
  if (job_.client_cache_capacity > 0) return job_.client_cache_capacity;
  // Auto bound: the cohort — `concurrency` clients in flight, inflated by
  // the over-selection margin — plus slack for a replacement drawn while
  // the vacated slot's client is still live. Capacity only bounds peak
  // memory; any value >= 1 runs the identical course.
  int cohort = job_.server.concurrency;
  if (job_.server.strategy == Strategy::kSyncOverselect) {
    cohort = static_cast<int>(
        std::ceil(cohort * (1.0 + job_.server.overselect_frac)));
  }
  return std::max(cohort + 2, 1);
}

Message FedRunner::MakeBatchJoin() const {
  // Each score is the one Client::JoinIn reports (it consumes no client
  // rng), so announcing a 1M-client population instantiates no Client.
  // The score depends on the device alone: without a customizer that is
  // the fleet entry, and no per-id options are derived.
  std::vector<double> scores(population_);
  for (int id = 1; id <= population_; ++id) {
    scores[id - 1] = ResponsivenessScore(job_.client_customizer
                                             ? DeriveClientOptions(id).device
                                             : FleetDevice(id));
  }
  Message join;
  join.sender = kBroadcast;
  join.receiver = kServerId;
  join.msg_type = events::kJoinIn;
  SetPackedIdSet(&join.payload, kJoinIdsKey, IdSet::Range(1, population_));
  SetPackedDoubles(&join.payload, kJoinScoresKey, scores);
  return join;
}

std::unique_ptr<Server> FedRunner::MakeServer() {
  ServerOptions server_options = job_.server;
  server_options.expected_clients = population_;
  if (server_options.seed == 0) server_options.seed = job_.seed;
  auto server = std::make_unique<Server>(server_options, job_.init_model,
                                         job_.aggregator_factory(),
                                         worker_channel_);
  if (job_.evaluator) {
    server->set_evaluator(job_.evaluator);
  } else {
    const Dataset* test = &job_.provider->server_test();
    // Null on the serial backend: the row blocks run inline.
    WorkerPool* pool = pool_.get();
    server->set_evaluator([test, pool](Model* model) {
      return EvaluateClassifier(model, *test, pool);
    });
  }
  return server;
}

void FedRunner::CrashAndRestoreServer() {
  Checkpoint snapshot;
  server_->ExportSnapshot(&snapshot);
  const std::vector<uint8_t> bytes = SerializeCheckpoint(snapshot);
  server_.reset();  // the server "process" dies; clients and queue survive
  server_ = MakeServer();
  if (job_.obs.enabled()) server_->set_obs(&job_.obs);
  auto restored = DeserializeCheckpoint(bytes);
  FS_CHECK(restored.ok()) << restored.status().ToString();
  const Status status = server_->RestoreSnapshot(restored.value());
  FS_CHECK(status.ok()) << status.ToString();
  ++recoveries_;
  job_.obs.Count("fs_recoveries_total");
  FS_LOG(Info) << "server crash drill: restored at round "
               << server_->round() << " t=" << server_->current_time();
}

void FedRunner::WriteSnapshot() {
  Checkpoint snapshot;
  server_->ExportSnapshot(&snapshot);
  auto written = snapshot_writer_.Write(snapshot);
  if (!written.ok()) {
    FS_LOG(Warning) << "snapshot write failed: "
                    << written.status().ToString();
    return;
  }
  job_.obs.Count("fs_snapshots_written_total");
  job_.obs.Count("fs_snapshot_bytes_total",
                 static_cast<double>(written.value()));
  if (job_.obs.course_log != nullptr) {
    job_.obs.course_log->AnnotateSnapshot(written.value());
  }
}

void FedRunner::DeliverToAggregator(const Message& msg) {
  const auto it = aggregator_index_.find(msg.receiver);
  if (it == aggregator_index_.end()) {
    FS_LOG(Warning) << "message to unknown aggregator " << msg.receiver;
    return;
  }
  if (dead_aggregators_.count(msg.receiver) > 0) {
    // A dead process silently eats its traffic — the standalone analogue
    // of the distributed hosts' mid-course connection EOF.
    fault_plan_.CountDeadAggregatorDrop();
    return;
  }
  EdgeAggregator* agg = aggregators_[it->second].get();
  const int crash_round =
      fault_plan_.AggregatorCrashRound(agg->shard(), agg->slot());
  if (crash_round >= 0 && msg.state >= crash_round) {
    // The scheduled crash: the incarnation dies on (not after) the first
    // delivery that would have had it act on round `crash_round`.
    dead_aggregators_.insert(msg.receiver);
    ++aggregators_killed_;
    fault_plan_.CountDeadAggregatorDrop();
    FS_LOG(Warning) << "fault plan killed aggregator " << msg.receiver
                    << " (shard " << agg->shard() << " slot " << agg->slot()
                    << ") at round " << msg.state;
    return;
  }
  agg->HandleMessage(msg);
  MaybeSnapshotAggregator(agg);
}

void FedRunner::MaybeSnapshotAggregator(EdgeAggregator* agg) {
  const int shard = agg->shard();
  if (shard >= static_cast<int>(shard_writers_.size()) ||
      !shard_writers_[shard].enabled()) {
    return;
  }
  if (agg->partials_forwarded() <= shard_forwarded_[shard]) return;
  shard_forwarded_[shard] = agg->partials_forwarded();
  auto written = shard_writers_[shard].Write(agg->MakeCheckpoint());
  if (!written.ok()) {
    FS_LOG(Warning) << "shard " << shard << " snapshot write failed: "
                    << written.status().ToString();
    return;
  }
  job_.obs.Count("fs_snapshots_written_total");
  job_.obs.Count("fs_snapshot_bytes_total",
                 static_cast<double>(written.value()));
}

void FedRunner::DeliverToClient(const Message& msg) {
  cache_->Get(msg.receiver)->HandleMessage(msg);
  cache_->Trim();
}

void FedRunner::DeliverMulticast(const Message& msg) {
  auto receivers = GetReceivers(msg);
  FS_CHECK(receivers.ok()) << receivers.status().ToString();
  if (!receivers->empty() &&
      (receivers->min() < 1 || receivers->max() > population_)) {
    FS_LOG(Warning) << "multicast to unknown receivers: "
                    << MessageSummary(msg);
    return;
  }
  if (msg.msg_type == events::kFinish || msg.msg_type == events::kAssignId) {
    // State-free deliveries to reclaimed clients skip instantiation, as
    // one range operation. Safe because the default handlers make them
    // unobservable: OnFinish only sets the finished flag (recorded in the
    // cache), the assign_id handler is a no-op, and neither consumes the
    // client rng. The virtual-clock advance is unobservable too — the
    // queue delivers in non-decreasing timestamp order, so no later reply
    // is ever clamped by it. An eager course's receivers are all live and
    // take the real delivery.
    if (msg.msg_type == events::kFinish) cache_->MarkFinished(*receivers);
    receivers = cache_->LiveIn(*receivers);
  }
  ForEachDelivery(msg, *receivers,
                  [this](const Message& copy) { DeliverToClient(copy); });
}

void FedRunner::Send(const Message& msg) {
  job_.obs.OnChannelSend(msg);
  if (job_.through_wire) {
    auto decoded = DecodeMessage(EncodeMessage(msg));
    FS_CHECK(decoded.ok()) << decoded.status().ToString();
    queue_.Push(std::move(decoded.value()));
  } else {
    queue_.Push(msg);
  }
}

size_t FedRunner::RunParallelStage(int64_t* delivered) {
  // Candidate batch: the maximal prefix of the equal-virtual-time ready
  // set whose receivers are clients. A server-, aggregator-, or
  // unknown-targeted delivery ends the batch — that handling mutates
  // shared state and stays on the pump thread (DESIGN.md §12).
  const std::vector<const Message*> ready = queue_.PeekReadyBatch();
  size_t limit = ready.size();
  // Never batch across the crash drill: the kill must land between the
  // same two deliveries as in a serial run.
  const int64_t crash_at = job_.fault.server_crash_at_event;
  if (crash_at >= *delivered) {
    limit = std::min(limit, static_cast<size_t>(crash_at - *delivered));
  }
  size_t batch = 0;
  while (batch < limit) {
    const int receiver = ready[batch]->receiver;
    if (receiver < 1 || receiver > population_) break;
    // A delivery to a client that is not live stays on the pump thread
    // (it may instantiate, restore, or short-circuit — all cache
    // mutations). The serial step handles it; by the next stage the
    // client is live and batchable.
    if (!cache_->IsLive(receiver)) break;
    ++batch;
  }
  if (batch < 2) return 0;  // nothing to overlap; a serial step is cheaper

  // Duplicate suppression consumes per-pair state on every pop; run it at
  // formation in pop order so the state evolves exactly as serially.
  std::vector<char> duplicate(batch, 0);
  if (job_.suppress_duplicates) {
    for (size_t i = 0; i < batch; ++i) {
      duplicate[i] = dedup_.IsDuplicate(*ready[i]) ? 1 : 0;
    }
  }

  // Per-delivery capture: the emitted messages plus private obs sinks
  // mirroring whichever sinks the job has. Tasks write only their own
  // entries; everything is replayed on the pump thread at commit.
  struct Capture {
    const Message* msg = nullptr;
    std::vector<Message> sends;
    MetricsBuffer metrics;
    std::unique_ptr<Tracer> tracer;
    ObsContext obs;  // points at the two members above; course_log stays
                     // null (no built-in client handler writes it)
  };
  const bool capture_obs =
      job_.obs.metrics != nullptr || job_.obs.tracer != nullptr;
  std::vector<Capture> captures(batch);
  std::vector<int> receivers(batch);
  // One task per client, preserving that client's delivery order (a
  // client's second delivery must see the state its first one left).
  std::map<int, std::vector<size_t>> by_client;
  for (size_t i = 0; i < batch; ++i) {
    receivers[i] = ready[i]->receiver;
    if (duplicate[i]) continue;
    Capture& c = captures[i];
    c.msg = ready[i];
    if (job_.obs.metrics != nullptr) c.obs.metrics_buffer = &c.metrics;
    if (job_.obs.tracer != nullptr) {
      c.tracer = std::make_unique<Tracer>();
      c.obs.tracer = c.tracer.get();
    }
    by_client[receivers[i]].push_back(i);
  }

  std::vector<std::function<void()>> tasks;
  tasks.reserve(by_client.size());
  for (auto& [id, indices] : by_client) {
    Client* client = cache_->Get(id);
    BufferingChannel* port = cache_->Port(id);
    const std::vector<size_t>* idx = &indices;  // map nodes are stable
    tasks.push_back([client, port, &captures, idx, capture_obs] {
      for (size_t i : *idx) {
        Capture& c = captures[i];
        if (capture_obs) client->set_obs(&c.obs);
        port->BeginCapture(&c.sends);
        client->HandleMessage(*c.msg);
        port->EndCapture();
      }
    });
  }
  pool_->Run(&tasks);
  if (capture_obs) {
    for (const auto& entry : by_client) {
      cache_->Get(entry.first)->set_obs(&job_.obs);
    }
  }

  // Commit in canonical order — the serial pop order. Popping and then
  // forwarding each delivery's sends replays the exact queue-op sequence
  // of a serial run, so even the queue-depth gauges stay bit-identical.
  for (size_t i = 0; i < batch; ++i) {
    const Message msg = queue_.Pop();
    // Worker sends carry timestamps >= the batch time and later push
    // sequences, so the batch entries still pop first, in order.
    FS_CHECK_EQ(msg.receiver, receivers[i]);
    if (duplicate[i]) continue;
    ++*delivered;
    if (job_.delivery_tap) job_.delivery_tap(msg);
    Capture& c = captures[i];
    if (job_.obs.metrics != nullptr) c.metrics.ReplayInto(job_.obs.metrics);
    if (c.tracer != nullptr) job_.obs.tracer->Append(*c.tracer);
    for (const Message& send : c.sends) worker_channel_->Send(send);
  }
  // The batch is fully committed — a safe point to reclaim live clients.
  cache_->Trim();
  return batch;
}

CompletenessReport FedRunner::CheckCompleteness() {
  CompletenessChecker checker;
  checker.AddRegistry(server_->registry());
  // Client behaviour is uniform up to handler overrides; client 1's
  // registry represents the population.
  checker.AddRegistry(cache_->Get(1)->registry());
  checker.MarkEntry(events::kJoinIn);
  checker.MarkTerminal(events::kFinish);
  // Bridge the server's internal condition chain: join_in completion leads
  // to all_joined_in; an update can satisfy the aggregation trigger; the
  // evaluation step can reach the target or trip early stopping.
  // Bridge the server's condition chain — but only for conditions whose
  // raising handler is actually registered, so removing a handler really
  // severs the graph (the Figure 16 error case).
  const HandlerRegistry& server_registry = server_->registry();
  auto bridge = [&](const char* from, const char* to) {
    if (server_registry.Has(from) && server_registry.Has(to)) {
      checker.AddEdge(from, to);
    }
  };
  bridge(events::kJoinIn, events::kAllJoinedIn);
  bridge(events::kModelUpdate, events::kAllReceived);
  bridge(events::kModelUpdate, events::kGoalAchieved);
  bridge(events::kModelUpdate, events::kTargetReached);
  bridge(events::kModelUpdate, events::kEarlyStop);
  const bool deadline =
      job_.server.receive_deadline > 0.0 &&
      (job_.server.strategy == Strategy::kSyncVanilla ||
       job_.server.strategy == Strategy::kSyncOverselect);
  if (job_.server.strategy == Strategy::kAsyncTime) {
    // The server schedules timer messages to itself at course start and
    // after each aggregation.
    bridge(events::kAllJoinedIn, events::kTimer);
    bridge(events::kTimer, events::kTimeUp);
    bridge(events::kTimeUp, events::kTimer);
  } else if (deadline) {
    // The receive deadline drives the same timer chain, firing the
    // partial-aggregation condition instead of time_up.
    bridge(events::kAllJoinedIn, events::kTimer);
    bridge(events::kTimer, events::kReceiveDeadline);
    bridge(events::kReceiveDeadline, events::kTimer);
    checker.MarkOptional(events::kTimeUp);
  } else {
    checker.MarkOptional(events::kTimer);
    checker.MarkOptional(events::kTimeUp);
  }
  if (!deadline) checker.MarkOptional(events::kReceiveDeadline);
  if (job_.server.topology.hierarchical() && !aggregators_.empty()) {
    // The shard layer's flows join the graph; the root's partial_update
    // handler raises the synchronous trigger internally.
    checker.AddRegistry(aggregators_[0]->registry());
    bridge(events::kPartialUpdate, events::kAllReceived);
    // Replication heartbeats terminate at the standbys; the watchdog
    // chain only fires on failures.
    checker.MarkOptional(events::kShardSnapshot);
    checker.MarkOptional(events::kStandbyPromoted);
  }
  // Failure handling is registered but only exercised when faults occur.
  checker.MarkOptional(events::kClientFailure);
  // Built-in capabilities that a particular course may not exercise.
  checker.MarkOptional(events::kEvaluate);
  checker.MarkOptional(events::kMetrics);
  checker.MarkOptional(events::kPerformanceDrop);
  checker.MarkOptional(events::kLowBandwidth);
  return checker.Check();
}

RunResult FedRunner::Run() {
  RunResult result;
  if (job_.check_completeness) {
    result.completeness = CheckCompleteness();
    FS_CHECK(result.completeness.complete)
        << "constructed FL course is incomplete:\n"
        << result.completeness.ToString();
  }

  // Course-lifecycle span: opens at virtual t = 0 and closes at the
  // server's final virtual time (inert when no tracer is attached).
  ScopedSpan course_span(job_.obs.tracer, "fl_course", 0.0, kServerId);

  // Building up: the whole population requests to join at t = 0 in one
  // batch join_in (DESIGN.md §13). Standby aggregators arm their failure
  // watchdogs (no-op for active slots).
  for (auto& agg : aggregators_) agg->StartWatchdog();
  worker_channel_->Send(MakeBatchJoin());

  // Pump the virtual-time event loop. Messages to finished/unknown workers
  // are dropped. The loop ends when the course terminated and the queue
  // drained, or when nothing remains to deliver.
  const bool threaded = job_.exec.backend == ExecutionBackend::kThreaded;
  int64_t delivered = 0;
  int last_seen_round = server_->round();
  while (!queue_.Empty()) {
    // The result copies the server's per-id counters (ServerStats::agg_count)
    // when the course ends, with the heap at its fullest. A population-sized
    // block allocated then fits in a free hole or grows the heap depending
    // on where small blocks happen to sit, so peak memory would differ from
    // run to run (by 7.6 MB at a million clients). Reserve the copy as soon
    // as the server's table exists instead: here no message is alive, so it
    // takes the space the batch join's message has just released.
    result.server.agg_count.reserve(server_->stats().agg_count.size());
    if (threaded && RunParallelStage(&delivered) > 0) {
      if (server_->finished() && queue_.Empty()) break;
      continue;
    }
    Message msg = queue_.Pop();
    if (job_.suppress_duplicates && dedup_.IsDuplicate(msg)) continue;
    // Crash drill: kill the server between deliveries — the instant a real
    // process could die with a queued-up transport.
    if (delivered == job_.fault.server_crash_at_event) {
      CrashAndRestoreServer();
    }
    ++delivered;
    if (job_.delivery_tap) job_.delivery_tap(msg);
    if (msg.receiver == kServerId) {
      server_->HandleMessage(msg);
      if (snapshot_writer_.enabled() && server_->round() != last_seen_round) {
        last_seen_round = server_->round();
        if (snapshot_writer_.ShouldSnapshot(last_seen_round)) WriteSnapshot();
      }
    } else if (msg.receiver >= 1 && msg.receiver <= population_) {
      DeliverToClient(msg);
    } else if (msg.receiver == kBroadcast) {
      DeliverMulticast(msg);
    } else if (IsAggregatorId(msg.receiver)) {
      DeliverToAggregator(msg);
    } else {
      FS_LOG(Warning) << "message to unknown receiver " << msg.receiver;
    }
    // Fast exit: once the server finished, remaining traffic is moot
    // except "finish" notifications which were already queued by the
    // server; keep draining but stop early if only client replies remain.
    if (server_->finished() && queue_.Empty()) break;
  }
  FS_LOG(Info) << "FL course done: rounds=" << server_->stats().rounds
               << " delivered=" << delivered
               << " final_acc=" << server_->stats().final_accuracy;

  course_span.set_end(server_->current_time());
  course_span.AddArg("rounds", std::to_string(server_->stats().rounds));
  if (job_.obs.metrics != nullptr) {
    job_.obs.SetGauge("fs_course_rounds",
                      static_cast<double>(server_->stats().rounds));
    job_.obs.SetGauge("fs_course_final_accuracy",
                      server_->stats().final_accuracy);
    job_.obs.SetGauge("fs_course_finish_time_seconds",
                      server_->stats().finish_time);
    job_.obs.SetGauge("fs_course_messages_delivered",
                      static_cast<double>(delivered));
  }

  result.server = server_->stats();  // agg_count fills the reserved storage
  result.final_model = *server_->global_model();

  // Deployment: push the final global (shared part) to every client —
  // including clients that were never sampled — then evaluate each
  // client's deployment model on its local test split. This sweep is
  // O(population); cross-device-scale courses turn it off.
  if (job_.deploy_eval) {
    result.client_test_accuracy.reserve(population_);
    result.client_test_loss.reserve(population_);
    for (int id = 1; id <= population_; ++id) {
      Client* client = cache_->Get(id);
      const StateDict final_shared = server_->global_model()->GetStateDict(
          client->options().share_filter);
      client->trainer()->UpdateModel(client->model(), final_shared);
      EvalResult eval = client->EvaluateLocalTest();
      result.client_test_accuracy.push_back(eval.accuracy);
      result.client_test_loss.push_back(eval.loss);
      cache_->Trim();
    }
  }

  if (job_.virtualize && job_.obs.metrics != nullptr) {
    const ClientCacheStats& cs = cache_->stats();
    job_.obs.SetGauge("fs_virtual_clients_instantiated",
                      static_cast<double>(cs.instantiations));
    job_.obs.SetGauge("fs_virtual_clients_restored",
                      static_cast<double>(cs.restores));
    job_.obs.SetGauge("fs_virtual_clients_evicted",
                      static_cast<double>(cs.evictions));
    job_.obs.SetGauge("fs_virtual_clients_live_peak",
                      static_cast<double>(cs.live_peak));
  }
  return result;
}

}  // namespace fedscope
