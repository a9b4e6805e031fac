#ifndef FEDSCOPE_CORE_CLIENT_CACHE_H_
#define FEDSCOPE_CORE_CLIENT_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "fedscope/comm/message.h"
#include "fedscope/core/client.h"
#include "fedscope/core/id_set.h"
#include "fedscope/exec/buffering_channel.h"

namespace fedscope {

/// Counters backing the fs_virtual_* obs gauges (DESIGN.md §13).
struct ClientCacheStats {
  /// Total Client constructions (fresh first touches plus restores).
  int64_t instantiations = 0;
  /// Constructions that replayed a suspended resume payload.
  int64_t restores = 0;
  /// Live clients reclaimed to a resume payload by Trim().
  int64_t evictions = 0;
  /// Currently live clients.
  int64_t live = 0;
  /// High-water mark of `live` over the course.
  int64_t live_peak = 0;
};

/// LRU cache of live Clients: the only place FedRunner keeps clients
/// (DESIGN.md §13). An eager course is a cache as large as its
/// population, filled at construction. A virtualized course keeps the
/// population as descriptors only; Get(id) instantiates a real Client on
/// demand via the runner-owned factory (re-deriving its options/Rng stream
/// and materializing data lazily) and Trim() reclaims least-recently-used
/// clients beyond capacity, saving their resume payload
/// (Client::ExportResume) so a later Get restores bit-identical state.
/// Capacity is a pure performance knob: any eviction/restore sequence
/// yields the same course, so peak live clients — not correctness — is
/// what it bounds.
class ClientCache {
 public:
  /// A live client plus its threaded-backend port (null when the course
  /// runs on the serial backend).
  struct Entry {
    std::unique_ptr<Client> client;
    std::unique_ptr<BufferingChannel> port;
  };
  /// Builds client `id` with its options, forked seed and channel wiring,
  /// identically on every call. Must be deterministic.
  using EntryFactory = std::function<Entry(int id)>;

  /// `capacity` >= 1: Trim never evicts the most recently used client,
  /// so a pointer returned by Get stays valid until the next Get/Trim.
  ClientCache(int population, int capacity, EntryFactory factory);

  int population() const { return population_; }
  int capacity() const { return capacity_; }
  bool IsLive(int id) const { return live_.count(id) > 0; }

  /// Returns the live Client for `id` (1-based), instantiating — and
  /// restoring suspended state, if any — on a miss. Marks `id` most
  /// recently used. Does not trim; callers trim at safe points.
  Client* Get(int id);

  /// Threaded-backend port of a live client; FS_CHECK-fails if not live.
  BufferingChannel* Port(int id);

  /// Records a finish delivery for every non-live client in `ids` without
  /// instantiating any: one range operation. Folded into a suspended
  /// payload where one exists, otherwise a one-byte flag (1M finished
  /// clients must not cost 1M payloads). Live clients are left alone —
  /// they take the real delivery.
  void MarkFinished(const IdSet& ids);

  /// The live clients among `ids`.
  IdSet LiveIn(const IdSet& ids) const;

  /// Whether client `id` has been told to finish, read without
  /// instantiating it.
  bool Finished(int id) const;

  /// Evicts LRU clients beyond capacity, saving resume payloads. Only
  /// call at safe points: after a serial HandleMessage or a parallel
  /// commit, never while a returned Client*/batch is in use.
  void Trim();

  const ClientCacheStats& stats() const { return stats_; }

 private:
  void EvictOne();

  int population_;
  int capacity_;
  EntryFactory factory_;
  /// Live entries; lru_ orders their ids most-recent-first.
  std::unordered_map<int, Entry> live_;
  std::list<int> lru_;
  std::unordered_map<int, std::list<int>::iterator> lru_pos_;
  /// Resume payloads of evicted clients.
  std::unordered_map<int, Payload> suspended_;
  /// finished-flags for clients that never grew other state; index id,
  /// [0] unused.
  std::vector<uint8_t> finished_;
  ClientCacheStats stats_;
};

}  // namespace fedscope

#endif  // FEDSCOPE_CORE_CLIENT_CACHE_H_
