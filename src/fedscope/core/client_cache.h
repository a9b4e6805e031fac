#ifndef FEDSCOPE_CORE_CLIENT_CACHE_H_
#define FEDSCOPE_CORE_CLIENT_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "fedscope/core/client.h"
#include "fedscope/core/id_set.h"

namespace fedscope {

/// Counters backing the fs_virtual_* obs gauges (DESIGN.md §13).
struct ClientCacheStats {
  /// Total Client constructions (fresh first touches plus restores).
  int64_t instantiations = 0;
  /// Constructions that replayed a suspended resume record or a finish
  /// flag.
  int64_t restores = 0;
  /// Live clients reclaimed to a resume record by Trim().
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
/// clients beyond capacity, keeping a typed ClientResume record
/// (Client::ExportResume) so a later Get restores bit-identical state.
/// A reclaimed client's object stays behind as a spare shell, which the
/// next miss re-targets (Client::Reset) instead of building a new one.
/// Suspended records are the one cost that grows with the clients a
/// course has touched rather than with the cohort (DESIGN.md §13).
/// Capacity is a pure performance knob: any eviction/restore sequence
/// yields the same course, so peak live clients — not correctness — is
/// what it bounds.
class ClientCache {
 public:
  /// Builds client `id` with its options, forked seed and channel wiring,
  /// identically on every call: into `spare` through Client::Reset when
  /// the cache hands it a shell, as a new Client when `spare` is null.
  /// Must be deterministic.
  using Factory = std::function<std::unique_ptr<Client>(
      int id, std::unique_ptr<Client> spare)>;

  /// `capacity` >= 1: Trim never evicts the most recently used client.
  /// A pointer returned by Get is valid until the next Get or Trim, after
  /// which it may name another client.
  ClientCache(int population, int capacity, Factory factory);

  int population() const { return population_; }
  int capacity() const { return capacity_; }
  bool IsLive(int id) const { return live_.count(id) > 0; }

  /// Returns the live Client for `id` (1-based), instantiating — in a
  /// spare shell when there is one, and restoring suspended state, if
  /// any — on a miss. Marks `id` most recently used. Does not trim;
  /// callers trim at safe points.
  Client* Get(int id);

  /// Records a finish delivery for every non-live client in `ids` without
  /// instantiating any: one range operation. Folded into a suspended
  /// record where one exists, otherwise a one-byte flag (1M finished
  /// clients must not cost 1M records). Live clients are left alone —
  /// they take the real delivery.
  void MarkFinished(const IdSet& ids);

  /// The live clients among `ids`.
  IdSet LiveIn(const IdSet& ids) const;

  /// Whether client `id` has been told to finish, read without
  /// instantiating it.
  bool Finished(int id) const;

  /// Evicts LRU clients beyond capacity, saving resume records and keeping
  /// their objects as spare shells (Client::Vacate). Only call at safe
  /// points: after a serial HandleMessage or a parallel commit, never
  /// while a returned Client*/batch is in use.
  void Trim();

  const ClientCacheStats& stats() const { return stats_; }

 private:
  void EvictOne();

  int population_;
  int capacity_;
  Factory factory_;
  /// Live clients; lru_ orders their ids most-recent-first.
  std::unordered_map<int, std::unique_ptr<Client>> live_;
  std::list<int> lru_;
  std::unordered_map<int, std::list<int>::iterator> lru_pos_;
  /// Resume records of evicted clients.
  std::unordered_map<int, ClientResume> suspended_;
  /// Vacated objects of evicted clients, for the next misses to re-target.
  std::vector<std::unique_ptr<Client>> spares_;
  /// finished-flags for clients that never grew other state; index id,
  /// [0] unused.
  std::vector<uint8_t> finished_;
  ClientCacheStats stats_;
};

}  // namespace fedscope

#endif  // FEDSCOPE_CORE_CLIENT_CACHE_H_
