#ifndef FEDSCOPE_DATA_CLIENT_DATA_PROVIDER_H_
#define FEDSCOPE_DATA_CLIENT_DATA_PROVIDER_H_

#include <vector>

#include "fedscope/data/dataset.h"
#include "fedscope/tensor/tensor.h"
#include "fedscope/util/rng.h"

namespace fedscope {

class ClientDataProvider;

/// Where a client's val and test splits come from. A client gets its
/// train split at instantiation and builds the held-out splits from this
/// source on first read (DESIGN.md §13), so a course that never evaluates
/// locally never builds them.
struct HeldOutSource {
  /// Null once the splits are built, or when they came with the client.
  const ClientDataProvider* provider = nullptr;
  int id = 0;
  /// Procedural providers: the stream position the train split left; val
  /// and then test continue it.
  Rng rng = Rng(0);
};

/// Lazy per-client data source (DESIGN.md §13). Every FedRunner builds its
/// clients through one: a client's train split is materialized when the
/// ClientCache instantiates it, its val and test splits when first read,
/// and all of it is dropped when the client is reclaimed.
/// Implementations must be deterministic: every call for an id returns
/// bit-identical splits.
class ClientDataProvider {
 public:
  virtual ~ClientDataProvider() = default;
  virtual int num_clients() const = 0;
  /// Builds client `id`'s train split (1-based id) and points `held_out`
  /// at the source of its val and test splits. FedRunner may call this on
  /// its build-ahead helper thread while the pump runs other code,
  /// including this provider's other methods (DESIGN.md §13), so it must
  /// be safe to run beside them. Both built-in providers read only `id`
  /// and their own const state.
  virtual Dataset MaterializeTrain(int id, HeldOutSource* held_out) const = 0;
  /// Builds the val and test splits `source` names into `split`. Reads
  /// only `source` and this const provider, so a client may fill its
  /// splits inside a pool task.
  virtual void MaterializeHeldOut(const HeldOutSource& source,
                                  SplitDataset* split) const = 0;
  virtual const Dataset& server_test() const = 0;
};

/// Adapts an eagerly built FedDataset: materialization copies the stored
/// partition, so a virtualized course over this provider is bit-identical
/// to the eager run over the same FedDataset.
class EagerDataProvider : public ClientDataProvider {
 public:
  /// `data` is borrowed and must outlive the provider.
  explicit EagerDataProvider(const FedDataset* data);

  int num_clients() const override;
  Dataset MaterializeTrain(int id, HeldOutSource* held_out) const override;
  void MaterializeHeldOut(const HeldOutSource& source,
                          SplitDataset* split) const override;
  const Dataset& server_test() const override;

 private:
  const FedDataset* data_;
};

struct ProceduralDataOptions {
  int num_clients = 1000;
  /// Flat feature dimension (examples are [n, features] tensors).
  int64_t features = 16;
  int64_t classes = 4;
  int64_t train_per_client = 16;
  int64_t val_per_client = 4;
  int64_t test_per_client = 4;
  int64_t server_test_examples = 64;
  double noise_sigma = 0.6;
  uint64_t seed = 1;
};

/// Cross-device-scale data: client `id`'s train, val and test splits are
/// drawn in that order from Rng(seed).Fork(id) around shared class
/// prototypes, so holding a 1M-client federation costs
/// O(classes * features) memory, not O(population * examples). Used by
/// bench_scale.
class ProceduralDataProvider : public ClientDataProvider {
 public:
  explicit ProceduralDataProvider(ProceduralDataOptions options);

  int num_clients() const override { return options_.num_clients; }
  Dataset MaterializeTrain(int id, HeldOutSource* held_out) const override;
  void MaterializeHeldOut(const HeldOutSource& source,
                          SplitDataset* split) const override;
  const Dataset& server_test() const override { return server_test_; }

 private:
  Dataset Generate(int64_t n, Rng* rng) const;

  ProceduralDataOptions options_;
  std::vector<Tensor> prototypes_;  // one [features] prototype per class
  Dataset server_test_;
};

}  // namespace fedscope

#endif  // FEDSCOPE_DATA_CLIENT_DATA_PROVIDER_H_
