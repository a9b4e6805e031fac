#include "fedscope/data/client_data_provider.h"

#include <utility>

#include "fedscope/util/logging.h"

namespace fedscope {

EagerDataProvider::EagerDataProvider(const FedDataset* data) : data_(data) {
  FS_CHECK(data_ != nullptr);
}

int EagerDataProvider::num_clients() const { return data_->num_clients(); }

Dataset EagerDataProvider::MaterializeTrain(int id,
                                            HeldOutSource* held_out) const {
  FS_CHECK_GE(id, 1);
  FS_CHECK_LE(id, data_->num_clients());
  held_out->provider = this;
  held_out->id = id;
  return data_->clients[id - 1].train;
}

void EagerDataProvider::MaterializeHeldOut(const HeldOutSource& source,
                                           SplitDataset* split) const {
  const SplitDataset& stored = data_->clients[source.id - 1];
  split->val = stored.val;
  split->test = stored.test;
}

const Dataset& EagerDataProvider::server_test() const {
  return data_->server_test;
}

ProceduralDataProvider::ProceduralDataProvider(ProceduralDataOptions options)
    : options_(std::move(options)) {
  FS_CHECK_GT(options_.num_clients, 0);
  FS_CHECK_GT(options_.classes, 0);
  Rng rng(options_.seed);
  prototypes_.reserve(options_.classes);
  for (int64_t k = 0; k < options_.classes; ++k) {
    prototypes_.push_back(Tensor::Randn({options_.features}, &rng));
  }
  Rng server_rng = rng.Fork(0);
  server_test_ = Generate(options_.server_test_examples, &server_rng);
}

Dataset ProceduralDataProvider::Generate(int64_t n, Rng* rng) const {
  const int64_t features = options_.features;
  Dataset out;
  out.x = Tensor({n, features});
  out.labels.resize(n);
  float* row = out.x.data();
  for (int64_t i = 0; i < n; ++i, row += features) {
    const int64_t y = rng->UniformInt(0, options_.classes - 1);
    out.labels[i] = y;
    const float* prototype = prototypes_[y].data();
    for (int64_t j = 0; j < features; ++j) {
      row[j] = prototype[j] +
               static_cast<float>(rng->Normal(0.0, options_.noise_sigma));
    }
  }
  return out;
}

Dataset ProceduralDataProvider::MaterializeTrain(
    int id, HeldOutSource* held_out) const {
  FS_CHECK_GE(id, 1);
  FS_CHECK_LE(id, options_.num_clients);
  // Per-client stream forked from the provider seed: repeated
  // materialization of the same id is bit-identical, which the
  // virtualization determinism contract requires.
  Rng rng = Rng(options_.seed).Fork(static_cast<uint64_t>(id));
  Dataset train = Generate(options_.train_per_client, &rng);
  held_out->provider = this;
  held_out->id = id;
  held_out->rng = rng;
  return train;
}

void ProceduralDataProvider::MaterializeHeldOut(const HeldOutSource& source,
                                                SplitDataset* split) const {
  Rng rng = source.rng;
  split->val = Generate(options_.val_per_client, &rng);
  split->test = Generate(options_.test_per_client, &rng);
}

}  // namespace fedscope
