#include "fedscope/data/client_data_provider.h"

#include <utility>

#include "fedscope/util/logging.h"

namespace fedscope {

EagerDataProvider::EagerDataProvider(const FedDataset* data) : data_(data) {
  FS_CHECK(data_ != nullptr);
}

int EagerDataProvider::num_clients() const { return data_->num_clients(); }

SplitDataset EagerDataProvider::MaterializeClient(int id) const {
  FS_CHECK_GE(id, 1);
  FS_CHECK_LE(id, data_->num_clients());
  return data_->clients[id - 1];
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
  Dataset out;
  out.x = Tensor({n, options_.features});
  out.labels.resize(n);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t y = rng->UniformInt(0, options_.classes - 1);
    out.labels[i] = y;
    Tensor example = prototypes_[y];
    for (int64_t j = 0; j < example.numel(); ++j) {
      example.at(j) +=
          static_cast<float>(rng->Normal(0.0, options_.noise_sigma));
    }
    out.x.SetSlice(i, example);
  }
  return out;
}

SplitDataset ProceduralDataProvider::MaterializeClient(int id) const {
  FS_CHECK_GE(id, 1);
  FS_CHECK_LE(id, options_.num_clients);
  // Per-client stream forked from the provider seed: repeated
  // materialization of the same id is bit-identical, which the
  // virtualization determinism contract requires.
  Rng rng = Rng(options_.seed).Fork(static_cast<uint64_t>(id));
  SplitDataset split;
  split.train = Generate(options_.train_per_client, &rng);
  split.val = Generate(options_.val_per_client, &rng);
  split.test = Generate(options_.test_per_client, &rng);
  return split;
}

}  // namespace fedscope
