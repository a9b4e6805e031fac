#include "fedscope/core/aggregator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "fedscope/tensor/kernels.h"
#include "fedscope/tensor/tensor_ops.h"
#include "fedscope/util/logging.h"

namespace fedscope {

std::vector<double> UpdateWeights(const std::vector<ClientUpdate>& updates,
                                  double staleness_rho) {
  std::vector<double> weights(updates.size());
  for (size_t i = 0; i < updates.size(); ++i) {
    double w = std::max(updates[i].num_samples, 1e-9);
    if (staleness_rho > 0.0) {
      w *= std::pow(1.0 + std::max(updates[i].staleness, 0),
                    -staleness_rho);
    }
    weights[i] = w;
  }
  return weights;
}

namespace {

/// Sample+staleness weighted average of deltas.
StateDict AverageDeltas(const std::vector<ClientUpdate>& updates,
                        double staleness_rho) {
  std::vector<const StateDict*> deltas;
  deltas.reserve(updates.size());
  for (const auto& u : updates) deltas.push_back(&u.delta);
  return SdWeightedAverage(deltas, UpdateWeights(updates, staleness_rho));
}

}  // namespace

Result<StateDict> FedAvgAggregator::Aggregate(
    const StateDict& global, const std::vector<ClientUpdate>& updates) {
  if (updates.empty()) {
    return Status::FailedPrecondition("fedavg: no usable updates");
  }
  StateDict avg = AverageDeltas(updates, options_.staleness_rho);
  StateDict next = global;
  SdAxpy(&next, static_cast<float>(options_.server_lr), avg);
  return next;
}

Result<StateDict> FedOptAggregator::Aggregate(
    const StateDict& global, const std::vector<ClientUpdate>& updates) {
  if (updates.empty()) {
    return Status::FailedPrecondition("fedopt: no usable updates");
  }
  StateDict avg = AverageDeltas(updates, staleness_rho_);
  if (momentum_.empty()) {
    momentum_ = avg;
  } else {
    // m = beta * m + delta_avg
    StateDict scaled = SdScale(momentum_, static_cast<float>(server_momentum_));
    momentum_ = SdAdd(scaled, avg);
  }
  StateDict next = global;
  SdAxpy(&next, static_cast<float>(server_lr_), momentum_);
  return next;
}

void FedOptAggregator::SaveState(Payload* p,
                                 const std::string& prefix) const {
  // momentum_.empty() vs "momentum of all zeros" differ (first Aggregate
  // *assigns* rather than decays), so emptiness is recorded explicitly.
  p->SetInt(prefix + "/has_momentum", momentum_.empty() ? 0 : 1);
  if (!momentum_.empty()) p->SetStateDict(prefix + "/momentum", momentum_);
}

void FedOptAggregator::LoadState(const Payload& p, const std::string& prefix) {
  if (p.GetInt(prefix + "/has_momentum") != 0) {
    momentum_ = p.GetStateDict(prefix + "/momentum");
  } else {
    momentum_.clear();
  }
}

Result<StateDict> FedNovaAggregator::Aggregate(
    const StateDict& global, const std::vector<ClientUpdate>& updates) {
  if (updates.empty()) {
    return Status::FailedPrecondition("fednova: no usable updates");
  }
  // Normalize each delta by its local step count, average with sample
  // weights, then rescale by the weighted-average step count.
  std::vector<StateDict> normalized;
  normalized.reserve(updates.size());
  std::vector<const StateDict*> ptrs;
  std::vector<double> weights;
  double weighted_steps = 0.0, total_weight = 0.0;
  for (const auto& u : updates) {
    const double steps = std::max(u.local_steps, 1);
    normalized.push_back(SdScale(u.delta, static_cast<float>(1.0 / steps)));
    const double w = std::max(u.num_samples, 1e-9);
    weights.push_back(w);
    weighted_steps += w * steps;
    total_weight += w;
  }
  for (const auto& n : normalized) ptrs.push_back(&n);
  StateDict avg = SdWeightedAverage(ptrs, weights);
  const double tau_eff = weighted_steps / total_weight;
  StateDict next = global;
  SdAxpy(&next, static_cast<float>(tau_eff), avg);
  return next;
}

Result<StateDict> KrumAggregator::Aggregate(
    const StateDict& global, const std::vector<ClientUpdate>& updates) {
  const int n = static_cast<int>(updates.size());
  if (n == 0) return Status::FailedPrecondition("krum: no usable updates");
  last_selection_.clear();

  // Every update must span the global shared state: a delta that lacks a
  // tensor is hostile or corrupt input (a TCP peer with the guard off).
  int64_t coords = 0;
  for (const auto& entry : global) coords += entry.second.numel();
  std::vector<std::vector<float>> flat(n);
  std::vector<const float*> rows(n);
  for (int i = 0; i < n; ++i) {
    flat[i] = SdFlatten(updates[i].delta);
    if (static_cast<int64_t>(flat[i].size()) != coords) {
      return Status::InvalidArgument(
          "krum: update from client " + std::to_string(updates[i].client_id) +
          " has " + std::to_string(flat[i].size()) +
          " coordinates, the global shared state " + std::to_string(coords));
    }
    rows[i] = flat[i].data();
  }

  std::vector<double> dist(static_cast<size_t>(n) * n);
  kernels::PairwiseSquaredDistances(rows.data(), n, coords, dist.data());

  // Krum score: sum of distances to the n - f - 2 closest other updates.
  const int closest = std::max(1, n - num_malicious_ - 2);
  std::vector<std::pair<double, int>> scored(n);
  for (int i = 0; i < n; ++i) {
    std::vector<double> row;
    row.reserve(n - 1);
    for (int j = 0; j < n; ++j) {
      if (j != i) row.push_back(dist[static_cast<size_t>(i) * n + j]);
    }
    std::sort(row.begin(), row.end());
    double score = 0.0;
    for (int k = 0; k < std::min<int>(closest, row.size()); ++k) {
      score += row[k];
    }
    scored[i] = {score, i};
  }
  std::sort(scored.begin(), scored.end());

  const int keep = std::min(multi_k_, n);
  std::vector<ClientUpdate> selected;
  for (int k = 0; k < keep; ++k) {
    last_selection_.push_back(scored[k].second);
    selected.push_back(updates[scored[k].second]);
  }
  StateDict avg = AverageDeltas(selected, /*staleness_rho=*/0.0);
  StateDict next = global;
  SdAxpy(&next, 1.0f, avg);
  return next;
}

namespace {

/// Applies a per-coordinate reducer over updates and adds to global. An
/// update missing a delta key is hostile or corrupt input, not a
/// programmer error, so it surfaces as a Status.
template <typename Reducer>
Result<StateDict> CoordinateWise(const StateDict& global,
                                 const std::vector<ClientUpdate>& updates,
                                 Reducer reduce) {
  if (updates.empty()) {
    return Status::FailedPrecondition("coordinate-wise: no usable updates");
  }
  StateDict next = global;
  std::vector<float> column(updates.size());
  for (auto& [name, tensor] : next) {
    for (int64_t k = 0; k < tensor.numel(); ++k) {
      for (size_t u = 0; u < updates.size(); ++u) {
        const auto it = updates[u].delta.find(name);
        if (it == updates[u].delta.end() || it->second.numel() != tensor.numel()) {
          return Status::InvalidArgument("update from client " +
                                         std::to_string(updates[u].client_id) +
                                         " missing delta key " + name);
        }
        column[u] = it->second.at(k);
      }
      tensor.at(k) += reduce(&column);
    }
  }
  return next;
}

}  // namespace

Result<StateDict> TrimmedMeanAggregator::Aggregate(
    const StateDict& global, const std::vector<ClientUpdate>& updates) {
  const int n = static_cast<int>(updates.size());
  const int trim = std::min(static_cast<int>(trim_frac_ * n), (n - 1) / 2);
  return CoordinateWise(global, updates, [trim](std::vector<float>* column) {
    std::sort(column->begin(), column->end());
    double acc = 0.0;
    int count = 0;
    for (int i = trim; i < static_cast<int>(column->size()) - trim; ++i) {
      acc += (*column)[i];
      ++count;
    }
    return static_cast<float>(acc / std::max(count, 1));
  });
}

Result<StateDict> MedianAggregator::Aggregate(
    const StateDict& global, const std::vector<ClientUpdate>& updates) {
  return CoordinateWise(global, updates, [](std::vector<float>* column) {
    std::sort(column->begin(), column->end());
    const size_t n = column->size();
    if (n % 2 == 1) return (*column)[n / 2];
    return 0.5f * ((*column)[n / 2 - 1] + (*column)[n / 2]);
  });
}

}  // namespace fedscope
