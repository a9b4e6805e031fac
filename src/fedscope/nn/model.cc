#include "fedscope/nn/model.h"

#include <algorithm>
#include <cmath>

#include "fedscope/tensor/tensor_ops.h"
#include "fedscope/util/logging.h"

namespace fedscope {

NameFilter AcceptAll() {
  return [](const std::string&) { return true; };
}

NameFilter ExcludeSubstrings(std::vector<std::string> substrings) {
  return [subs = std::move(substrings)](const std::string& name) {
    for (const auto& s : subs) {
      if (name.find(s) != std::string::npos) return false;
    }
    return true;
  };
}

NameFilter IncludePrefixes(std::vector<std::string> prefixes) {
  return [prefs = std::move(prefixes)](const std::string& name) {
    for (const auto& p : prefs) {
      if (name.rfind(p, 0) == 0) return true;
    }
    return false;
  };
}

Model& Model::operator=(const Model& other) {
  if (this == &other) return *this;
  // The index stays valid when every layer is assigned in place under its
  // old name: its names are the same and its pointers still name this
  // model's tensors.
  bool index_valid = names_ == other.names_;
  if (!index_valid) names_ = other.names_;
  layers_.resize(other.layers_.size());
  for (size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i] == nullptr || !layers_[i]->AssignFrom(*other.layers_[i])) {
      layers_[i] = other.layers_[i]->Clone();
      index_valid = false;
    }
  }
  if (!index_valid) Reindex();
  return *this;
}

void Model::Add(std::string name, std::unique_ptr<Layer> layer) {
  for (const auto& existing : names_) {
    FS_CHECK_NE(existing, name) << "duplicate layer name";
  }
  names_.push_back(std::move(name));
  layers_.push_back(std::move(layer));
  Reindex();
}

void Model::Reindex() {
  params_.clear();
  bottom_ = layers_.size();
  for (size_t i = 0; i < layers_.size(); ++i) {
    const size_t first = params_.size();
    layers_[i]->CollectParams(names_[i], &params_);
    if (bottom_ == layers_.size() &&
        std::any_of(params_.begin() + first, params_.end(),
                    [](const ParamRef& p) { return p.trainable; })) {
      bottom_ = i;
    }
  }
  by_name_.resize(params_.size());
  for (size_t i = 0; i < by_name_.size(); ++i) by_name_[i] = i;
  std::stable_sort(by_name_.begin(), by_name_.end(), [this](size_t a, size_t b) {
    return params_[a].name < params_[b].name;
  });
}

Tensor Model::Forward(const Tensor& x, bool train) {
  Tensor h = x;
  for (auto& layer : layers_) h = layer->Forward(h, train);
  return h;
}

void Model::Backward(const Tensor& grad_out) {
  if (bottom_ >= layers_.size()) return;  // nothing to train
  Tensor g = grad_out;
  for (size_t i = layers_.size() - 1; i > bottom_; --i) {
    g = layers_[i]->Backward(g);
  }
  layers_[bottom_]->BackwardParams(g);
}

void Model::ZeroGrad() {
  for (const ParamRef& p : params_) {
    if (p.grad != nullptr) ZeroInPlace(p.grad);
  }
}

int64_t Model::NumParams() {
  int64_t n = 0;
  for (const ParamRef& p : params_) n += p.value->numel();
  return n;
}

StateDict Model::GetStateDict(const NameFilter& filter) {
  StateDict state;
  for (const ParamRef& p : params_) {
    if (filter(p.name)) state[p.name] = *p.value;
  }
  return state;
}

Status Model::LoadStateDict(const StateDict& state, bool strict,
                            const NameFilter& filter) {
  for (const auto& [name, tensor] : state) {
    if (!filter(name)) continue;
    // The last of equal names, as a name-keyed map built in layer order
    // would hold.
    auto it = std::upper_bound(
        by_name_.begin(), by_name_.end(), name,
        [this](const std::string& key, size_t i) {
          return key < params_[i].name;
        });
    if (it == by_name_.begin() || params_[*(it - 1)].name != name) {
      if (strict) {
        return Status::NotFound("state dict key not in model: " + name);
      }
      continue;
    }
    Tensor* value = params_[*(it - 1)].value;
    if (!value->SameShape(tensor)) {
      return Status::InvalidArgument(
          "shape mismatch for " + name + ": model " + value->ShapeString() +
          " vs state " + tensor.ShapeString());
    }
    *value = tensor;
  }
  return Status::Ok();
}

std::vector<float> Model::FlatParams() {
  std::vector<float> flat;
  for (const ParamRef& p : params_) {
    if (!p.trainable) continue;
    flat.insert(flat.end(), p.value->storage().begin(),
                p.value->storage().end());
  }
  return flat;
}

void Model::SetFlatParams(const std::vector<float>& flat) {
  size_t offset = 0;
  for (const ParamRef& p : params_) {
    if (!p.trainable) continue;
    FS_CHECK_LE(offset + p.value->storage().size(), flat.size());
    std::copy(flat.begin() + offset,
              flat.begin() + offset + p.value->storage().size(),
              p.value->storage().begin());
    offset += p.value->storage().size();
  }
  FS_CHECK_EQ(offset, flat.size());
}

std::vector<float> Model::FlatGrads() {
  std::vector<float> flat;
  for (const ParamRef& p : params_) {
    if (!p.trainable || p.grad == nullptr) continue;
    flat.insert(flat.end(), p.grad->storage().begin(),
                p.grad->storage().end());
  }
  return flat;
}

// --------------------------------------------------------------------------
// StateDict arithmetic
// --------------------------------------------------------------------------

namespace {
void CheckSameKeys(const StateDict& a, const StateDict& b) {
  FS_CHECK_EQ(a.size(), b.size());
  auto ia = a.begin();
  auto ib = b.begin();
  for (; ia != a.end(); ++ia, ++ib) {
    FS_CHECK_EQ(ia->first, ib->first);
  }
}
}  // namespace

StateDict SdAdd(const StateDict& a, const StateDict& b) {
  CheckSameKeys(a, b);
  StateDict out = a;
  for (auto& [name, tensor] : out) AddInPlace(&tensor, b.at(name));
  return out;
}

StateDict SdSub(const StateDict& a, const StateDict& b) {
  CheckSameKeys(a, b);
  StateDict out = a;
  for (auto& [name, tensor] : out) Axpy(&tensor, -1.0f, b.at(name));
  return out;
}

StateDict SdScale(const StateDict& a, float s) {
  StateDict out = a;
  for (auto& [name, tensor] : out) ScaleInPlace(&tensor, s);
  return out;
}

void SdAxpy(StateDict* acc, float s, const StateDict& b) {
  for (const auto& [name, tensor] : b) {
    auto it = acc->find(name);
    FS_CHECK(it != acc->end()) << "SdAxpy: missing key " << name;
    Axpy(&it->second, s, tensor);
  }
}

double SdNorm(const StateDict& a) {
  double acc = 0.0;
  for (const auto& [name, tensor] : a) acc += SquaredNorm(tensor);
  return std::sqrt(acc);
}

std::vector<float> SdFlatten(const StateDict& a) {
  std::vector<float> flat;
  for (const auto& [name, tensor] : a) {
    flat.insert(flat.end(), tensor.storage().begin(), tensor.storage().end());
  }
  return flat;
}

StateDict SdWeightedAverage(const std::vector<const StateDict*>& dicts,
                            const std::vector<double>& weights) {
  FS_CHECK(!dicts.empty());
  FS_CHECK_EQ(dicts.size(), weights.size());
  double total = 0.0;
  for (double w : weights) {
    FS_CHECK_GE(w, 0.0);
    total += w;
  }
  FS_CHECK_GT(total, 0.0);
  StateDict out = SdScale(*dicts[0], static_cast<float>(weights[0] / total));
  for (size_t i = 1; i < dicts.size(); ++i) {
    CheckSameKeys(out, *dicts[i]);
    SdAxpy(&out, static_cast<float>(weights[i] / total), *dicts[i]);
  }
  return out;
}

int64_t SdNumel(const StateDict& a) {
  int64_t n = 0;
  for (const auto& [name, tensor] : a) n += tensor.numel();
  return n;
}

}  // namespace fedscope
