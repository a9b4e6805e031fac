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
  names_ = other.names_;
  layers_.clear();
  layers_.reserve(other.layers_.size());
  for (const auto& layer : other.layers_) layers_.push_back(layer->Clone());
  return *this;
}

void Model::Add(std::string name, std::unique_ptr<Layer> layer) {
  for (const auto& existing : names_) {
    FS_CHECK_NE(existing, name) << "duplicate layer name";
  }
  names_.push_back(std::move(name));
  layers_.push_back(std::move(layer));
}

Tensor Model::Forward(const Tensor& x, bool train) {
  Tensor h = x;
  for (auto& layer : layers_) h = layer->Forward(h, train);
  return h;
}

void Model::Backward(const Tensor& grad_out) {
  size_t bottom = 0;
  std::vector<ParamRef> refs;
  for (; bottom < layers_.size(); ++bottom) {
    layers_[bottom]->CollectParams(names_[bottom], &refs);
    if (std::any_of(refs.begin(), refs.end(),
                    [](const ParamRef& p) { return p.trainable; })) {
      break;
    }
  }
  if (bottom == layers_.size()) return;  // nothing to train
  Tensor g = grad_out;
  for (size_t i = layers_.size() - 1; i > bottom; --i) {
    g = layers_[i]->Backward(g);
  }
  layers_[bottom]->BackwardParams(g);
}

std::vector<ParamRef> Model::Params() {
  std::vector<ParamRef> params;
  for (size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->CollectParams(names_[i], &params);
  }
  return params;
}

void Model::ZeroGrad() {
  for (auto& p : Params()) {
    if (p.grad != nullptr) ZeroInPlace(p.grad);
  }
}

int64_t Model::NumParams() {
  int64_t n = 0;
  for (auto& p : Params()) n += p.value->numel();
  return n;
}

StateDict Model::GetStateDict(const NameFilter& filter) {
  StateDict state;
  for (auto& p : Params()) {
    if (filter(p.name)) state[p.name] = *p.value;
  }
  return state;
}

Status Model::LoadStateDict(const StateDict& state, bool strict,
                            const NameFilter& filter) {
  std::map<std::string, ParamRef> by_name;
  for (auto& p : Params()) by_name[p.name] = p;
  for (const auto& [name, tensor] : state) {
    if (!filter(name)) continue;
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      if (strict) {
        return Status::NotFound("state dict key not in model: " + name);
      }
      continue;
    }
    if (!it->second.value->SameShape(tensor)) {
      return Status::InvalidArgument(
          "shape mismatch for " + name + ": model " +
          it->second.value->ShapeString() + " vs state " +
          tensor.ShapeString());
    }
    *it->second.value = tensor;
  }
  return Status::Ok();
}

std::vector<float> Model::FlatParams() {
  std::vector<float> flat;
  for (auto& p : Params()) {
    if (!p.trainable) continue;
    flat.insert(flat.end(), p.value->storage().begin(),
                p.value->storage().end());
  }
  return flat;
}

void Model::SetFlatParams(const std::vector<float>& flat) {
  size_t offset = 0;
  for (auto& p : Params()) {
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
  for (auto& p : Params()) {
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
