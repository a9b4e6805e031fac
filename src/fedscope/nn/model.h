#ifndef FEDSCOPE_NN_MODEL_H_
#define FEDSCOPE_NN_MODEL_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fedscope/nn/layers.h"
#include "fedscope/tensor/tensor.h"
#include "fedscope/util/status.h"

namespace fedscope {

/// Named parameter snapshot: the backend-independent representation of a
/// model's state. This is what participants exchange in FL messages (after
/// message translation) and what aggregators operate on.
using StateDict = std::map<std::string, Tensor>;

/// Predicate over parameter names, used to select the *shared* part of a
/// model. FedBN shares everything but BatchNorm parameters; multi-goal FL
/// shares only the body and keeps task heads private (paper §3.4).
using NameFilter = std::function<bool(const std::string&)>;

/// Accepts every parameter.
NameFilter AcceptAll();
/// Accepts parameters whose name contains none of the given substrings.
NameFilter ExcludeSubstrings(std::vector<std::string> substrings);
/// Accepts parameters whose name starts with one of the given prefixes.
NameFilter IncludePrefixes(std::vector<std::string> prefixes);

/// A sequential neural network with named layers. The Model owns its layers
/// and exposes a flat named-parameter view used for state-dict exchange,
/// optimization, and aggregation. That view is an index built when a layer
/// is added or the model is copied: every parameter's name and pointers,
/// and the lowest trainable layer. It points into the model's own layers,
/// which live on the heap, so a moved model keeps it.
class Model {
 public:
  Model() = default;
  Model(const Model& other) { *this = other; }
  /// Copies `other` in place: each layer of the same name and type
  /// copy-assigns its full state, Dropout's rng included, so a model of
  /// `other`'s architecture allocates nothing beyond what its tensors'
  /// sizes require; any other layer is replaced by a clone.
  Model& operator=(const Model& other);
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  /// Appends a layer under the given name (names must be unique).
  void Add(std::string name, std::unique_ptr<Layer> layer);

  /// Forward pass through all layers.
  Tensor Forward(const Tensor& x, bool train = true);

  /// Backward pass; accumulates parameter gradients. It ends at the lowest
  /// layer with trainable parameters, which forms no input gradient
  /// (Layer::BackwardParams), since nothing reads it.
  void Backward(const Tensor& grad_out);

  /// All parameters and buffers with hierarchical names, in layer order.
  const std::vector<ParamRef>& Params() { return params_; }

  /// Zeroes every trainable parameter's gradient.
  void ZeroGrad();

  /// Total number of scalar parameters (trainable + buffers).
  int64_t NumParams();

  /// Copies parameters passing the filter into a StateDict.
  StateDict GetStateDict(const NameFilter& filter = AcceptAll());

  /// Loads matching entries of `state` into this model. Entries not present
  /// in the model are ignored when `strict` is false, an error otherwise;
  /// model parameters absent from `state` are left untouched.
  Status LoadStateDict(const StateDict& state, bool strict = false,
                       const NameFilter& filter = AcceptAll());

  /// All trainable parameters flattened into a single vector (and back).
  /// Used by Krum-style aggregation and gradient-inversion attacks.
  std::vector<float> FlatParams();
  void SetFlatParams(const std::vector<float>& flat);
  std::vector<float> FlatGrads();

  int num_layers() const { return static_cast<int>(layers_.size()); }
  Layer* layer(int i) { return layers_[i].get(); }
  const std::string& layer_name(int i) const { return names_[i]; }

 private:
  /// Rebuilds the index from the layers.
  void Reindex();

  std::vector<std::string> names_;
  std::vector<std::unique_ptr<Layer>> layers_;
  /// Every parameter and buffer, in layer order.
  std::vector<ParamRef> params_;
  /// Positions in params_, sorted by name: LoadStateDict's lookup.
  std::vector<size_t> by_name_;
  /// The lowest layer with a trainable parameter; layers_.size() when
  /// there is none.
  size_t bottom_ = 0;
};

// --------------------------------------------------------------------------
// StateDict arithmetic (the substrate of federated aggregation).
// --------------------------------------------------------------------------

/// a + b, keys must match exactly.
StateDict SdAdd(const StateDict& a, const StateDict& b);
/// a - b, keys must match exactly.
StateDict SdSub(const StateDict& a, const StateDict& b);
/// a * s.
StateDict SdScale(const StateDict& a, float s);
/// acc += s * b (keys of b must be a subset of acc's keys).
void SdAxpy(StateDict* acc, float s, const StateDict& b);
/// L2 norm over all entries.
double SdNorm(const StateDict& a);
/// Flattens all entries in key order.
std::vector<float> SdFlatten(const StateDict& a);
/// Weighted average of dicts (weights need not be normalized).
StateDict SdWeightedAverage(const std::vector<const StateDict*>& dicts,
                            const std::vector<double>& weights);
/// Total scalar count.
int64_t SdNumel(const StateDict& a);

}  // namespace fedscope

#endif  // FEDSCOPE_NN_MODEL_H_
