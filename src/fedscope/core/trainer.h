#ifndef FEDSCOPE_CORE_TRAINER_H_
#define FEDSCOPE_CORE_TRAINER_H_

#include <memory>
#include <string>

#include "fedscope/comm/message.h"
#include "fedscope/data/dataset.h"
#include "fedscope/nn/loss.h"
#include "fedscope/nn/model.h"
#include "fedscope/nn/optimizer.h"
#include "fedscope/util/config.h"
#include "fedscope/util/rng.h"

namespace fedscope {

class WorkerPool;

/// Local-training hyperparameters. Mirrors the client-side knobs of the
/// paper's experiments (§5.2 / Appendix F): Q local SGD steps of a given
/// batch size at learning rate eta, plus optional regularization.
/// `prox_mu` enables FedProx-style proximal local training.
struct TrainConfig {
  double lr = 0.5;
  int local_steps = 4;
  int batch_size = 20;
  double momentum = 0.0;
  double weight_decay = 0.0;
  double prox_mu = 0.0;
  double grad_clip = 0.0;

  /// Reads overrides from a dotted-key config (train.lr, train.steps, ...).
  static TrainConfig FromConfig(const Config& config);
  static TrainConfig FromConfig(const Config& config, TrainConfig base);
};

struct TrainResult {
  double mean_loss = 0.0;
  int64_t num_samples = 0;  // examples processed (steps * batch)
  int local_steps = 0;
};

struct EvalResult {
  double loss = 0.0;
  double accuracy = 0.0;
  int64_t num_examples = 0;
};

/// Encapsulates the local training / evaluation of one client, decoupled
/// from the client's message-handling behaviour (paper §3.6, Figure 5).
/// Personalized algorithms (Ditto/pFedMe/FedEM, §3.4.1) subclass this and
/// keep their per-client state inside the trainer.
///
/// Must-do interfaces (paper: "train, evaluation, update model"): Train and
/// Evaluate. UpdateModel has a sensible default (load the shared state).
class BaseTrainer {
 public:
  virtual ~BaseTrainer() = default;

  /// Incorporates a received global (shared) state into the local model.
  /// Default behaviour: overwrite matching parameters.
  virtual void UpdateModel(Model* model, const StateDict& global_shared);

  /// Runs local training, mutating `model`. Must be implemented.
  virtual TrainResult Train(Model* model, const Dataset& train,
                            const TrainConfig& config, Rng* rng) = 0;

  /// Evaluates the *deployment* model on `data`. For personalized trainers
  /// this is the personalized model, not the shared one.
  virtual EvalResult Evaluate(Model* model, const Dataset& data);

  /// The state this client shares with the federation, after applying the
  /// share filter. Default: the model's filtered state dict. Trainers with
  /// internal state (e.g. FedEM's mixture components) override this.
  virtual StateDict GetShareableState(Model* model, const NameFilter& filter);

  /// Persists trainer-internal per-client state (personalized models,
  /// mixture weights) into `p` under `prefix`, so a reclaimed virtual
  /// client re-instantiates bit-identically (DESIGN.md §13). Stateless
  /// trainers keep the default no-op.
  virtual void SaveState(Payload* /*p*/, const std::string& /*prefix*/) {
  }
  /// Restores state written by SaveState onto a freshly built trainer.
  /// `reference` is the owning client's model — the architecture template
  /// for reconstructing personalized model copies.
  virtual void LoadState(const Payload& /*p*/, const std::string& /*prefix*/,
                         const Model& /*reference*/) {}
};

/// Plain local SGD on softmax cross-entropy — the Trainer of vanilla
/// FedAvg. Batches are sampled with replacement from the local train set.
class GeneralTrainer : public BaseTrainer {
 public:
  TrainResult Train(Model* model, const Dataset& train,
                    const TrainConfig& config, Rng* rng) override;
};

/// Shared helpers ------------------------------------------------------------

/// One SGD step on a batch; returns the batch loss.
double SgdStepOnBatch(Model* model, Sgd* optimizer, const Tensor& x,
                      const std::vector<int64_t>& labels);

/// Cross-entropy evaluation used by all built-in trainers and the default
/// server evaluator. Evaluates contiguous blocks of 64 rows and sums the
/// per-row loss terms in row order once every block is done, so the result
/// is bit-identical however the blocks are scheduled. With a `pool`, the
/// blocks run as pool tasks, each on its own copy of `model` (which is
/// only read); without one, they run in order on `model`. Must not be
/// given the pool that runs the calling task.
EvalResult EvaluateClassifier(Model* model, const Dataset& data,
                              WorkerPool* pool = nullptr);

/// Draws `batch_size` example indices with replacement.
std::vector<int64_t> SampleBatchIndices(int64_t dataset_size,
                                        int batch_size, Rng* rng);

}  // namespace fedscope

#endif  // FEDSCOPE_CORE_TRAINER_H_
