#ifndef FEDSCOPE_CORE_CLIENT_H_
#define FEDSCOPE_CORE_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fedscope/core/trainer.h"
#include "fedscope/core/worker.h"
#include "fedscope/data/client_data_provider.h"
#include "fedscope/data/dataset.h"
#include "fedscope/nn/model.h"
#include "fedscope/privacy/dp.h"
#include "fedscope/sim/device_profile.h"
#include "fedscope/sim/response_model.h"

namespace fedscope {

/// Per-client configuration. Each client may differ in every field
/// (client-specific training configuration is a first-class feature,
/// paper §3.4.1); the FedRunner applies a user hook to customize clients.
struct ClientOptions {
  TrainConfig train;
  DeviceProfile device;
  /// Lognormal sigma of run-to-run latency jitter.
  double jitter_sigma = 0.2;
  /// Privacy behaviour plug-in (clip + noise before sharing, §4.1).
  DpOptions dp;
  /// Which parameters this client exchanges with the server. FedBN passes
  /// ExcludeSubstrings({".bn."}); multi-goal FL passes
  /// IncludePrefixes({"body."}).
  NameFilter share_filter;
  /// If > 0, raise "performance_drop" when loading the received global
  /// model reduces local validation accuracy by more than this threshold.
  double perf_drop_threshold = 0.0;
  /// With perf_drop_threshold set: when the event fires, roll back to the
  /// pre-load parameters for this round's training — the paper's "each
  /// participant can independently choose the most suitable snapshot of
  /// the global model" (§3.4.1). Off by default (count-and-log only).
  bool reject_harmful_global = false;
  /// If > 0 (bytes/sec), raise "low_bandwidth" when this client's uplink
  /// or downlink bandwidth is below the threshold; the default handler
  /// declines every other training request to halve the communication
  /// frequency (paper §3.2's "low_bandwidth" behaviour).
  double low_bandwidth_threshold = 0.0;
  /// Update compression before sharing: "none" | "quant8" | "topk"
  /// (message-transform operator plug-in; the server decompresses).
  std::string compression = "none";
  /// Kept coordinate fraction for "topk".
  double compression_keep_frac = 0.1;
  /// Seed of this client's private RNG stream.
  uint64_t seed = 0;

  ClientOptions() : share_filter(AcceptAll()) {}
};

/// A suspended client's complete mutable state (DESIGN.md §13): the record
/// ClientCache keeps per evicted client, so that a later instantiation
/// resumes bit-identically. Construction inputs (options, data, handlers)
/// are re-derived and not stored. A suspended 16×4 logistic-regression
/// client costs 494 B of heap in use, 272 of them the model.
struct ClientResume {
  Rng rng;
  double time = 0.0;
  double last_val_accuracy = -1.0;
  int rounds_trained = 0;
  int perf_drops = 0;
  int declined = 0;
  /// Holds the every-other-request parity of the low_bandwidth behaviour:
  /// dropping it would flip which requests get declined.
  int low_bandwidth_requests = 0;
  int rejected_globals = 0;
  bool finished = false;
  /// Every parameter and buffer, in Model::Params() order, sized exactly.
  std::vector<float> params;
  /// One wire-encoded payload: the trainer's SaveState under "trainer",
  /// and each layer's private state (Layer::PrivateState: Dropout's rng)
  /// under "layer/<layer name>". Empty when the trainer is stateless and
  /// no layer keeps private state.
  std::vector<uint8_t> trainer_state;
};

/// An FL client: owns its private data, local model and Trainer, and
/// describes its behaviour through <event, handler> pairs. The default
/// handlers implement the FedAvg client of Example 3.2:
///   model_para  -> update local model, train locally, return the update
///   evaluate    -> evaluate the deployment model on local test data
///   finish      -> stop participating
/// Users customize by overwriting handlers or swapping the Trainer.
class Client : public BaseWorker {
 public:
  /// Registers the default handlers, then runs Reset with the arguments.
  Client(int id, ClientOptions options, const Model& model,
         SplitDataset data, std::unique_ptr<BaseTrainer> trainer,
         CommChannel* channel, HeldOutSource held_out = {});

  /// Makes this object client `id`, built from the arguments, exactly as
  /// the constructor leaves a new one: fresh rng stream, clock and
  /// counters, the default handlers (re-registered only if they were
  /// changed), no update poisoner and no obs sinks. `model` is copied in
  /// place (Model::operator=). When `held_out` names a provider, `data`
  /// holds the train split only and the val and test splits are built
  /// from `held_out` on first read. The ClientCache re-targets the shells
  /// of evicted clients through it (DESIGN.md §13).
  void Reset(int id, ClientOptions options, const Model& model,
             SplitDataset data, std::unique_ptr<BaseTrainer> trainer,
             CommChannel* channel, HeldOutSource held_out = {});

  /// Drops what the current occupant owns beyond the model — its splits,
  /// trainer and update poisoner — so an evicted client's shell holds no
  /// data until the next Reset. Leaves the client unusable until then.
  void Vacate();

  /// Announces this client to the server (sends join_in with an estimate
  /// of its responsiveness derived from device info).
  void JoinIn();

  /// Captures the complete mutable client state — rng stream position,
  /// virtual clock, behaviour counters, model and trainer state — so a
  /// reclaimed virtual client can later be re-instantiated bit-identically
  /// (DESIGN.md §13).
  ClientResume ExportResume();
  /// Restores a record taken by ExportResume onto a client freshly built
  /// (or Reset) with the same options, model architecture and trainer.
  void RestoreResume(const ClientResume& resume);
  /// Marks the client finished without a delivery: how the ClientCache
  /// applies a finish multicast to a client that was not live.
  void MarkFinished() { finished_ = true; }

  Model* model() { return &model_; }
  BaseTrainer* trainer() { return trainer_.get(); }
  /// The local splits, building val and test first if they are still
  /// held out.
  const SplitDataset& data();
  ClientOptions& options() { return options_; }

  /// Evaluates the deployment model (personalized, if the trainer
  /// personalizes) on the local test split.
  EvalResult EvaluateLocalTest();
  /// Same on the local validation split.
  EvalResult EvaluateLocalVal();

  bool finished() const { return finished_; }
  int rounds_trained() const { return rounds_trained_; }
  int perf_drop_count() const { return perf_drop_count_; }
  int declined_count() const { return declined_count_; }

  // -- attack-simulation hooks (participant plug-in, §4.2) ------------------

  /// Applies `poisoner` to the local training split once (data poisoning:
  /// BadNets triggers, label flips, edge cases).
  void PoisonTrainData(const std::function<void(Dataset*)>& poisoner);

  /// Installs a hook that may arbitrarily rewrite the outgoing update
  /// (model poisoning: Neurotoxin-style masked updates, scaling attacks).
  void set_update_poisoner(std::function<void(StateDict*)> poisoner) {
    update_poisoner_ = std::move(poisoner);
  }

 private:
  void RegisterDefaultHandlers();
  void OnModelPara(const Message& msg);
  void OnEvaluate(const Message& msg);
  void OnFinish(const Message& msg);

  ClientOptions options_;
  Model model_;
  /// Val and test are empty while held_out_ names a provider.
  SplitDataset data_;
  HeldOutSource held_out_;
  std::unique_ptr<BaseTrainer> trainer_;
  Rng rng_;
  ResponseModel response_model_;
  std::function<void(StateDict*)> update_poisoner_;
  bool finished_ = false;
  int rounds_trained_ = 0;
  int perf_drop_count_ = 0;
  int declined_count_ = 0;
  int low_bandwidth_requests_ = 0;
  int rejected_globals_ = 0;
  double last_val_accuracy_ = -1.0;
  /// Pre-load snapshot valid while a performance_drop handler may want to
  /// roll back (set around UpdateModel in OnModelPara).
  StateDict pre_load_snapshot_;
  /// registry_.changes() right after the default handlers were registered.
  int64_t default_handlers_at_ = 0;

 public:
  int rejected_globals() const { return rejected_globals_; }
};

}  // namespace fedscope

#endif  // FEDSCOPE_CORE_CLIENT_H_
