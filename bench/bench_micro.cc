// Substrate microbenchmarks (google-benchmark): tensor kernels, the wire
// codec, the event queue, aggregation, and Paillier primitives. These are
// not paper experiments; they characterize the simulator's own cost.
//
//   bench_micro [google-benchmark flags] [--kernels_json=PATH]
//
// --kernels_json=PATH also writes the median and IQR of each benchmark's
// real time over its repetitions (--benchmark_repetitions), with the
// host's CPU count and MHz: the schema of BENCH_kernels.json (DESIGN.md §8).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "fedscope/comm/channel.h"
#include "fedscope/comm/codec.h"
#include "fedscope/core/aggregator.h"
#include "fedscope/core/checkpoint.h"
#include "fedscope/core/trainer.h"
#include "fedscope/exec/worker_pool.h"
#include "fedscope/nn/loss.h"
#include "fedscope/nn/model_zoo.h"
#include "fedscope/nn/optimizer.h"
#include "fedscope/obs/obs_context.h"
#include "fedscope/privacy/paillier.h"
#include "fedscope/privacy/secret_sharing.h"
#include "fedscope/sim/event_queue.h"
#include "fedscope/tensor/kernels.h"
#include "fedscope/tensor/tensor_ops.h"

namespace fedscope {
namespace {

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, &rng);
  Tensor b = Tensor::Randn({n, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

// Args: in channels, out channels, image side; batch 16, 3x3, padding 1.
// {8, 16, 4} is ConvNet2's conv2 at convnet_sync's 8x8 input.
void BM_Conv2dForward(benchmark::State& state) {
  Rng rng(2);
  const int64_t in_c = state.range(0), hw = state.range(2);
  Conv2d conv(in_c, state.range(1), 3, 1, &rng);
  Tensor x = Tensor::Randn({16, in_c, hw, hw}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(x, true));
  }
}
BENCHMARK(BM_Conv2dForward)->Args({3, 8, 8})->Args({8, 16, 4});

void BM_MatMulTransB(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, &rng);
  Tensor b = Tensor::Randn({n, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulTransB(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulTransB)->Arg(64)->Arg(128);

void BM_Conv2dBackward(benchmark::State& state) {
  Rng rng(2);
  const int64_t in_c = state.range(0), hw = state.range(2);
  Conv2d conv(in_c, state.range(1), 3, 1, &rng);
  Tensor x = Tensor::Randn({16, in_c, hw, hw}, &rng);
  Tensor y = conv.Forward(x, true);
  Tensor grad = Tensor::Randn(y.shape(), &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Backward(grad));
  }
}
BENCHMARK(BM_Conv2dBackward)->Args({3, 8, 8})->Args({8, 16, 4});

// Arg: image side of an 8-channel image, 3x3, padding 1 (4: conv2's input).
void BM_Im2Col(benchmark::State& state) {
  Rng rng(2);
  const int64_t c = 8, hw = state.range(0), k = 3, p = 1;
  Tensor x = Tensor::Randn({c, hw, hw}, &rng);
  const int64_t out = kernels::ConvOutDim(hw, k, p);
  std::vector<float> cols(c * k * k * out * out);
  for (auto _ : state) {
    kernels::Im2Col(x.data(), c, hw, hw, k, p, cols.data(), out * out);
    benchmark::DoNotOptimize(cols.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * cols.size() * sizeof(float));
}
BENCHMARK(BM_Im2Col)->Arg(16)->Arg(4);

void BM_Softmax(benchmark::State& state) {
  Rng rng(13);
  Tensor logits = Tensor::Randn({256, 64}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Softmax(logits));
  }
  state.SetItemsProcessed(state.iterations() * logits.numel());
}
BENCHMARK(BM_Softmax);

void BM_ModelForwardBackward(benchmark::State& state) {
  Rng rng(3);
  Model model = MakeConvNet2(3, 8, 10, 64, 0.0, &rng);
  Tensor x = Tensor::Randn({16, 3, 8, 8}, &rng);
  SoftmaxCrossEntropy loss;
  std::vector<int64_t> labels(16, 1);
  for (auto _ : state) {
    model.ZeroGrad();
    Tensor out = model.Forward(x, true);
    loss.Forward(out, labels);
    model.Backward(loss.Backward());
  }
}
BENCHMARK(BM_ModelForwardBackward);

// One SGD step. Arg 0: convnet_sync's ConvNet2 on 1x8x8 at batch 16.
// Arg 1: hostile_cifar's Flatten + MLP 192-32-10 on 3x8x8 at batch 16.
// Arg 2: crossdevice_1m's 16->4 logistic regression at batch 8. A learning
// rate of 0 keeps the parameters, and with them the timing, the same from
// one iteration to the next.
void BM_SgdStep(benchmark::State& state) {
  Rng rng(14);
  const int64_t arg = state.range(0);
  const int64_t batch = arg == 2 ? 8 : 16;
  const int64_t classes = arg == 2 ? 4 : 10;
  Model model;
  Tensor x;
  if (arg == 0) {
    model = MakeConvNet2(1, 8, 10, 64, 0.0, &rng);
    x = Tensor::Randn({batch, 1, 8, 8}, &rng);
  } else if (arg == 1) {
    model.Add("flat", std::make_unique<Flatten>());
    Model mlp = MakeMlp({192, 32, 10}, &rng);
    for (int i = 0; i < mlp.num_layers(); ++i) {
      model.Add(mlp.layer_name(i), mlp.layer(i)->Clone());
    }
    x = Tensor::Randn({batch, 3, 8, 8}, &rng);
  } else {
    model = MakeLogisticRegression(16, 4, &rng);
    x = Tensor::Randn({batch, 16}, &rng);
  }
  std::vector<int64_t> labels(batch);
  for (auto& label : labels) label = rng.UniformInt(0, classes - 1);
  SgdOptions options;
  options.lr = 0.0;
  Sgd sgd(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SgdStepOnBatch(&model, &sgd, x, labels));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SgdStep)->Arg(0)->Arg(1)->Arg(2);

// -- server evaluation (DESIGN.md §12) ---------------------------------------
// The convnet_sync server test set: ConvNet2 on 512 rows of 8×8. Arg 0:
// inline on the model (the serial backend). Arg N: the row blocks on a
// pool of N helpers plus the calling thread (the threaded backend's default
// evaluator). Wall time, since the helpers' work is off the timed thread.

void BM_ServerEvaluate(benchmark::State& state) {
  const int helpers = static_cast<int>(state.range(0));
  constexpr int64_t kRows = 512;
  Rng rng(5);
  Model model = MakeConvNet2(1, 8, 10, 64, 0.0, &rng);
  Dataset test;
  test.x = Tensor::Randn({kRows, 1, 8, 8}, &rng);
  for (int64_t i = 0; i < kRows; ++i) test.labels.push_back(i % 10);
  std::unique_ptr<WorkerPool> pool;
  if (helpers > 0) pool = std::make_unique<WorkerPool>(helpers);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EvaluateClassifier(&model, test, pool.get()).loss);
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_ServerEvaluate)->Arg(0)->Arg(3)->UseRealTime();

void BM_MessageEncode(benchmark::State& state) {
  Message msg;
  Rng rng(4);
  msg.payload.SetStateDict(
      "model", MakeMlp({64, 64, 10}, &rng).GetStateDict());
  int64_t bytes = 0;
  for (auto _ : state) {
    auto encoded = EncodeMessage(msg);
    bytes += encoded.size();
    benchmark::DoNotOptimize(encoded);
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_MessageEncode);

void BM_MessageRoundTrip(benchmark::State& state) {
  Message msg;
  Rng rng(5);
  msg.payload.SetStateDict(
      "model", MakeMlp({64, 64, 10}, &rng).GetStateDict());
  for (auto _ : state) {
    auto decoded = DecodeMessage(EncodeMessage(msg));
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_MessageRoundTrip);

void BM_EventQueue(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(6);
  for (auto _ : state) {
    EventQueue queue;
    for (int i = 0; i < n; ++i) {
      Message msg;
      msg.timestamp = rng.Uniform();
      queue.Push(std::move(msg));
    }
    while (!queue.Empty()) {
      benchmark::DoNotOptimize(queue.Pop());
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueue)->Arg(1000);

// Observability overhead: the same event-queue workload with a metrics
// registry attached. Compare against BM_EventQueue to price the hooks.
void BM_EventQueueWithObs(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(6);
  MetricsRegistry metrics;
  ObsContext obs;
  obs.metrics = &metrics;
  for (auto _ : state) {
    EventQueue queue;
    queue.set_obs(&obs);
    for (int i = 0; i < n; ++i) {
      Message msg;
      msg.msg_type = "model_update";
      msg.timestamp = rng.Uniform();
      queue.Push(std::move(msg));
    }
    while (!queue.Empty()) {
      benchmark::DoNotOptimize(queue.Pop());
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueWithObs)->Arg(1000);

void BM_ChannelSend(benchmark::State& state) {
  QueueChannel channel;
  Message msg;
  Rng rng(12);
  msg.msg_type = "model_update";
  msg.payload.SetStateDict("delta", MakeMlp({64, 32, 10}, &rng).GetStateDict());
  for (auto _ : state) {
    channel.Send(msg);
    benchmark::DoNotOptimize(channel.Pop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelSend);

// Channel send with the per-message traffic counters attached (the
// fs_comm_* instrumentation every transport shares).
void BM_ChannelSendWithObs(benchmark::State& state) {
  QueueChannel channel;
  MetricsRegistry metrics;
  ObsContext obs;
  obs.metrics = &metrics;
  channel.set_obs(&obs);
  Message msg;
  Rng rng(12);
  msg.msg_type = "model_update";
  msg.payload.SetStateDict("delta", MakeMlp({64, 32, 10}, &rng).GetStateDict());
  for (auto _ : state) {
    channel.Send(msg);
    benchmark::DoNotOptimize(channel.Pop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelSendWithObs);

void BM_FedAvgAggregate(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  Rng rng(7);
  Model model = MakeMlp({64, 32, 10}, &rng);
  StateDict global = model.GetStateDict();
  std::vector<ClientUpdate> updates(clients);
  for (int c = 0; c < clients; ++c) {
    updates[c].client_id = c + 1;
    updates[c].num_samples = 64;
    updates[c].delta = SdScale(global, 0.01f);
  }
  FedAvgAggregator aggregator;
  for (auto _ : state) {
    benchmark::DoNotOptimize(aggregator.Aggregate(global, updates));
  }
}
BENCHMARK(BM_FedAvgAggregate)->Arg(10)->Arg(50);

void BM_KrumAggregate(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  Rng rng(8);
  Model model = MakeMlp({64, 16, 10}, &rng);
  StateDict global = model.GetStateDict();
  std::vector<ClientUpdate> updates(clients);
  for (int c = 0; c < clients; ++c) {
    updates[c].client_id = c + 1;
    updates[c].delta = SdScale(global, 0.01f * (c + 1));
  }
  KrumAggregator aggregator(clients / 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aggregator.Aggregate(global, updates));
  }
}
BENCHMARK(BM_KrumAggregate)->Arg(10)->Arg(20);

void BM_PaillierEncrypt(benchmark::State& state) {
  Rng rng(9);
  auto keys = Paillier::GenerateKeys(static_cast<int>(state.range(0)), &rng);
  BigInt m = BigInt::FromUint64(123456);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Paillier::Encrypt(keys.pub, m, &rng));
  }
}
BENCHMARK(BM_PaillierEncrypt)->Arg(96)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_PaillierAddDecrypt(benchmark::State& state) {
  Rng rng(10);
  auto keys = Paillier::GenerateKeys(96, &rng);
  BigInt ca = Paillier::Encrypt(keys.pub, BigInt::FromUint64(111), &rng);
  BigInt cb = Paillier::Encrypt(keys.pub, BigInt::FromUint64(222), &rng);
  for (auto _ : state) {
    BigInt sum = Paillier::AddCiphertexts(keys.pub, ca, cb);
    benchmark::DoNotOptimize(Paillier::Decrypt(keys.pub, keys.priv, sum));
  }
}
BENCHMARK(BM_PaillierAddDecrypt)->Unit(benchmark::kMillisecond);

void BM_SecretSharedSum(benchmark::State& state) {
  Rng rng(11);
  std::vector<std::vector<double>> rows(
      10, std::vector<double>(state.range(0), 0.5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SecretSharedSum(rows, &rng));
  }
  state.SetItemsProcessed(state.iterations() * 10 * state.range(0));
}
BENCHMARK(BM_SecretSharedSum)->Arg(1000);

// -- durable course snapshots (DESIGN.md §10) -------------------------------
// Arg 0: the Twitter logistic regression (§5.2, ~120 params). Arg 1: the
// FEMNIST ConvNet2 at paper scale (~1.8M params). Together they bracket the
// per-round snapshot cost a recovering deployment pays.

Checkpoint SnapshotCheckpoint(int which) {
  Rng rng(12);
  Model model = which == 0 ? MakeLogisticRegression(60, 2, &rng)
                           : MakeConvNet2(1, 28, 62, 2048, 0.0, &rng);
  Checkpoint ckpt;
  ckpt.round = 42;
  ckpt.virtual_time = 1234.5;
  ckpt.best_accuracy = 0.9;
  ckpt.global_state = model.GetStateDict();
  SetPackedU64s(&ckpt.course, "rng", {1, 2, 3, 4, 5, 6, 7});
  return ckpt;
}

void BM_SnapshotSerialize(benchmark::State& state) {
  Checkpoint ckpt = SnapshotCheckpoint(static_cast<int>(state.range(0)));
  size_t bytes = 0;
  for (auto _ : state) {
    const std::vector<uint8_t> frame = EncodeCheckpointFile(ckpt);
    bytes = frame.size();
    benchmark::DoNotOptimize(frame.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_SnapshotSerialize)->Arg(0)->Arg(1);

void BM_SnapshotDeserialize(benchmark::State& state) {
  const std::vector<uint8_t> frame =
      EncodeCheckpointFile(SnapshotCheckpoint(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    auto decoded = DecodeCheckpointFile(frame);
    benchmark::DoNotOptimize(decoded.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(frame.size()));
}
BENCHMARK(BM_SnapshotDeserialize)->Arg(0)->Arg(1);

void BM_SnapshotAtomicWrite(benchmark::State& state) {
  // Full durability path: temp file + fsync + rename + directory fsync.
  // Dominated by fsync latency, so expect the storage stack — not the
  // codec — to set this number.
  Checkpoint ckpt = SnapshotCheckpoint(static_cast<int>(state.range(0)));
  const std::string path =
      (std::filesystem::temp_directory_path() / "fedscope_bench_snapshot.ckpt")
          .string();
  int64_t bytes = 0;
  for (auto _ : state) {
    auto written = WriteCheckpointFileAtomic(path, ckpt);
    if (!written.ok()) {
      state.SkipWithError(written.status().ToString().c_str());
      return;
    }
    bytes = written.value();
  }
  state.SetBytesProcessed(state.iterations() * bytes);
  std::remove(path.c_str());
}
BENCHMARK(BM_SnapshotAtomicWrite)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// -- BENCH_kernels.json ------------------------------------------------------

// Whether google-benchmark reports the run as failed: `skipped` from
// release 1.8 on, `error_occurred` before.
template <typename Run>
auto Failed(const Run& run, int) -> decltype(static_cast<bool>(run.skipped)) {
  return static_cast<bool>(run.skipped);
}
template <typename Run>
bool Failed(const Run& run, long) {
  return run.error_occurred;
}

// The console reporter, also keeping every repetition's real time (ns).
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || Failed(run, 0)) continue;
      times_ns_[run.benchmark_name()].push_back(
          run.GetAdjustedRealTime() * 1e9 /
          benchmark::GetTimeUnitMultiplier(run.time_unit));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::map<std::string, std::vector<double>>& times_ns() const {
    return times_ns_;
  }

 private:
  std::map<std::string, std::vector<double>> times_ns_;
};

// Quantile q of sorted values, linear between the closest ranks.
double Quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

bool WriteKernelsJson(const std::string& path,
                      const RecordingReporter& reporter) {
  std::ofstream out(path);
  const benchmark::CPUInfo& cpu = benchmark::CPUInfo::Get();
  char buf[160];
  out << "{\n  \"schema\": 2,\n  \"time_unit\": \"ns\",\n"
      << "  \"statistic\": \"real time per iteration: median and IQR "
         "(q3 - q1) over repetitions\",\n"
      << "  \"host\": {\"num_cpus\": " << cpu.num_cpus
      << ", \"mhz_per_cpu\": "
      << static_cast<int64_t>(cpu.cycles_per_second / 1e6 + 0.5) << "},\n"
      << "  \"benchmarks\": {";
  const char* sep = "\n";
  for (const auto& [name, times] : reporter.times_ns()) {
    std::vector<double> sorted = times;
    std::sort(sorted.begin(), sorted.end());
    std::snprintf(buf, sizeof(buf),
                  "\"median_ns\": %.1f, \"iqr_ns\": %.1f, \"repetitions\": %zu",
                  Quantile(sorted, 0.5),
                  Quantile(sorted, 0.75) - Quantile(sorted, 0.25),
                  sorted.size());
    out << sep << "    \"" << name << "\": {" << buf << "}";
    sep = ",\n";
  }
  out << "\n  }\n}\n";
  return static_cast<bool>(out);
}

}  // namespace
}  // namespace fedscope

int main(int argc, char** argv) {
  // --kernels_json is this binary's own flag; google-benchmark parses the
  // rest.
  std::string json_path;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--kernels_json=", 0) == 0) {
      json_path = arg.substr(15);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  fedscope::RecordingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty() &&
      !fedscope::WriteKernelsJson(json_path, reporter)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
