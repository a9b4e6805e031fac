// Substrate microbenchmarks (google-benchmark): tensor kernels, the wire
// codec, the event queue, aggregation, and Paillier primitives. These are
// not paper experiments; they characterize the simulator's own cost.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "fedscope/comm/channel.h"
#include "fedscope/comm/codec.h"
#include "fedscope/core/aggregator.h"
#include "fedscope/core/checkpoint.h"
#include "fedscope/core/trainer.h"
#include "fedscope/exec/worker_pool.h"
#include "fedscope/nn/loss.h"
#include "fedscope/nn/model_zoo.h"
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

void BM_Conv2dForward(benchmark::State& state) {
  Rng rng(2);
  Conv2d conv(3, 8, 3, 1, &rng);
  Tensor x = Tensor::Randn({16, 3, 8, 8}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(x, true));
  }
}
BENCHMARK(BM_Conv2dForward);

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
  Conv2d conv(3, 8, 3, 1, &rng);
  Tensor x = Tensor::Randn({16, 3, 8, 8}, &rng);
  Tensor y = conv.Forward(x, true);
  Tensor grad = Tensor::Randn(y.shape(), &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Backward(grad));
  }
}
BENCHMARK(BM_Conv2dBackward);

void BM_Im2Col(benchmark::State& state) {
  Rng rng(2);
  const int64_t c = 8, hw = 16, k = 3, p = 1;
  Tensor x = Tensor::Randn({c, hw, hw}, &rng);
  const int64_t out = kernels::ConvOutDim(hw, k, p);
  std::vector<float> cols(c * k * k * out * out);
  for (auto _ : state) {
    kernels::Im2Col(x.data(), c, hw, hw, k, p, cols.data());
    benchmark::DoNotOptimize(cols.data());
  }
  state.SetBytesProcessed(state.iterations() * cols.size() * sizeof(float));
}
BENCHMARK(BM_Im2Col);

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

}  // namespace
}  // namespace fedscope

BENCHMARK_MAIN();
