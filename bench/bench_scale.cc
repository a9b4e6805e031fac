// Cross-device scale with client virtualization (DESIGN.md §13): one
// course per population size at 1k / 10k / 100k / 1M descriptor-only
// participants, cohort fixed at 32. Reports time per round (by
// differencing a 1-round and a 101-round run, which cancels the course
// start and end both runs pay; an untimed warm-up run first absorbs the
// allocator/page-fault noise that would otherwise swamp the
// sub-millisecond round signal) and the process peak RSS after each
// population's runs.
//
//   bench_scale [--out=BENCH_scale.json] [--smoke]
//
// --smoke shrinks to 1k/10k for the CI scale-smoke job.
//
// Truthfulness notes:
// * peak_rss_kb is the process-wide VmHWM high-water mark sampled after
//   each population's runs. It is monotone across the curve; populations
//   run in ascending order so each reading is dominated by its own
//   stage, but it is a ceiling, not an isolated measurement. -1 means
//   /proc/self/status was unavailable.
// * The memory proof is the live-client counter, not RSS: peak live
//   Clients must stay within the cache capacity + 1 (the pre-Trim
//   transient) at every population, or the bench fails.
// * At the smallest population the virtualized run is verified
//   bit-identical to an eagerly instantiated run of the same course
//   (oracle 12's differential); the larger populations are too big to
//   instantiate eagerly — which is the point.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "fedscope/data/client_data_provider.h"

namespace fedscope {
namespace bench {
namespace {

struct Args {
  std::string out;
  bool smoke = false;
};

constexpr int kConcurrency = 32;
constexpr int kFeatures = 16;
constexpr int kClasses = 4;
/// Rounds the per-round diff is averaged over (101-round run vs 1-round).
constexpr int kDiffRounds = 100;

/// Process peak resident set (VmHWM) in kB; -1 when unavailable.
int64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      int64_t kb = -1;
      fields >> kb;
      return kb;
    }
  }
  return -1;
}

ProceduralDataOptions MakeDataOptions(int population) {
  ProceduralDataOptions options;
  options.num_clients = population;
  options.features = kFeatures;
  options.classes = kClasses;
  options.train_per_client = 16;
  options.val_per_client = 4;
  options.test_per_client = 4;
  options.server_test_examples = 64;
  options.seed = 11;
  return options;
}

FedJob MakeJob(const ClientDataProvider* provider, int rounds) {
  FedJob job;
  job.virtualize = true;
  job.provider = provider;
  Rng rng(21);
  job.init_model = MakeLogisticRegression(kFeatures, kClasses, &rng);
  job.client.train.lr = 0.1;
  job.client.train.local_steps = 1;
  job.client.train.batch_size = 8;
  job.client.jitter_sigma = 0.0;
  job.server.concurrency = kConcurrency;
  job.server.max_rounds = rounds;
  // The end-of-course deployment eval is O(population) by definition
  // (every participant evaluates the final model) — exactly what a
  // cross-device course cannot afford. Off, as a real deployment would
  // sample it.
  job.deploy_eval = false;
  job.seed = 21;
  return job;
}

struct Sample {
  double wall_ms = 0.0;
  RunResult result;
  ClientCacheStats cache;
};

Sample TimeRun(const ClientDataProvider* provider, int rounds) {
  const auto start = std::chrono::steady_clock::now();
  Sample s;
  FedRunner runner(MakeJob(provider, rounds));
  s.result = runner.Run();
  s.cache = runner.client_cache()->stats();
  const auto end = std::chrono::steady_clock::now();
  s.wall_ms = std::chrono::duration<double, std::milli>(end - start).count();
  return s;
}

/// Eager twin of the virtualized course over the same provider (every
/// client built at construction), for the smallest-population identity
/// check.
RunResult RunEager(const ClientDataProvider* provider, int rounds) {
  FedJob job = MakeJob(provider, rounds);
  job.virtualize = false;
  return FedRunner(std::move(job)).Run();
}

bool BitIdentical(RunResult& a, RunResult& b) {  // GetStateDict is non-const
  return a.final_model.GetStateDict() == b.final_model.GetStateDict() &&
         a.server.curve == b.server.curve &&
         a.server.rounds == b.server.rounds;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      args->out = arg.substr(6);
    } else if (arg == "--smoke") {
      args->smoke = true;
    } else {
      std::fprintf(stderr, "usage: bench_scale [--out=FILE] [--smoke]\n");
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  Logging::set_min_level(LogLevel::kWarning);

  const std::vector<int> populations =
      args.smoke ? std::vector<int>{1000, 10000}
                 : std::vector<int>{1000, 10000, 100000, 1000000};

  std::printf("bench_scale: client virtualization at cross-device scale\n");
  std::printf(
      "cohort %d per round; populations exist as descriptors and are\n"
      "instantiated only when sampled (DESIGN.md §13).\n\n",
      kConcurrency);

  Table table({"population", "ms/round", "join+setup ms", "peak live",
               "instantiated", "evicted", "peak RSS MB"});
  std::string json = "{\n  \"schema\": 1,\n  \"time_unit\": \"ms\",\n";
  json +=
      "  \"note\": \"virtualized standalone courses, cohort 32, logreg on "
      "procedural data; ms_per_round = (wall_101_rounds - wall_1_round) / 100 "
      "after an untimed warm-up run, which cancels course start and end; "
      "join_setup_ms is the 1-round wall clock (batch join + 1 round + "
      "finish). peak_rss_kb is the "
      "process-wide VmHWM sampled after each population, monotone across "
      "the ascending curve (-1 = unavailable). peak_live_clients counts "
      "concurrently instantiated Clients and must stay within "
      "cache_capacity + 1 regardless of population.\",\n";
  json += "  \"host\": {\n    \"num_cpus\": " +
          std::to_string(std::thread::hardware_concurrency()) + "\n  },\n";
  json += "  \"populations\": {\n";

  bool ok = true;
  bool identity_checked = false;
  bool identity_ok = false;
  for (size_t pi = 0; pi < populations.size(); ++pi) {
    const int population = populations[pi];
    const ProceduralDataOptions data_options = MakeDataOptions(population);
    const ProceduralDataProvider provider(data_options);

    TimeRun(&provider, 1);  // untimed warm-up: heap + page-fault noise
    Sample one = TimeRun(&provider, 1);
    Sample many = TimeRun(&provider, 1 + kDiffRounds);
    const double per_round = (many.wall_ms - one.wall_ms) / kDiffRounds;
    const int64_t rss_kb = PeakRssKb();

    // The memory bound this bench exists to prove.
    const int capacity = kConcurrency + 2;  // FedRunner's auto bound
    if (many.cache.live_peak > capacity + 1) {
      std::printf("FAIL: population %d peaked at %lld live clients "
                  "(bound %d)\n",
                  population, static_cast<long long>(many.cache.live_peak),
                  capacity + 1);
      ok = false;
    }

    // Eager-vs-virtualized identity at the smallest population only (the
    // eager twin must actually fit).
    if (pi == 0) {
      Sample virt = TimeRun(&provider, 4);
      RunResult eager = RunEager(&provider, 4);
      identity_ok = BitIdentical(eager, virt.result);
      identity_checked = true;
      ok = ok && identity_ok;
    }

    table.Row()
        .Int(population)
        .Num(per_round, 2)
        .Num(one.wall_ms, 1)
        .Int(static_cast<int>(many.cache.live_peak))
        .Int(static_cast<int>(many.cache.instantiations))
        .Int(static_cast<int>(many.cache.evictions))
        .Num(rss_kb >= 0 ? rss_kb / 1024.0 : -1.0, 1);

    json += "    \"" + std::to_string(population) + "\": {\n";
    json += "      \"ms_per_round\": " + std::to_string(per_round) + ",\n";
    json += "      \"join_setup_ms\": " + std::to_string(one.wall_ms) + ",\n";
    json += "      \"wall_ms_1_round\": " + std::to_string(one.wall_ms) +
            ",\n";
    json += "      \"wall_ms_101_rounds\": " + std::to_string(many.wall_ms) +
            ",\n";
    json += "      \"peak_live_clients\": " +
            std::to_string(many.cache.live_peak) + ",\n";
    json += "      \"cache_capacity\": " + std::to_string(capacity) + ",\n";
    json += "      \"instantiations\": " +
            std::to_string(many.cache.instantiations) + ",\n";
    json += "      \"restores\": " + std::to_string(many.cache.restores) +
            ",\n";
    json += "      \"evictions\": " + std::to_string(many.cache.evictions) +
            ",\n";
    json += "      \"peak_rss_kb\": " + std::to_string(rss_kb) + "\n";
    json += "    }";
    json += pi + 1 < populations.size() ? ",\n" : "\n";
  }
  json += "  },\n  \"eager_bit_identical_at_smallest\": ";
  json += identity_checked ? (identity_ok ? "true" : "false") : "null";
  json += "\n}\n";

  table.Print();
  if (identity_checked) {
    std::printf("\neager-vs-virtualized identity at %d clients: %s\n",
                populations[0], identity_ok ? "bit-identical" : "DIVERGED");
  }
  if (!ok) return 1;

  if (!args.out.empty()) {
    std::ofstream out(args.out);
    out << json;
    std::printf("wrote %s\n", args.out.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace fedscope

int main(int argc, char** argv) { return fedscope::bench::Main(argc, argv); }
