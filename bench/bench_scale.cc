// Cross-device scale with client virtualization (DESIGN.md §13): one
// course per population size at 1k / 10k / 100k / 1M descriptor-only
// participants, cohort fixed at 32. Reports time per round (by
// differencing a 1-round and a 101-round run, which cancels the course
// start and end both runs pay; an untimed warm-up run first absorbs the
// allocator/page-fault noise that would otherwise swamp the
// sub-millisecond round signal) and the process peak RSS after each
// population's runs. A rounds axis then runs the 1M population for 100,
// 1000 and 3000 rounds: every round suspends about 32 more clients, so
// the growth of the heap in use at course end between two rows, divided
// by the growth of the suspended count (evictions - restores), is the heap
// a suspended client costs. The headline reading is the last two rows'.
//
//   bench_scale [--out=BENCH_scale.json] [--smoke]
//
// --smoke shrinks the population curve to 1k/10k and the rounds axis to
// 10k clients at 10/100/300 rounds, for the CI scale-smoke job.
//
// Truthfulness notes:
// * peak_rss_kb is the process-wide VmHWM high-water mark sampled after
//   each population's runs. It is monotone across the curve; populations
//   run in ascending order so each reading is dominated by its own
//   stage, but it is a ceiling, not an isolated measurement. -1 means
//   /proc/self/status was unavailable.
// * The rounds axis reads heap in use, not RSS: glibc's
//   mallinfo2().uordblks, which sums every arena, taken when the course
//   ends and before the runner is torn down. A ceiling cannot see records
//   that fit under the peak an earlier, larger course left, and a helper
//   thread's arena raises RSS by what it reserves, not by what the course
//   holds. Sanitizer builds replace malloc, so there the reading is
//   informational, and nothing gates on it.
// * The memory proof is the live-client counter, not RSS: peak live
//   Clients must stay within the cache capacity + 1 (the pre-Trim
//   transient) at every population, or the bench fails.
// * At the smallest population the virtualized run is verified
//   bit-identical to an eagerly instantiated run of the same course
//   (oracle 12's differential); the larger populations are too big to
//   instantiate eagerly — which is the point.

#include <malloc.h>

#include <chrono>
#include <cmath>
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
  /// Heap in use over every arena when the course ended, with the runner
  /// and its suspended records still alive.
  int64_t heap_bytes = 0;
};

Sample TimeRun(const ClientDataProvider* provider, int rounds) {
  const auto start = std::chrono::steady_clock::now();
  Sample s;
  FedRunner runner(MakeJob(provider, rounds));
  s.result = runner.Run();
  s.cache = runner.client_cache()->stats();
  const auto end = std::chrono::steady_clock::now();
  s.wall_ms = std::chrono::duration<double, std::milli>(end - start).count();
  s.heap_bytes = static_cast<int64_t>(mallinfo2().uordblks);
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

/// One row of the rounds axis.
struct RoundsRow {
  int rounds = 0;
  double wall_ms = 0.0;
  int64_t suspended = 0;
  int64_t heap_bytes = 0;
  int64_t rss_kb = -1;
};

/// Heap bytes per suspended client between rows `a` and `b`: the growth of
/// the heap in use at course end over the suspended-count growth; -1 when
/// nothing more was suspended.
double BytesPerSuspended(const RoundsRow& a, const RoundsRow& b) {
  if (b.suspended <= a.suspended) return -1;
  return static_cast<double>(b.heap_bytes - a.heap_bytes) /
         static_cast<double>(b.suspended - a.suspended);
}

std::string JsonNumber(double v) {
  return v < 0 ? "null" : std::to_string(v);
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
      "cache_capacity + 1 regardless of population. rounds_axis runs "
      "one population for more and more rounds after the curve; suspended "
      "= evictions - restores at course end, heap_bytes is glibc's "
      "mallinfo2().uordblks (heap in use over every arena) at course end "
      "before the runner is torn down, and bytes_per_suspended is the "
      "heap_bytes growth over the suspended growth between consecutive "
      "rows; bytes_per_suspended_client is the last two rows' reading.\",\n";
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
  json += ",\n";

  table.Print();
  if (identity_checked) {
    std::printf("\neager-vs-virtualized identity at %d clients: %s\n",
                populations[0], identity_ok ? "bit-identical" : "DIVERGED");
  }

  // Rounds axis: suspended clients are the one per-client cost that grows
  // with rounds rather than population.
  const int axis_population = args.smoke ? 10000 : 1000000;
  const std::vector<int> axis_rounds = args.smoke
                                           ? std::vector<int>{10, 100, 300}
                                           : std::vector<int>{100, 1000, 3000};
  const ProceduralDataProvider axis_provider(
      MakeDataOptions(axis_population));
  std::printf("\nrounds axis: %d clients\n", axis_population);
  Table rounds_table({"rounds", "course ms", "suspended", "heap MB",
                      "peak RSS MB", "B/suspended"});
  json += "  \"rounds_axis\": {\n    \"population\": " +
          std::to_string(axis_population) + ",\n    \"rounds\": {\n";
  std::vector<RoundsRow> rows;
  for (size_t ri = 0; ri < axis_rounds.size(); ++ri) {
    Sample run = TimeRun(&axis_provider, axis_rounds[ri]);
    RoundsRow row;
    row.rounds = axis_rounds[ri];
    row.wall_ms = run.wall_ms;
    row.suspended = run.cache.evictions - run.cache.restores;
    row.heap_bytes = run.heap_bytes;
    row.rss_kb = PeakRssKb();
    const double per_client =
        ri == 0 ? -1.0 : BytesPerSuspended(rows.back(), row);
    rows.push_back(row);
    rounds_table.Row()
        .Int(row.rounds)
        .Num(row.wall_ms, 1)
        .Int(row.suspended)
        .Num(row.heap_bytes / (1024.0 * 1024.0), 1)
        .Num(row.rss_kb >= 0 ? row.rss_kb / 1024.0 : -1.0, 1)
        .Str(per_client < 0 ? "-" : std::to_string(std::lround(per_client)));
    json += "      \"" + std::to_string(row.rounds) + "\": {\n";
    json += "        \"wall_ms\": " + std::to_string(row.wall_ms) + ",\n";
    json += "        \"evictions\": " + std::to_string(run.cache.evictions) +
            ",\n";
    json += "        \"restores\": " + std::to_string(run.cache.restores) +
            ",\n";
    json += "        \"suspended\": " + std::to_string(row.suspended) +
            ",\n";
    json += "        \"heap_bytes\": " + std::to_string(row.heap_bytes) +
            ",\n";
    json += "        \"peak_rss_kb\": " + std::to_string(row.rss_kb) + ",\n";
    json += "        \"bytes_per_suspended_vs_previous\": " +
            JsonNumber(per_client) + "\n";
    json += "      }";
    json += ri + 1 < axis_rounds.size() ? ",\n" : "\n";
  }
  // The last two rows: the longest courses, whose records dwarf the rest
  // of what a course holds at its end.
  const RoundsRow& from = rows[rows.size() - 2];
  const double per_client = BytesPerSuspended(from, rows.back());
  json += "    },\n    \"bytes_per_suspended_client\": " +
          JsonNumber(per_client) + "\n  }\n}\n";
  rounds_table.Print();
  std::printf("heap per suspended client, %d to %d rounds: %.0f B\n",
              from.rounds, rows.back().rounds, per_client);
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
