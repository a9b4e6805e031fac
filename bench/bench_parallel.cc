// Wall-clock throughput of the threaded execution backend (DESIGN.md
// §12): the same course, same seed, run serially and on a worker pool of
// 1/2/4/8 helper threads, with the pump thread running tasks as well.
// Every threaded run is checked bit-identical to the serial reference
// before its time is reported — a speedup that changes the result would
// be worthless.
//
//   bench_parallel [--rounds=N] [--out=BENCH_parallel.json] [--smoke]
//
// Each of 5 reps runs the serial arm and then every threaded arm once;
// the table and the JSON report each arm's median over the reps. --smoke
// shrinks to one tiny course and one rep for the CI release-bench-smoke
// job.
//
// Truthfulness note: speedup is bounded by the CPUs of the machine the
// bench runs on; the JSON records host.num_cpus and the printout says so
// explicitly. On a 1-CPU host the threaded backend can only show its
// overhead, never a speedup — that is the honest number, not a tuning
// target (CLAUDE.md "experiment truthfulness").

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "fedscope/util/stats.h"

namespace fedscope {
namespace bench {
namespace {

struct Args {
  int rounds = 8;
  std::string out;
  bool smoke = false;
};

/// One bench course: every client sampled every round, zero jitter, and a
/// homogeneous fleet, so whole cohorts reach equal virtual time and the
/// parallel stage forms the widest batches the pump ever sees.
struct Course {
  std::string name;
  FedDataset data;
  std::function<Model(uint64_t)> model_factory;
  TrainConfig train;
};

Course MakeMlpCourse(int num_clients) {
  SyntheticCifarOptions options;
  options.num_clients = num_clients;
  options.pool_size = 60 * num_clients;
  options.image_size = 8;
  options.server_test_size = 256;
  options.seed = 5;
  Course c;
  c.name = "mlp/cifar";
  c.data = MakeSyntheticCifar(options);
  c.model_factory = [](uint64_t seed) {
    Rng rng(seed);
    return WithFlatten(MakeMlp({3 * 8 * 8, 64, 10}, &rng));
  };
  c.train.lr = 0.05;
  c.train.local_steps = 4;
  c.train.batch_size = 16;
  return c;
}

Course MakeConvNet2Course(int num_clients) {
  SyntheticFemnistOptions options;
  options.num_clients = num_clients;
  options.mean_samples = 40;
  options.image_size = 8;
  options.seed = 7;
  Course c;
  c.name = "convnet2/femnist";
  c.data = MakeSyntheticFemnist(options);
  c.model_factory = [](uint64_t seed) {
    Rng rng(seed);
    return MakeConvNet2(1, 8, 10, 64, 0.0, &rng);
  };
  c.train.lr = 0.05;
  c.train.local_steps = 2;
  c.train.batch_size = 16;
  return c;
}

FedJob MakeJob(const Course& c, int rounds, ExecutionBackend backend,
               int threads) {
  FedJob job;
  job.data = &c.data;
  job.init_model = c.model_factory(21);
  job.client.train = c.train;
  job.client.jitter_sigma = 0.0;
  job.server.concurrency = c.data.num_clients();
  job.server.max_rounds = rounds;
  job.seed = 21;
  job.exec.backend = backend;
  job.exec.num_threads = threads;
  return job;
}

struct Sample {
  double wall_ms = 0.0;
  RunResult result;
};

Sample TimeRun(const Course& c, int rounds, ExecutionBackend backend,
               int threads) {
  const auto start = std::chrono::steady_clock::now();
  Sample s;
  s.result = FedRunner(MakeJob(c, rounds, backend, threads)).Run();
  const auto end = std::chrono::steady_clock::now();
  s.wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  return s;
}

bool BitIdentical(RunResult& a, RunResult& b) {  // GetStateDict is non-const
  return a.final_model.GetStateDict() == b.final_model.GetStateDict() &&
         a.server.curve == b.server.curve &&
         a.server.rounds == b.server.rounds &&
         a.client_test_accuracy == b.client_test_accuracy;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg](const std::string& name) -> const char* {
      const std::string prefix = "--" + name + "=";
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + prefix.size()
                                       : nullptr;
    };
    if (const char* v = value("rounds")) {
      args->rounds = std::atoi(v);
    } else if (const char* v = value("out")) {
      args->out = v;
    } else if (arg == "--smoke") {
      args->smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_parallel [--rounds=N] [--out=FILE] "
                   "[--smoke]\n");
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  Logging::set_min_level(LogLevel::kWarning);

  const unsigned num_cpus = std::thread::hardware_concurrency();
  const std::vector<int> thread_counts = args.smoke ? std::vector<int>{2}
                                                    : std::vector<int>{1, 2, 4, 8};
  const int num_clients = args.smoke ? 8 : 40;
  const int rounds = args.smoke ? 2 : args.rounds;
  const int reps = args.smoke ? 1 : 5;

  std::vector<Course> courses;
  courses.push_back(MakeMlpCourse(num_clients));
  if (!args.smoke) courses.push_back(MakeConvNet2Course(num_clients));

  std::printf("bench_parallel: threaded execution backend throughput\n");
  std::printf("host CPUs: %u — each arm runs its helpers plus the pump "
              "thread;\nspeedup is capped at min(helpers + 1, CPUs);\n",
              num_cpus);
  std::printf("on a 1-CPU host the threaded rows measure pure overhead.\n");
  std::printf("wall ms: median of %d reps\n\n", reps);

  Table table({"course", "backend", "helpers", "wall ms", "ms/round",
               "speedup", "bit-identical"});
  std::string json = "{\n  \"schema\": 1,\n  \"time_unit\": \"ms\",\n";
  json += "  \"note\": \"wall-clock per course, serial vs threaded backend, "
          "each the median of `reps` interleaved runs; speedup = serial_ms / "
          "threaded_ms. threaded_ms is keyed by helper threads; the pump "
          "thread runs pool tasks too, so N helpers run up to N + 1 tasks at "
          "once. Threaded runs are verified bit-identical to serial before "
          "timing is reported. Speedup is bounded by host.num_cpus — on a "
          "1-CPU host threaded rows measure scheduling overhead, not "
          "parallelism.\",\n";
  json += "  \"reps\": " + std::to_string(reps) + ",\n";
  json += "  \"host\": {\n    \"num_cpus\": " + std::to_string(num_cpus) +
          "\n  },\n  \"courses\": {\n";

  bool all_identical = true;
  for (size_t ci = 0; ci < courses.size(); ++ci) {
    const Course& c = courses[ci];
    // Interleaved reps: a slow spell of the host lands on every arm alike.
    RunResult reference;
    std::vector<double> serial_samples;
    std::vector<std::vector<double>> threaded_samples(thread_counts.size());
    std::vector<bool> identical(thread_counts.size(), true);
    for (int rep = 0; rep < reps; ++rep) {
      Sample serial = TimeRun(c, rounds, ExecutionBackend::kSerial, 0);
      serial_samples.push_back(serial.wall_ms);
      if (rep == 0) reference = std::move(serial.result);
      for (size_t ti = 0; ti < thread_counts.size(); ++ti) {
        Sample threaded = TimeRun(c, rounds, ExecutionBackend::kThreaded,
                                  thread_counts[ti]);
        threaded_samples[ti].push_back(threaded.wall_ms);
        identical[ti] =
            identical[ti] && BitIdentical(reference, threaded.result);
      }
    }
    const double serial_ms = Quantile(serial_samples, 0.5);
    const int done_rounds =
        reference.server.rounds > 0 ? reference.server.rounds : 1;
    table.Row()
        .Str(c.name)
        .Str("serial")
        .Str("-")
        .Num(serial_ms, 1)
        .Num(serial_ms / done_rounds, 1)
        .Str("1.00x")
        .Str("ref");
    json += "    \"" + c.name + "\": {\n";
    json += "      \"rounds\": " + std::to_string(done_rounds) + ",\n";
    json += "      \"serial_ms\": " + std::to_string(serial_ms) + ",\n";
    json += "      \"threaded_ms\": {";
    bool course_identical = true;
    for (size_t ti = 0; ti < thread_counts.size(); ++ti) {
      const int threads = thread_counts[ti];
      const double threaded_ms = Quantile(threaded_samples[ti], 0.5);
      course_identical = course_identical && identical[ti];
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2fx", serial_ms / threaded_ms);
      table.Row()
          .Str(c.name)
          .Str("threaded")
          .Int(threads)
          .Num(threaded_ms, 1)
          .Num(threaded_ms / done_rounds, 1)
          .Str(buf)
          .Str(identical[ti] ? "yes" : "NO");
      json += std::string(ti == 0 ? "" : ", ") + "\"" +
              std::to_string(threads) +
              "\": " + std::to_string(threaded_ms);
    }
    all_identical = all_identical && course_identical;
    json += "},\n      \"bit_identical\": ";
    json += course_identical ? "true" : "false";
    json += "\n    }";
    json += ci + 1 < courses.size() ? ",\n" : "\n";
  }
  json += "  }\n}\n";

  table.Print();
  if (!all_identical) {
    std::printf("\nFAIL: a threaded run diverged from the serial "
                "reference\n");
    return 1;
  }
  std::printf("\nall threaded runs bit-identical to serial\n");

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
