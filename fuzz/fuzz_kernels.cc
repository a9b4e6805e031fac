// Differential fuzzer for the tensor kernels and the wire codec
// (DESIGN.md §9): tiled vs scalar-reference kernels over random shapes
// (exact equality — the determinism contract), random + mutated codec
// frames, and structurally mutated model updates (must return Status,
// never crash).
//
//   fuzz_kernels [--trials=N] [--seed=S]

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "fedscope/testing/kernel_fuzz.h"
#include "fedscope/util/logging.h"

int main(int argc, char** argv) {
  int trials = 500;
  uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trials=", 0) == 0) {
      trials = std::atoi(arg.c_str() + 9);
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else {
      std::cerr << "usage: fuzz_kernels [--trials=N] [--seed=S]\n";
      return 2;
    }
  }
  fedscope::Logging::set_min_level(fedscope::LogLevel::kWarning);

  const auto kernels = fedscope::testing::FuzzKernels(seed, trials);
  const auto codec = fedscope::testing::FuzzCodec(seed, trials);

  int violations = 0;
  for (const auto* report : {&kernels, &codec}) {
    violations += static_cast<int>(report->violations.size());
    if (!report->violations.empty()) {
      std::cerr << fedscope::testing::FormatViolations(report->violations);
    }
  }
  if (violations > 0) {
    std::cerr << "FAIL: " << violations << " violations; repro: fuzz_kernels"
              << " --trials=" << trials << " --seed=" << seed << "\n";
    return 1;
  }
  std::cout << "OK: " << kernels.trials << " kernel trials + "
            << codec.trials << " codec trials, 0 violations (seed " << seed
            << ")\n";
  return 0;
}
