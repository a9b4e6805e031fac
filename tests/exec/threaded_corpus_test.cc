// Replays every tests/fuzz/corpus/*.course spec under the threaded
// execution backend and requires bit-identity with the serial run. This
// is the corpus's threaded twin: cheaper than the full oracle suite
// (FuzzCorpusTest already runs oracle 11 over the corpus), so the TSan CI
// job can afford it — TSan is the referee for the executor's data-race
// freedom while these runs exercise real pool concurrency.

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fedscope/testing/oracles.h"
#include "fedscope/util/logging.h"
#include "gtest/gtest.h"

namespace fedscope {
namespace testing {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> CorpusCourses() {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(FEDSCOPE_FUZZ_CORPUS_DIR)) {
    if (entry.path().extension() == ".course") files.push_back(entry.path());
  }
  return files;
}

/// First non-comment, non-blank line of a .course file.
std::string ReadSpecLine(const fs::path& path) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') return line;
  }
  return "";
}

TEST(ThreadedCorpusTest, CorpusReplaysBitIdenticallyUnderThreadedBackend) {
  Logging::set_min_level(LogLevel::kWarning);
  const auto files = CorpusCourses();
  ASSERT_FALSE(files.empty()) << "corpus missing: " << FEDSCOPE_FUZZ_CORPUS_DIR;
  for (const auto& file : files) {
    const std::string line = ReadSpecLine(file);
    ASSERT_FALSE(line.empty()) << file;
    auto spec = CourseSpec::FromString(line);
    ASSERT_TRUE(spec.ok()) << file << ": " << spec.status().ToString();
    CourseObservation serial = RunInstrumentedCourse(spec.value());
    for (int threads : {2, 4}) {
      SCOPED_TRACE(file.string() + " threads=" + std::to_string(threads));
      CourseObservation threaded =
          RunInstrumentedCourse(spec.value(), {.exec_threads = threads});
      EXPECT_EQ(serial.finished, threaded.finished);
      EXPECT_TRUE(serial.result.final_model.GetStateDict() ==
                  threaded.result.final_model.GetStateDict());
      EXPECT_EQ(serial.result.server.curve, threaded.result.server.curve);
      EXPECT_EQ(serial.result.server.rounds, threaded.result.server.rounds);
      EXPECT_EQ(serial.result.server.staleness_log,
                threaded.result.server.staleness_log);
      EXPECT_EQ(serial.result.client_test_accuracy,
                threaded.result.client_test_accuracy);
      EXPECT_EQ(serial.sent, threaded.sent);
      EXPECT_EQ(serial.delivered, threaded.delivered);
      EXPECT_EQ(serial.suppressed, threaded.suppressed);
    }
  }
  Logging::set_min_level(LogLevel::kInfo);
}

}  // namespace
}  // namespace testing
}  // namespace fedscope
