// The write-behind SnapshotWriter (DESIGN.md §10): a writer thread
// persists each handed-over snapshot while the caller runs on, through a
// spare file. What reaches the directory and the counters must be what the
// synchronous atomic writer produced.

#include "fedscope/core/checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "fedscope/core/fed_runner.h"
#include "fedscope/data/synthetic_twitter.h"
#include "fedscope/nn/model_zoo.h"
#include "fedscope/util/logging.h"

namespace fedscope {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

/// Every file in `dir` by name, with its bytes.
std::map<std::string, std::string> ReadDir(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    files[entry.path().filename().string()] =
        std::string(std::istreambuf_iterator<char>(in), {});
  }
  return files;
}

Checkpoint RoundCheckpoint(int round) {
  Rng rng(static_cast<uint64_t>(round));
  Checkpoint ckpt;
  ckpt.round = round;
  ckpt.global_state = MakeMlp({4, 6, 2}, &rng).GetStateDict();
  ckpt.course.SetInt("round_tag", round);
  return ckpt;
}

FedJob MakeJob(const FedDataset* data) {
  FedJob job;
  job.data = data;
  Rng rng(5);
  job.init_model = MakeLogisticRegression(60, 2, &rng);
  job.server.concurrency = 8;
  job.server.max_rounds = 8;
  job.client.train.lr = 0.5;
  job.client.train.batch_size = 2;
  job.seed = 5;
  return job;
}

FedDataset TwitterData() {
  SyntheticTwitterOptions options;
  options.num_clients = 20;
  options.seed = 4;
  return MakeSyntheticTwitter(options);
}

TEST(SnapshotWriterTest, CourseLeavesTheAtomicWritersNamesAndBytes) {
  FedDataset data = TwitterData();
  const std::string dir = FreshDir("writer_course");
  const std::string reference_dir = FreshDir("writer_course_reference");
  // The snapshots the runner takes, captured from the server at the first
  // delivery after each round boundary (the state the runner exported).
  std::vector<Checkpoint> taken;
  {
    FedJob job = MakeJob(&data);
    job.snapshot.directory = dir;
    job.snapshot.every_n_rounds = 1;
    job.snapshot.keep_last = 2;
    FedRunner* runner_ptr = nullptr;
    int last_round = 0;
    job.delivery_tap = [&](const Message&) {
      Server* server = runner_ptr->server();
      if (server->round() == last_round) return;
      last_round = server->round();
      taken.emplace_back();
      server->ExportSnapshot(&taken.back());
    };
    FedRunner runner(std::move(job));
    runner_ptr = &runner;
    const RunResult result = runner.Run();
    ASSERT_EQ(result.server.rounds, 8);
    ASSERT_EQ(static_cast<int>(taken.size()), 8);
    EXPECT_EQ(runner.snapshot_writer().snapshots_written(), 8);
    // Run() returns with every snapshot on disk.
    EXPECT_TRUE(ReadCheckpointFile(dir + "/snapshot-000008.ckpt").ok());
  }

  // The reference: the parent protocol, one atomic write per snapshot and
  // the oldest beyond keep_last deleted.
  fs::create_directories(reference_dir);
  for (const Checkpoint& ckpt : taken) {
    char name[64];
    std::snprintf(name, sizeof(name), "snapshot-%06d.ckpt", ckpt.round);
    ASSERT_TRUE(
        WriteCheckpointFileAtomic(reference_dir + "/" + name, ckpt).ok());
    if (ckpt.round > 2) {
      std::snprintf(name, sizeof(name), "snapshot-%06d.ckpt", ckpt.round - 2);
      fs::remove(reference_dir + "/" + name);
    }
  }
  const auto written = ReadDir(dir);
  const auto reference = ReadDir(reference_dir);
  ASSERT_EQ(written.size(), 2u);  // no spare, no .tmp left behind
  EXPECT_TRUE(written == reference);
}

TEST(SnapshotWriterTest, FailedPersistSurfacesLaterAndIsNotCounted) {
  // A parent that is a regular file: mkdir fails with ENOTDIR, root or not.
  const std::string blocker = FreshDir("writer_blocker");
  { std::ofstream(blocker) << "not a directory"; }
  SnapshotPolicy policy;
  policy.directory = blocker + "/snapshots";
  {
    SnapshotWriter writer(policy);
    EXPECT_FALSE(writer.Write(RoundCheckpoint(1)).has_value());
    const std::optional<SnapshotPersist> failed =
        writer.Write(RoundCheckpoint(2));
    ASSERT_TRUE(failed.has_value());
    EXPECT_FALSE(failed->status.ok());
    EXPECT_EQ(failed->round, 1);
    const std::optional<SnapshotPersist> flushed = writer.Flush();
    ASSERT_TRUE(flushed.has_value());
    EXPECT_FALSE(flushed->status.ok());
    EXPECT_EQ(flushed->round, 2);
    EXPECT_FALSE(writer.Flush().has_value());
    EXPECT_EQ(writer.snapshots_written(), 0);
    EXPECT_EQ(writer.bytes_written(), 0);
  }

  // Through a runner: each failure is logged and reaches no sink.
  FedDataset data = TwitterData();
  FedJob job = MakeJob(&data);
  job.snapshot = policy;
  MetricsRegistry metrics;
  CourseLog log;
  job.obs.metrics = &metrics;
  job.obs.course_log = &log;
  int warnings = 0;
  Logging::set_sink([&](LogLevel level, const std::string& text) {
    if (level == LogLevel::kWarning &&
        text.find("snapshot write failed") != std::string::npos) {
      ++warnings;
    }
  });
  FedRunner runner(std::move(job));
  const RunResult result = runner.Run();
  Logging::set_sink(nullptr);
  EXPECT_EQ(warnings, result.server.rounds);
  EXPECT_EQ(runner.snapshot_writer().snapshots_written(), 0);
  EXPECT_EQ(metrics.CounterValue("fs_snapshots_written_total"), 0.0);
  for (const CourseRoundRecord& row : log.rounds()) {
    EXPECT_EQ(row.snapshots, 0) << "round " << row.round;
  }
}

TEST(SnapshotWriterTest, DestroyingTheWriterCompletesThePersistInFlight) {
  const std::string dir = FreshDir("writer_destroy");
  SnapshotPolicy policy;
  policy.directory = dir;
  {
    SnapshotWriter writer(policy);
    EXPECT_FALSE(writer.Write(RoundCheckpoint(3)).has_value());
  }
  auto loaded = ReadCheckpointFile(dir + "/snapshot-000003.ckpt");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->course.GetInt("round_tag"), 3);
  EXPECT_EQ(ReadDir(dir).size(), 1u);
}

TEST(SnapshotWriterTest, SpareLeftByAKilledWriterIsRewrittenToSize) {
  // A writer killed before its destructor leaves its spare behind; the next
  // writer persists through it, so the file must end at the new bytes.
  const std::string dir = FreshDir("writer_stale_spare");
  fs::create_directories(dir);
  { std::ofstream(dir + "/snapshot.spare") << std::string(100000, '#'); }
  SnapshotPolicy policy;
  policy.directory = dir;
  const Checkpoint ckpt = RoundCheckpoint(4);
  {
    SnapshotWriter writer(policy);
    writer.Write(ckpt);
    const std::optional<SnapshotPersist> done = writer.Flush();
    ASSERT_TRUE(done.has_value());
    ASSERT_TRUE(done->status.ok()) << done->status.ToString();
  }
  const std::vector<uint8_t> expected = EncodeCheckpointFile(ckpt);
  const auto files = ReadDir(dir);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files.begin()->first, "snapshot-000004.ckpt");
  EXPECT_EQ(files.begin()->second,
            std::string(expected.begin(), expected.end()));
}

TEST(SnapshotWriterTest, KeepLastValidFilesAfterEveryFlush) {
  for (const int keep_last : {1, 2, 3}) {
    const std::string dir =
        FreshDir("writer_keep_last_" + std::to_string(keep_last));
    SnapshotPolicy policy;
    policy.directory = dir;
    policy.keep_last = keep_last;
    SnapshotWriter writer(policy);
    int64_t bytes = 0;
    for (int round = 1; round <= 7; ++round) {
      const Checkpoint ckpt = RoundCheckpoint(round);
      bytes += static_cast<int64_t>(EncodeCheckpointFile(ckpt).size());
      writer.Write(ckpt);
      const std::optional<SnapshotPersist> done = writer.Flush();
      ASSERT_TRUE(done.has_value());
      ASSERT_TRUE(done->status.ok()) << done->status.ToString();
      // The newest keep_last rounds, each a valid file; the spare, once
      // there is one, is invisible to readers.
      const int oldest = std::max(1, round - keep_last + 1);
      for (int r = oldest; r <= round; ++r) {
        char name[64];
        std::snprintf(name, sizeof(name), "/snapshot-%06d.ckpt", r);
        auto loaded = ReadCheckpointFile(dir + name);
        ASSERT_TRUE(loaded.ok()) << "keep_last " << keep_last << " round "
                                 << round << ": " << name;
        EXPECT_EQ(loaded->course.GetInt("round_tag"), r);
      }
      int named = 0;
      for (const auto& [name, contents] : ReadDir(dir)) {
        if (name.rfind("snapshot-", 0) == 0) ++named;
      }
      EXPECT_EQ(named, round - oldest + 1);
      auto latest = LoadLatestSnapshot(dir);
      ASSERT_TRUE(latest.ok());
      EXPECT_EQ(latest->round, round);
    }
    EXPECT_EQ(writer.snapshots_written(), 7);
    EXPECT_EQ(writer.bytes_written(), bytes);
  }
}

TEST(SnapshotWriterTest, SnapshotCountsReachEverySink) {
  FedDataset data = TwitterData();
  const std::string dir = FreshDir("writer_sinks");
  FedJob job = MakeJob(&data);
  job.snapshot.directory = dir;
  job.snapshot.every_n_rounds = 1;
  MetricsRegistry metrics;
  CourseLog log;
  job.obs.metrics = &metrics;
  job.obs.course_log = &log;
  FedRunner runner(std::move(job));
  const RunResult result = runner.Run();

  const SnapshotWriter& writer = runner.snapshot_writer();
  EXPECT_EQ(writer.snapshots_written(), result.server.rounds);
  int64_t rows_snapshots = 0, rows_bytes = 0;
  for (const CourseRoundRecord& row : log.rounds()) {
    EXPECT_EQ(row.snapshots, 1) << "round " << row.round;
    rows_snapshots += row.snapshots;
    rows_bytes += row.snapshot_bytes;
  }
  EXPECT_EQ(rows_snapshots, writer.snapshots_written());
  EXPECT_EQ(rows_bytes, writer.bytes_written());
  EXPECT_EQ(metrics.CounterValue("fs_snapshots_written_total"),
            static_cast<double>(writer.snapshots_written()));
  EXPECT_EQ(metrics.CounterValue("fs_snapshot_bytes_total"),
            static_cast<double>(writer.bytes_written()));
}

}  // namespace
}  // namespace fedscope
