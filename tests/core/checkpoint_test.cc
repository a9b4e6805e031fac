#include "fedscope/core/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>

#include "fedscope/comm/codec.h"
#include "fedscope/core/fed_runner.h"
#include "fedscope/data/synthetic_twitter.h"
#include "fedscope/nn/model_zoo.h"

namespace fedscope {
namespace {

// Write and Flush report a persist only once it completed; any reported
// one must have succeeded.
bool Persisted(const std::optional<SnapshotPersist>& persist) {
  return !persist.has_value() || persist->status.ok();
}

Checkpoint SampleCheckpoint() {
  Rng rng(1);
  Model model = MakeMlp({4, 6, 2}, &rng);
  Checkpoint ckpt;
  ckpt.round = 17;
  ckpt.virtual_time = 1234.5;
  ckpt.best_accuracy = 0.87;
  ckpt.global_state = model.GetStateDict();
  return ckpt;
}

TEST(CheckpointTest, SerializeRoundTrip) {
  Checkpoint ckpt = SampleCheckpoint();
  auto bytes = SerializeCheckpoint(ckpt);
  auto restored = DeserializeCheckpoint(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->round, 17);
  EXPECT_DOUBLE_EQ(restored->virtual_time, 1234.5);
  EXPECT_DOUBLE_EQ(restored->best_accuracy, 0.87);
  EXPECT_TRUE(restored->global_state == ckpt.global_state);
}

TEST(CheckpointTest, RejectsGarbage) {
  EXPECT_FALSE(DeserializeCheckpoint({1, 2, 3}).ok());
  // A valid payload that isn't a checkpoint.
  Payload p;
  p.SetInt("round", 1);
  EXPECT_FALSE(DeserializeCheckpoint(EncodePayload(p)).ok());
}

TEST(CheckpointTest, RefusesTheRetiredV1Format) {
  // v1 carried no parameter count and no course section; nothing writes
  // it any more, so a v1 payload is not a checkpoint.
  const Checkpoint ckpt = SampleCheckpoint();
  Payload v1;
  v1.SetInt("round", ckpt.round);
  v1.SetDouble("virtual_time", ckpt.virtual_time);
  v1.SetDouble("best_accuracy", ckpt.best_accuracy);
  v1.SetString("format", "fedscope-checkpoint-v1");
  v1.SetStateDict("global", ckpt.global_state);
  auto restored = DeserializeCheckpoint(EncodePayload(v1));
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().ToString().find("not a fedscope checkpoint"),
            std::string::npos)
      << restored.status().ToString();
}

TEST(CheckpointTest, RejectsTruncation) {
  auto bytes = SerializeCheckpoint(SampleCheckpoint());
  for (size_t len = 0; len < bytes.size(); len += 11) {
    std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + len);
    EXPECT_FALSE(DeserializeCheckpoint(cut).ok());
  }
}

TEST(CheckpointTest, NanAndInfRoundTripBitExactly) {
  // A NaN-poisoned or overflowed model must survive checkpointing
  // unmasked: recovery has to resume from what was actually there.
  Checkpoint ckpt = SampleCheckpoint();
  Tensor special({4});
  special.at(0) = std::numeric_limits<float>::quiet_NaN();
  special.at(1) = std::numeric_limits<float>::infinity();
  special.at(2) = -std::numeric_limits<float>::infinity();
  special.at(3) = -0.0f;
  ckpt.global_state.emplace("special", std::move(special));
  auto restored = DeserializeCheckpoint(SerializeCheckpoint(ckpt));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const Tensor& t = restored->global_state.at("special");
  for (int64_t k = 0; k < 4; ++k) {
    const float x = ckpt.global_state.at("special").at(k);
    const float y = t.at(k);
    EXPECT_EQ(std::memcmp(&x, &y, sizeof(float)), 0) << "index " << k;
  }
}

TEST(CheckpointTest, EmptyStateDictRoundTrips) {
  // A pre-start snapshot (round 0, no parameters exchanged yet) is legal:
  // the explicit parameter count tells it apart from a stripped file.
  Checkpoint ckpt;
  ckpt.round = 0;
  ckpt.course.SetInt("rng", 1);  // minimal course section marker
  auto restored = DeserializeCheckpoint(SerializeCheckpoint(ckpt));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored->global_state.empty());
  EXPECT_EQ(restored->course.GetInt("rng"), 1);
}

TEST(CheckpointTest, CourseSectionRoundTrips) {
  Checkpoint ckpt = SampleCheckpoint();
  ckpt.course.SetInt("started", 1);
  ckpt.course.SetDouble("stats/best_accuracy", 0.5);
  SetPackedU64s(&ckpt.course, "rng", {1, 2, 3});
  SetPackedDoubles(&ckpt.course, "stats/curve_times", {0.25, 1.5});
  auto restored = DeserializeCheckpoint(SerializeCheckpoint(ckpt));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->course.GetInt("started"), 1);
  EXPECT_DOUBLE_EQ(restored->course.GetDouble("stats/best_accuracy"), 0.5);
  EXPECT_EQ(GetPackedU64s(restored->course, "rng"),
            (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(GetPackedDoubles(restored->course, "stats/curve_times"),
            (std::vector<double>{0.25, 1.5}));
}

TEST(CheckpointFileTest, AtomicWriteReadBack) {
  const std::string path = ::testing::TempDir() + "/ckpt_roundtrip.ckpt";
  Checkpoint ckpt = SampleCheckpoint();
  auto written = WriteCheckpointFileAtomic(path, ckpt);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_GT(written.value(), 0);
  auto read = ReadCheckpointFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->round, ckpt.round);
  EXPECT_TRUE(read->global_state == ckpt.global_state);
  std::remove(path.c_str());
}

TEST(CheckpointFileTest, RejectsTruncatedFlippedAndWrongHeader) {
  const std::vector<uint8_t> file = EncodeCheckpointFile(SampleCheckpoint());
  // Truncation anywhere — header or payload — must reject, never crash.
  for (size_t len = 0; len < file.size(); len += 13) {
    std::vector<uint8_t> cut(file.begin(), file.begin() + len);
    EXPECT_FALSE(DecodeCheckpointFile(cut).ok()) << "len " << len;
  }
  // Any single flipped byte lands in magic, version, size, CRC, or the
  // CRC-protected payload; all must reject.
  for (size_t pos = 0; pos < file.size(); pos += 7) {
    std::vector<uint8_t> flipped = file;
    flipped[pos] ^= 0x40;
    EXPECT_FALSE(DecodeCheckpointFile(flipped).ok()) << "pos " << pos;
  }
  // Trailing garbage means the file is not what was written.
  std::vector<uint8_t> padded = file;
  padded.push_back(0);
  EXPECT_FALSE(DecodeCheckpointFile(padded).ok());
}

TEST(CheckpointFileTest, SnapshotWriterCadenceAndPruning) {
  const std::string dir = ::testing::TempDir() + "/snapshots_cadence";
  SnapshotPolicy policy;
  policy.directory = dir;
  policy.every_n_rounds = 2;
  policy.keep_last = 2;
  SnapshotWriter writer(policy);
  ASSERT_TRUE(writer.enabled());
  EXPECT_FALSE(writer.ShouldSnapshot(0));
  EXPECT_FALSE(writer.ShouldSnapshot(1));
  EXPECT_TRUE(writer.ShouldSnapshot(2));
  EXPECT_TRUE(writer.ShouldSnapshot(4));

  Checkpoint ckpt = SampleCheckpoint();
  for (int round : {2, 4, 6}) {
    ckpt.round = round;
    ASSERT_TRUE(Persisted(writer.Write(ckpt)));
  }
  ASSERT_TRUE(Persisted(writer.Flush()));
  EXPECT_EQ(writer.snapshots_written(), 3);
  // keep_last=2: the round-2 snapshot is pruned, the newest valid loads.
  auto latest = LoadLatestSnapshot(dir);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest->round, 6);
  ckpt.round = 2;
  EXPECT_FALSE(ReadCheckpointFile(dir + "/snapshot-000002.ckpt").ok());

  // Disabled policies never fire.
  SnapshotWriter disabled{SnapshotPolicy{}};
  EXPECT_FALSE(disabled.enabled());
  EXPECT_FALSE(disabled.ShouldSnapshot(2));
}

TEST(CheckpointFileTest, LoadLatestSkipsCorruptSnapshots) {
  const std::string dir = ::testing::TempDir() + "/snapshots_corrupt";
  SnapshotPolicy policy;
  policy.directory = dir;
  SnapshotWriter writer(policy);
  Checkpoint ckpt = SampleCheckpoint();
  ckpt.round = 1;
  ASSERT_TRUE(Persisted(writer.Write(ckpt)));
  ckpt.round = 2;
  ASSERT_TRUE(Persisted(writer.Write(ckpt)));
  ASSERT_TRUE(Persisted(writer.Flush()));
  // Corrupt the newest snapshot (a crash mid-rename cannot produce this —
  // the rename is atomic — but disks rot); recovery must fall back to the
  // older valid one.
  {
    std::FILE* f = std::fopen((dir + "/snapshot-000002.ckpt").c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 30, SEEK_SET);
    std::fputc(0xee, f);
    std::fclose(f);
  }
  auto latest = LoadLatestSnapshot(dir);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest->round, 1);
  // An empty/missing directory is NotFound, not a crash.
  EXPECT_EQ(LoadLatestSnapshot(::testing::TempDir() + "/no_such_dir")
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(CheckpointTest, RestoreModelLoadsParameters) {
  Checkpoint ckpt = SampleCheckpoint();
  Rng rng(9);
  Model other = MakeMlp({4, 6, 2}, &rng);
  ASSERT_FALSE(other.GetStateDict() == ckpt.global_state);
  ASSERT_TRUE(RestoreModel(ckpt, &other).ok());
  EXPECT_TRUE(other.GetStateDict() == ckpt.global_state);
}

TEST(CheckpointTest, RestoreModelRejectsWrongArchitecture) {
  Checkpoint ckpt = SampleCheckpoint();
  Rng rng(9);
  Model wrong = MakeMlp({4, 8, 2}, &rng);  // different hidden width
  EXPECT_FALSE(RestoreModel(ckpt, &wrong).ok());
}

TEST(CheckpointTest, FedCourseResumesFromCheckpoint) {
  // Export a snapshot of a short course, restore a second course from it,
  // and confirm the combined trajectory continues improving — the SHA/PBT
  // mechanism of §4.3.
  SyntheticTwitterOptions options;
  options.num_clients = 20;
  options.seed = 4;
  FedDataset data = MakeSyntheticTwitter(options);

  auto make_job = [&]() {
    FedJob job;
    job.data = &data;
    Rng rng(5);
    job.init_model = MakeLogisticRegression(60, 2, &rng);
    job.server.concurrency = 8;
    job.server.max_rounds = 5;
    job.client.train.lr = 0.5;
    job.client.train.batch_size = 2;
    job.seed = 5;
    return job;
  };

  RunResult first = FedRunner(make_job()).Run();
  Checkpoint ckpt;
  ckpt.round = first.server.rounds;
  ckpt.global_state = first.final_model.GetStateDict();
  auto bytes = SerializeCheckpoint(ckpt);

  auto restored = DeserializeCheckpoint(bytes);
  ASSERT_TRUE(restored.ok());
  FedJob resumed = make_job();
  ASSERT_TRUE(RestoreModel(*restored, &resumed.init_model).ok());
  RunResult second = FedRunner(std::move(resumed)).Run();

  EXPECT_GE(second.server.final_accuracy,
            first.server.final_accuracy - 0.05);
  // A cold 5-round run should not beat the 5+5 resumed run by much.
  RunResult cold = FedRunner(make_job()).Run();
  EXPECT_GE(second.server.final_accuracy, cold.server.final_accuracy - 0.1);
}

}  // namespace
}  // namespace fedscope
