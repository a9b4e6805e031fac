#include "fedscope/obs/course_log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace fedscope {
namespace {

CourseRoundRecord MakeRound(int round, std::vector<int> contributors,
                            std::vector<int> staleness) {
  CourseRoundRecord r;
  r.round = round;
  r.trigger = "all_received";
  r.time = 10.0 * round;
  r.contributors = std::move(contributors);
  r.staleness = std::move(staleness);
  r.uplink_bytes = 100 * round;
  r.downlink_bytes = 200 * round;
  r.broadcasts = static_cast<int>(r.contributors.size());
  return r;
}

TEST(CourseLogTest, AppendsAndAggregates) {
  CourseLog log;
  log.Append(MakeRound(1, {1, 2, 3}, {0, 0, 1}));
  log.Append(MakeRound(2, {2, 3}, {0, 2}));
  EXPECT_EQ(log.num_rounds(), 2);
  EXPECT_EQ(log.TotalContributions(), 5);
  EXPECT_EQ(log.TotalUplinkBytes(), 300);
  EXPECT_EQ(log.TotalDownlinkBytes(), 600);
  EXPECT_EQ(log.AllStaleness(), (std::vector<int>{0, 0, 1, 0, 2}));
  log.Clear();
  EXPECT_EQ(log.num_rounds(), 0);
}

TEST(CourseLogTest, AggCountPerClientIsOneBased) {
  CourseLog log;
  log.Append(MakeRound(1, {1, 3}, {0, 0}));
  log.Append(MakeRound(2, {3}, {1}));
  const std::vector<int64_t> counts = log.AggCountPerClient(4);
  ASSERT_EQ(counts.size(), 5u);  // index 0 unused
  EXPECT_EQ(counts[0], 0);
  EXPECT_EQ(counts[1], 1);
  EXPECT_EQ(counts[2], 0);
  EXPECT_EQ(counts[3], 2);
  EXPECT_EQ(counts[4], 0);
}

TEST(CourseLogTest, JsonlOneObjectPerRound) {
  CourseLog log;
  CourseRoundRecord r = MakeRound(1, {4, 7}, {0, 1});
  r.dropped_stale = 1;
  r.declined = 2;
  r.evaluated = true;
  r.eval_accuracy = 0.75;
  r.eval_loss = 0.5;
  log.Append(r);
  log.Append(MakeRound(2, {4}, {0}));  // not evaluated
  const std::string jsonl = log.ToJsonl();
  std::istringstream is(jsonl);
  std::string line1, line2;
  ASSERT_TRUE(std::getline(is, line1));
  ASSERT_TRUE(std::getline(is, line2));
  EXPECT_EQ(line1,
            "{\"round\":1,\"trigger\":\"all_received\",\"time\":10.000000,"
            "\"contributors\":[4,7],\"staleness\":[0,1],\"uplink_bytes\":100,"
            "\"downlink_bytes\":200,\"broadcasts\":2,\"dropped_stale\":1,"
            "\"declined\":2,\"evaluated\":true,\"eval_accuracy\":0.75,"
            "\"eval_loss\":0.5}");
  // Eval fields are omitted for unevaluated rounds.
  EXPECT_EQ(line2.find("eval_accuracy"), std::string::npos);
  EXPECT_NE(line2.find("\"evaluated\":false"), std::string::npos);
  // Fault fields are omitted for fault-free rounds (both lines above), and
  // appear when a round saw dropouts or replacements.
  EXPECT_EQ(line1.find("dropouts"), std::string::npos);
  CourseRoundRecord faulty = MakeRound(3, {4}, {0});
  faulty.dropouts = 2;
  faulty.replacements = 1;
  log.Append(faulty);
  const std::string jsonl3 = log.ToJsonl();
  EXPECT_NE(jsonl3.find("\"dropouts\":2,\"replacements\":1"),
            std::string::npos);
}

TEST(CourseLogTest, CsvHeaderAndJoinedCells) {
  CourseLog log;
  log.Append(MakeRound(1, {1, 2}, {0, 3}));
  const std::string csv = log.ToCsv();
  std::istringstream is(csv);
  std::string header, row;
  ASSERT_TRUE(std::getline(is, header));
  ASSERT_TRUE(std::getline(is, row));
  EXPECT_EQ(header,
            "round,trigger,time,contributors,staleness,uplink_bytes,"
            "downlink_bytes,broadcasts,dropped_stale,declined,dropouts,"
            "replacements,snapshots,snapshot_bytes,evaluated,eval_accuracy,"
            "eval_loss");
  EXPECT_EQ(row,
            "1,all_received,10.000000,1;2,0;3,100,200,2,0,0,0,0,0,0,0,,");
}

TEST(CourseLogTest, AnnotateSnapshotMarksLastRoundOnly) {
  CourseLog log;
  log.AnnotateSnapshot(1, 123);  // empty log: no-op, no crash
  log.Append(MakeRound(1, {1}, {0}));
  log.Append(MakeRound(2, {2}, {0}));
  log.AnnotateSnapshot(2, 4096);
  EXPECT_EQ(log.rounds()[0].snapshots, 0);
  EXPECT_EQ(log.rounds()[1].snapshots, 1);
  EXPECT_EQ(log.rounds()[1].snapshot_bytes, 4096);
  const std::string jsonl = log.ToJsonl();
  std::istringstream is(jsonl);
  std::string line1, line2;
  ASSERT_TRUE(std::getline(is, line1));
  ASSERT_TRUE(std::getline(is, line2));
  // Snapshot keys appear only on the snapshotted round.
  EXPECT_EQ(line1.find("snapshots"), std::string::npos);
  EXPECT_NE(line2.find("\"snapshots\":1,\"snapshot_bytes\":4096"),
            std::string::npos);
}

TEST(CourseLogTest, IdenticalLogsExportIdentically) {
  auto build = [] {
    CourseLog log;
    log.Append(MakeRound(1, {1}, {0}));
    log.Append(MakeRound(2, {2, 3}, {1, 0}));
    return log;
  };
  EXPECT_EQ(build().ToJsonl(), build().ToJsonl());
  EXPECT_EQ(build().ToCsv(), build().ToCsv());
}

TEST(CourseLogTest, WriteFilesRoundTrip) {
  CourseLog log;
  log.Append(MakeRound(1, {1}, {0}));
  const std::string jsonl_path = ::testing::TempDir() + "/course.jsonl";
  const std::string csv_path = ::testing::TempDir() + "/course.csv";
  ASSERT_TRUE(log.WriteJsonl(jsonl_path).ok());
  ASSERT_TRUE(log.WriteCsv(csv_path).ok());
  auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  EXPECT_EQ(slurp(jsonl_path), log.ToJsonl());
  EXPECT_EQ(slurp(csv_path), log.ToCsv());
  std::remove(jsonl_path.c_str());
  std::remove(csv_path.c_str());
}

}  // namespace
}  // namespace fedscope
