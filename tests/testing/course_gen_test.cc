#include "fedscope/testing/course_gen.h"

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <variant>

#include "gtest/gtest.h"

namespace fedscope {
namespace testing {
namespace {

TEST(CourseGenTest, SampleIsDeterministic) {
  for (uint64_t seed : {1u, 7u, 42u, 9001u}) {
    EXPECT_EQ(CourseGen::Sample(seed), CourseGen::Sample(seed))
        << "seed " << seed;
  }
  EXPECT_NE(CourseGen::Sample(1), CourseGen::Sample(2));
}

TEST(CourseGenTest, SampledSpecsAreValidAndClampIdempotent) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    const CourseSpec spec = CourseGen::Sample(seed);
    EXPECT_TRUE(CourseGen::Validate(spec).ok())
        << "seed " << seed << ": " << CourseGen::Validate(spec).ToString();
    EXPECT_EQ(CourseGen::Clamp(spec), spec) << "seed " << seed;
  }
}

TEST(CourseGenTest, SamplingCoversTheStrategyMatrix) {
  std::set<std::string> strategies, personalizations, compressions,
      aggregators;
  bool saw_wire = false, saw_faults = false, saw_dp = false;
  bool saw_hostile = false;
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    const CourseSpec s = CourseGen::Sample(seed);
    strategies.insert(s.strategy);
    personalizations.insert(s.personalization);
    compressions.insert(s.compression);
    aggregators.insert(s.aggregator);
    saw_wire |= s.through_wire;
    saw_dp |= s.dp_enable;
    saw_faults |= s.HasLossyFaults() || s.fault_msg_duplicate_prob > 0.0;
    saw_hostile |= s.Hostile();
  }
  EXPECT_EQ(strategies.size(), 4u);
  EXPECT_EQ(personalizations.size(), 4u);
  EXPECT_EQ(compressions.size(), 3u);
  // 5 sampled rules plus krum, which enters via Clamp's hostile remap
  // (fednova -> krum on hostile specs).
  EXPECT_EQ(aggregators.size(), 6u);
  EXPECT_TRUE(aggregators.count("krum"));
  EXPECT_TRUE(saw_wire);
  EXPECT_TRUE(saw_dp);
  EXPECT_TRUE(saw_faults);
  EXPECT_TRUE(saw_hostile);
}

TEST(CourseGenTest, ConfigRoundTripPreservesEverySpec) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    const CourseSpec spec = CourseGen::Sample(seed);
    auto from_string = CourseSpec::FromString(spec.ToString());
    ASSERT_TRUE(from_string.ok()) << from_string.status().ToString();
    EXPECT_EQ(from_string.value(), spec) << "seed " << seed;
  }
}

/// The repro line's values, by key.
std::map<std::string, std::string> ReproFields(const CourseSpec& spec) {
  std::map<std::string, std::string> fields;
  std::istringstream in(spec.ToString());
  for (std::string token; std::getline(in, token, ',');) {
    const size_t eq = token.find('=');
    fields[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return fields;
}

TEST(CourseGenTest, EveryFieldRowOwnsOneKey) {
  const auto before = ReproFields(CourseSpec{});
  std::set<std::string> keys;
  for (const SpecField& f : SpecFields()) {
    EXPECT_TRUE(keys.insert(f.key).second) << "duplicate key " << f.key;
    CourseSpec changed;
    std::visit(
        [&changed](auto member) {
          auto& value = changed.*member;
          using T = std::decay_t<decltype(value)>;
          if constexpr (std::is_same_v<T, bool>) {
            value = !value;
          } else if constexpr (std::is_same_v<T, std::string>) {
            value += "x";
          } else {
            value += 1;
          }
        },
        f.member);
    const auto after = ReproFields(changed);
    ASSERT_EQ(after.size(), before.size()) << f.key;
    for (const auto& [key, value] : before) {
      EXPECT_EQ(after.at(key) != value, key == f.key)
          << "changing row " << f.key << "'s member moved key " << key;
    }
  }
  EXPECT_EQ(keys.size(), before.size());
}

TEST(CourseGenTest, FromConfigRejectsUnknownKeys) {
  Config c = CourseGen::Sample(1).ToConfig();
  c.Set("stratagy", std::string("sync_vanilla"));  // typo must not pass
  EXPECT_FALSE(CourseSpec::FromConfig(c).ok());
}

TEST(CourseGenTest, ValidateRejectsOutOfLatticeSpecs) {
  CourseSpec s = CourseGen::Sample(1);
  s.concurrency = s.num_clients + 5;
  EXPECT_FALSE(CourseGen::Validate(s).ok());

  CourseSpec storm;
  storm.strategy = "async_time";
  storm.broadcast = "after_receiving";
  storm.fault_msg_duplicate_prob = 0.3;
  storm.suppress_duplicates = false;
  EXPECT_FALSE(CourseGen::Validate(storm).ok());
  // The clamp repairs the storm by requiring delivery-side dedup.
  EXPECT_TRUE(CourseGen::Clamp(storm).suppress_duplicates);
}

TEST(CourseGenTest, ClampEnforcesSyncDeadlineUnderLossyFaults) {
  CourseSpec s;
  s.strategy = "sync_vanilla";
  s.fault_msg_loss_prob = 0.2;
  s.receive_deadline = 0.0;
  EXPECT_GT(CourseGen::Clamp(s).receive_deadline, 0.0);
}

TEST(CourseGenTest, FixtureBuildsRunnableJobForEveryModelFamily) {
  for (const char* model : {"mlp", "logreg", "mlp_bn"}) {
    CourseSpec s = CourseGen::Sample(3);
    s.model = model;
    s = CourseGen::Clamp(s);
    auto fixture = MakeCourseFixture(s);
    FedJob job = fixture->MakeJob();
    EXPECT_EQ(job.data, &fixture->data);
    EXPECT_GT(job.init_model.GetStateDict().size(), 0u) << model;
  }
}

}  // namespace
}  // namespace testing
}  // namespace fedscope
