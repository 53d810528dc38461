/**
 * @file
 * Tests for core::RunSession: the artifact epilogue runs when the
 * session is destroyed, and malformed run keys are fatal (exit 1, the
 * installed signal handlers notwithstanding).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/run_session.hh"
#include "obs/json.hh"

namespace dfault::core {
namespace {

obs::JsonValue
readJson(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream body;
    body << in.rdbuf();
    std::string error;
    const auto doc = obs::jsonParse(body.str(), &error);
    EXPECT_TRUE(doc.has_value()) << path << ": " << error;
    return doc.value_or(obs::JsonValue{});
}

/** Construct and destroy a session from @p args (argv[0] supplied). */
void
runSession(std::initializer_list<const char *> args)
{
    std::vector<const char *> argv{"test_run_session"};
    argv.insert(argv.end(), args);
    RunSession session(static_cast<int>(argv.size()), argv.data());
}

TEST(RunSession, DestructorWritesStatsAndManifest)
{
    const std::string dir = testing::TempDir() + "run_session_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string stats = dir + "/stats.json";
    const std::string stats_arg = "stats_out=" + stats;
    const std::string quarantine_arg =
        "quarantine_out=" + dir + "/quarantine.json";
    const char *argv[] = {"/any/dir/session_tool", stats_arg.c_str(),
                          quarantine_arg.c_str(), "threads=2",
                          "footprint_mib=1", "--progress", "extra"};
    {
        RunSession session(7, argv);
        ASSERT_EQ(session.positional().size(), 1u);
        EXPECT_EQ(session.positional()[0], "extra");
        EXPECT_FALSE(std::filesystem::exists(stats));
    }

    ASSERT_TRUE(std::filesystem::exists(stats));
    ASSERT_TRUE(std::filesystem::exists(stats + ".manifest.json"));
    const obs::JsonValue manifest = readJson(stats + ".manifest.json");
    ASSERT_TRUE(manifest.isObject());
    ASSERT_NE(manifest.find("tool"), nullptr);
    EXPECT_EQ(manifest.find("tool")->string, "session_tool");
    ASSERT_NE(manifest.find("threads"), nullptr);
    EXPECT_EQ(manifest.find("threads")->number, 2.0);

    const obs::JsonValue *config = manifest.find("config");
    ASSERT_NE(config, nullptr);
    ASSERT_TRUE(config->isObject());
    const std::map<std::string, std::string> expected = {
        {"footprint_mib", "1"},
        {"progress", "true"},
        {"quarantine_out", dir + "/quarantine.json"},
        {"stats_out", stats},
        {"threads", "2"},
    };
    EXPECT_EQ(config->object.size(), expected.size());
    for (const auto &[key, value] : expected) {
        ASSERT_NE(config->find(key), nullptr) << key;
        EXPECT_EQ(config->find(key)->string, value) << key;
    }
    // Nothing was quarantined, so no report is written.
    EXPECT_FALSE(std::filesystem::exists(dir + "/quarantine.json"));
}

struct RunSessionDeathTest : ::testing::Test
{
    void SetUp() override
    {
        ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    }
};

TEST_F(RunSessionDeathTest, FootprintOutOfRangeIsFatal)
{
    EXPECT_EXIT(runSession({"footprint_mib=0"}),
                testing::ExitedWithCode(1),
                "footprint_mib.*outside the allowed range");
}

TEST_F(RunSessionDeathTest, FlagNamingNoSessionKeyIsFatal)
{
    EXPECT_EXIT(runSession({"--no-such-flag"}), testing::ExitedWithCode(1),
                "unknown flag '--no-such-flag'");
    // Retired profiling keys are no longer session keys.
    EXPECT_EXIT(runSession({"--perf-counters"}),
                testing::ExitedWithCode(1), "unknown flag '--perf-counters'");
    EXPECT_EXIT(runSession({"--alloc-track"}), testing::ExitedWithCode(1),
                "unknown flag '--alloc-track'");
}

} // namespace
} // namespace dfault::core
