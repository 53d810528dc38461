/**
 * @file
 * Run manifest tests: digest determinism (and its nondeterministic-
 * stat exclusions), manifest JSON shape, and the file writer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>

#include "obs/json.hh"
#include "obs/manifest.hh"
#include "obs/stats.hh"

namespace dfault::obs {
namespace {

TEST(StatsDigest, ExcludesWallClockDependentStats)
{
    EXPECT_TRUE(digestExcludes("time.sweep.seconds"));
    EXPECT_TRUE(digestExcludes("time.sweep.calls"));
    EXPECT_TRUE(digestExcludes("time.sweep.exclusive_seconds"));
    EXPECT_TRUE(digestExcludes("par.tasks_executed"));
    EXPECT_TRUE(digestExcludes("par.phase.sweep.speedup"));
    EXPECT_TRUE(digestExcludes("campaign.host_seconds"));
    EXPECT_TRUE(digestExcludes("platform.exec.last_cpi"));

    EXPECT_FALSE(digestExcludes("campaign.measurements"));
    EXPECT_FALSE(digestExcludes("ml.folds"));
}

TEST(StatsDigest, ExcludesWallClockHistogramsByName)
{
    // A path segment ending in _ns holds wall-clock nanoseconds.
    EXPECT_TRUE(digestExcludes("campaign.cell_ns"));
    EXPECT_TRUE(digestExcludes("serve.latency_ns.critical"));
    // Deterministic histograms are digested like any other stat.
    EXPECT_FALSE(digestExcludes("campaign.wer"));
    EXPECT_FALSE(digestExcludes("thermal.settle_steps"));
}

TEST(StatsDigest, StableAcrossTimingVariation)
{
    Registry a;
    a.counter("campaign.measurements", "n").inc(12);
    a.gauge("time.sweep.seconds", "t").set(1.25);
    a.counter("par.tasks_executed", "n").inc(96);

    Registry b;
    b.counter("campaign.measurements", "n").inc(12);
    b.gauge("time.sweep.seconds", "t").set(9.75); // different timing
    b.counter("par.tasks_executed", "n").inc(17); // different schedule

    EXPECT_EQ(statsDigest(&a), statsDigest(&a)); // self-stable
    EXPECT_EQ(statsDigest(&a), statsDigest(&b)); // timing-independent
}

TEST(StatsDigest, ToleratesFloatReassociationNoise)
{
    // Summing in a different order across thread counts moves
    // accumulated gauges by an ulp; the digest must not see that.
    Registry a;
    a.gauge("dram.sdc_expected", "x").set(0.000155505);
    Registry b;
    b.gauge("dram.sdc_expected", "x")
        .set(0.000155505 * (1.0 + 1e-15));
    EXPECT_EQ(statsDigest(&a), statsDigest(&b));
}

TEST(StatsDigest, ChangesWhenDeterministicStatsChange)
{
    Registry a;
    a.counter("campaign.measurements", "n").inc(12);
    Registry b;
    b.counter("campaign.measurements", "n").inc(13);
    EXPECT_NE(statsDigest(&a), statsDigest(&b));
}

TEST(StatsDigest, ChangesWhenAHistogramRecordChanges)
{
    const auto withWers = [](std::initializer_list<double> wers,
                             double cell_ns) {
        auto reg = std::make_unique<Registry>();
        reg->counter("campaign.measurements", "n").inc(3);
        reg->histogram("campaign.cell_ns").record(cell_ns);
        for (const double wer : wers)
            reg->histogram("campaign.wer").record(wer);
        return reg;
    };
    const std::uint64_t digest =
        statsDigest(withWers({2.0e-6, 3.5e-5, 4.0e-7}, 1.0e6).get());
    // Wall-clock histograms do not count...
    EXPECT_EQ(statsDigest(withWers({2.0e-6, 3.5e-5, 4.0e-7}, 7.0e6).get()),
              digest);
    // ...but one campaign.wer record more, or one scaled by 1.01, does.
    EXPECT_NE(
        statsDigest(withWers({2.0e-6, 3.5e-5, 4.0e-7, 1.0e-6}, 1.0e6).get()),
        digest);
    EXPECT_NE(statsDigest(withWers({2.0e-6, 3.5e-5, 4.04e-7}, 1.0e6).get()),
              digest);
}

TEST(Manifest, JsonHasRequiredFieldsAndParses)
{
    Registry reg;
    reg.counter("campaign.measurements", "n").inc(3);
    reg.gauge("time.sweep.seconds", "t").set(0.5);

    ManifestInfo info;
    info.tool = "fig07_wer_sweep";
    info.command = "fig07_wer_sweep trace_events=out.json";
    info.config = {{"seed", "1234"}, {"epochs", "64"}};
    info.threads = 8;
    info.statsPath = "stats.json";
    info.tracePath = "out.json";
    info.wallSeconds = 2.5;

    std::string error;
    const auto doc = jsonParse(manifestJson(info, &reg), &error);
    ASSERT_TRUE(doc.has_value()) << error;

    EXPECT_EQ(doc->find("tool")->string, "fig07_wer_sweep");
    EXPECT_DOUBLE_EQ(doc->find("threads")->number, 8.0);
    EXPECT_DOUBLE_EQ(doc->find("wall_seconds")->number, 2.5);
    EXPECT_EQ(doc->find("stats_out")->string, "stats.json");
    EXPECT_EQ(doc->find("trace_events")->string, "out.json");

    const JsonValue *config = doc->find("config");
    ASSERT_NE(config, nullptr);
    EXPECT_EQ(config->find("seed")->string, "1234");

    const JsonValue *build = doc->find("build");
    ASSERT_NE(build, nullptr);
    EXPECT_NE(build->find("compiler"), nullptr);

    const JsonValue *stats = doc->find("stats");
    ASSERT_NE(stats, nullptr);
    // 16 hex digits of FNV-1a; one of the two stats is digested.
    EXPECT_EQ(stats->find("digest")->string.size(), 16u);
    EXPECT_DOUBLE_EQ(stats->find("total")->number, 2.0);
    EXPECT_DOUBLE_EQ(stats->find("digested")->number, 1.0);
}

TEST(Manifest, BuildInfoParses)
{
    std::string error;
    const auto doc = jsonParse(buildInfoJson(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    ASSERT_NE(doc->find("asan"), nullptr);
    ASSERT_NE(doc->find("tsan"), nullptr);
    ASSERT_NE(doc->find("assertions"), nullptr);
}

TEST(Manifest, WriteManifestFileRoundTrips)
{
    Registry reg;
    reg.counter("campaign.measurements", "n").inc(1);
    ManifestInfo info;
    info.tool = "dfault";
    info.command = "dfault --stats-out s.json";

    const std::string path =
        testing::TempDir() + "dfault_manifest_test.json";
    ASSERT_TRUE(writeManifestFile(path, info, &reg));

    std::ifstream in(path);
    std::stringstream body;
    body << in.rdbuf();
    std::string error;
    EXPECT_TRUE(jsonParse(body.str(), &error).has_value()) << error;
    std::remove(path.c_str());
}

} // namespace
} // namespace dfault::obs
