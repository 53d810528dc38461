/**
 * @file
 * Unit tests for the characterization campaign driver: thermal-loop
 * coupling, sweep bookkeeping, PUE stats at any pool size, the
 * operating-point grids, and the device-intensity memo (bit-identical
 * to a fresh campaign, dropped by a ProfileCache clear).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "core/characterization.hh"
#include "dram/error_log.hh"
#include "features/extractor.hh"
#include "fi/injector.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "obs/stats.hh"
#include "par/pool.hh"

namespace dfault::core {
namespace {

sys::Platform &
sharedPlatform()
{
    static sys::Platform platform([] {
        sys::Platform::Params p;
        p.hierarchy.l1.sizeBytes = 16 * 1024;
        p.hierarchy.l2.sizeBytes = 1 << 20;
        p.exec.timeDilation = sys::dilationForFootprint(2 << 20);
        return p;
    }());
    return platform;
}

CharacterizationCampaign::Params
smallParams(bool thermal)
{
    CharacterizationCampaign::Params p;
    p.workload.footprintBytes = 2 << 20;
    p.workload.workScale = 0.5;
    p.integrator.epochs = 30;
    p.useThermalLoop = thermal;
    return p;
}

TEST(Campaign, ThermalLoopCompensatesSelfHeating)
{
    // A busy workload dissipates DRAM power; the PID loop must still
    // regulate each DIMM to the requested temperature.
    CharacterizationCampaign campaign(sharedPlatform(),
                                      smallParams(true));
    const Measurement m = campaign.measure(
        {"srad", 8, "srad(par)"}, {1.173, dram::kMinVdd, 60.0});
    EXPECT_NEAR(m.achieved.temperature, 60.0, 0.6);
}

TEST(Campaign, ThermalLoopOffUsesRequestedTemperature)
{
    CharacterizationCampaign campaign(sharedPlatform(),
                                      smallParams(false));
    const Measurement m = campaign.measure(
        {"srad", 8, "srad(par)"}, {1.173, dram::kMinVdd, 60.0});
    EXPECT_DOUBLE_EQ(m.achieved.temperature, 60.0);
}

TEST(Campaign, SweepCoversTheGrid)
{
    CharacterizationCampaign campaign(sharedPlatform(),
                                      smallParams(false));
    const std::vector<workloads::WorkloadConfig> suite{
        {"kmeans", 8, "kmeans(par)"}, {"srad", 1, "srad"}};
    const std::vector<dram::OperatingPoint> points{
        {1.173, dram::kMinVdd, 50.0}, {2.283, dram::kMinVdd, 50.0}};
    const auto measurements = campaign.sweep(suite, points);
    ASSERT_EQ(measurements.size(), 4u);
    EXPECT_EQ(measurements[0].label, "kmeans(par)");
    EXPECT_EQ(measurements[1].requested.trefp, 2.283);
    EXPECT_EQ(measurements[3].label, "srad");
}

TEST(Campaign, MeasurePueCountsCrashes)
{
    CharacterizationCampaign campaign(sharedPlatform(),
                                      smallParams(false));
    const std::vector<double> mild = campaign.measurePue(
        {{"kmeans", 8, "kmeans(par)"}}, {{0.618, dram::kMinVdd, 50.0}}, 3);
    ASSERT_EQ(mild.size(), 1u);
    EXPECT_DOUBLE_EQ(mild[0], 0.0);
}

/** @p v as canonical JSON text, numbers round-trip exact. */
std::string
canonicalJson(const obs::JsonValue &v)
{
    switch (v.kind) {
      case obs::JsonValue::Kind::Null:
        return "null";
      case obs::JsonValue::Kind::Bool:
        return v.boolean ? "true" : "false";
      case obs::JsonValue::Kind::Number:
        return obs::jsonNumber(v.number);
      case obs::JsonValue::Kind::String:
        return "\"" + obs::jsonEscape(v.string) + "\"";
      case obs::JsonValue::Kind::Array: {
        std::string out = "[";
        for (const obs::JsonValue &item : v.array)
            out += canonicalJson(item) + ",";
        return out + "]";
      }
      case obs::JsonValue::Kind::Object: {
        std::string out = "{";
        for (const auto &[key, item] : v.object)
            out += "\"" + key + "\":" + canonicalJson(item) + ",";
        return out + "}";
      }
    }
    return "";
}

/** The registry's digested stats, one "name=json" line each. */
std::string
digestedStatsJson()
{
    const auto doc = obs::jsonParse(obs::Registry::instance().toJson());
    EXPECT_TRUE(doc.has_value());
    std::string out;
    for (const auto &[name, value] : doc->object)
        if (!obs::digestExcludes(name))
            out += name + "=" + canonicalJson(value) + "\n";
    return out;
}

TEST(Campaign, MeasurePueStatsAreScheduleIndependent)
{
    // Repeats of the whole grid run on pool workers; the stats they
    // publish (float sums such as the campaign.wer histogram mean
    // included) must not depend on which worker ran which repeat.
    const int threads_before = par::Pool::global().threads();
    CharacterizationCampaign campaign(sharedPlatform(),
                                      smallParams(true));
    const workloads::WorkloadConfig config{"srad", 8, "srad(par)"};
    const auto points = werOperatingPoints();
    campaign.measurePue({config}, {points[0]}, 1); // warm the profile cache

    std::vector<std::string> runs;
    for (const int threads : {1, 4}) {
        par::Pool::setGlobalThreads(threads);
        obs::Registry::instance().resetAll();
        campaign.measurePue({config}, points, 4);
        runs.push_back(digestedStatsJson());
    }
    par::Pool::setGlobalThreads(threads_before);

    EXPECT_NE(runs[0].find("campaign.wer={"), std::string::npos);
    EXPECT_NE(runs[0].find("thermal.settle_steps={"), std::string::npos);
    EXPECT_EQ(runs[1], runs[0]);
}

TEST(Campaign, OperatingPointGridsMatchThePaper)
{
    const auto wer_points = werOperatingPoints();
    // 4 TREFP levels x {50, 60} C plus the two UE-free 70 C points.
    EXPECT_EQ(wer_points.size(), 10u);
    for (const auto &op : wer_points) {
        EXPECT_DOUBLE_EQ(op.vdd, dram::kMinVdd);
        if (op.temperature >= 70.0) {
            EXPECT_LE(op.trefp, 1.2);
        }
    }

    const auto pue_points = pueOperatingPoints();
    ASSERT_EQ(pue_points.size(), 3u);
    for (const auto &op : pue_points)
        EXPECT_DOUBLE_EQ(op.temperature, 70.0);
}

TEST(Campaign, DilationRuleIsInverseInFootprint)
{
    EXPECT_DOUBLE_EQ(sys::dilationForFootprint(16 << 20), 200.0);
    EXPECT_DOUBLE_EQ(sys::dilationForFootprint(8 << 20), 400.0);
    EXPECT_DOUBLE_EQ(sys::dilationForFootprint(32 << 20), 100.0);
}

TEST(Campaign, DataPatternAblationToggleWorks)
{
    // With the vulnerability gate off, rows of both orientations see
    // the same v = 0.5; the aggregate WER must still be positive and
    // deterministic.
    CharacterizationCampaign::Params p = smallParams(false);
    p.integrator.dataPatternVulnerability = false;
    CharacterizationCampaign campaign(sharedPlatform(), p);
    const Measurement a = campaign.measure(
        {"srad", 8, "srad(par)"}, {2.283, dram::kMinVdd, 60.0});
    const Measurement b = campaign.measure(
        {"srad", 8, "srad(par)"}, {2.283, dram::kMinVdd, 60.0});
    EXPECT_GT(a.run.wer(), 0.0);
    EXPECT_DOUBLE_EQ(a.run.wer(), b.run.wer());
}

TEST(Campaign, ErrorLogLeavesMeasurementUnchanged)
{
    // Record sampling draws from its own stream: attaching an error
    // log (as fig09 does) must not move CE, UE or crash outcomes, or
    // Fig 9a would report different PUE data than Fig 12 trains on.
    const auto bits = [](const std::vector<double> &values) {
        std::vector<std::uint64_t> out;
        for (const double v : values)
            out.push_back(std::bit_cast<std::uint64_t>(v));
        return out;
    };
    CharacterizationCampaign campaign(sharedPlatform(),
                                      smallParams(true));
    int crashes = 0;
    for (const dram::OperatingPoint &op : pueOperatingPoints()) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            SCOPED_TRACE(::testing::Message()
                         << op.trefp << " s, seed " << seed);
            dram::ErrorLog log(sharedPlatform().geometry());
            const RunResult bare =
                campaign.measure({"backprop", 8, "backprop(par)"}, op,
                                 seed)
                    .run;
            const RunResult logged =
                campaign.measure({"backprop", 8, "backprop(par)"}, op,
                                 seed, &log)
                    .run;
            EXPECT_EQ(bits(logged.werSeries), bits(bare.werSeries));
            EXPECT_EQ(bits(logged.cePerDevice), bits(bare.cePerDevice));
            EXPECT_EQ(bits(logged.wordsPerDevice),
                      bits(bare.wordsPerDevice));
            EXPECT_EQ(logged.crashed, bare.crashed);
            EXPECT_EQ(logged.crashEpoch, bare.crashEpoch);
            EXPECT_EQ(logged.crashDevice, bare.crashDevice);
            EXPECT_EQ(bits({logged.expectedSdc, logged.allocatedWords}),
                      bits({bare.expectedSdc, bare.allocatedWords}));
            EXPECT_GT(log.records().size(), 0u);
            crashes += bare.crashed;
        }
    }
    // The comparison covers runs a UE ends early, not only survivors.
    EXPECT_GT(crashes, 0);
}

/** Every field of @p r, doubles as hex floats: equal iff bit-equal. */
std::string
hexRun(const RunResult &r)
{
    std::string out;
    const auto add = [&out](double v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%a ", v);
        out += buf;
    };
    out += "wer:";
    for (const double v : r.werSeries)
        add(v);
    out += "\nce:";
    for (const double v : r.cePerDevice)
        add(v);
    out += "\nwords:";
    for (const double v : r.wordsPerDevice)
        add(v);
    out += "\nsdc:";
    add(r.expectedSdc);
    out += "alloc:";
    add(r.allocatedWords);
    out += "\ncrash:" + std::to_string(r.crashed) + " @" +
           std::to_string(r.crashEpoch) + " dev " +
           std::to_string(r.crashDevice);
    return out;
}

/** measure() on a campaign built for this one measurement. */
RunResult
freshMeasure(const CharacterizationCampaign::Params &params,
             const workloads::WorkloadConfig &config,
             const dram::OperatingPoint &op, std::uint64_t seed)
{
    CharacterizationCampaign fresh(sharedPlatform(), params);
    return fresh.measure(config, op, seed).run;
}

TEST(Campaign, RepeatMeasurementsMatchAFreshCampaign)
{
    // One long-lived campaign computes each cell's device intensities
    // once and reuses them for every later seed; each result must be
    // bit-identical to a campaign that has measured nothing before.
    const CharacterizationCampaign::Params params = smallParams(true);
    CharacterizationCampaign campaign(sharedPlatform(), params);
    const std::vector<workloads::WorkloadConfig> suite{
        {"backprop", 8, "backprop(par)"}, {"srad", 1, "srad"}};
    std::vector<dram::OperatingPoint> points = pueOperatingPoints();
    points.push_back({1.173, dram::kMinVdd, 60.0});
    int crashes = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed)
        for (const auto &config : suite)
            for (const auto &op : points) {
                SCOPED_TRACE(::testing::Message()
                             << config.label << " @ " << op.label()
                             << ", seed " << seed);
                const RunResult memo =
                    campaign.measure(config, op, seed).run;
                EXPECT_EQ(hexRun(memo),
                          hexRun(freshMeasure(params, config, op, seed)));
                crashes += memo.crashed;
            }
    // The comparison covers runs a UE ends early, not only survivors.
    EXPECT_GT(crashes, 0);
}

TEST(Campaign, ProfileCacheClearDropsTheIntensityMemo)
{
    // A profile cached after a clear() can take the freed address of
    // one cached before it. Measuring B at A's operating point (the
    // thermal loop is off, so both achieve exactly it) after a clear
    // must not reuse A's intensities.
    const CharacterizationCampaign::Params params = smallParams(false);
    CharacterizationCampaign campaign(sharedPlatform(), params);
    const workloads::WorkloadConfig a{"kmeans", 8, "kmeans(par)"};
    const workloads::WorkloadConfig b{"srad", 8, "srad(par)"};
    const dram::OperatingPoint op{2.283, dram::kMinVdd, 60.0};

    auto &cache = features::ProfileCache::instance();
    cache.clear();
    const RunResult ra = campaign.measure(a, op, 1).run;
    cache.clear();
    const RunResult rb = campaign.measure(b, op, 1).run;
    const RunResult want = freshMeasure(params, b, op, 1);
    EXPECT_NE(hexRun(ra), hexRun(want)); // the two configs differ
    EXPECT_EQ(hexRun(rb), hexRun(want));
}

TEST(Campaign, CorruptedMeasurementLeavesTheMemoClean)
{
    // measure.nan garbles one measurement's result after integration;
    // the memo holds only intensities, so the next measurement of the
    // same cell is unaffected.
    const CharacterizationCampaign::Params params = smallParams(true);
    CharacterizationCampaign campaign(sharedPlatform(), params);
    const workloads::WorkloadConfig config{"srad", 8, "srad(par)"};
    const dram::OperatingPoint op{2.283, dram::kMinVdd, 60.0};
    auto &inj = fi::Injector::instance();
    inj.arm("measure.nan");
    const RunResult garbled = campaign.measure(config, op, 1).run;
    inj.disarm();
    ASSERT_TRUE(std::isnan(garbled.werSeries.back()));
    EXPECT_EQ(hexRun(campaign.measure(config, op, 1).run),
              hexRun(freshMeasure(params, config, op, 1)));
}

} // namespace
} // namespace dfault::core
