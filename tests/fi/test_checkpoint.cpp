/**
 * @file
 * Unit tests for the sweep checkpoint journal: config digesting, cell
 * JSON round trips, and the journal's tolerance of corrupt, stale,
 * torn and out-of-range cell files.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <utility>

#include "core/checkpoint.hh"
#include "fi/durable.hh"
#include "fi/injector.hh"
#include "obs/deferral.hh"
#include "obs/stats.hh"

namespace dfault::core {
namespace {

CharacterizationCampaign::Params
someParams()
{
    CharacterizationCampaign::Params p;
    p.workload.footprintBytes = 4 << 20;
    p.workload.workScale = 0.5;
    p.integrator.epochs = 30;
    return p;
}

std::vector<workloads::WorkloadConfig>
someSuite()
{
    return {{"kmeans", 8, "kmeans(par)"}, {"srad", 1, "srad"}};
}

std::vector<dram::OperatingPoint>
somePoints()
{
    return {{1.173, 1.428, 50.0}, {2.283, 1.428, 60.0}};
}

Measurement
someMeasurement()
{
    Measurement m;
    m.label = "kmeans(par)";
    m.threads = 8;
    m.requested = {1.173, 1.428, 50.0};
    m.achieved = {1.173, 1.428, 50.37};
    m.run.werSeries = {1e-9, 2.5e-9, 0.1 + 0.2}; // non-trivial double
    m.run.cePerDevice = {3.0, 0.0};
    m.run.wordsPerDevice = {1024.0, 1024.0};
    m.run.crashed = true;
    m.run.crashEpoch = 17;
    m.run.crashDevice = 1;
    m.run.expectedSdc = 0.125;
    m.run.allocatedWords = 2048.0;
    return m;
}

struct JournalTest : ::testing::Test
{
    std::string dir = ::testing::TempDir() + "dfault_ckpt_" +
                      ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name();

    void TearDown() override { std::filesystem::remove_all(dir); }
};

TEST(ConfigDigest, StableForIdenticalConfigs)
{
    EXPECT_EQ(sweepConfigDigest(someParams(), someSuite(), somePoints()),
              sweepConfigDigest(someParams(), someSuite(), somePoints()));
}

TEST(ConfigDigest, SensitiveToEveryResultParameter)
{
    const auto base =
        sweepConfigDigest(someParams(), someSuite(), somePoints());

    auto p = someParams();
    p.integrator.epochs = 31;
    EXPECT_NE(sweepConfigDigest(p, someSuite(), somePoints()), base);

    p = someParams();
    p.workload.workScale = 0.75;
    EXPECT_NE(sweepConfigDigest(p, someSuite(), somePoints()), base);

    p = someParams();
    p.useThermalLoop = !p.useThermalLoop;
    EXPECT_NE(sweepConfigDigest(p, someSuite(), somePoints()), base);

    auto suite = someSuite();
    suite[0].threads = 4;
    EXPECT_NE(sweepConfigDigest(someParams(), suite, somePoints()), base);

    auto points = somePoints();
    points[1].temperature = 70.0;
    EXPECT_NE(sweepConfigDigest(someParams(), someSuite(), points), base);
}

TEST(ConfigDigest, IndependentOfResilienceKnobs)
{
    // Retry/quarantine/checkpoint settings do not change results, so a
    // journal must survive changing them between runs.
    const auto base =
        sweepConfigDigest(someParams(), someSuite(), somePoints());
    auto p = someParams();
    p.taskRetries = 9;
    p.failFast = true;
    p.checkpointDir = "/somewhere/else";
    EXPECT_EQ(sweepConfigDigest(p, someSuite(), somePoints()), base);
}

TEST(CheckpointCellJson, RoundTripIsExact)
{
    CheckpointCell cell;
    cell.cell = 3;
    cell.measurement = someMeasurement();
    cell.statOps.push_back(
        {obs::StatOp::Kind::CounterInc, "campaign.measurements",
         "characterization experiments completed", 1.0});
    cell.statOps.push_back({obs::StatOp::Kind::HistRecord, "campaign.wer",
                            "measured aggregate WER per experiment",
                            1.7654321012345678e-6});

    const std::uint64_t digest = 0xabcdef0123456789ULL;
    const std::string text = checkpointCellJson(cell, digest);

    CheckpointCell loaded;
    std::string error;
    ASSERT_TRUE(checkpointCellFromJson(text, digest, loaded, &error))
        << error;
    EXPECT_EQ(loaded.cell, 3u);
    const Measurement &m = loaded.measurement;
    const Measurement want = someMeasurement();
    EXPECT_EQ(m.label, want.label);
    EXPECT_EQ(m.threads, want.threads);
    EXPECT_DOUBLE_EQ(m.requested.trefp, want.requested.trefp);
    EXPECT_DOUBLE_EQ(m.achieved.temperature, want.achieved.temperature);
    ASSERT_EQ(m.run.werSeries.size(), want.run.werSeries.size());
    for (std::size_t i = 0; i < want.run.werSeries.size(); ++i)
        EXPECT_EQ(m.run.werSeries[i], want.run.werSeries[i])
            << "bit-exact double round trip";
    EXPECT_EQ(m.run.cePerDevice, want.run.cePerDevice);
    EXPECT_EQ(m.run.crashed, want.run.crashed);
    EXPECT_EQ(m.run.crashEpoch, want.run.crashEpoch);
    EXPECT_EQ(m.run.crashDevice, want.run.crashDevice);
    EXPECT_EQ(m.run.expectedSdc, want.run.expectedSdc);
    EXPECT_EQ(m.run.allocatedWords, want.run.allocatedWords);

    ASSERT_EQ(loaded.statOps.size(), 2u);
    EXPECT_EQ(loaded.statOps[0].kind, obs::StatOp::Kind::CounterInc);
    EXPECT_EQ(loaded.statOps[0].name, "campaign.measurements");
    EXPECT_EQ(loaded.statOps[1].kind, obs::StatOp::Kind::HistRecord);
    EXPECT_EQ(loaded.statOps[1].value, 1.7654321012345678e-6);
}

/**
 * The cell as an older build wrote it: its campaign.wer_log10 op
 * carries the retired linear-distribution tag "d" with that kind's
 * range fields.
 */
std::string
cellWithRetiredDistributionOp(std::uint64_t digest)
{
    CheckpointCell cell;
    cell.cell = 0;
    cell.measurement = someMeasurement();
    cell.statOps.push_back({obs::StatOp::Kind::HistRecord,
                            "campaign.wer_log10",
                            "log10 of measured aggregate WER", -5.25});
    std::string text = checkpointCellJson(cell, digest);
    const std::size_t tag = text.find("\"k\":\"h\"");
    EXPECT_NE(tag, std::string::npos);
    text.replace(tag, 7, "\"k\":\"d\"");
    text.insert(text.find('}', tag), ",\"lo\":-14,\"hi\":0,\"b\":28");
    return text;
}

/** The cell with a gauge-set op, the retired "gs" kind. */
std::string
cellWithRetiredGaugeSetOp(std::uint64_t digest)
{
    CheckpointCell cell;
    cell.cell = 0;
    cell.measurement = someMeasurement();
    cell.statOps.push_back({obs::StatOp::Kind::GaugeAdd, "campaign.level",
                            "a gauge", 2.5});
    std::string text = checkpointCellJson(cell, digest);
    const std::size_t tag = text.find("\"k\":\"ga\"");
    EXPECT_NE(tag, std::string::npos);
    text.replace(tag, 8, "\"k\":\"gs\"");
    return text;
}

TEST(CheckpointCellJson, RejectsRetiredDistributionOp)
{
    // Rejected whole, never partly applied: the RecordDir path then
    // quarantines the file and the sweep re-measures the cell.
    const std::pair<std::string, std::string> retired[] = {
        {cellWithRetiredDistributionOp(7), "d"},
        {cellWithRetiredGaugeSetOp(7), "gs"},
    };
    for (const auto &[text, tag] : retired) {
        CheckpointCell out;
        std::string error;
        EXPECT_FALSE(checkpointCellFromJson(text, 7, out, &error)) << tag;
        EXPECT_NE(error.find("unknown kind tag '" + tag + "'"),
                  std::string::npos)
            << error;
        EXPECT_TRUE(out.statOps.empty());
    }
}

TEST(CheckpointCellJson, RejectsWrongDigestAndGarbage)
{
    CheckpointCell cell;
    cell.cell = 0;
    cell.measurement = someMeasurement();
    const std::string text = checkpointCellJson(cell, 1);

    CheckpointCell out;
    std::string error;
    EXPECT_FALSE(checkpointCellFromJson(text, 2, out, &error));
    EXPECT_NE(error.find("configuration"), std::string::npos);

    EXPECT_FALSE(checkpointCellFromJson("not json at all", 1, out,
                                        &error));
    EXPECT_FALSE(checkpointCellFromJson("{}", 1, out, &error));
    EXPECT_FALSE(checkpointCellFromJson(
        text.substr(0, text.size() / 2), 1, out, &error));
}

TEST_F(JournalTest, StoreLoadRoundTrip)
{
    CheckpointJournal journal;
    journal.open(dir, 42);
    ASSERT_TRUE(journal.enabled());

    CheckpointCell a;
    a.cell = 0;
    a.measurement = someMeasurement();
    CheckpointCell b;
    b.cell = 2;
    b.measurement = someMeasurement();
    b.measurement.label = "srad";
    ASSERT_TRUE(journal.store(a));
    ASSERT_TRUE(journal.store(b));

    const auto cells = journal.load(4);
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells.at(0).measurement.label, "kmeans(par)");
    EXPECT_EQ(cells.at(2).measurement.label, "srad");
}

TEST_F(JournalTest, SkipsCorruptStaleAndOutOfRangeCells)
{
    CheckpointJournal journal;
    journal.open(dir, 42);

    CheckpointCell good;
    good.cell = 1;
    good.measurement = someMeasurement();
    ASSERT_TRUE(journal.store(good));

    // Out of range for a 2-cell sweep.
    CheckpointCell outside;
    outside.cell = 7;
    outside.measurement = someMeasurement();
    ASSERT_TRUE(journal.store(outside));

    // A cell journaled by a different configuration.
    CheckpointJournal other;
    other.open(dir, 43);
    CheckpointCell stale;
    stale.cell = 0;
    stale.measurement = someMeasurement();
    ASSERT_TRUE(other.store(stale));

    // Garbage that merely looks like a cell file.
    ASSERT_TRUE(
        fi::atomicWriteFile(dir + "/cell-000099.json", "{broken"));

    const auto cells = journal.load(2);
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells.begin()->first, 1u);
}

TEST_F(JournalTest, TornCellIsQuarantined)
{
    obs::Registry reg;
    CheckpointJournal journal;
    journal.open(dir, 42, &reg);

    // Cell 0's write lands half its body; cell 1's lands whole.
    fi::Injector::instance().arm("journal.torn_segment:below=1");
    CheckpointCell torn;
    torn.cell = 0;
    torn.measurement = someMeasurement();
    CheckpointCell intact;
    intact.cell = 1;
    intact.measurement = someMeasurement();
    const bool stored = journal.store(torn) && journal.store(intact);
    fi::Injector::instance().disarm();
    ASSERT_TRUE(stored);

    const auto cells = journal.load(2);
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells.begin()->first, 1u);
    EXPECT_TRUE(std::filesystem::exists(dir +
                                        "/cell-000000.json.quarantined"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/cell-000000.json"));
    EXPECT_EQ(reg.value("journal.quarantined_files"), 1.0);
}

TEST_F(JournalTest, CellFromAnOlderBuildIsQuarantined)
{
    obs::Registry reg;
    CheckpointJournal journal;
    journal.open(dir, 42, &reg);
    CheckpointCell intact;
    intact.cell = 1;
    intact.measurement = someMeasurement();
    ASSERT_TRUE(journal.store(intact));
    ASSERT_TRUE(fi::atomicWriteFile(dir + "/cell-000000.json",
                                    cellWithRetiredDistributionOp(42)));

    const auto cells = journal.load(2);
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells.begin()->first, 1u);
    EXPECT_TRUE(std::filesystem::exists(dir +
                                        "/cell-000000.json.quarantined"));
    EXPECT_EQ(reg.value("journal.quarantined_files"), 1.0);
}

TEST_F(JournalTest, DisabledJournalLoadsNothing)
{
    CheckpointJournal journal;
    EXPECT_FALSE(journal.enabled());
    EXPECT_TRUE(journal.load(8).empty());
}

} // namespace
} // namespace dfault::core
