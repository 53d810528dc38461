/**
 * @file
 * Campaign-level resilience tests: quarantine semantics of a faulted
 * sweep, retry recovery producing bit-identical results (sweep cells
 * and PUE repeats alike), checkpoint resume (including a real
 * mid-sweep kill), and stats-digest equality between interrupted and
 * uninterrupted runs.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/characterization.hh"
#include "core/checkpoint.hh"
#include "core/dataset_builder.hh"
#include "features/extractor.hh"
#include "fi/injector.hh"
#include "obs/manifest.hh"
#include "obs/stats.hh"
#include "par/cancel.hh"
#include "par/pool.hh"

namespace dfault::core {
namespace {

sys::Platform::Params
smallPlatform()
{
    sys::Platform::Params p;
    p.hierarchy.l1.sizeBytes = 16 * 1024;
    p.hierarchy.l2.sizeBytes = 1 << 20;
    p.exec.timeDilation = sys::dilationForFootprint(2 << 20);
    return p;
}

CharacterizationCampaign::Params
smallParams()
{
    CharacterizationCampaign::Params p;
    p.workload.footprintBytes = 2 << 20;
    p.workload.workScale = 0.25;
    p.integrator.epochs = 20;
    p.useThermalLoop = false;
    return p;
}

const std::vector<workloads::WorkloadConfig> kSuite{
    {"kmeans", 8, "kmeans(par)"}, {"srad", 1, "srad"}};
const std::vector<dram::OperatingPoint> kPoints{
    {1.173, 1.428, 50.0}, {2.283, 1.428, 60.0}};

/** Fresh stats + profile cache, so runs can be digest-compared. */
void
resetObservability()
{
    obs::Registry::instance().resetAll();
    features::ProfileCache::instance().clear();
}

std::vector<double>
wers(const std::vector<Measurement> &measurements)
{
    std::vector<double> out;
    out.reserve(measurements.size());
    for (const auto &m : measurements)
        out.push_back(m.quarantined ? -1.0 : m.run.wer());
    return out;
}

struct CampaignResilienceTest : ::testing::Test
{
    std::string dir = ::testing::TempDir() + "dfault_resume_" +
                      ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name();

    void TearDown() override
    {
        fi::Injector::instance().disarm();
        par::Pool::global().disableWatchdog();
        par::resetCancellation();
        std::filesystem::remove_all(dir);
    }
};

TEST_F(CampaignResilienceTest, AllFailingCellsQuarantineWithoutAborting)
{
    // task.throw fires on every attempt of every cell; with all
    // retries exhausted the whole grid is quarantined — and the sweep
    // still returns instead of throwing. after=2 spares the profile
    // batch (one check per suite workload, arriving before any cell)
    // so the failure lands in the quarantine path, not profiling.
    fi::Injector::instance().arm("task.throw:after=2");
    sys::Platform platform(smallPlatform());
    auto params = smallParams();
    params.taskRetries = 1;
    CharacterizationCampaign campaign(platform, params);

    const auto measurements = campaign.sweep(kSuite, kPoints);
    ASSERT_EQ(measurements.size(), 4u);
    for (const auto &m : measurements) {
        EXPECT_TRUE(m.quarantined);
        EXPECT_NE(m.failure.find("task.throw"), std::string::npos);
        EXPECT_FALSE(m.label.empty());
    }
    const auto &report = campaign.lastQuarantine();
    ASSERT_EQ(report.size(), 4u);
    EXPECT_EQ(report[0].cell, 0u);
    EXPECT_EQ(report[0].attempts, 2); // 1 + taskRetries
    EXPECT_EQ(report[3].cell, 3u);
}

TEST_F(CampaignResilienceTest, RetriedFaultsYieldBitIdenticalResults)
{
    sys::Platform platform(smallPlatform());
    CharacterizationCampaign clean(platform, smallParams());
    const auto reference = wers(clean.sweep(kSuite, kPoints));

    // Every task (profile extraction and measurement cells alike)
    // fails its first attempt; one retry recovers all of them and the
    // recovered results match the clean run exactly.
    fi::Injector::instance().arm("task.throw:max_attempt=1");
    sys::Platform platform2(smallPlatform());
    auto params = smallParams();
    params.taskRetries = 1;
    CharacterizationCampaign faulted(platform2, params);
    const auto measurements = faulted.sweep(kSuite, kPoints);

    EXPECT_TRUE(faulted.lastQuarantine().empty());
    EXPECT_EQ(wers(measurements), reference);
    EXPECT_GE(fi::Injector::instance().firedCount("task.throw"), 4u);
}

TEST_F(CampaignResilienceTest, MeasurePueRecoversFromRetriedFaults)
{
    // PUE repeats share the sweep's retry budget: every task (profile
    // extraction and repeats alike) fails its first attempt, one retry
    // recovers all of them, and the PUE grid matches a clean run.
    // 70 C at the longest TREFP crashes, so the grid is not all zero.
    const std::vector<dram::OperatingPoint> points{{1.173, 1.428, 50.0},
                                                   {2.283, 1.428, 70.0}};
    sys::Platform platform(smallPlatform());
    CharacterizationCampaign clean(platform, smallParams());
    const auto reference = clean.measurePue(kSuite, points, 3);
    ASSERT_EQ(reference.size(), 4u);
    EXPECT_GT(reference[1] + reference[3], 0.0);

    fi::Injector::instance().arm("task.throw:max_attempt=1");
    sys::Platform platform2(smallPlatform());
    auto params = smallParams();
    params.taskRetries = 1;
    CharacterizationCampaign faulted(platform2, params);
    EXPECT_EQ(faulted.measurePue(kSuite, points, 3), reference);
    EXPECT_GE(fi::Injector::instance().firedCount("task.throw"), 12u);
}

TEST_F(CampaignResilienceTest, FailFastSweepThrowsBatchError)
{
    fi::Injector::instance().arm("task.throw:after=2");
    sys::Platform platform(smallPlatform());
    auto params = smallParams();
    params.taskRetries = 0;
    params.failFast = true;
    CharacterizationCampaign campaign(platform, params);
    EXPECT_THROW((void)campaign.sweep(kSuite, kPoints), par::BatchError);
}

TEST_F(CampaignResilienceTest, CorruptedMeasurementsAreKeptOutOfDatasets)
{
    fi::Injector::instance().arm("measure.nan");
    sys::Platform platform(smallPlatform());
    CharacterizationCampaign campaign(platform, smallParams());
    const auto m =
        campaign.measure({"srad", 1, "srad"}, {1.173, 1.428, 50.0});
    ASSERT_FALSE(m.run.werSeries.empty());
    EXPECT_TRUE(std::isnan(m.run.werSeries.back()));
    fi::Injector::instance().disarm();

    // The NaN target is quarantined at dataset assembly, not trained on.
    const auto data = makeWerDataset({m}, 0, InputSet::Set1);
    EXPECT_EQ(data.size(), 0u);
}

TEST_F(CampaignResilienceTest, ResumeReproducesResultsAndStatsDigest)
{
    sys::Platform platform(smallPlatform());
    auto params = smallParams();
    params.checkpointDir = dir;

    resetObservability();
    CharacterizationCampaign first(platform, params);
    const auto full = first.sweep(kSuite, kPoints);
    const std::uint64_t full_digest = obs::statsDigest();

    // Lose two of the four journaled cells, as if the campaign had
    // been killed mid-sweep, then resume into a fresh campaign.
    ASSERT_TRUE(std::filesystem::remove(dir + "/cell-000001.json"));
    ASSERT_TRUE(std::filesystem::remove(dir + "/cell-000003.json"));

    resetObservability();
    sys::Platform platform2(smallPlatform());
    CharacterizationCampaign resumed(platform2, params);
    const auto again = resumed.sweep(kSuite, kPoints);
    const std::uint64_t resumed_digest = obs::statsDigest();

    ASSERT_EQ(again.size(), full.size());
    for (std::size_t i = 0; i < full.size(); ++i) {
        EXPECT_EQ(again[i].label, full[i].label);
        ASSERT_EQ(again[i].run.werSeries.size(),
                  full[i].run.werSeries.size());
        for (std::size_t e = 0; e < full[i].run.werSeries.size(); ++e)
            EXPECT_EQ(again[i].run.werSeries[e],
                      full[i].run.werSeries[e])
                << "cell " << i << " epoch " << e;
        ASSERT_NE(again[i].profile, nullptr);
    }
    EXPECT_EQ(resumed_digest, full_digest)
        << "resumed sweep must reach a bit-identical stats digest";
}

TEST_F(CampaignResilienceTest, DigestIsThreadCountIndependent)
{
    sys::Platform platform(smallPlatform());

    par::Pool::setGlobalThreads(1);
    resetObservability();
    CharacterizationCampaign serial(platform, smallParams());
    const auto serial_wers = wers(serial.sweep(kSuite, kPoints));
    const std::uint64_t serial_digest = obs::statsDigest();

    par::Pool::setGlobalThreads(8);
    resetObservability();
    sys::Platform platform2(smallPlatform());
    CharacterizationCampaign parallel(platform2, smallParams());
    const auto parallel_wers = wers(parallel.sweep(kSuite, kPoints));
    const std::uint64_t parallel_digest = obs::statsDigest();

    EXPECT_EQ(parallel_wers, serial_wers);
    EXPECT_EQ(parallel_digest, serial_digest);
}

TEST_F(CampaignResilienceTest, CancelledSweepResumesToCleanDigest)
{
    // A signal-style interrupt: a checkpointed sweep is cancelled once
    // its first cell has been journaled. Completed cells stay in the
    // journal, cancelled ones are a distinct (non-quarantined)
    // disposition, and the resumed sweep reaches the exact digest of
    // an uninterrupted run — at 1 and 8 threads.
    for (const int threads : {1, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        par::Pool::setGlobalThreads(threads);
        const std::string cdir = dir + "-t" + std::to_string(threads);

        resetObservability();
        sys::Platform clean_platform(smallPlatform());
        CharacterizationCampaign clean(clean_platform, smallParams());
        const auto reference = wers(clean.sweep(kSuite, kPoints));
        const std::uint64_t clean_digest = obs::statsDigest();

        resetObservability();
        auto params = smallParams();
        params.checkpointDir = cdir;
        sys::Platform platform(smallPlatform());
        CharacterizationCampaign interrupted(platform, params);
        // Cancel as soon as a cell lands in the journal, so the
        // interrupt strikes after profiling, mid-cell-batch (or, on a
        // fast box, after the sweep — the digest claim holds either
        // way; which cells drain cancelled may vary, the outcome
        // must not).
        std::thread canceller([&cdir] {
            for (int i = 0; i < 2000; ++i) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
                std::error_code ec;
                std::filesystem::directory_iterator it(cdir, ec), end;
                if (ec)
                    continue;
                for (; it != end; ++it) {
                    const auto name = it->path().filename().string();
                    if (name.starts_with("cell-")) {
                        par::cancel("test interrupt", "test");
                        return;
                    }
                }
            }
            par::cancel("test interrupt", "test");
        });
        const auto partial = interrupted.sweep(kSuite, kPoints);
        canceller.join();
        ASSERT_EQ(partial.size(), 4u);
        for (const auto &m : partial) {
            EXPECT_FALSE(m.quarantined);
            if (!m.cancelled) {
                EXPECT_FALSE(m.run.werSeries.empty());
            }
        }
        EXPECT_TRUE(interrupted.lastQuarantine().empty());

        // Resume fault-free: journaled cells replay, cancelled cells
        // are re-measured.
        par::resetCancellation();
        resetObservability();
        auto resume_params = smallParams();
        resume_params.checkpointDir = cdir;
        sys::Platform platform2(smallPlatform());
        CharacterizationCampaign resumed(platform2, resume_params);
        EXPECT_EQ(wers(resumed.sweep(kSuite, kPoints)), reference);
        EXPECT_EQ(obs::statsDigest(), clean_digest)
            << "cancel-then-resume must reach the uninterrupted digest";
        std::filesystem::remove_all(cdir);
    }
    par::Pool::setGlobalThreads(8);
}

TEST_F(CampaignResilienceTest, KillMidSweepThenResumeCompletes)
{
    // threadsafe style re-execs the binary for the child, so the
    // killed sweep runs against a fresh process (and a fresh pool)
    // rather than a forked copy of this one.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // The child process arms sweep.kill and dies (by design) with the
    // spec's exit code after journaling its third cell.
    EXPECT_EXIT(
        {
            par::Pool::setGlobalThreads(1);
            fi::Injector::instance().arm("sweep.kill:after=2,code=17");
            sys::Platform killed(smallPlatform());
            auto params = smallParams();
            params.checkpointDir = dir;
            CharacterizationCampaign campaign(killed, params);
            (void)campaign.sweep(kSuite, kPoints);
        },
        ::testing::ExitedWithCode(17), "injected kill");

    // The journal holds the cells completed before the kill.
    std::size_t journaled = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        journaled += entry.path().filename().string().starts_with("cell-");
    ASSERT_GE(journaled, 2u);
    ASSERT_LT(journaled, 4u);

    // Resuming (fault-free) completes the grid and matches a clean
    // uninterrupted sweep bit-for-bit.
    sys::Platform platform(smallPlatform());
    auto params = smallParams();
    params.checkpointDir = dir;
    CharacterizationCampaign resumed(platform, params);
    const auto measurements = resumed.sweep(kSuite, kPoints);

    sys::Platform platform2(smallPlatform());
    CharacterizationCampaign clean(platform2, smallParams());
    EXPECT_EQ(wers(measurements), wers(clean.sweep(kSuite, kPoints)));
    EXPECT_TRUE(resumed.lastQuarantine().empty());
}

} // namespace
} // namespace dfault::core
