/**
 * @file
 * Watchdog stall detection end to end: a par::Pool-level stalled task
 * failed via its next heartbeat, an injected task.stall inside a
 * campaign sweep landing in quarantine while the sweep completes, the
 * wall-clock deadline cancelling a run, and checkpoint resume after a
 * watchdog-quarantined cell reaching the clean-run stats digest (the
 * fi.* and par.* recovery stats are digest-excluded by design).
 *
 * Injected stalls are bounded (ms=) and sized ~4x over the watchdog
 * timeout, so detection is deterministic without real hangs.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/characterization.hh"
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
    p.taskRetries = 0;
    return p;
}

const std::vector<workloads::WorkloadConfig> kSuite{
    {"kmeans", 8, "kmeans(par)"}, {"srad", 1, "srad"}};
const std::vector<dram::OperatingPoint> kPoints{
    {1.173, 1.428, 50.0}, {2.283, 1.428, 60.0}};

void
resetObservability()
{
    obs::Registry::instance().resetAll();
    features::ProfileCache::instance().clear();
}

struct WatchdogTest : ::testing::Test
{
    std::string dir = ::testing::TempDir() + "dfault_watchdog_" +
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

TEST_F(WatchdogTest, HeartbeatOutsideAPoolTaskIsANoOp)
{
    par::heartbeat();
    par::heartbeatAnnotate("not in a task");
}

TEST_F(WatchdogTest, StalledTaskFailsAtItsNextHeartbeat)
{
    par::Pool pool(2);
    par::WatchdogOptions wd;
    wd.taskTimeoutSeconds = 0.1;
    pool.enableWatchdog(wd);

    par::ResilienceOptions opts;
    opts.maxRetries = 0;
    opts.failFast = false;
    int heartbeats_survived = 0;
    const auto failures = pool.parallelForResilient(
        2,
        [&](std::size_t i, int) {
            par::heartbeat(); // first beat activates monitoring
            if (i == 1)
                return;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(400)); // 4x the timeout
            par::heartbeat(); // throws TaskTimeoutError
            ++heartbeats_survived;
        },
        opts);

    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].index, 0u);
    EXPECT_EQ(failures[0].disposition, par::TaskDisposition::Failed);
    EXPECT_NE(failures[0].error.find("watchdog"), std::string::npos);
    EXPECT_EQ(heartbeats_survived, 0);
    EXPECT_GE(obs::Registry::instance().value("par.watchdog_stalls"),
              1.0);
    pool.disableWatchdog();
}

TEST_F(WatchdogTest, StalledTaskRecoversOnRetry)
{
    par::Pool pool(1);
    par::WatchdogOptions wd;
    wd.taskTimeoutSeconds = 0.1;
    pool.enableWatchdog(wd);

    par::ResilienceOptions opts;
    opts.maxRetries = 1;
    opts.failFast = false;
    const auto failures = pool.parallelForResilient(
        1,
        [&](std::size_t, int attempt) {
            par::heartbeat();
            if (attempt == 0) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(400));
                par::heartbeat();
            }
            // Retry attempt: beats stay fresh, task completes.
        },
        opts);
    EXPECT_TRUE(failures.empty());
    pool.disableWatchdog();
}

TEST_F(WatchdogTest, InjectedStallIsQuarantinedAndSweepCompletes)
{
    // One cell stalls for 1 s against a 0.25 s watchdog; with no
    // retries it must land in quarantine with a watchdog error while
    // every other cell completes normally.
    fi::Injector::instance().arm("task.stall:ms=1000,count=1");
    par::WatchdogOptions wd;
    wd.taskTimeoutSeconds = 0.25;
    par::Pool::global().enableWatchdog(wd);

    sys::Platform platform(smallPlatform());
    CharacterizationCampaign campaign(platform, smallParams());
    const auto measurements = campaign.sweep(kSuite, kPoints);

    ASSERT_EQ(measurements.size(), 4u);
    const auto &report = campaign.lastQuarantine();
    ASSERT_EQ(report.size(), 1u);
    EXPECT_NE(report[0].error.find("watchdog"), std::string::npos);
    EXPECT_EQ(report[0].attempts, 1);
    std::size_t completed = 0;
    for (const auto &m : measurements) {
        EXPECT_FALSE(m.cancelled);
        if (!m.quarantined)
            ++completed;
    }
    EXPECT_EQ(completed, 3u);
    EXPECT_GE(obs::Registry::instance().value("par.watchdog_stalls"),
              1.0);
}

TEST_F(WatchdogTest, DeadlineCancelsTheRun)
{
    par::Pool pool(2);
    par::WatchdogOptions wd;
    wd.deadlineSeconds = 0.05;
    pool.enableWatchdog(wd);

    // Park until the deadline fires; the cancel is the only exit.
    par::ResilienceOptions opts;
    opts.failFast = true;
    try {
        pool.parallelForResilient(
            2,
            [&](std::size_t, int) {
                while (true) {
                    par::throwIfCancelled();
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(5));
                }
            },
            opts);
        FAIL() << "expected CancelledError";
    } catch (const par::CancelledError &e) {
        EXPECT_EQ(e.origin(), "deadline");
        EXPECT_NE(std::string(e.what()).find("deadline"),
                  std::string::npos);
    }
    EXPECT_GE(obs::Registry::instance().value("par.deadline_cancels"),
              1.0);
    pool.disableWatchdog();
}

TEST_F(WatchdogTest, WatchdogQuarantineResumesToCleanDigest)
{
    // Serial, so the single stall budget deterministically hits the
    // first measured cell: two faulted runs must agree exactly (same
    // quarantined cell, same error text, same digest), and a fault-
    // free resume from the checkpoint must reach the digest of a run
    // that never stalled — the fi.*/par.* recovery stats are excluded
    // from the digest by name.
    par::Pool::setGlobalThreads(1);
    auto params = smallParams();
    params.checkpointDir = dir;

    resetObservability();
    sys::Platform clean_platform(smallPlatform());
    CharacterizationCampaign clean(clean_platform, smallParams());
    const auto clean_sweep = clean.sweep(kSuite, kPoints);
    const std::uint64_t clean_digest = obs::statsDigest();

    const auto faultedRun = [&](const std::string &cdir) {
        resetObservability();
        fi::Injector::instance().arm("task.stall:ms=1000,count=1");
        par::WatchdogOptions wd;
        wd.taskTimeoutSeconds = 0.25;
        par::Pool::global().enableWatchdog(wd);
        auto p = smallParams();
        p.checkpointDir = cdir;
        sys::Platform platform(smallPlatform());
        CharacterizationCampaign campaign(platform, p);
        (void)campaign.sweep(kSuite, kPoints);
        par::Pool::global().disableWatchdog();
        fi::Injector::instance().disarm();
        return campaign.lastQuarantine();
    };

    const auto first = faultedRun(dir);
    const std::uint64_t faulted_digest = obs::statsDigest();
    ASSERT_EQ(first.size(), 1u);
    EXPECT_NE(first[0].error.find("watchdog"), std::string::npos);

    // Replay determinism: an identical faulted run quarantines the
    // same cell with the same message and reaches the same digest.
    const std::string dir2 = dir + "-replay";
    const auto second = faultedRun(dir2);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0].cell, first[0].cell);
    EXPECT_EQ(second[0].error, first[0].error);
    EXPECT_EQ(second[0].attempts, first[0].attempts);
    EXPECT_EQ(obs::statsDigest(), faulted_digest);
    std::filesystem::remove_all(dir2);

    // The recovery stats exist but are digest-excluded.
    EXPECT_TRUE(obs::digestExcludes("fi.quarantined_slots"));
    EXPECT_TRUE(obs::digestExcludes("par.watchdog_stalls"));
    EXPECT_TRUE(obs::digestExcludes("par.cancelled_tasks"));
    EXPECT_TRUE(obs::digestExcludes("par.deadline_cancels"));

    // Fault-free resume: the journaled cells replay, the quarantined
    // one is re-measured, and the digest matches the never-stalled
    // run bit for bit.
    resetObservability();
    sys::Platform resumed_platform(smallPlatform());
    CharacterizationCampaign resumed(resumed_platform, params);
    const auto full = resumed.sweep(kSuite, kPoints);
    EXPECT_TRUE(resumed.lastQuarantine().empty());
    ASSERT_EQ(full.size(), clean_sweep.size());
    for (std::size_t i = 0; i < full.size(); ++i) {
        EXPECT_FALSE(full[i].quarantined);
        EXPECT_EQ(full[i].run.werSeries, clean_sweep[i].run.werSeries)
            << "cell " << i;
    }
    EXPECT_EQ(obs::statsDigest(), clean_digest)
        << "watchdog-quarantine then resume must reach the clean digest";
    par::Pool::setGlobalThreads(8);
}

} // namespace
} // namespace dfault::core
