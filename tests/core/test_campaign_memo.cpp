/**
 * @file
 * The campaign's device-intensity memo under concurrency: PUE repeats
 * of one cell land on different pool workers at once, and whichever
 * computes the cell's intensities first, every repeat must see the
 * same values. Results and the stats digest of a 4-slot run with a
 * cold memo, a warm memo and retried tasks must equal a 1-slot run on
 * a fresh campaign, bit for bit.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/characterization.hh"
#include "features/extractor.hh"
#include "fi/injector.hh"
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
smallParams()
{
    CharacterizationCampaign::Params p;
    p.workload.footprintBytes = 2 << 20;
    p.workload.workScale = 0.25;
    p.integrator.epochs = 30;
    return p;
}

const std::vector<workloads::WorkloadConfig> kSuite{
    {"backprop", 8, "backprop(par)"},
    {"kmeans", 8, "kmeans(par)"},
    {"srad", 1, "srad"}};

/** PUE of every cell and the stats digest of the run, bit patterns. */
struct PueRun
{
    std::vector<std::uint64_t> pue;
    std::uint64_t digest = 0;
    bool operator==(const PueRun &) const = default;
};

PueRun
pueRun(CharacterizationCampaign &campaign)
{
    obs::Registry::instance().resetAll();
    PueRun run;
    for (const double p :
         campaign.measurePue(kSuite, pueOperatingPoints(), 10))
        run.pue.push_back(std::bit_cast<std::uint64_t>(p));
    run.digest = obs::statsDigest();
    return run;
}

TEST(CampaignMemo, ConcurrentPueRepeatsMatchASerialFreshCampaign)
{
    const int threads_before = par::Pool::global().threads();
    // Profile the suite once, so every run below publishes only its
    // measurements' stats.
    for (const auto &config : kSuite)
        features::ProfileCache::instance().get(sharedPlatform(), config,
                                               smallParams().workload);

    par::Pool::setGlobalThreads(1);
    CharacterizationCampaign serial(sharedPlatform(), smallParams());
    const PueRun want = pueRun(serial);
    double crashes = 0.0;
    for (const std::uint64_t p : want.pue)
        crashes += std::bit_cast<double>(p);
    // Repeats that crash end their epoch loop early.
    EXPECT_GT(crashes, 0.0);

    par::Pool::setGlobalThreads(4);
    CharacterizationCampaign campaign(sharedPlatform(), smallParams());
    EXPECT_TRUE(pueRun(campaign) == want) << "cold memo";
    EXPECT_TRUE(pueRun(campaign) == want) << "warm memo";
    // Retried attempts re-run the whole cell on a memo another worker
    // may be filling.
    CharacterizationCampaign retried(sharedPlatform(), smallParams());
    fi::Injector::instance().arm("task.throw:every=3,max_attempt=1");
    const PueRun with_retries = pueRun(retried);
    fi::Injector::instance().disarm();
    EXPECT_TRUE(with_retries == want) << "retried tasks";

    par::Pool::setGlobalThreads(threads_before);
}

} // namespace
} // namespace dfault::core
