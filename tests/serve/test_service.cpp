/**
 * @file
 * Unit tests for serve::PredictionService: admission control,
 * priority-aware shedding, degraded-mode fallback, the disposition
 * conservation law, and bit-identical replay across thread counts.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "fi/injector.hh"
#include "ml/forest.hh"
#include "obs/manifest.hh"
#include "par/pool.hh"
#include "serve/service.hh"

namespace dfault::serve {
namespace {

/** Deterministic primary: predicts the sum of the features. */
struct SumModel : ml::Regressor
{
    void fit(const ml::Matrix &, std::span<const double>) override {}
    double predict(std::span<const double> row) const override
    {
        ++calls;
        return std::accumulate(row.begin(), row.end(), 0.0);
    }
    void predictMany(const ml::Matrix &rows,
                     std::vector<double> &out) const override
    {
        out.resize(rows.size());
        for (std::size_t i = 0; i < rows.size(); ++i)
            out[i] = predict(rows[i]);
    }
    std::string name() const override { return "sum"; }
    mutable std::atomic<int> calls{0};
};

/** Deterministic fallback: always the same sentinel value. */
struct ConstModel : ml::Regressor
{
    explicit ConstModel(double v) : value(v) {}
    void fit(const ml::Matrix &, std::span<const double>) override {}
    double predict(std::span<const double>) const override
    {
        return value;
    }
    void predictMany(const ml::Matrix &rows,
                     std::vector<double> &out) const override
    {
        out.assign(rows.size(), value);
    }
    std::string name() const override { return "const"; }
    double value;
};

struct ServiceTest : ::testing::Test
{
    void TearDown() override { fi::Injector::instance().disarm(); }

    Request req(std::uint64_t key, Priority pri = Priority::Bulk)
    {
        Request r;
        r.key = key;
        r.priority = pri;
        r.features = {static_cast<double>(key), 1.0};
        return r;
    }

    SumModel primary;
    ConstModel fallback{-42.0};
    obs::Registry reg;
};

TEST_F(ServiceTest, ServesEverythingUnderCapacity)
{
    Params p;
    p.registry = &reg;
    PredictionService svc(primary, p);
    for (std::uint64_t k = 0; k < 10; ++k)
        svc.submit(req(k));
    EXPECT_EQ(svc.queueDepth(), 10u);
    EXPECT_EQ(svc.tick(), 10u);
    EXPECT_EQ(svc.queueDepth(), 0u);

    const auto responses = svc.takeResponses();
    ASSERT_EQ(responses.size(), 10u);
    for (const Response &r : responses) {
        EXPECT_EQ(r.disposition, Disposition::Served);
        EXPECT_FALSE(r.degraded);
        EXPECT_TRUE(r.reason.empty());
        EXPECT_DOUBLE_EQ(r.prediction,
                         static_cast<double>(r.key) + 1.0);
    }
    EXPECT_EQ(reg.value("serve.submitted"), 10.0);
    EXPECT_EQ(reg.value("serve.served"), 10.0);
    EXPECT_EQ(reg.value("serve.degraded"), 0.0);
    EXPECT_EQ(reg.value("serve.shed"), 0.0);
    // The served answers populate the last-known-good cache.
    ASSERT_TRUE(svc.lastKnownGood(3).has_value());
    EXPECT_DOUBLE_EQ(*svc.lastKnownGood(3), 4.0);
}

TEST_F(ServiceTest, FullQueueEvictsBulkForCriticalArrival)
{
    Params p;
    p.registry = &reg;
    p.queueCapacity = 4;
    PredictionService svc(primary, p);
    for (std::uint64_t k = 0; k < 4; ++k)
        svc.submit(req(k, Priority::Bulk));
    // The arrival is more important than queued bulk: the *newest*
    // bulk request (key 3) is evicted to make room.
    svc.submit(req(100, Priority::Critical));
    EXPECT_EQ(svc.queueDepth(), 4u);

    const auto responses = svc.takeResponses();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].key, 3u);
    EXPECT_EQ(responses[0].disposition, Disposition::Shed);
    EXPECT_NE(responses[0].reason.find("evicted"), std::string::npos);
    EXPECT_TRUE(std::isnan(responses[0].prediction));
    EXPECT_EQ(reg.value("serve.shed.bulk"), 1.0);
    EXPECT_EQ(reg.value("serve.shed.critical"), 0.0);
}

TEST_F(ServiceTest, ArrivalShedsItselfBelowQueuedImportance)
{
    Params p;
    p.registry = &reg;
    p.queueCapacity = 2;
    PredictionService svc(primary, p);
    svc.submit(req(0, Priority::Critical));
    svc.submit(req(1, Priority::Critical));
    // Nothing queued is less important than bulk: the arrival sheds.
    svc.submit(req(2, Priority::Bulk));
    const auto responses = svc.takeResponses();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].key, 2u);
    EXPECT_EQ(responses[0].reason, "queue full");
    EXPECT_EQ(reg.value("serve.shed.bulk"), 1.0);
}

TEST_F(ServiceTest, InjectedRejectShedsAtAdmission)
{
    fi::Injector::instance().arm("serve.reject:below=1");
    Params p;
    p.registry = &reg;
    PredictionService svc(primary, p);
    svc.submit(req(7));
    svc.submit(req(8));
    svc.drain();
    const auto responses = svc.takeResponses();
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[0].disposition, Disposition::Shed);
    EXPECT_NE(responses[0].reason.find("serve.reject"),
              std::string::npos);
    EXPECT_EQ(responses[1].disposition, Disposition::Served);
}

TEST_F(ServiceTest, DeadlinePressureDegradesFromLastKnownGood)
{
    Params p;
    p.registry = &reg;
    p.budgetPerTick = 1;
    p.degradeAfterTicks = 2;
    PredictionService svc(primary, p);
    // Serve key 5 once so its LKG entry exists.
    svc.submit(req(5));
    svc.tick();
    // Now swamp the 1-per-tick budget with more work on the same key.
    for (int i = 0; i < 4; ++i)
        svc.submit(req(5));
    svc.drain();

    const auto responses = svc.takeResponses();
    ASSERT_EQ(responses.size(), 5u);
    bool sawDegraded = false;
    for (const Response &r : responses)
        if (r.disposition == Disposition::Degraded) {
            sawDegraded = true;
            EXPECT_NE(r.reason.find("deadline pressure"),
                      std::string::npos);
            EXPECT_NE(r.reason.find("last-known-good"),
                      std::string::npos);
            EXPECT_DOUBLE_EQ(r.prediction, 6.0); // the cached answer
        }
    EXPECT_TRUE(sawDegraded);
    EXPECT_EQ(reg.value("serve.shed"), 0.0); // degraded, never dropped
}

TEST_F(ServiceTest, DegradedPathUsesFallbackModelForUnseenKeys)
{
    Params p;
    p.registry = &reg;
    p.budgetPerTick = 1;
    p.degradeAfterTicks = 1;
    PredictionService svc(primary, p, &fallback);
    for (std::uint64_t k = 0; k < 4; ++k)
        svc.submit(req(k));
    svc.drain();
    const auto responses = svc.takeResponses();
    ASSERT_EQ(responses.size(), 4u);
    bool sawFallback = false;
    for (const Response &r : responses)
        if (r.degraded) {
            sawFallback = true;
            EXPECT_NE(r.reason.find("fallback model"),
                      std::string::npos);
            EXPECT_DOUBLE_EQ(r.prediction, -42.0);
        }
    EXPECT_TRUE(sawFallback);
}

TEST_F(ServiceTest, NoDegradedPathMeansHonestShed)
{
    Params p;
    p.registry = &reg;
    p.budgetPerTick = 1;
    p.degradeAfterTicks = 1;
    PredictionService svc(primary, p); // no fallback, empty LKG
    for (std::uint64_t k = 0; k < 4; ++k)
        svc.submit(req(k));
    svc.drain();
    bool sawShed = false;
    for (const Response &r : svc.takeResponses())
        if (r.disposition == Disposition::Shed) {
            sawShed = true;
            EXPECT_NE(r.reason.find("no degraded path"),
                      std::string::npos);
        }
    EXPECT_TRUE(sawShed);
}

TEST_F(ServiceTest, ForestSliceIsACheapConsistentFallback)
{
    ml::RandomForestRegressor::Params fp;
    fp.trees = 10;
    fp.maxDepth = 4;
    ml::RandomForestRegressor forest(fp);
    ml::Matrix x;
    std::vector<double> y;
    for (int i = 0; i < 64; ++i) {
        x.push_back({static_cast<double>(i), static_cast<double>(i % 7)});
        y.push_back(2.0 * i);
    }
    forest.fit(x, y);
    EXPECT_EQ(forest.treeCount(), 10u);

    ml::ForestSliceRegressor slice(forest, 3);
    EXPECT_EQ(slice.trees(), 3u);
    EXPECT_DOUBLE_EQ(slice.predict(x[5]),
                     forest.predictFirstTrees(x[5], 3));
    // The full-ensemble prefix equals the ensemble prediction.
    EXPECT_DOUBLE_EQ(forest.predictFirstTrees(x[5], 10),
                     forest.predict(x[5]));
    std::vector<double> many;
    slice.predictMany(x, many);
    ASSERT_EQ(many.size(), x.size());
    EXPECT_DOUBLE_EQ(many[5], slice.predict(x[5]));
}

/**
 * The acceptance criterion behind the whole tick-driven design: a
 * faulted serving run (errors, stalls, rejects, shedding, breaker
 * trips) commits the identical disposition sequence and stats digest
 * at 1, 2 and 8 threads.
 */
TEST_F(ServiceTest, FaultedRunIsBitIdenticalAcrossThreadCounts)
{
    const int original = par::Pool::global().threads();
    std::vector<std::string> transcripts;
    std::vector<std::uint64_t> digests;
    for (const int threads : {1, 2, 8}) {
        par::Pool::setGlobalThreads(threads);
        fi::Injector::instance().arm(
            "serve.error:below=20;serve.reject:every=13");
        obs::Registry local;
        SumModel model;
        Params p;
        p.registry = &local;
        p.budgetPerTick = 8;
        p.queueCapacity = 24;
        p.degradeAfterTicks = 2;
        p.shards = 2;
        p.breaker.consecutiveFailures = 3;
        p.breaker.cooldownTicks = 2;
        PredictionService svc(model, p, &fallback);
        for (std::uint64_t k = 0; k < 96; ++k) {
            Request r = req(k, k % 11 == 0 ? Priority::Critical
                                           : Priority::Bulk);
            r.shard = static_cast<int>(k % 2);
            svc.submit(r);
            if (k % 16 == 15)
                svc.tick();
        }
        svc.drain();
        fi::Injector::instance().disarm();

        std::string transcript;
        for (const Response &r : svc.takeResponses())
            transcript += std::to_string(r.id) + ":" +
                          dispositionName(r.disposition) + ":" +
                          r.reason + "\n";
        transcripts.push_back(std::move(transcript));
        digests.push_back(obs::statsDigest(&local));
    }
    par::Pool::setGlobalThreads(original);
    EXPECT_EQ(transcripts[0], transcripts[1]);
    EXPECT_EQ(transcripts[0], transcripts[2]);
    EXPECT_EQ(digests[0], digests[1]);
    EXPECT_EQ(digests[0], digests[2]);
}

/** The deterministic serve.* counters must be in the digest. */
TEST_F(ServiceTest, CountersAreDigested)
{
    EXPECT_FALSE(obs::digestExcludes("serve.submitted"));
    EXPECT_FALSE(obs::digestExcludes("serve.shed.bulk"));
    EXPECT_FALSE(obs::digestExcludes("serve.breaker.opened"));
}

} // namespace
} // namespace dfault::serve
