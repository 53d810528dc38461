/**
 * @file
 * Overload and concurrency tests: graceful degradation under 4x
 * sustained over-capacity, multi-producer submission racing the tick
 * driver (the TSan target), and cancellation racing a full bounded
 * queue. The invariant under test everywhere: the queue stays bounded
 * and every submission gets exactly one served / degraded / shed
 * disposition — nothing is silently dropped.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fi/injector.hh"
#include "obs/stats.hh"
#include "par/cancel.hh"
#include "serve/service.hh"

namespace dfault::serve {
namespace {

struct EchoModel : ml::Regressor
{
    void fit(const ml::Matrix &, std::span<const double>) override {}
    double predict(std::span<const double> row) const override
    {
        return row.empty() ? 0.0 : row[0];
    }
    void predictMany(const ml::Matrix &rows,
                     std::vector<double> &out) const override
    {
        out.resize(rows.size());
        for (std::size_t i = 0; i < rows.size(); ++i)
            out[i] = predict(rows[i]);
    }
    std::string name() const override { return "echo"; }
};

struct OverloadTest : ::testing::Test
{
    void TearDown() override
    {
        fi::Injector::instance().disarm();
        par::resetCancellation();
    }

    Request req(std::uint64_t key, Priority pri)
    {
        Request r;
        r.key = key;
        r.priority = pri;
        r.features = {static_cast<double>(key)};
        return r;
    }

    EchoModel primary;
    EchoModel fallbackModel;
    obs::Registry reg;
};

TEST_F(OverloadTest, GracefulDegradationAtFourTimesCapacity)
{
    Params p;
    p.registry = &reg;
    p.budgetPerTick = 8;
    p.queueCapacity = 32;
    p.degradeAfterTicks = 2;
    PredictionService svc(primary, p, &fallbackModel);

    // 4x over-capacity for 12 rounds: 32 arrivals per 8-budget tick.
    std::uint64_t submitted = 0;
    for (int round = 0; round < 12; ++round) {
        for (int i = 0; i < 32; ++i) {
            const Priority pri = i % 8 == 0 ? Priority::Critical
                                 : i % 8 == 1 ? Priority::Health
                                              : Priority::Bulk;
            svc.submit(req(submitted++, pri));
            // The queue is *bounded*: admission control holds the line
            // at every single submission, not just between ticks.
            ASSERT_LE(svc.queueDepth(), p.queueCapacity);
        }
        svc.tick();
    }
    svc.drain();
    EXPECT_EQ(svc.queueDepth(), 0u);

    // No silent drops: every submission id has exactly one response.
    const auto responses = svc.takeResponses();
    ASSERT_EQ(responses.size(), submitted);
    std::set<std::uint64_t> ids;
    for (const Response &r : responses)
        EXPECT_TRUE(ids.insert(r.id).second) << "duplicate id " << r.id;
    EXPECT_EQ(*ids.rbegin(), submitted - 1);

    // Conservation over the counters, and shedding hit bulk only:
    // critical and health survived a 4x overload untouched.
    EXPECT_EQ(reg.value("serve.submitted"),
              static_cast<double>(submitted));
    EXPECT_EQ(reg.value("serve.submitted"),
              reg.value("serve.served") + reg.value("serve.degraded") +
                  reg.value("serve.shed"));
    EXPECT_GT(reg.value("serve.shed"), 0.0);
    EXPECT_EQ(reg.value("serve.shed.critical"), 0.0);
    EXPECT_EQ(reg.value("serve.shed.health"), 0.0);
    for (const Response &r : responses)
        if (r.priority == Priority::Critical) {
            EXPECT_NE(r.disposition, Disposition::Shed);
        }
}

TEST_F(OverloadTest, ConcurrentSubmittersRaceTheTickDriver)
{
    Params p;
    p.registry = &reg;
    p.budgetPerTick = 16;
    p.queueCapacity = 64;
    p.degradeAfterTicks = 3;
    PredictionService svc(primary, p, &fallbackModel);

    constexpr int kProducers = 4;
    constexpr int kPerProducer = 200;
    std::atomic<int> running{kProducers};
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int t = 0; t < kProducers; ++t)
        producers.emplace_back([&, t] {
            for (int i = 0; i < kPerProducer; ++i)
                svc.submit(req(static_cast<std::uint64_t>(t) * 1000 + i,
                               i % 3 == 0 ? Priority::Health
                                          : Priority::Bulk));
            --running;
        });
    // The tick driver runs concurrently with the submission storm.
    while (running.load() > 0)
        svc.tick();
    for (std::thread &t : producers)
        t.join();
    svc.drain();

    const auto responses = svc.takeResponses();
    EXPECT_EQ(responses.size(),
              static_cast<std::size_t>(kProducers * kPerProducer));
    std::set<std::uint64_t> ids;
    for (const Response &r : responses)
        EXPECT_TRUE(ids.insert(r.id).second);
    EXPECT_EQ(reg.value("serve.submitted"),
              reg.value("serve.served") + reg.value("serve.degraded") +
                  reg.value("serve.shed"));
}

TEST_F(OverloadTest, CancellationRacingAFullQueue)
{
    Params p;
    p.registry = &reg;
    p.budgetPerTick = 4;
    p.queueCapacity = 16;
    PredictionService svc(primary, p, &fallbackModel);

    // A producer keeps the bounded queue saturated while the run is
    // cancelled from outside mid-storm: in-flight batch tasks are
    // cancelled by the pool, queued requests are shed at the next
    // tick, and late submissions are shed at admission. Either way the
    // disposition ledger stays complete and drain() terminates.
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> submitted{0};
    std::thread producer([&] {
        std::uint64_t key = 0;
        while (!stop.load()) {
            svc.submit(req(key++, Priority::Bulk));
            ++submitted;
        }
    });
    // Let the storm saturate the queue before serving starts.
    while (submitted.load() < 64)
        std::this_thread::yield();
    for (int i = 0; i < 5; ++i)
        svc.tick();
    par::cancel("load test teardown", "test");
    // Keep the race going: the producer must observably submit against
    // the cancelled run before the storm stops.
    const std::uint64_t afterCancel = submitted.load();
    while (submitted.load() < afterCancel + 64)
        std::this_thread::yield();
    for (int i = 0; i < 3; ++i)
        svc.tick();
    stop.store(true);
    producer.join();
    svc.drain();
    EXPECT_EQ(svc.queueDepth(), 0u);

    const auto responses = svc.takeResponses();
    EXPECT_EQ(responses.size(), submitted.load());
    std::size_t cancelled = 0;
    for (const Response &r : responses)
        if (r.reason.find("cancelled") != std::string::npos) {
            ++cancelled;
            EXPECT_EQ(r.disposition, Disposition::Shed);
        }
    EXPECT_GT(cancelled, 0u);
    EXPECT_EQ(reg.value("serve.submitted"),
              static_cast<double>(submitted.load()));
    EXPECT_EQ(reg.value("serve.submitted"),
              reg.value("serve.served") + reg.value("serve.degraded") +
                  reg.value("serve.shed"));
}

} // namespace
} // namespace dfault::serve
