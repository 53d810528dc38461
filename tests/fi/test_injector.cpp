/**
 * @file
 * Unit tests for the deterministic fault injector: spec parsing, the
 * firing gates (every/max_attempt/count/after/rate), schedule
 * determinism, and the fault helpers.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "fi/injector.hh"

namespace dfault::fi {
namespace {

/** Arm/disarm around each test so tests cannot leak armed points. */
struct InjectorTest : ::testing::Test
{
    void TearDown() override { Injector::instance().disarm(); }
};

TEST_F(InjectorTest, UnarmedPointsNeverFire)
{
    auto &inj = Injector::instance();
    EXPECT_FALSE(inj.armed());
    EXPECT_FALSE(inj.shouldFire("task.throw", 0));
    inj.maybeThrow("task.throw", 0); // no-op, must not throw
}

TEST_F(InjectorTest, DefaultSpecFiresAlways)
{
    auto &inj = Injector::instance();
    inj.arm("task.throw");
    EXPECT_TRUE(inj.armed());
    for (std::uint64_t key = 0; key < 5; ++key)
        EXPECT_TRUE(inj.shouldFire("task.throw", key));
    EXPECT_EQ(inj.firedCount("task.throw"), 5u);
    // Other points stay dormant.
    EXPECT_FALSE(inj.shouldFire("io.open", 0));
}

TEST_F(InjectorTest, FaultErrorCarriesThePointName)
{
    auto &inj = Injector::instance();
    inj.arm("task.throw");
    try {
        inj.maybeThrow("task.throw", 7);
        FAIL() << "expected FaultError";
    } catch (const FaultError &e) {
        EXPECT_EQ(e.point(), "task.throw");
        EXPECT_NE(std::string(e.what()).find("task.throw"),
                  std::string::npos);
    }
}

TEST_F(InjectorTest, EveryGateSelectsByKey)
{
    auto &inj = Injector::instance();
    inj.arm("task.throw:every=3");
    for (std::uint64_t key = 0; key < 9; ++key)
        EXPECT_EQ(inj.shouldFire("task.throw", key), key % 3 == 0)
            << "key " << key;
}

TEST_F(InjectorTest, MaxAttemptLetsRetriesRecover)
{
    auto &inj = Injector::instance();
    inj.arm("task.throw:max_attempt=1");
    EXPECT_TRUE(inj.shouldFire("task.throw", 4, 0));
    EXPECT_FALSE(inj.shouldFire("task.throw", 4, 1));
    EXPECT_FALSE(inj.shouldFire("task.throw", 4, 2));
}

TEST_F(InjectorTest, CountBudgetIsConsumedByFires)
{
    auto &inj = Injector::instance();
    inj.arm("io.write:count=2");
    int fired = 0;
    for (std::uint64_t key = 0; key < 10; ++key)
        fired += inj.shouldFire("io.write", key) ? 1 : 0;
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(inj.firedCount("io.write"), 2u);
}

TEST_F(InjectorTest, AfterSkipsTheFirstChecks)
{
    auto &inj = Injector::instance();
    inj.arm("sweep.kill:after=3");
    EXPECT_FALSE(inj.shouldFire("sweep.kill", 0));
    EXPECT_FALSE(inj.shouldFire("sweep.kill", 1));
    EXPECT_FALSE(inj.shouldFire("sweep.kill", 2));
    EXPECT_TRUE(inj.shouldFire("sweep.kill", 3));
}

TEST_F(InjectorTest, RateScheduleIsDeterministic)
{
    auto &inj = Injector::instance();
    const auto run = [&inj] {
        std::vector<bool> fires;
        for (std::uint64_t key = 0; key < 64; ++key)
            fires.push_back(inj.shouldFire("task.throw", key));
        return fires;
    };
    inj.arm("task.throw:rate=0.5,seed=11");
    const auto first = run();
    inj.disarm();
    inj.arm("task.throw:rate=0.5,seed=11");
    EXPECT_EQ(run(), first);

    // A different seed produces a different schedule.
    inj.disarm();
    inj.arm("task.throw:rate=0.5,seed=12");
    EXPECT_NE(run(), first);

    // Roughly half the keys fire (it is a uniform draw).
    int fired = 0;
    for (const bool f : first)
        fired += f ? 1 : 0;
    EXPECT_GT(fired, 16);
    EXPECT_LT(fired, 48);
}

TEST_F(InjectorTest, MultiPointSpecsAndFiredCounts)
{
    auto &inj = Injector::instance();
    inj.arm("task.throw:every=2;io.open:count=1");
    EXPECT_TRUE(inj.shouldFire("task.throw", 0));
    EXPECT_FALSE(inj.shouldFire("task.throw", 1));
    EXPECT_TRUE(inj.shouldFire("io.open", 0));
    EXPECT_FALSE(inj.shouldFire("io.open", 2));

    const auto counts = inj.firedCounts();
    ASSERT_EQ(counts.size(), 2u);
    EXPECT_EQ(counts[0].first, "io.open");
    EXPECT_EQ(counts[0].second, 1u);
    EXPECT_EQ(counts[1].first, "task.throw");
    EXPECT_EQ(counts[1].second, 1u);
}

TEST_F(InjectorTest, MaybeStallSleepsForTheConfiguredMs)
{
    auto &inj = Injector::instance();
    inj.arm("task.stall:ms=50,count=1");
    const auto before = std::chrono::steady_clock::now();
    EXPECT_TRUE(inj.maybeStall("task.stall", 0));
    const auto elapsed = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - before);
    EXPECT_GE(elapsed.count(), 0.045);
    // Budget exhausted: subsequent checks pass through instantly.
    EXPECT_FALSE(inj.maybeStall("task.stall", 1));
    EXPECT_EQ(inj.firedCount("task.stall"), 1u);
}

TEST_F(InjectorTest, MaybeStallIsANoOpWhenUnarmed)
{
    EXPECT_FALSE(Injector::instance().maybeStall("task.stall", 0));
}

TEST_F(InjectorTest, DisarmForgetsEverything)
{
    auto &inj = Injector::instance();
    inj.arm("task.throw");
    ASSERT_TRUE(inj.shouldFire("task.throw", 0));
    inj.disarm();
    EXPECT_FALSE(inj.armed());
    EXPECT_FALSE(inj.shouldFire("task.throw", 0));
    EXPECT_EQ(inj.firedCount("task.throw"), 0u);
}

TEST_F(InjectorTest, RearmingReplacesTheSpec)
{
    auto &inj = Injector::instance();
    inj.arm("task.throw:every=2");
    inj.arm("task.throw:every=5");
    EXPECT_FALSE(inj.shouldFire("task.throw", 2));
    EXPECT_TRUE(inj.shouldFire("task.throw", 5));
}

using InjectorDeath = InjectorTest;

TEST_F(InjectorDeath, MalformedSpecsAreFatal)
{
    auto &inj = Injector::instance();
    EXPECT_EXIT(inj.arm("bad point!"), ::testing::ExitedWithCode(1),
                "point name");
    EXPECT_EXIT(inj.arm("task.throw:rate=2"),
                ::testing::ExitedWithCode(1), "rate");
    EXPECT_EXIT(inj.arm("task.throw:bogus=1"),
                ::testing::ExitedWithCode(1), "bogus");
    EXPECT_EXIT(inj.arm("task.throw:every=x"),
                ::testing::ExitedWithCode(1), "every");
    // Stalls are bounded by design: 10 minutes is the ceiling.
    EXPECT_EXIT(inj.arm("task.stall:ms=600001"),
                ::testing::ExitedWithCode(1), "ms must be in");
    EXPECT_EXIT(inj.arm("task.stall:ms=-1"),
                ::testing::ExitedWithCode(1), "ms must be in");
    // A negative below= would silently wrap through strtoull into a
    // huge threshold, turning "never fire" into "always fire"; the
    // parser must name the key instead, matching the ms= diagnostic.
    EXPECT_EXIT(inj.arm("task.throw:below=-1"),
                ::testing::ExitedWithCode(1), "below must be >= 0");
    EXPECT_EXIT(inj.arm("task.throw:below=-1000"),
                ::testing::ExitedWithCode(1), "below must be >= 0");
}

} // namespace
} // namespace dfault::fi
