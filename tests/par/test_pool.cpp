/**
 * @file
 * Unit tests for the deterministic work-stealing pool.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.hh"
#include "obs/stats.hh"
#include "obs/timer.hh"
#include "par/pool.hh"

namespace dfault::par {
namespace {

/** A par.* counter's value, 0 while no batch has created it yet. */
std::uint64_t
counterValue(const std::string &name)
{
    auto &reg = obs::Registry::instance();
    return reg.has(name) ? reg.counter(name).value() : 0;
}

std::uint64_t
taskNsCount()
{
    auto &reg = obs::Registry::instance();
    return reg.has("par.task_ns") ? reg.histogram("par.task_ns").count()
                                  : 0;
}

double
processCpuSeconds()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

TEST(DefaultThreads, HonoursEnvironmentVariable)
{
    ::setenv("DFAULT_THREADS", "5", 1);
    EXPECT_EQ(defaultThreads(), 5);
    ::unsetenv("DFAULT_THREADS");
    EXPECT_GE(defaultThreads(), 1);
}

TEST(Pool, RunsEveryIndexExactlyOnce)
{
    Pool pool(4);
    constexpr std::size_t n = 1000; // far more than 4*threads chunks
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(Pool, MapCommitsResultsInIndexOrder)
{
    Pool pool(3);
    const auto out = pool.parallelMap<std::size_t>(
        257, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 257u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(Pool, CurrentSlotIsMinusOneOutsideAndBoundedInside)
{
    EXPECT_EQ(Pool::currentSlot(), -1);
    Pool pool(4);
    std::atomic<bool> in_range{true};
    pool.parallelFor(64, [&](std::size_t) {
        const int slot = Pool::currentSlot();
        if (slot < 0 || slot >= pool.threads())
            in_range = false;
    });
    EXPECT_TRUE(in_range.load());
    EXPECT_EQ(Pool::currentSlot(), -1);
}

TEST(Pool, SingleThreadRunsInlineOnTheCaller)
{
    Pool pool(1);
    const auto caller = std::this_thread::get_id();
    std::atomic<bool> same_thread{true};
    pool.parallelFor(32, [&](std::size_t) {
        if (std::this_thread::get_id() != caller)
            same_thread = false;
        if (Pool::currentSlot() != 0)
            same_thread = false;
    });
    EXPECT_TRUE(same_thread.load());
}

TEST(Pool, NestedParallelForRunsInlineWithoutDeadlock)
{
    Pool pool(4);
    std::atomic<int> inner_total{0};
    pool.parallelFor(4, [&](std::size_t) {
        pool.parallelFor(8, [&](std::size_t) { inner_total.fetch_add(1); });
    });
    EXPECT_EQ(inner_total.load(), 32);
}

TEST(Pool, BodyExceptionIsRethrownAndPoolStaysUsable)
{
    Pool pool(4);
    EXPECT_THROW(pool.parallelFor(100,
                                  [](std::size_t i) {
                                      if (i == 37)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);

    // The failed batch must not poison subsequent ones.
    std::atomic<int> count{0};
    pool.parallelFor(50, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 50);
}

TEST(Pool, ZeroTasksIsANoOp)
{
    Pool pool(2);
    bool ran = false;
    pool.parallelFor(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(PoolTelemetry, PinsBatchTaskAndPhaseValues)
{
    auto &reg = obs::Registry::instance();
    const std::vector<std::string> phases = {"pooltelemetry_a",
                                             "pooltelemetry_b"};
    const std::vector<std::size_t> sizes = {1, 3, 33, 100};
    for (const int threads : {1, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        Pool pool(threads);
        const std::uint64_t batches0 = counterValue("par.batches");
        const std::uint64_t queued0 = counterValue("par.tasks_queued");
        const std::uint64_t executed0 = counterValue("par.tasks_executed");
        const std::uint64_t task_ns0 = taskNsCount();
        std::uint64_t batches = 0;
        for (const std::string &phase : phases) {
            const obs::ScopedTimer timer(phase);
            for (const std::size_t n : sizes) {
                std::vector<double> out(n, 0.0);
                pool.parallelFor(n, [&](std::size_t i) {
                    double acc = 0.0;
                    for (int k = 0; k < 1000; ++k)
                        acc += static_cast<double>(i * k % 7);
                    out[i] = acc;
                });
                ++batches;
            }
            pool.parallelFor(0, [](std::size_t) {}); // counts nothing
        }
        const std::uint64_t queued = counterValue("par.tasks_queued") - queued0;
        const std::uint64_t executed =
            counterValue("par.tasks_executed") - executed0;
        EXPECT_EQ(counterValue("par.batches") - batches0, batches);
        if (threads == 1) {
            // Inline batches: one executed task each, nothing queued.
            EXPECT_EQ(queued, 0u);
            EXPECT_EQ(executed, batches);
        } else {
            EXPECT_EQ(queued, executed);
            EXPECT_GE(executed, batches);
        }
        EXPECT_EQ(taskNsCount() - task_ns0, executed);
    }
    for (const std::string &phase : phases) {
        SCOPED_TRACE(phase);
        const std::string base = "par.phase." + phase;
        const double task = reg.value(base + ".task_seconds");
        const double wall = reg.value(base + ".wall_seconds");
        EXPECT_GT(task, 0.0);
        EXPECT_GT(wall, 0.0);
        EXPECT_DOUBLE_EQ(reg.value(base + ".speedup"), task / wall);
    }
}

TEST(Pool, IdleWorkersParkInsteadOfSpinning)
{
    Pool pool(4);
    std::atomic<int> ran{0};
    pool.parallelFor(64, [&](std::size_t) { ran.fetch_add(1); });
    ASSERT_EQ(ran.load(), 64);
    // Workers may spin briefly after a batch, but the spin is bounded:
    // 200 ms of idling must cost the process next to no CPU time.
    const double before = processCpuSeconds();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_LT(processCpuSeconds() - before, 0.020);
}

TEST(PoolStress, BackToBackBatchesRunEveryIndexExactlyOnce)
{
    // Many tiny batches back to back: each stack-local result (and the
    // pool's stack-local batch state) is torn down right after the
    // batch returns, so a worker still touching either after the
    // submitter concluded completion shows up as a wrong count here or
    // as a race under the thread sanitizer.
    Pool pool(4);
    const std::array<std::size_t, 4> sizes = {1, 2, 3, 33};
    for (int iter = 0; iter < 20000; ++iter) {
        const std::size_t n = sizes[static_cast<std::size_t>(iter) % 4];
        std::array<int, 33> hits{};
        pool.parallelFor(n, [&](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < hits.size(); ++i)
            ASSERT_EQ(hits[i], i < n ? 1 : 0)
                << "batch " << iter << " (n=" << n << "), index " << i;
    }
}

TEST(Pool, SetGlobalThreadsReplacesTheGlobalPool)
{
    Pool::setGlobalThreads(3);
    EXPECT_EQ(Pool::global().threads(), 3);
    Pool::setGlobalThreads(1);
    EXPECT_EQ(Pool::global().threads(), 1);
}

TEST(PoolDeath, ForkedChildExitsWithoutJoiningParentWorkers)
{
    // A fork()ed child has none of the parent's worker threads. Its
    // exit handlers must not destroy (join) the inherited global pool,
    // or DFAULT_FATAL death tests hang or crash on multi-core hosts.
    Pool::setGlobalThreads(4);
    std::atomic<int> ran{0};
    Pool::global().parallelFor(64, [&](std::size_t) { ++ran; });
    ASSERT_EQ(ran.load(), 64);
    EXPECT_EXIT(std::exit(3), ::testing::ExitedWithCode(3), "");
    Pool::setGlobalThreads(1);
}

} // namespace
} // namespace dfault::par
