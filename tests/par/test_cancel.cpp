/**
 * @file
 * Tests for the process-wide cancellation flag (par/cancel.hh) —
 * first-cancel-wins, reset, a race of concurrent cancels against
 * running batches — and for how cancellation flows through
 * parallelForResilient: dispositions, BatchError aggregation when a
 * cancellation races a real task failure, and the all-cancelled
 * CancelledError fast path. Runs at 1, 2, 4 and 8 threads; the
 * 1-thread pool is the serial reference the parallel runs must agree
 * with.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "par/cancel.hh"
#include "par/pool.hh"

namespace dfault::par {
namespace {

struct CancelTest : ::testing::Test
{
    void TearDown() override { resetCancellation(); }
};

TEST_F(CancelTest, CancelSetsReasonAndOrigin)
{
    EXPECT_FALSE(cancelled());
    EXPECT_EQ(cancelReason(), "");
    EXPECT_EQ(cancelOrigin(), "");
    throwIfCancelled(); // no-op while not cancelled

    cancel("user pressed ^C", "signal");
    EXPECT_TRUE(cancelled());
    EXPECT_EQ(cancelReason(), "user pressed ^C");
    EXPECT_EQ(cancelOrigin(), "signal");
}

TEST_F(CancelTest, FirstCancelWins)
{
    cancel("first", "a");
    cancel("second", "b");
    EXPECT_EQ(cancelReason(), "first");
    EXPECT_EQ(cancelOrigin(), "a");
}

TEST_F(CancelTest, ThrowIfCancelledCarriesReasonAndOrigin)
{
    cancel("deadline of 2 s exceeded", "deadline");
    try {
        throwIfCancelled();
        FAIL() << "expected CancelledError";
    } catch (const CancelledError &e) {
        EXPECT_EQ(e.reason(), "deadline of 2 s exceeded");
        EXPECT_EQ(e.origin(), "deadline");
        EXPECT_NE(std::string(e.what()).find("deadline of 2 s"),
                  std::string::npos);
    }
}

TEST_F(CancelTest, ResetClearsTheCancellation)
{
    cancel("stale", "test");
    ASSERT_TRUE(cancelled());
    resetCancellation();
    EXPECT_FALSE(cancelled());
    EXPECT_EQ(cancelReason(), "");
    EXPECT_EQ(cancelOrigin(), "");
    // A run after the reset can be cancelled again, with a new reason.
    cancel("fresh", "test2");
    EXPECT_EQ(cancelReason(), "fresh");
    EXPECT_EQ(cancelOrigin(), "test2");
}

/**
 * Several threads cancel at once, each with its own reason, while a
 * 4-slot pool runs back-to-back batches whose bodies poll the flag.
 * Exactly one (reason, origin) pair wins, and every CancelledError a
 * body sees, every TaskFailure the pool records and cancelReason()
 * itself carry that pair, never a loser's or a mix of two. After
 * resetCancellation() a fresh batch runs clean.
 */
TEST_F(CancelTest, RacingCancelsAgreeOnOneWinner)
{
    constexpr int kCancellers = 4;
    constexpr std::size_t kTasks = 64;
    Pool pool(4);
    ResilienceOptions opts;
    opts.failFast = false;
    for (int round = 0; round < 20; ++round) {
        SCOPED_TRACE("round=" + std::to_string(round));
        std::atomic<bool> go{false};
        std::vector<std::thread> cancellers;
        for (int c = 0; c < kCancellers; ++c)
            cancellers.emplace_back([c, &go] {
                while (!go.load())
                    std::this_thread::yield();
                cancel("reason " + std::to_string(c),
                       "origin " + std::to_string(c));
            });

        std::mutex mutex;
        std::vector<std::string> thrown; // guarded by mutex
        std::vector<TaskFailure> failures;
        // The third batch releases the cancellers from inside a task,
        // so the cancels land while its siblings run. Batches go on
        // until one drains wholly cancelled: every later batch is past
        // the winning cancel.
        for (int batch = 0; batch < 100000; ++batch) {
            const auto lost = pool.parallelForResilient(
                kTasks,
                [&](std::size_t i, int) {
                    if (batch == 2 && i == kTasks / 2)
                        go.store(true);
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(20));
                    try {
                        throwIfCancelled();
                    } catch (const CancelledError &e) {
                        std::lock_guard<std::mutex> lock(mutex);
                        thrown.push_back(e.what());
                        throw;
                    }
                },
                opts);
            failures.insert(failures.end(), lost.begin(), lost.end());
            if (lost.size() == kTasks)
                break;
        }
        for (std::thread &t : cancellers)
            t.join();

        ASSERT_TRUE(cancelled());
        const std::string reason = cancelReason();
        const std::string origin = cancelOrigin();
        ASSERT_EQ(reason.substr(0, 7), "reason ");
        EXPECT_EQ(origin, "origin " + reason.substr(7));
        const std::string expected = CancelledError(reason, origin).what();
        ASSERT_GE(failures.size(), kTasks);
        for (const TaskFailure &f : failures) {
            EXPECT_EQ(f.disposition, TaskDisposition::Cancelled);
            EXPECT_EQ(f.error, expected);
        }
        for (const std::string &what : thrown)
            EXPECT_EQ(what, expected);
        cancel("late", "late");
        EXPECT_EQ(cancelReason(), reason);
        EXPECT_EQ(cancelOrigin(), origin);

        resetCancellation();
        std::atomic<std::size_t> ran{0};
        EXPECT_TRUE(pool.parallelForResilient(
                            kTasks, [&](std::size_t, int) { ++ran; }, opts)
                        .empty());
        EXPECT_EQ(ran.load(), kTasks);
    }
}

/**
 * A cancellation racing a real failure inside one batch. Index 6
 * exhausts its retries long before the cancel arrives; index 7 parks
 * on the flag and can only leave via CancelledError; the cancel
 * comes from outside the batch, as a signal would. The pair sits at
 * the tail of the range so the failing index runs first under both
 * the inline path (ascending) and a worker's own-deque order
 * (descending) — at every thread count the batch must aggregate
 * exactly one Failed and one Cancelled index, sorted, with the other
 * six completing, and never retry the cancelled one.
 */
TEST_F(CancelTest, FailureAndCancellationMixAggregatesByDisposition)
{
    for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        Pool pool(threads);
        ResilienceOptions opts;
        opts.maxRetries = 2;
        opts.failFast = false;

        std::thread canceller([] {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
            cancel("stop now", "test");
        });
        std::atomic<int> completed{0};
        const auto failures = pool.parallelForResilient(
            8,
            [&](std::size_t i, int) {
                if (i == 6)
                    throw std::runtime_error("boom 6");
                if (i == 7) {
                    // Park until the cancel: it is the only exit,
                    // so this index observes it mid-body.
                    while (true) {
                        throwIfCancelled();
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(1));
                    }
                }
                ++completed;
            },
            opts);
        canceller.join();
        resetCancellation();

        ASSERT_EQ(failures.size(), 2u);
        EXPECT_EQ(completed.load(), 6);

        EXPECT_EQ(failures[0].index, 6u); // finishBatch sorts by index
        EXPECT_EQ(failures[0].disposition, TaskDisposition::Failed);
        EXPECT_EQ(failures[0].attempts, 3); // 1 + maxRetries, µs-fast
        EXPECT_EQ(failures[0].error, "boom 6");

        EXPECT_EQ(failures[1].index, 7u);
        EXPECT_EQ(failures[1].disposition, TaskDisposition::Cancelled);
        // One running attempt observed the cancel; a cancelled index
        // is never retried even with retry budget left.
        EXPECT_EQ(failures[1].attempts, 1);
        EXPECT_NE(failures[1].error.find("stop now"),
                  std::string::npos);
    }
}

TEST_F(CancelTest, MixedBatchErrorMessageCountsBothDispositions)
{
    // Serial pool so the failure set is exact: one real failure, the
    // post-cancel tail cancelled.
    Pool pool(1);
    ResilienceOptions opts;
    opts.maxRetries = 0;
    opts.failFast = true;
    try {
        pool.parallelForResilient(
            6,
            [&](std::size_t i, int) {
                if (i == 1)
                    throw std::runtime_error("boom 1");
                if (i == 3)
                    cancel("stop", "test");
            },
            opts);
        FAIL() << "expected BatchError";
    } catch (const BatchError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("1 task(s) failed, 2 cancelled:"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("[1] boom 1"), std::string::npos) << msg;
        EXPECT_NE(msg.find("[4 cancelled]"), std::string::npos) << msg;
        ASSERT_EQ(e.failures().size(), 3u);
        EXPECT_EQ(e.failures()[0].disposition, TaskDisposition::Failed);
        EXPECT_EQ(e.failures()[1].disposition,
                  TaskDisposition::Cancelled);
        EXPECT_EQ(e.failures()[2].disposition,
                  TaskDisposition::Cancelled);
    }
}

TEST_F(CancelTest, AllCancelledFailFastBatchThrowsCancelledError)
{
    for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        Pool pool(threads);
        cancel("cancelled before submit", "test");
        ResilienceOptions opts;
        opts.failFast = true;
        bool body_ran = false;
        try {
            pool.parallelForResilient(
                4, [&](std::size_t, int) { body_ran = true; }, opts);
            FAIL() << "expected CancelledError";
        } catch (const CancelledError &e) {
            EXPECT_EQ(e.reason(), "cancelled before submit");
            EXPECT_EQ(e.origin(), "test");
        }
        EXPECT_FALSE(body_ran);
    }
}

TEST_F(CancelTest, AllCancelledNonFailFastBatchReturnsDispositions)
{
    Pool pool(2);
    cancel("early", "test");
    ResilienceOptions opts;
    opts.failFast = false;
    const auto failures =
        pool.parallelForResilient(3, [](std::size_t, int) {}, opts);
    ASSERT_EQ(failures.size(), 3u);
    std::set<std::size_t> indices;
    for (const auto &f : failures) {
        EXPECT_EQ(f.disposition, TaskDisposition::Cancelled);
        EXPECT_EQ(f.attempts, 0);
        indices.insert(f.index);
    }
    EXPECT_EQ(indices, (std::set<std::size_t>{0, 1, 2}));
}

TEST_F(CancelTest, BodyThrownCancelledErrorIsNotRetried)
{
    Pool pool(1);
    int attempts = 0;
    ResilienceOptions opts;
    opts.maxRetries = 5;
    opts.failFast = false;
    const auto failures = pool.parallelForResilient(
        1,
        [&](std::size_t, int) {
            ++attempts;
            throw CancelledError("observed mid-task", "test");
        },
        opts);
    EXPECT_EQ(attempts, 1); // retrying a cancellation is meaningless
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].disposition, TaskDisposition::Cancelled);
    EXPECT_EQ(failures[0].attempts, 1);
}

TEST_F(CancelTest, DefaultOptionsBatchSeesTheCancel)
{
    Pool pool(2);
    cancel("run stopped", "test");
    ResilienceOptions opts;
    opts.failFast = false;
    const auto failures =
        pool.parallelForResilient(2, [](std::size_t, int) {}, opts);
    ASSERT_EQ(failures.size(), 2u);
    EXPECT_EQ(failures[0].disposition, TaskDisposition::Cancelled);
    EXPECT_NE(failures[0].error.find("run stopped"),
              std::string::npos);
}

} // namespace
} // namespace dfault::par
