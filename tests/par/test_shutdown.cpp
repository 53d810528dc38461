/**
 * @file
 * Tests for the signal-driven shutdown path (par/shutdown.hh). The
 * signal-raising cases run as death tests: each re-execs the binary,
 * raises the signal against the child and asserts on its exit code
 * and stderr, so the parent process never carries shutdown state
 * between tests.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <thread>

#include <unistd.h>

#include "par/cancel.hh"
#include "par/shutdown.hh"

namespace dfault::par {
namespace {

struct ShutdownTest : ::testing::Test
{
    void SetUp() override
    {
        ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    }

    void TearDown() override
    {
        uninstallSignalHandlers();
        resetCancellation();
    }
};

/** Park until the monitor thread has cancelled the run. */
bool
waitForCancel()
{
    for (int i = 0; i < 5000; ++i) {
        if (cancelled())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
}

TEST_F(ShutdownTest, InstallAndUninstallAreIdempotent)
{
    installSignalHandlers();
    installSignalHandlers();
    EXPECT_EQ(shutdownExitCode(), 0);
    uninstallSignalHandlers();
    uninstallSignalHandlers();
    EXPECT_EQ(shutdownExitCode(), 0);
    EXPECT_FALSE(cancelled());
}

TEST_F(ShutdownTest, FirstSigtermCancelsTheRunAndMapsToExit143)
{
    EXPECT_EXIT(
        {
            installSignalHandlers();
            ::raise(SIGTERM);
            if (!waitForCancel())
                ::_exit(99);
            if (cancelReason() != "received SIGTERM" ||
                cancelOrigin() != "signal")
                ::_exit(98);
            ::_exit(shutdownExitCode());
        },
        ::testing::ExitedWithCode(143), "SIGTERM received");
}

TEST_F(ShutdownTest, FirstSigintCancelsTheRunAndMapsToExit130)
{
    EXPECT_EXIT(
        {
            installSignalHandlers();
            ::raise(SIGINT);
            if (!waitForCancel())
                ::_exit(99);
            if (cancelReason() != "received SIGINT" ||
                cancelOrigin() != "signal")
                ::_exit(98);
            ::_exit(shutdownExitCode());
        },
        ::testing::ExitedWithCode(130), "SIGINT received");
}

TEST_F(ShutdownTest, SecondSignalExitsImmediately)
{
    EXPECT_EXIT(
        {
            installSignalHandlers();
            ::raise(SIGTERM);
            // Wait for the first signal to be acknowledged, then the
            // second one must _Exit(143) from inside the handler —
            // the sleep below is never reached.
            while (shutdownExitCode() == 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            ::raise(SIGTERM);
            std::this_thread::sleep_for(std::chrono::seconds(30));
            ::_exit(99);
        },
        ::testing::ExitedWithCode(143), "second signal - exiting now");
}

TEST_F(ShutdownTest, UninstallRestoresDefaultDisposition)
{
    EXPECT_EXIT(
        {
            installSignalHandlers();
            uninstallSignalHandlers();
            ::raise(SIGTERM); // default action: terminated by signal
            std::this_thread::sleep_for(std::chrono::seconds(30));
            ::_exit(99);
        },
        ::testing::KilledBySignal(SIGTERM), "");
}

} // namespace
} // namespace dfault::par
