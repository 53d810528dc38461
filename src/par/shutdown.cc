#include "par/shutdown.hh"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.hh"
#include "par/cancel.hh"

namespace dfault::par {

namespace {

// All handler-visible state is lock-free atomics or plain fds set up
// before sigaction() installs the handler.
std::atomic<int> g_signal{0};
int g_pipe[2] = {-1, -1};

std::mutex g_install_mutex;
bool g_installed = false;
std::thread g_monitor;
struct sigaction g_old_int;
struct sigaction g_old_term;

// Preformatted at compile time: handlers must not format.
constexpr char kNoticeInt[] =
    "\ninfo: SIGINT received - draining in-flight work"
    " (repeat to exit immediately)\n";
constexpr char kNoticeTerm[] =
    "\ninfo: SIGTERM received - draining in-flight work"
    " (repeat to exit immediately)\n";
constexpr char kNoticeSecond[] = "\ninfo: second signal - exiting now\n";

extern "C" void
shutdownHandler(int sig)
{
    int expected = 0;
    if (g_signal.compare_exchange_strong(expected, sig,
                                         std::memory_order_acq_rel)) {
        rawWrite(STDERR_FILENO,
                 sig == SIGINT ? kNoticeInt : kNoticeTerm,
                 sig == SIGINT ? sizeof(kNoticeInt) - 1
                               : sizeof(kNoticeTerm) - 1);
        const char byte = 1;
        rawWrite(g_pipe[1], &byte, 1);
    } else {
        rawWrite(STDERR_FILENO, kNoticeSecond, sizeof(kNoticeSecond) - 1);
        _Exit(128 + sig);
    }
}

/**
 * Blocks on the self-pipe; wakes on the first signal (byte 1, cancel
 * the run) or on uninstall (byte 0, just exit).
 */
void
monitorLoop()
{
    char byte = 0;
    for (;;) {
        const ssize_t n = ::read(g_pipe[0], &byte, 1);
        if (n < 0 && errno == EINTR)
            continue;
        break;
    }
    if (byte != 1)
        return;
    const int sig = g_signal.load(std::memory_order_acquire);
    cancel(sig == SIGINT ? "received SIGINT" : "received SIGTERM",
           "signal");
}

} // namespace

void
installSignalHandlers()
{
    std::lock_guard<std::mutex> lock(g_install_mutex);
    if (g_installed)
        return;
    if (::pipe(g_pipe) != 0)
        DFAULT_FATAL("cannot create shutdown self-pipe: ",
                     std::strerror(errno));
    ::fcntl(g_pipe[0], F_SETFD, FD_CLOEXEC);
    ::fcntl(g_pipe[1], F_SETFD, FD_CLOEXEC);
    g_monitor = std::thread(monitorLoop);
    // fatal() calls std::exit while the handlers may be installed;
    // destroying a joinable std::thread there would std::terminate().
    // Detach instead and let the monitor die with the process.
    static const bool detach_at_exit = [] {
        std::atexit([] {
            if (g_monitor.joinable())
                g_monitor.detach();
        });
        return true;
    }();
    (void)detach_at_exit;

    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = shutdownHandler;
    sigemptyset(&sa.sa_mask);
    // No SA_RESTART: blocking syscalls in the drain path should see
    // EINTR and re-check par::cancelled() instead of blocking on.
    ::sigaction(SIGINT, &sa, &g_old_int);
    ::sigaction(SIGTERM, &sa, &g_old_term);
    g_installed = true;
}

void
uninstallSignalHandlers()
{
    std::lock_guard<std::mutex> lock(g_install_mutex);
    if (!g_installed)
        return;
    ::sigaction(SIGINT, &g_old_int, nullptr);
    ::sigaction(SIGTERM, &g_old_term, nullptr);
    // Wake the monitor if no signal ever arrived; if one did, the
    // monitor consumed the byte 1 and this byte 0 is left unread.
    const char byte = 0;
    rawWrite(g_pipe[1], &byte, 1);
    if (g_monitor.joinable())
        g_monitor.join();
    ::close(g_pipe[0]);
    ::close(g_pipe[1]);
    g_pipe[0] = g_pipe[1] = -1;
    g_installed = false;
}

int
shutdownExitCode()
{
    const int sig = g_signal.load(std::memory_order_acquire);
    return sig == 0 ? 0 : 128 + sig;
}

} // namespace dfault::par
