#include "par/cancel.hh"

#include <atomic>
#include <mutex>

namespace dfault::par {
namespace {
std::atomic<bool> g_cancelled{false};
std::mutex g_mutex; // guards both strings and every flag store
std::string g_reason, g_origin; // of the first cancel since the reset
} // namespace

bool
cancelled()
{
    return g_cancelled.load(std::memory_order_relaxed);
}

void
cancel(const std::string &reason, const std::string &origin)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    if (g_cancelled.load(std::memory_order_relaxed))
        return; // the first cancel wins
    g_reason = reason;
    g_origin = origin;
    g_cancelled.store(true, std::memory_order_relaxed);
}

std::string
cancelReason()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    return cancelled() ? g_reason : "";
}

std::string
cancelOrigin()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    return cancelled() ? g_origin : "";
}

void
resetCancellation()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    g_cancelled.store(false, std::memory_order_relaxed);
}

} // namespace dfault::par
