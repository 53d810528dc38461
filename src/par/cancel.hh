/**
 * @file
 * Process-wide cooperative cancellation: one flag stops the run. Signals
 * (par/shutdown.hh) and the watchdog deadline set it; the pool and long
 * loops poll it (docs/robustness.md, "Cancellation").
 */

#ifndef DFAULT_PAR_CANCEL_HH
#define DFAULT_PAR_CANCEL_HH

#include <stdexcept>
#include <string>
#include <utility>

namespace dfault::par {

/** Thrown by throwIfCancelled(); carries the cancel reason + origin. */
class CancelledError : public std::runtime_error
{
  public:
    CancelledError(std::string reason, std::string origin)
        : std::runtime_error("cancelled (" + origin + "): " + reason),
          reason_(std::move(reason)), origin_(std::move(origin))
    {
    }
    /** Why the run was cancelled ("received SIGTERM", ...). */
    const std::string &reason() const { return reason_; }
    /** Who cancelled it ("signal", "deadline", "user", ...). */
    const std::string &origin() const { return origin_; }

  private:
    std::string reason_;
    std::string origin_;
};

/** True once the run was cancelled: one relaxed atomic load. */
bool cancelled();

/** Cancel the run; the first call wins. Not async-signal-safe. */
void cancel(const std::string &reason, const std::string &origin);

/** Reason and origin of the winning cancel ("" while not cancelled). */
std::string cancelReason();
std::string cancelOrigin();

/** Throw CancelledError(cancelReason(), cancelOrigin()) if cancelled. */
inline void
throwIfCancelled()
{
    if (cancelled())
        throw CancelledError(cancelReason(), cancelOrigin());
}

/** Uncancel, for test fixtures and drivers; never with work in flight. */
void resetCancellation();

} // namespace dfault::par

#endif // DFAULT_PAR_CANCEL_HH
