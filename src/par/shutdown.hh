/**
 * @file
 * Graceful signal-driven shutdown (SIGINT/SIGTERM).
 *
 * installSignalHandlers() arms an async-signal-safe handler using the
 * self-pipe pattern:
 *
 *   first SIGINT/SIGTERM   record the signal in a lock-free atomic,
 *                          rawWrite() a preformatted notice to stderr,
 *                          poke one byte into a private pipe; a monitor
 *                          thread blocked on the read end then calls
 *                          par::cancel() (which takes a lock, so the
 *                          handler itself must never do it)
 *   second signal          _Exit(128 + sig) immediately — no draining,
 *                          no atexit, for when the drain itself wedges
 *
 * After the cancel, in-flight pool tasks finish (or observe
 * par::cancelled() and stop), queued tasks are skipped with the
 * "cancelled" disposition, and the driver falls through to its normal
 * artifact epilogue, marking the manifest "interrupted": true and
 * exiting 128 + sig (130 for SIGINT, 143 for SIGTERM). The handler
 * body touches only write(2), lock-free atomics and _Exit — see the
 * async-signal-safety note in common/logging.hh.
 */

#ifndef DFAULT_PAR_SHUTDOWN_HH
#define DFAULT_PAR_SHUTDOWN_HH

namespace dfault::par {

/**
 * Install the SIGINT/SIGTERM handlers and start the monitor thread.
 * Idempotent; call once near the top of main().
 */
void installSignalHandlers();

/**
 * Restore the previous signal dispositions and join the monitor
 * thread. Pending shutdown state (signal number) is preserved.
 */
void uninstallSignalHandlers();

/** Conventional exit code for the received signal (128+sig), or 0. */
int shutdownExitCode();

} // namespace dfault::par

#endif // DFAULT_PAR_SHUTDOWN_HH
