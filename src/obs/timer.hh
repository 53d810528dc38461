/**
 * @file
 * RAII scoped timers over the one per-thread phase stack.
 *
 * Each thread keeps a stack of frames. Entering a phase pushes a frame
 * carrying the full dotted path ("cross_validate.fold.train"), its
 * start time, the seconds spent in same-thread child frames, and — when
 * the SpanTracer is enabled (obs/span.hh) — its span id. Leaving it
 * accumulates into the stats registry:
 *
 *   time.<path>.seconds            (Gauge)    wall-clock inside the phase
 *   time.<path>.exclusive_seconds  (Gauge)    ... minus nested timers
 *                                             on the same thread
 *   time.<path>.calls              (Counter)  times the phase was entered
 *
 * `seconds` is *inclusive*: the parent's seconds contain the
 * children's. `exclusive_seconds` subtracts the time of nested timers
 * that ran on the same thread; a child run by a pool worker overlaps
 * its parent in wall time, so it belongs to the worker's timeline.
 * Both sum thread time: a phase run by four workers at once reports
 * four times its wall clock. Summed over every path, exclusive time
 * equals the inclusive time of the thread-root timers. Timing uses the
 * steady clock; one timer costs two clock reads plus three relaxed
 * atomic updates, negligible at the phase granularity used here (per
 * measurement / per fold, never per access).
 *
 * Pool tasks run inside a PhaseAdoption: an untimed "task" frame that
 * carries the submitter's (path, span) context, so timers inside
 * parallel work accumulate under the same dotted paths as a serial
 * execution and their spans hang off the submitter's. With tracing on,
 * every frame records one completed span when it is left, and a
 * top-level phase end samples the registry's counters into Perfetto
 * counter tracks.
 */

#ifndef DFAULT_OBS_TIMER_HH
#define DFAULT_OBS_TIMER_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/stats.hh"

namespace dfault::obs {

/** Accumulated timing of one phase path, for reports. */
struct PhaseTime
{
    std::string path;    ///< dotted phase path, e.g. "profile"
    double seconds = 0.0;
    double exclusiveSeconds = 0.0;
    std::uint64_t calls = 0;
};

/** Where a thread is in the phase stack: what a pool task adopts. */
struct PhaseContext
{
    std::string path;      ///< dotted path ("" at top level)
    std::uint64_t span = 0; ///< innermost span id (0 when untraced)
};

/** See file comment. */
class ScopedTimer
{
  public:
    /**
     * Enter phase @p phase (a single path segment, no dots) of
     * @p registry; the destructor leaves the phase and accumulates the
     * elapsed wall time. Defaults to the global registry.
     */
    explicit ScopedTimer(std::string_view phase,
                         Registry *registry = nullptr);
    ~ScopedTimer();

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

    /** Elapsed seconds since this timer started (owning thread only). */
    double elapsed() const;

    /** Dotted path of the calling thread's current phase ("" at top
     *  level). */
    static std::string currentPath();

    /** The calling thread's innermost path and span. */
    static PhaseContext context();

    /**
     * Attach a free-form annotation to the calling thread's innermost
     * frame, exported as the span's args.detail (e.g. which workload a
     * "measure" span instance ran). No-op outside any frame or when
     * that frame is untraced; the last annotation wins.
     */
    static void annotate(std::string_view detail);

  private:
    Registry &registry_;
    std::size_t depth_; ///< this timer's index in the thread's stack
};

/**
 * Run the enclosing scope as one pool task of @p context: pushes an
 * untimed frame named "task" whose path is context.path and whose span
 * is parented to context.span. Timers inside it nest under that path
 * whichever thread runs the task; the frame publishes no time.* stats
 * and passes its timers' seconds through to the frame below it, so the
 * task's own overhead stays in the submitter's exclusive time when the
 * submitter runs the task itself. Popped on destruction. With tracing
 * off, a frame whose path the thread already has (the submitter
 * running its own task) would change nothing and is not pushed.
 */
class PhaseAdoption
{
  public:
    explicit PhaseAdoption(const PhaseContext &context);
    ~PhaseAdoption();

    PhaseAdoption(const PhaseAdoption &) = delete;
    PhaseAdoption &operator=(const PhaseAdoption &) = delete;

  private:
    std::size_t depth_ = 0;
    bool pushed_ = false;
};

/**
 * All phases recorded in @p registry (stats named time.<path>.seconds),
 * sorted by path. Defaults to the global registry.
 */
std::vector<PhaseTime> phaseTimes(const Registry *registry = nullptr);

} // namespace dfault::obs

#endif // DFAULT_OBS_TIMER_HH
