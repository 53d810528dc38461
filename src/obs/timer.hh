/**
 * @file
 * RAII scoped timers with a per-thread phase stack.
 *
 * Entering a phase pushes its name onto a thread-local stack; the full
 * dotted path ("cross_validate.fold.train") names the accumulation
 * target in the stats registry:
 *
 *   time.<path>.seconds   (Gauge)    total wall-clock inside the phase
 *   time.<path>.calls     (Counter)  times the phase was entered
 *
 * Nested phases therefore report *inclusive* time: the parent's seconds
 * contain the children's. Timing uses the steady clock; one timer costs
 * two clock reads plus two relaxed atomic updates, negligible at the
 * phase granularity used here (per measurement / per fold, never per
 * access).
 *
 * When the SpanTracer is enabled (obs/span.hh), every timer also
 * opens a span, so a --trace-events run records each phase *instance*
 * with begin/end timestamps and thread parentage; when a top-level
 * phase ends the tracer additionally samples the registry's counters
 * into Perfetto counter tracks. Exclusive-time attribution over those
 * spans lives in obs/trace_writer.hh.
 */

#ifndef DFAULT_OBS_TIMER_HH
#define DFAULT_OBS_TIMER_HH

#include <chrono>
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
    std::uint64_t calls = 0;
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

    /** Elapsed seconds since this timer started. */
    double elapsed() const;

    /** Dotted path of the calling thread's current phase stack ("" at
     *  top level). */
    static std::string currentPath();

  private:
    Registry &registry_;
    std::string path_;
    std::uint64_t spanId_ = 0; ///< 0 when tracing is disabled
    std::chrono::steady_clock::time_point start_;
};

/**
 * Temporarily replace the calling thread's phase stack with @p path
 * (a dotted path, possibly empty). Pool workers adopt the submitting
 * thread's phase path while executing its tasks, so timers started
 * inside parallel work accumulate under the same dotted paths as a
 * serial execution. The previous stack is restored on destruction.
 */
class PhaseAdoption
{
  public:
    explicit PhaseAdoption(const std::string &path);
    ~PhaseAdoption();

    PhaseAdoption(const PhaseAdoption &) = delete;
    PhaseAdoption &operator=(const PhaseAdoption &) = delete;

  private:
    std::vector<std::string> saved_;
};

/**
 * All phases recorded in @p registry (stats named time.<path>.seconds),
 * sorted by path. Defaults to the global registry.
 */
std::vector<PhaseTime> phaseTimes(const Registry *registry = nullptr);

} // namespace dfault::obs

#endif // DFAULT_OBS_TIMER_HH
