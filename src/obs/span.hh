/**
 * @file
 * Low-overhead span tracing with per-thread bounded ring buffers.
 *
 * A span is one timed interval on one thread: begin/end timestamps
 * (nanoseconds since the tracer was enabled), the thread that ran it,
 * and the span that encloses it. The tracer keeps no phase stack of its
 * own: the frames of obs/timer.hh are the only one. Every ScopedTimer
 * frame and every pool "task" frame (PhaseAdoption) takes a span id
 * when it is entered and records one completed span when it is left,
 * parented to the frame below it or, at a task's base, to the
 * submitter's span. Pool task dispatch additionally records flow events
 * linking the moment a task was queued on the submitter to the moment
 * a thread picked it up, so the Perfetto view shows arrows from
 * submission to execution.
 *
 * Recording is wait-free with respect to other threads: each thread
 * owns a bounded ring (default 64 Ki entries) guarded by a mutex that
 * is only ever contended by drain(), which runs once at export time,
 * after every span has closed. When a ring is full the *oldest* entries
 * are overwritten, so a trace always keeps the newest spans and reports
 * how many were dropped.
 *
 * A disabled tracer costs one relaxed atomic load per would-be span.
 * See trace_writer.hh for the Chrome trace-event JSON exporter.
 */

#ifndef DFAULT_OBS_SPAN_HH
#define DFAULT_OBS_SPAN_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dfault::obs {

class Registry;

/** What one ring-buffer record describes. */
enum class TraceKind : std::uint8_t
{
    Span,          ///< completed interval
    FlowBegin,     ///< pool task queued on the submitting thread
    FlowEnd,       ///< the same task picked up by an executing thread
    CounterSample, ///< cumulative stat value at a phase boundary
};

/** One drained trace record; field use depends on kind. */
struct TraceEntry
{
    TraceKind kind = TraceKind::Span;
    std::uint32_t tid = 0;     ///< tracer-assigned thread index
    std::uint64_t id = 0;      ///< span id, or flow id for flow events
    std::uint64_t parent = 0;  ///< enclosing span id (0 = thread root)
    std::uint64_t startNs = 0; ///< since the tracer was enabled
    std::uint64_t endNs = 0;   ///< spans only
    std::string name;          ///< phase segment / counter name
    std::string path;          ///< full dotted phase path at begin
    std::string detail;        ///< free-form annotation (args.detail)
    double value = 0.0;        ///< counter samples only
};

/** See file comment. */
class SpanTracer
{
  public:
    static constexpr std::size_t kDefaultRingCapacity = 1 << 16;

    /** The process-wide tracer shared by timers and the pool. */
    static SpanTracer &instance();

    SpanTracer() = default;
    SpanTracer(const SpanTracer &) = delete;
    SpanTracer &operator=(const SpanTracer &) = delete;

    /**
     * Start recording. @p ring_capacity bounds the entries kept *per
     * thread*; older entries are overwritten once a ring fills.
     * Re-enabling resets the epoch and discards prior entries.
     */
    void enable(std::size_t ring_capacity = kDefaultRingCapacity);

    /** Stop recording (drained entries remain until the next enable). */
    void disable();

    /** Cheap producer-side guard: one relaxed atomic load. */
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Fresh process-unique id for a span or flow arrow. */
    std::uint64_t newId();

    /**
     * Id for a span entered now, counted as open until closeSpan();
     * 0 (nothing opened) when disabled.
     */
    std::uint64_t openSpan();

    /**
     * Record the completed span @p span (id from openSpan(), parent,
     * timestamps, name, path and detail filled in by the caller) on the
     * calling thread's ring, and close its id.
     */
    void closeSpan(TraceEntry span);

    /** Record one side of a submission->execution flow arrow. */
    void flowEvent(TraceKind kind, std::uint64_t flow_id,
                   std::string_view path);

    /**
     * Record the cumulative value of every Counter in @p registry as a
     * CounterSample (drawn as counter tracks in Perfetto). ScopedTimer
     * calls this when a top-level phase ends.
     */
    void sampleCounters(const Registry &registry);

    /**
     * Copy out every recorded entry, oldest first per thread, merged
     * and sorted by startNs.
     * @pre no span is open on any thread (every frame has been left).
     */
    std::vector<TraceEntry> drain();

    /** Entries overwritten by ring wraparound since enable(). */
    std::uint64_t dropped() const;

    /** Nanoseconds from enable() to @p t (0 for earlier instants). */
    std::uint64_t sinceEnable(std::chrono::steady_clock::time_point t) const;

  private:
    /** Per-thread state; shared_ptr keeps it alive past thread exit. */
    struct ThreadRing
    {
        std::mutex mutex;
        std::uint32_t tid = 0;
        std::vector<TraceEntry> ring; ///< capacity fixed at enable
        std::size_t next = 0;         ///< overwrite cursor (oldest)
        std::uint64_t dropped = 0;
    };

    ThreadRing &localRing();
    void push(TraceEntry entry);

    static thread_local std::shared_ptr<ThreadRing> t_ring_;

    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> nextId_{1};
    std::atomic<std::int64_t> openSpans_{0};
    std::chrono::steady_clock::time_point epoch_{};
    mutable std::mutex mutex_; ///< guards rings_
    std::vector<std::shared_ptr<ThreadRing>> rings_;
    std::atomic<std::size_t> capacity_{kDefaultRingCapacity};
};

} // namespace dfault::obs

#endif // DFAULT_OBS_SPAN_HH
