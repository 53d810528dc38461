#include "obs/timer.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"
#include "obs/span.hh"

namespace dfault::obs {

namespace {

using Clock = std::chrono::steady_clock;

/** One entry of the per-thread phase stack (see file comment). */
struct Frame
{
    std::string path;
    Clock::time_point start;
    double childSeconds = 0.0; ///< timers nested on this thread
    std::uint64_t span = 0;    ///< 0 when untraced
    std::uint64_t parentSpan = 0;
    std::string detail;
    bool timed = true; ///< false for a pool task's frame
};

thread_local std::vector<Frame> t_frames;

/** Push a frame for @p path, parented to the span @p parent_span. */
std::size_t
pushFrame(std::string path, std::uint64_t parent_span, bool timed)
{
    std::vector<Frame> &frames = t_frames;
    // The only fallible step comes first: if it throws, nothing is
    // pushed and no span is opened.
    Frame &frame = frames.emplace_back();
    frame.path = std::move(path);
    frame.parentSpan = parent_span;
    frame.timed = timed;
    frame.span = SpanTracer::instance().openSpan();
    // Only timers and spans read the clock; an untraced task frame
    // (one per pool task) stays clock-free.
    if (timed || frame.span != 0)
        frame.start = Clock::now();
    return frames.size() - 1;
}

/**
 * Leave the innermost frame of @p frames, which must sit at @p depth,
 * without popping it: credit its time to the frame below and close its
 * span. Returns its inclusive seconds (0 for an untraced task frame).
 */
double
leaveFrame(std::vector<Frame> &frames, std::size_t depth)
{
    DFAULT_ASSERT(frames.size() == depth + 1,
                  "phase stack corrupted: timers must strictly nest");
    Frame &frame = frames.back();
    const Clock::time_point end =
        frame.timed || frame.span != 0 ? Clock::now() : frame.start;
    const double seconds =
        std::chrono::duration<double>(end - frame.start).count();
    // A task frame is transparent: only its timers count as child
    // time of the frame below.
    if (depth > 0)
        frames[depth - 1].childSeconds +=
            frame.timed ? seconds : frame.childSeconds;
    if (frame.span != 0) {
        auto &tracer = SpanTracer::instance();
        TraceEntry span;
        span.id = frame.span;
        span.parent = frame.parentSpan;
        span.startNs = tracer.sinceEnable(frame.start);
        span.endNs = tracer.sinceEnable(end);
        span.name = frame.timed
                        ? frame.path.substr(frame.path.rfind('.') + 1)
                        : "task";
        span.path = frame.path;
        span.detail = std::move(frame.detail);
        tracer.closeSpan(std::move(span));
    }
    return seconds;
}

} // namespace

ScopedTimer::ScopedTimer(std::string_view phase, Registry *registry)
    : registry_(registry != nullptr ? *registry : Registry::instance())
{
    DFAULT_ASSERT(!phase.empty(), "timer phase name must be non-empty");
    DFAULT_ASSERT(phase.find('.') == std::string_view::npos,
                  "timer phase must be a single path segment: ", phase);
    std::string path;
    std::uint64_t parent_span = 0;
    if (!t_frames.empty()) {
        const Frame &parent = t_frames.back();
        if (!parent.path.empty())
            path = parent.path + '.';
        parent_span = parent.span;
    }
    path += phase;
    depth_ = pushFrame(std::move(path), parent_span, true);
}

ScopedTimer::~ScopedTimer()
{
    std::vector<Frame> &frames = t_frames;
    const double seconds = leaveFrame(frames, depth_);
    const Frame &frame = frames.back();
    const std::string &path = frame.path;
    registry_.gauge("time." + path + ".seconds",
                    "wall-clock seconds inside phase " + path)
        .add(seconds);
    registry_.gauge("time." + path + ".exclusive_seconds",
                    "seconds inside phase " + path +
                        " outside its same-thread nested timers")
        .add(std::max(0.0, seconds - frame.childSeconds));
    registry_.counter("time." + path + ".calls",
                      "entries into phase " + path)
        .inc();
    frames.pop_back();
    // A top-level phase boundary: snapshot the counters this run has
    // accumulated so the trace gets a counter-track data point.
    if (frames.empty() && SpanTracer::instance().enabled())
        SpanTracer::instance().sampleCounters(registry_);
}

double
ScopedTimer::elapsed() const
{
    return std::chrono::duration<double>(Clock::now() -
                                         t_frames[depth_].start)
        .count();
}

std::string
ScopedTimer::currentPath()
{
    return t_frames.empty() ? std::string() : t_frames.back().path;
}

PhaseContext
ScopedTimer::context()
{
    if (t_frames.empty())
        return {};
    return {t_frames.back().path, t_frames.back().span};
}

void
ScopedTimer::annotate(std::string_view detail)
{
    if (!t_frames.empty() && t_frames.back().span != 0)
        t_frames.back().detail = detail;
}

PhaseAdoption::PhaseAdoption(const PhaseContext &context)
{
    // Untraced, a transparent frame whose path the thread already has
    // changes nothing: skip it, so the submitter (and every untimed
    // top-level batch) pays no stack traffic per task.
    const std::vector<Frame> &frames = t_frames;
    const bool same_path = frames.empty() ? context.path.empty()
                                          : frames.back().path == context.path;
    if (same_path && !SpanTracer::instance().enabled())
        return;
    depth_ = pushFrame(context.path, context.span, false);
    pushed_ = true;
}

PhaseAdoption::~PhaseAdoption()
{
    if (!pushed_)
        return;
    std::vector<Frame> &frames = t_frames;
    leaveFrame(frames, depth_);
    frames.pop_back();
}

std::vector<PhaseTime>
phaseTimes(const Registry *registry)
{
    const Registry &reg =
        registry != nullptr ? *registry : Registry::instance();
    constexpr std::string_view prefix = "time.";
    constexpr std::string_view suffix = ".seconds";
    std::vector<PhaseTime> out;
    for (const std::string &name : reg.names()) {
        if (!name.starts_with(prefix) || !name.ends_with(suffix))
            continue;
        PhaseTime pt;
        pt.path = name.substr(prefix.size(), name.size() - prefix.size() -
                                                 suffix.size());
        pt.seconds = reg.value(name);
        const std::string base = std::string(prefix) + pt.path;
        if (reg.has(base + ".exclusive_seconds"))
            pt.exclusiveSeconds = reg.value(base + ".exclusive_seconds");
        if (reg.has(base + ".calls"))
            pt.calls = static_cast<std::uint64_t>(
                reg.value(base + ".calls"));
        out.push_back(std::move(pt));
    }
    // Registry order sorts "<p>.seconds" after "<p>.<child>.seconds";
    // sorting by path puts parents before their children.
    std::sort(out.begin(), out.end(),
              [](const PhaseTime &a, const PhaseTime &b) {
                  return a.path < b.path;
              });
    return out;
}

} // namespace dfault::obs
