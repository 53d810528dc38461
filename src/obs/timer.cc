#include "obs/timer.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/span.hh"

namespace dfault::obs {

namespace {

thread_local std::vector<std::string> t_phaseStack;

std::string
joinStack()
{
    std::string path;
    for (const std::string &segment : t_phaseStack) {
        if (!path.empty())
            path += '.';
        path += segment;
    }
    return path;
}

} // namespace

ScopedTimer::ScopedTimer(std::string_view phase, Registry *registry)
    : registry_(registry != nullptr ? *registry : Registry::instance()),
      start_(std::chrono::steady_clock::now())
{
    DFAULT_ASSERT(!phase.empty(), "timer phase name must be non-empty");
    DFAULT_ASSERT(phase.find('.') == std::string_view::npos,
                  "timer phase must be a single path segment: ", phase);
    // Build the dotted path before touching the stack: if any of the
    // allocations below throw, the constructor never completes, the
    // destructor never runs, and the stack must be exactly as we
    // found it.
    path_ = joinStack();
    if (!path_.empty())
        path_ += '.';
    path_ += phase;
    t_phaseStack.emplace_back(phase);
    try {
        spanId_ = SpanTracer::instance().beginSpan(phase, path_);
    } catch (...) {
        t_phaseStack.pop_back();
        throw;
    }
}

ScopedTimer::~ScopedTimer()
{
    const double seconds = elapsed();
    SpanTracer::instance().endSpan(spanId_);
    DFAULT_ASSERT(!t_phaseStack.empty() && path_.ends_with(
                      t_phaseStack.back()),
                  "phase stack corrupted: timers must strictly nest");
    t_phaseStack.pop_back();
    registry_.gauge("time." + path_ + ".seconds",
                    "wall-clock seconds inside phase " + path_)
        .add(seconds);
    registry_.counter("time." + path_ + ".calls",
                      "entries into phase " + path_)
        .inc();
    // A top-level phase boundary: snapshot the counters this run has
    // accumulated so the trace gets a counter-track data point.
    if (t_phaseStack.empty() && SpanTracer::instance().enabled())
        SpanTracer::instance().sampleCounters(registry_);
}

double
ScopedTimer::elapsed() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start_)
        .count();
}

std::string
ScopedTimer::currentPath()
{
    return joinStack();
}

PhaseAdoption::PhaseAdoption(const std::string &path)
{
    // Parse into a local vector first: if a segment allocation throws
    // the half-built constructor never runs its destructor, so the
    // thread's stack must not have been moved away yet (it used to
    // be, leaving the stack corrupted on bad_alloc).
    std::vector<std::string> segments;
    std::size_t begin = 0;
    while (begin <= path.size() && !path.empty()) {
        const std::size_t dot = path.find('.', begin);
        const std::size_t end = dot == std::string::npos ? path.size()
                                                         : dot;
        DFAULT_ASSERT(end > begin,
                      "phase path has an empty segment: ", path);
        segments.emplace_back(path.substr(begin, end - begin));
        if (dot == std::string::npos)
            break;
        begin = dot + 1;
    }
    saved_ = std::move(t_phaseStack);
    t_phaseStack = std::move(segments);
}

PhaseAdoption::~PhaseAdoption()
{
    t_phaseStack = std::move(saved_);
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
        const std::string calls = std::string(prefix) + pt.path + ".calls";
        pt.calls = reg.has(calls)
                       ? static_cast<std::uint64_t>(reg.value(calls))
                       : 0;
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
