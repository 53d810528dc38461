#include "obs/span.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/stats.hh"

namespace dfault::obs {

thread_local std::shared_ptr<SpanTracer::ThreadRing>
    SpanTracer::t_ring_;

SpanTracer &
SpanTracer::instance()
{
    static SpanTracer tracer;
    return tracer;
}

void
SpanTracer::enable(std::size_t ring_capacity)
{
    DFAULT_ASSERT(ring_capacity > 0, "span ring capacity must be > 0");
    std::lock_guard<std::mutex> lock(mutex_);
    // Discard prior state: rings re-register lazily at their next
    // record under the fresh epoch and capacity.
    for (const auto &ring : rings_) {
        std::lock_guard<std::mutex> ring_lock(ring->mutex);
        ring->ring.clear();
        ring->next = 0;
        ring->dropped = 0;
    }
    capacity_.store(ring_capacity, std::memory_order_relaxed);
    epoch_ = std::chrono::steady_clock::now();
    nextId_.store(1, std::memory_order_relaxed);
    enabled_.store(true, std::memory_order_relaxed);
}

void
SpanTracer::disable()
{
    enabled_.store(false, std::memory_order_relaxed);
}

std::uint64_t
SpanTracer::newId()
{
    return nextId_.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
SpanTracer::sinceEnable(std::chrono::steady_clock::time_point t) const
{
    if (epoch_ == std::chrono::steady_clock::time_point{} || t < epoch_)
        return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
            .count());
}

SpanTracer::ThreadRing &
SpanTracer::localRing()
{
    if (!t_ring_) {
        auto ring = std::make_shared<ThreadRing>();
        std::lock_guard<std::mutex> lock(mutex_);
        ring->tid = static_cast<std::uint32_t>(rings_.size());
        rings_.push_back(ring);
        t_ring_ = std::move(ring);
    }
    return *t_ring_;
}

void
SpanTracer::push(TraceEntry entry)
{
    ThreadRing &ring = localRing();
    entry.tid = ring.tid;
    const std::size_t capacity =
        capacity_.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(ring.mutex);
    if (ring.ring.size() < capacity) {
        ring.ring.push_back(std::move(entry));
        ring.next = ring.ring.size() % capacity;
        return;
    }
    // Full: overwrite the oldest entry so the newest spans survive.
    ring.ring[ring.next] = std::move(entry);
    ring.next = (ring.next + 1) % capacity;
    ++ring.dropped;
}

std::uint64_t
SpanTracer::openSpan()
{
    if (!enabled())
        return 0;
    openSpans_.fetch_add(1, std::memory_order_relaxed);
    return newId();
}

void
SpanTracer::closeSpan(TraceEntry span)
{
    span.kind = TraceKind::Span;
    push(std::move(span));
    openSpans_.fetch_sub(1, std::memory_order_release);
}

void
SpanTracer::flowEvent(TraceKind kind, std::uint64_t flow_id,
                      std::string_view path)
{
    if (!enabled())
        return;
    DFAULT_ASSERT(kind == TraceKind::FlowBegin ||
                      kind == TraceKind::FlowEnd,
                  "flowEvent takes FlowBegin or FlowEnd");
    TraceEntry entry;
    entry.kind = kind;
    entry.id = flow_id;
    entry.startNs = sinceEnable(std::chrono::steady_clock::now());
    entry.path = path;
    push(std::move(entry));
}

void
SpanTracer::sampleCounters(const Registry &registry)
{
    if (!enabled())
        return;
    const std::uint64_t now =
        sinceEnable(std::chrono::steady_clock::now());
    for (const std::string &name : registry.names()) {
        if (registry.kindOf(name) != StatKind::Counter)
            continue;
        TraceEntry entry;
        entry.kind = TraceKind::CounterSample;
        entry.startNs = now;
        entry.name = name;
        entry.value = registry.value(name);
        push(std::move(entry));
    }
}

std::vector<TraceEntry>
SpanTracer::drain()
{
    const std::int64_t open =
        openSpans_.load(std::memory_order_acquire);
    DFAULT_ASSERT(open == 0, "trace drained with ", open,
                  " span(s) still open: leave every timer first");
    std::vector<std::shared_ptr<ThreadRing>> rings;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        rings = rings_;
    }
    std::vector<TraceEntry> out;
    for (const auto &ring : rings) {
        std::lock_guard<std::mutex> lock(ring->mutex);
        const std::size_t n = ring->ring.size();
        // Oldest first: the overwrite cursor points at the oldest
        // entry once the ring has wrapped.
        const std::size_t first = n > 0 ? ring->next % n : 0;
        for (std::size_t k = 0; k < n; ++k)
            out.push_back(ring->ring[(first + k) % n]);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceEntry &a, const TraceEntry &b) {
                         return a.startNs < b.startNs;
                     });
    return out;
}

std::uint64_t
SpanTracer::dropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const auto &ring : rings_) {
        std::lock_guard<std::mutex> ring_lock(ring->mutex);
        total += ring->dropped;
    }
    return total;
}

} // namespace dfault::obs
