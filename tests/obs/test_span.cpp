/**
 * @file
 * Span tracer tests: ring wraparound, the drain precondition, span
 * parentage of timer and task frames across pool dispatch, and the
 * Chrome trace-event export.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/json.hh"
#include "obs/span.hh"
#include "obs/stats.hh"
#include "obs/timer.hh"
#include "obs/trace_writer.hh"
#include "par/pool.hh"

namespace dfault::obs {
namespace {

/** Completed Span entries among @p entries. */
std::vector<TraceEntry>
spansOf(const std::vector<TraceEntry> &entries)
{
    std::vector<TraceEntry> spans;
    for (const TraceEntry &e : entries)
        if (e.kind == TraceKind::Span)
            spans.push_back(e);
    return spans;
}

TEST(SpanTracerDeathTest, DrainWithOpenTimerAborts)
{
    auto &tracer = SpanTracer::instance();
    tracer.enable();
    {
        Registry reg;
        const ScopedTimer open("open", &reg);
        EXPECT_DEATH((void)tracer.drain(), "still open");
    }
    tracer.disable();
    EXPECT_EQ(spansOf(tracer.drain()).size(), 1u);
}

TEST(SpanTracer, DisabledTracerRecordsNothing)
{
    auto &tracer = SpanTracer::instance();
    tracer.disable();
    EXPECT_EQ(tracer.openSpan(), 0u);
    Registry reg;
    const ScopedTimer timer("x", &reg);
    EXPECT_EQ(ScopedTimer::context().span, 0u);
}

TEST(SpanTracer, RingWraparoundKeepsNewestSpans)
{
    auto &tracer = SpanTracer::instance();
    tracer.enable(4);
    for (int i = 0; i < 10; ++i)
        const PhaseAdoption task({"p" + std::to_string(i), 0});
    tracer.disable();

    EXPECT_EQ(tracer.dropped(), 6u); // 10 recorded into 4 slots
    const auto spans = spansOf(tracer.drain());
    ASSERT_EQ(spans.size(), 4u);
    // Oldest-first drain of the newest four spans.
    for (int k = 0; k < 4; ++k)
        EXPECT_EQ(spans[static_cast<std::size_t>(k)].path,
                  "p" + std::to_string(6 + k));
}

TEST(SpanTracer, NestingRecordsParentage)
{
    auto &tracer = SpanTracer::instance();
    tracer.enable();
    Registry reg;
    std::uint64_t outer_id = 0, inner_id = 0;
    {
        const ScopedTimer outer("outer", &reg);
        outer_id = ScopedTimer::context().span;
        const ScopedTimer inner("inner", &reg);
        inner_id = ScopedTimer::context().span;
        ScopedTimer::annotate("which inner");
    }
    tracer.disable();
    const auto spans = spansOf(tracer.drain());
    ASSERT_EQ(spans.size(), 2u);
    const TraceEntry &outer_e =
        spans[0].id == outer_id ? spans[0] : spans[1];
    const TraceEntry &inner_e =
        spans[0].id == inner_id ? spans[0] : spans[1];
    EXPECT_EQ(outer_e.id, outer_id);
    EXPECT_EQ(outer_e.parent, 0u);
    EXPECT_EQ(outer_e.name, "outer");
    EXPECT_EQ(inner_e.id, inner_id);
    EXPECT_EQ(inner_e.parent, outer_id);
    EXPECT_EQ(inner_e.name, "inner");
    EXPECT_EQ(inner_e.path, "outer.inner");
    EXPECT_EQ(inner_e.detail, "which inner");
    EXPECT_LE(inner_e.endNs, outer_e.endNs); // child inside parent
}

TEST(SpanTracer, TimerSpansParentThroughTaskToSubmitter)
{
    par::Pool::setGlobalThreads(8);
    auto &tracer = SpanTracer::instance();
    tracer.enable();
    Registry reg;
    std::uint64_t root_id = 0;
    {
        const ScopedTimer root("submit_root", &reg);
        root_id = ScopedTimer::context().span;
        par::Pool::global().parallelFor(64, [&](std::size_t) {
            const ScopedTimer cell("cell", &reg);
            // Long enough that the workers pick up their share
            // before the submitter could drain the whole batch.
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        });
    }
    tracer.disable();

    std::unordered_map<std::uint64_t, TraceEntry> spans;
    std::uint32_t root_tid = 0;
    for (const TraceEntry &e : spansOf(tracer.drain())) {
        spans[e.id] = e;
        if (e.id == root_id)
            root_tid = e.tid;
    }
    ASSERT_TRUE(spans.count(root_id));
    int task_spans = 0, cells = 0, worker_cells = 0;
    for (const auto &[id, e] : spans) {
        if (e.name == "task") {
            ++task_spans;
            // Worker or submitter alike: every task span hangs off the
            // span that was open on the submitting thread.
            EXPECT_EQ(e.parent, root_id);
            EXPECT_EQ(e.path, "submit_root");
        }
        if (e.name != "cell")
            continue;
        ++cells;
        EXPECT_EQ(e.path, "submit_root.cell");
        // A timer inside a pool task is parented to that task's span,
        // on the thread that ran it.
        const auto task = spans.find(e.parent);
        ASSERT_NE(task, spans.end());
        EXPECT_EQ(task->second.name, "task");
        EXPECT_EQ(task->second.tid, e.tid);
        EXPECT_EQ(task->second.parent, root_id);
        if (e.tid != root_tid)
            ++worker_cells;
    }
    EXPECT_GT(task_spans, 0);
    EXPECT_EQ(cells, 64);
    EXPECT_GT(worker_cells, 0);
}

TEST(SpanTracer, TaskSpanCountMatchesExecutedCounter)
{
    par::Pool::setGlobalThreads(8);
    auto &reg = Registry::instance();
    const auto executed = [&] {
        return reg.has("par.tasks_executed")
                   ? reg.value("par.tasks_executed")
                   : 0.0;
    };

    auto &tracer = SpanTracer::instance();
    tracer.enable();
    const double before = executed();
    par::Pool::global().parallelFor(64, [](std::size_t) {});
    par::Pool::global().parallelFor(3, [](std::size_t) {});
    const double delta = executed() - before;
    tracer.disable();

    int task_spans = 0;
    std::set<std::uint64_t> flow_begin, flow_end;
    for (const TraceEntry &e : tracer.drain()) {
        if (e.kind == TraceKind::Span && e.name == "task")
            ++task_spans;
        if (e.kind == TraceKind::FlowBegin)
            flow_begin.insert(e.id);
        if (e.kind == TraceKind::FlowEnd)
            flow_end.insert(e.id);
    }
    EXPECT_EQ(static_cast<double>(task_spans), delta);
    // Every dispatch arrow that was picked up has its origin recorded.
    EXPECT_EQ(flow_begin, flow_end);
}

/** Traced workload mixing nested timers with pool tasks. */
void
runTracedWorkload()
{
    Registry reg;
    const ScopedTimer outer("outer", &reg);
    par::Pool::global().parallelFor(32, [&](std::size_t) {
        const ScopedTimer cell("cell", &reg);
        volatile double sink = 0.0;
        for (int k = 0; k < 2000; ++k)
            sink = sink + static_cast<double>(k);
    });
    const ScopedTimer tail("tail", &reg);
}

TEST(TraceJson, ExportParsesAndMatchesSpanCount)
{
    par::Pool::setGlobalThreads(8);
    auto &tracer = SpanTracer::instance();
    tracer.enable();
    runTracedWorkload();
    tracer.disable();

    const auto entries = tracer.drain();
    const auto spans = spansOf(entries);
    ASSERT_FALSE(spans.empty());

    std::string error;
    const auto doc = jsonParse(traceJson(entries), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    std::size_t slices = 0;
    for (const JsonValue &event : events->array) {
        const JsonValue *ph = event.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->string == "X")
            ++slices;
    }
    EXPECT_EQ(slices, spans.size());
}

TEST(TraceJson, CounterSamplesBecomeCounterTracks)
{
    auto &tracer = SpanTracer::instance();
    tracer.enable();
    Registry reg;
    reg.counter("demo.widgets", "widgets made").inc(42);
    tracer.sampleCounters(reg);
    tracer.disable();

    const auto entries = tracer.drain();
    std::string error;
    const auto doc = jsonParse(traceJson(entries), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    bool found = false;
    for (const JsonValue &event : doc->find("traceEvents")->array) {
        const JsonValue *ph = event.find("ph");
        if (ph == nullptr || ph->string != "C")
            continue;
        if (event.find("name")->string != "demo.widgets")
            continue;
        found = true;
        EXPECT_EQ(event.find("args")->find("value")->number, 42.0);
    }
    EXPECT_TRUE(found);
}

} // namespace
} // namespace dfault::obs
