/**
 * @file
 * Scoped-timer tests: phase-stack nesting, accumulation into the stats
 * registry, exclusive time across pool dispatch and the phaseTimes()
 * report.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "obs/span.hh"
#include "obs/stats.hh"
#include "obs/timer.hh"
#include "par/pool.hh"

namespace dfault::obs {
namespace {

TEST(ScopedTimer, NestingBuildsDottedPaths)
{
    Registry reg;
    EXPECT_EQ(ScopedTimer::currentPath(), "");
    {
        const ScopedTimer outer("cross_validate", &reg);
        EXPECT_EQ(ScopedTimer::currentPath(), "cross_validate");
        {
            const ScopedTimer mid("fold", &reg);
            EXPECT_EQ(ScopedTimer::currentPath(), "cross_validate.fold");
            const ScopedTimer inner("train", &reg);
            EXPECT_EQ(ScopedTimer::currentPath(),
                      "cross_validate.fold.train");
        }
        EXPECT_EQ(ScopedTimer::currentPath(), "cross_validate");
    }
    EXPECT_EQ(ScopedTimer::currentPath(), "");

    EXPECT_TRUE(reg.has("time.cross_validate.seconds"));
    EXPECT_TRUE(reg.has("time.cross_validate.fold.seconds"));
    EXPECT_TRUE(reg.has("time.cross_validate.fold.train.seconds"));
    EXPECT_EQ(reg.value("time.cross_validate.fold.train.calls"), 1.0);
}

TEST(ScopedTimer, AccumulatesAcrossRepeatedEntries)
{
    Registry reg;
    for (int i = 0; i < 3; ++i) {
        const ScopedTimer t("phase_x", &reg);
    }
    EXPECT_EQ(reg.value("time.phase_x.calls"), 3.0);
    EXPECT_GE(reg.value("time.phase_x.seconds"), 0.0);
}

TEST(ScopedTimer, ParentTimeIncludesChildTime)
{
    Registry reg;
    {
        const ScopedTimer outer("outer", &reg);
        const ScopedTimer inner("work", &reg);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const double outer_s = reg.value("time.outer.seconds");
    const double inner_s = reg.value("time.outer.work.seconds");
    EXPECT_GT(inner_s, 0.0);
    EXPECT_GE(outer_s, inner_s); // inclusive timing
}

TEST(ScopedTimer, ElapsedGrowsMonotonically)
{
    Registry reg;
    const ScopedTimer t("tick", &reg);
    const double a = t.elapsed();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const double b = t.elapsed();
    EXPECT_GE(a, 0.0);
    EXPECT_GT(b, a);
}

TEST(ScopedTimer, PhaseStacksAreThreadLocal)
{
    Registry reg;
    const ScopedTimer outer("main_phase", &reg);
    std::string other_path = "unset";
    std::thread worker([&] {
        // A fresh thread starts at the top level, not inside
        // "main_phase".
        const ScopedTimer t("worker_phase", &reg);
        other_path = ScopedTimer::currentPath();
    });
    worker.join();
    EXPECT_EQ(other_path, "worker_phase");
    EXPECT_EQ(ScopedTimer::currentPath(), "main_phase");
    EXPECT_TRUE(reg.has("time.worker_phase.seconds"));
}

TEST(ScopedTimer, PhaseStackUnwindsWhenTimedRegionThrows)
{
    Registry reg;
    try {
        const ScopedTimer outer("outer", &reg);
        const ScopedTimer inner("inner", &reg);
        throw std::runtime_error("boom");
    } catch (const std::runtime_error &) {
    }
    // Stack unwinding ran both destructors: the thread is back at the
    // top level and both phases still accumulated their time.
    EXPECT_EQ(ScopedTimer::currentPath(), "");
    EXPECT_EQ(reg.value("time.outer.calls"), 1.0);
    EXPECT_EQ(reg.value("time.outer.inner.calls"), 1.0);
}

TEST(PhaseAdoption, RestoresAdopterStackOnScopeExit)
{
    Registry reg;
    const ScopedTimer outer("main_phase", &reg);
    {
        const PhaseAdoption adopted({"sweep.measure", 0});
        EXPECT_EQ(ScopedTimer::currentPath(), "sweep.measure");
        const ScopedTimer t("integrate", &reg);
        EXPECT_EQ(ScopedTimer::currentPath(),
                  "sweep.measure.integrate");
    }
    EXPECT_EQ(ScopedTimer::currentPath(), "main_phase");
    EXPECT_TRUE(reg.has("time.sweep.measure.integrate.seconds"));
    // The adoption frame itself is untimed.
    EXPECT_FALSE(reg.has("time.sweep.measure.seconds"));
}

TEST(PhaseAdoption, RestoresAdopterStackAfterThrow)
{
    Registry reg;
    const ScopedTimer outer("main_phase", &reg);
    try {
        const PhaseAdoption adopted({"sweep.measure", 0});
        throw std::runtime_error("boom");
    } catch (const std::runtime_error &) {
    }
    EXPECT_EQ(ScopedTimer::currentPath(), "main_phase");
}

TEST(PhaseAdoption, EmptyPathAdoptsTopLevel)
{
    Registry reg;
    const ScopedTimer outer("main_phase", &reg);
    {
        const PhaseAdoption adopted({});
        EXPECT_EQ(ScopedTimer::currentPath(), "");
        const ScopedTimer t("cell", &reg);
        EXPECT_EQ(ScopedTimer::currentPath(), "cell");
    }
    EXPECT_EQ(ScopedTimer::currentPath(), "main_phase");
}

TEST(ScopedTimer, ExclusiveTimeExcludesNestedTimers)
{
    Registry reg;
    {
        const ScopedTimer outer("outer", &reg);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        const ScopedTimer inner("inner", &reg);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const double inner_s = reg.value("time.outer.inner.seconds");
    // A leaf's exclusive time is its inclusive time ...
    EXPECT_EQ(reg.value("time.outer.inner.exclusive_seconds"), inner_s);
    // ... and the parent's excludes it exactly.
    EXPECT_NEAR(reg.value("time.outer.exclusive_seconds"),
                reg.value("time.outer.seconds") - inner_s, 1e-12);
    EXPECT_GE(reg.value("time.outer.exclusive_seconds"), 0.002);
}

/** Nested timers in, around and after one pool batch. */
void
runNestedWorkload(Registry &reg)
{
    const ScopedTimer outer("outer", &reg);
    par::Pool::global().parallelFor(32, [&](std::size_t) {
        const ScopedTimer cell("cell", &reg);
        const ScopedTimer leaf("leaf", &reg);
        volatile double sink = 0.0;
        for (int k = 0; k < 2000; ++k)
            sink = sink + static_cast<double>(k);
    });
    const ScopedTimer tail("tail", &reg);
}

/**
 * Exclusive time partitions thread time: its sum over every path
 * equals the summed inclusive time of the thread-root timers, read
 * from the same frames' spans.
 */
void
expectExclusiveSumsToThreadRoots(int threads)
{
    par::Pool::setGlobalThreads(threads);
    auto &tracer = SpanTracer::instance();
    tracer.enable();
    Registry reg;
    runNestedWorkload(reg);
    tracer.disable();
    const auto entries = tracer.drain();

    const auto phases = phaseTimes(&reg);
    ASSERT_EQ(phases.size(), 4u);
    double exclusive_sum = 0.0;
    for (const PhaseTime &p : phases) {
        EXPECT_GE(p.exclusiveSeconds, 0.0) << p.path;
        // Per instance exclusive <= inclusive exactly, but threads add
        // into the two gauges in different orders, so their sums agree
        // only up to rounding.
        EXPECT_LE(p.exclusiveSeconds, p.seconds + 1e-9) << p.path;
        exclusive_sum += p.exclusiveSeconds;
    }

    std::unordered_map<std::uint64_t, const TraceEntry *> spans;
    for (const TraceEntry &e : entries)
        if (e.kind == TraceKind::Span)
            spans[e.id] = &e;
    // A timer span is a thread root when no timer span encloses it on
    // its own thread; task spans in between are transparent.
    double root_sum = 0.0;
    int roots = 0;
    for (const auto &[id, span] : spans) {
        if (span->name == "task")
            continue;
        bool root = true;
        for (auto up = spans.find(span->parent);
             up != spans.end() && up->second->tid == span->tid;
             up = spans.find(up->second->parent)) {
            if (up->second->name != "task") {
                root = false;
                break;
            }
        }
        if (root) {
            root_sum += static_cast<double>(span->endNs - span->startNs) *
                        1e-9;
            ++roots;
        }
    }
    EXPECT_GE(roots, 1);
    if (threads == 1) {
        EXPECT_EQ(roots, 1); // only "outer": everything nests inline
    }
    EXPECT_NEAR(exclusive_sum, root_sum, 1e-9);
}

TEST(PhaseStack, ExclusiveSumsToThreadRootInclusiveSerial)
{
    expectExclusiveSumsToThreadRoots(1);
}

TEST(PhaseStack, ExclusiveSumsToThreadRootInclusiveParallel)
{
    expectExclusiveSumsToThreadRoots(8);
}

TEST(PhaseStack, TracingLeavesPathsAndCallsUnchanged)
{
    par::Pool::setGlobalThreads(8);
    auto &tracer = SpanTracer::instance();
    Registry untraced, traced;
    tracer.disable();
    runNestedWorkload(untraced);
    tracer.enable();
    runNestedWorkload(traced);
    tracer.disable();
    (void)tracer.drain();

    const auto a = phaseTimes(&untraced);
    const auto b = phaseTimes(&traced);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].path, b[i].path);
        EXPECT_EQ(a[i].calls, b[i].calls) << a[i].path;
    }
    EXPECT_EQ(b[0].path, "outer");
    EXPECT_EQ(b[1].path, "outer.cell");
    EXPECT_EQ(b[1].calls, 32u);
}

TEST(ScopedTimer, RejectsDottedPhaseNames)
{
    Registry reg;
    EXPECT_DEATH({ ScopedTimer t("a.b", &reg); }, "phase");
}

TEST(PhaseTimes, ReportsEveryRecordedPhaseSorted)
{
    Registry reg;
    {
        const ScopedTimer a("beta", &reg);
    }
    {
        const ScopedTimer b("alpha", &reg);
        const ScopedTimer c("sub", &reg);
    }
    const auto phases = phaseTimes(&reg);
    ASSERT_EQ(phases.size(), 3u);
    EXPECT_EQ(phases[0].path, "alpha");
    EXPECT_EQ(phases[1].path, "alpha.sub");
    EXPECT_EQ(phases[2].path, "beta");
    for (const auto &p : phases) {
        EXPECT_EQ(p.calls, 1u);
        EXPECT_GE(p.seconds, 0.0);
        EXPECT_LE(p.exclusiveSeconds, p.seconds);
    }
    EXPECT_EQ(phases[2].exclusiveSeconds, phases[2].seconds);
}

TEST(PhaseTimes, EmptyRegistryYieldsNoPhases)
{
    Registry reg;
    EXPECT_TRUE(phaseTimes(&reg).empty());
}

} // namespace
} // namespace dfault::obs
