/**
 * @file
 * Unit tests of the telemetry sample rings: ring eviction order,
 * tick-keyed windowed aggregates (rate, min/max) and the
 * find-or-create store.
 */

#include <gtest/gtest.h>

#include "obs/timeseries.hh"

namespace dfault::obs {
namespace {

TEST(TimeSeries, KeepsInsertionOrderBelowCapacity)
{
    TimeSeries ts(4);
    ts.push(0, 10.0);
    ts.push(1, 11.0);
    ts.push(2, 12.0);
    ASSERT_EQ(ts.size(), 3u);
    EXPECT_EQ(ts.at(0).tick, 0u);
    EXPECT_DOUBLE_EQ(ts.at(0).value, 10.0);
    EXPECT_DOUBLE_EQ(ts.at(2).value, 12.0);
    EXPECT_DOUBLE_EQ(ts.latest().value, 12.0);
}

TEST(TimeSeries, EvictsOldestAtCapacity)
{
    TimeSeries ts(3);
    for (std::uint64_t t = 0; t < 7; ++t)
        ts.push(t, static_cast<double>(t) * 10.0);
    ASSERT_EQ(ts.size(), 3u);
    EXPECT_EQ(ts.capacity(), 3u);
    // The three newest survive, oldest first.
    EXPECT_EQ(ts.at(0).tick, 4u);
    EXPECT_EQ(ts.at(1).tick, 5u);
    EXPECT_EQ(ts.at(2).tick, 6u);
    EXPECT_DOUBLE_EQ(ts.latest().value, 60.0);
}

TEST(TimeSeries, CapacityClampedToTwo)
{
    TimeSeries ts(0);
    EXPECT_EQ(ts.capacity(), 2u);
    ts.push(0, 1.0);
    ts.push(1, 2.0);
    ts.push(2, 3.0);
    EXPECT_EQ(ts.size(), 2u);
    EXPECT_DOUBLE_EQ(ts.at(0).value, 2.0);
}

TEST(TimeSeries, WindowMinMax)
{
    TimeSeries ts(8);
    const double values[] = {5.0, 1.0, 9.0, 3.0, 7.0};
    for (std::uint64_t t = 0; t < 5; ++t)
        ts.push(t, values[t]);
    EXPECT_DOUBLE_EQ(ts.windowMin(3), 3.0); // {9,3,7}... min over last 3
    EXPECT_DOUBLE_EQ(ts.windowMax(3), 9.0);
    EXPECT_DOUBLE_EQ(ts.windowMin(100), 1.0); // clamped to size
    EXPECT_DOUBLE_EQ(ts.windowMax(1), 7.0);   // just the latest
}

TEST(TimeSeries, WindowAggregatesOnEmptySeries)
{
    TimeSeries ts(4);
    EXPECT_DOUBLE_EQ(ts.windowMin(3), 0.0);
    EXPECT_DOUBLE_EQ(ts.windowMax(3), 0.0);
    EXPECT_DOUBLE_EQ(ts.ratePerSecond(3, 0.1), 0.0);
}

TEST(TimeSeries, RateIsDeltaOverTickSpan)
{
    TimeSeries ts(8);
    // A counter growing 5 per tick at 0.1 s/tick = 50/s.
    for (std::uint64_t t = 0; t < 6; ++t)
        ts.push(t, static_cast<double>(t) * 5.0);
    EXPECT_DOUBLE_EQ(ts.ratePerSecond(6, 0.1), 50.0);
    // Window narrows the lookback but the per-tick slope is constant.
    EXPECT_DOUBLE_EQ(ts.ratePerSecond(3, 0.1), 50.0);
    // A single-sample window cannot form a rate: clamped to 2 samples.
    EXPECT_DOUBLE_EQ(ts.ratePerSecond(1, 0.1), 50.0);
}

TEST(TimeSeries, RateHandlesResetAndGaps)
{
    TimeSeries ts(8);
    ts.push(0, 100.0);
    ts.push(4, 120.0); // missed ticks: span is 4 ticks, not 1 sample
    EXPECT_DOUBLE_EQ(ts.ratePerSecond(8, 1.0), 5.0);
    ts.push(5, 10.0); // counter reset: negative delta reports 0
    EXPECT_DOUBLE_EQ(ts.ratePerSecond(8, 1.0), 0.0);
}

TEST(TimeSeries, RateWithZeroTickSpanIsZero)
{
    TimeSeries ts(4);
    ts.push(3, 1.0);
    ts.push(3, 2.0); // same tick twice
    EXPECT_DOUBLE_EQ(ts.ratePerSecond(4, 0.1), 0.0);
}

TEST(TimeSeriesStore, FindOrCreateSharesCapacity)
{
    TimeSeriesStore store(16);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.find("a"), nullptr);
    TimeSeries &a = store.series("a");
    EXPECT_EQ(a.capacity(), 16u);
    a.push(0, 1.0);
    EXPECT_EQ(&store.series("a"), &a); // same series on re-lookup
    store.series("b");
    EXPECT_EQ(store.size(), 2u);
    ASSERT_NE(store.find("a"), nullptr);
    EXPECT_EQ(store.find("a")->size(), 1u);
    const auto names = store.names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "a");
    EXPECT_EQ(names[1], "b");
}

} // namespace
} // namespace dfault::obs
