/**
 * @file
 * Unit tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"

namespace dfault::mem {
namespace {

Cache::Params
tinyCache(std::uint32_t ways = 2)
{
    Cache::Params p;
    p.sizeBytes = 1024; // 16 lines
    p.lineBytes = 64;
    p.ways = ways;
    return p;
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(tinyCache());
    EXPECT_FALSE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x13f, false).hit); // same 64 B line
    EXPECT_FALSE(c.access(0x140, false).hit); // next line
    EXPECT_EQ(c.counters().readMisses, 2u);
    EXPECT_EQ(c.counters().readAccesses, 4u);
}

TEST(Cache, WriteAllocateAndDirtyWriteback)
{
    Cache c(tinyCache(/*ways=*/1)); // direct mapped: 16 sets
    // Write installs the line dirty.
    EXPECT_FALSE(c.access(0x000, true).hit);
    // Conflicting line in the same set (16 lines apart).
    const auto res = c.access(0x000 + 16 * 64, false);
    EXPECT_FALSE(res.hit);
    ASSERT_TRUE(res.writebackAddr.has_value());
    EXPECT_EQ(*res.writebackAddr, 0x000u);
    EXPECT_EQ(c.counters().writebacks, 1u);
}

TEST(Cache, CleanEvictionHasNoWriteback)
{
    Cache c(tinyCache(/*ways=*/1));
    c.access(0x000, false); // clean line
    const auto res = c.access(0x000 + 16 * 64, false);
    EXPECT_FALSE(res.writebackAddr.has_value());
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    Cache c(tinyCache(/*ways=*/2)); // 8 sets
    const Addr set_stride = 8 * 64;
    // Fill both ways of set 0.
    c.access(0 * set_stride, false);
    c.access(1 * set_stride, false);
    // Touch the first line so the second becomes LRU.
    c.access(0 * set_stride, false);
    // Install a third line: way holding the second must be evicted.
    c.access(2 * set_stride, false);
    EXPECT_TRUE(c.access(0 * set_stride, false).hit);
    EXPECT_FALSE(c.access(1 * set_stride, false).hit);
}

TEST(Cache, ReadDoesNotCleanDirtyLine)
{
    Cache c(tinyCache(/*ways=*/1));
    c.access(0x000, true);
    c.access(0x000, false); // read hit keeps it dirty
    const auto res = c.access(0x000 + 16 * 64, false);
    EXPECT_TRUE(res.writebackAddr.has_value());
}

TEST(Cache, CountersSplitReadsWrites)
{
    Cache c(tinyCache());
    c.access(0x000, false);
    c.access(0x040, true);
    c.access(0x040, true);
    const auto &k = c.counters();
    EXPECT_EQ(k.readAccesses, 1u);
    EXPECT_EQ(k.writeAccesses, 2u);
    EXPECT_EQ(k.readMisses, 1u);
    EXPECT_EQ(k.writeMisses, 1u);
    EXPECT_NEAR(k.missRatio(), 2.0 / 3.0, 1e-12);
}

TEST(Cache, FlushInvalidatesWithoutWriteback)
{
    Cache c(tinyCache());
    c.access(0x000, true);
    c.flush();
    EXPECT_FALSE(c.access(0x000, false).hit);
    // The dirty line was dropped, not written back (model choice for
    // run isolation).
    EXPECT_EQ(c.counters().writebacks, 0u);
}

TEST(Cache, ResetCountersKeepsContents)
{
    Cache c(tinyCache());
    c.access(0x000, false);
    c.resetCounters();
    EXPECT_EQ(c.counters().accesses(), 0u);
    EXPECT_TRUE(c.access(0x000, false).hit);
}

TEST(Cache, SetCountMatchesParams)
{
    Cache c(tinyCache(/*ways=*/4));
    EXPECT_EQ(c.sets(), 4u);
}

TEST(CacheDeath, BadGeometry)
{
    Cache::Params p = tinyCache();
    p.lineBytes = 48;
    EXPECT_EXIT(Cache{p}, ::testing::ExitedWithCode(1),
                "power of two");
    Cache::Params q = tinyCache();
    q.ways = 0;
    EXPECT_EXIT(Cache{q}, ::testing::ExitedWithCode(1), "ways");
    Cache::Params r = tinyCache();
    r.sizeBytes = 1000; // not divisible into lines*ways
    EXPECT_EXIT(Cache{r}, ::testing::ExitedWithCode(1), "divide");
}

TEST(CacheDeath, AtMost64Ways)
{
    // One fully associative set of 128 ways: a valid geometry, but
    // beyond the one-word dirty mask per set.
    Cache::Params p = tinyCache();
    p.sizeBytes = 128 * 64;
    p.ways = 2 * Cache::kMaxWays;
    EXPECT_EXIT(Cache{p}, ::testing::ExitedWithCode(1), "at most 64 ways");
    p.sizeBytes = 64 * 64;
    p.ways = Cache::kMaxWays;
    EXPECT_EQ(Cache{p}.sets(), 1u);
}

} // namespace
} // namespace dfault::mem
