/**
 * @file
 * Unit tests for the write-data entropy sampler (HDP, paper Eq. 5).
 */

#include <gtest/gtest.h>

#include <bit>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "stats/entropy.hh"
#include "trace/entropy_sampler.hh"

namespace dfault::trace {
namespace {

AccessEvent
storeOf(std::uint64_t value)
{
    AccessEvent e;
    e.isWrite = true;
    e.value = value;
    return e;
}

EntropySampler::Params
everyStore()
{
    EntropySampler::Params p;
    p.stride = 1;
    return p;
}

TEST(EntropySampler, IgnoresLoads)
{
    EntropySampler s(everyStore());
    AccessEvent load;
    load.isWrite = false;
    load.value = 123;
    s.onAccess(load);
    EXPECT_EQ(s.sampledStores(), 0u);
    EXPECT_DOUBLE_EQ(s.entropyBits(), 0.0);
}

TEST(EntropySampler, ConstantDataHasZeroEntropy)
{
    EntropySampler s(everyStore());
    for (int i = 0; i < 100; ++i)
        s.onAccess(storeOf(0xAAAAAAAAAAAAAAAAULL));
    EXPECT_DOUBLE_EQ(s.entropyBits(), 0.0);
}

TEST(EntropySampler, TwoValueMixIsOneBit)
{
    EntropySampler s(everyStore());
    for (int i = 0; i < 100; ++i) {
        // Both 32-bit halves alternate between two values.
        const std::uint64_t v = (i % 2 == 0)
                                    ? 0x1111111111111111ULL
                                    : 0x2222222222222222ULL;
        s.onAccess(storeOf(v));
    }
    EXPECT_NEAR(s.entropyBits(), 1.0, 1e-9);
}

TEST(EntropySampler, StrideSamplesSubset)
{
    EntropySampler::Params p;
    p.stride = 10;
    EntropySampler s(p);
    for (int i = 0; i < 100; ++i)
        s.onAccess(storeOf(1));
    EXPECT_EQ(s.sampledStores(), 10u);
}

TEST(EntropySampler, BitProbabilitiesFromWrites)
{
    EntropySampler s(everyStore());
    for (int i = 0; i < 64; ++i)
        s.onAccess(storeOf(i % 2 == 0 ? ~0ULL : 0ULL));
    const auto p = s.bitOneProbabilities();
    for (int b = 0; b < 64; ++b)
        EXPECT_NEAR(p[b], 0.5, 1e-12);
}

TEST(EntropySampler, UnsampledDefaultsToHalf)
{
    EntropySampler s(everyStore());
    const auto p = s.bitOneProbabilities();
    for (int b = 0; b < 64; ++b)
        EXPECT_DOUBLE_EQ(p[b], 0.5);
}

TEST(EntropySampler, ResetClears)
{
    EntropySampler s(everyStore());
    s.onAccess(storeOf(7));
    s.reset();
    EXPECT_EQ(s.sampledStores(), 0u);
    EXPECT_DOUBLE_EQ(s.entropyBits(), 0.0);
}

TEST(EntropySampler, SaturationKeepsCountingKnownValues)
{
    EntropySampler::Params p;
    p.stride = 1;
    p.maxDistinct = 4;
    EntropySampler s(p);
    // Saturate the table, then keep writing one known value: the
    // estimator must continue to track it rather than crash or grow.
    for (std::uint64_t v = 0; v < 8; ++v)
        s.onAccess(storeOf(v));
    for (int i = 0; i < 100; ++i)
        s.onAccess(storeOf(1));
    EXPECT_GT(s.entropyBits(), 0.0);
    EXPECT_LE(s.entropyBits(), 32.0);
}

TEST(EntropySampler, SumsInPlainUnorderedMapOrder)
{
    // HDP sums its terms in hash-table iteration order. The sampler's
    // histogram must keep exactly the layout a plain std::unordered_map
    // gets from ++m[v] in the same order -- through rehashes and past
    // saturation, before and after reset() -- or the last bits of HDP,
    // and with them the golden profiles, drift.
    EntropySampler::Params p;
    p.stride = 3;
    p.maxDistinct = 3000;
    EntropySampler s(p);

    std::unordered_map<std::uint32_t, std::uint64_t> want;
    Rng rng(13);
    std::uint64_t stores = 0;
    std::vector<AccessEvent> stream;
    for (int i = 0; i < 200000; ++i) {
        AccessEvent e;
        e.isWrite = rng.bernoulli(0.6);
        // A skewed head of repeated words plus a long random tail.
        e.value = rng.bernoulli(0.7) ? rng.uniformInt(64) * 0x9e3779b9ULL
                                     : rng.next();
        stream.push_back(e);
        if (!e.isWrite || stores++ % p.stride != 0)
            continue;
        for (const auto half : {static_cast<std::uint32_t>(e.value),
                                static_cast<std::uint32_t>(e.value >> 32)}) {
            if (want.size() < p.maxDistinct)
                ++want[half];
            else if (auto it = want.find(half); it != want.end())
                ++it->second;
        }
    }
    ASSERT_EQ(want.size(), p.maxDistinct); // saturation was reached
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    const double expected = stats::shannonEntropy(want);

    for (int round = 0; round < 2; ++round) {
        for (const auto &e : stream)
            s.onAccess(e);
        EXPECT_EQ(bits(s.entropyBits()), bits(expected)) << "round " << round;
        s.reset();
    }
}

TEST(EntropySamplerDeath, ZeroStrideIsFatal)
{
    EntropySampler::Params p;
    p.stride = 0;
    EXPECT_EXIT(EntropySampler{p}, ::testing::ExitedWithCode(1),
                "stride");
}

} // namespace
} // namespace dfault::trace
