/**
 * @file
 * Unit tests for the RMAT graph generator behind the analytics
 * workloads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "common/rng.hh"
#include "workloads/graph.hh"

namespace dfault::workloads {
namespace {

TEST(Rmat, CsrIsWellFormed)
{
    const RmatGraph g = RmatGraph::generate(256, 2048, 7);
    EXPECT_EQ(g.vertices, 256u);
    EXPECT_EQ(g.edges(), 2048u);
    ASSERT_EQ(g.offsets.size(), 257u);
    EXPECT_EQ(g.offsets.front(), 0u);
    EXPECT_EQ(g.offsets.back(), 2048u);
    for (std::size_t i = 0; i + 1 < g.offsets.size(); ++i)
        EXPECT_LE(g.offsets[i], g.offsets[i + 1]);
    for (const std::uint32_t src : g.targets)
        EXPECT_LT(src, g.vertices);
}

TEST(Rmat, DeterministicForSeed)
{
    const RmatGraph a = RmatGraph::generate(128, 512, 42);
    const RmatGraph b = RmatGraph::generate(128, 512, 42);
    EXPECT_EQ(a.offsets, b.offsets);
    EXPECT_EQ(a.targets, b.targets);
}

TEST(Rmat, SeedChangesStructure)
{
    const RmatGraph a = RmatGraph::generate(128, 512, 1);
    const RmatGraph b = RmatGraph::generate(128, 512, 2);
    EXPECT_NE(a.targets, b.targets);
}

TEST(Rmat, DegreeDistributionIsSkewed)
{
    // RMAT's defining property: a heavy-tailed in-degree distribution
    // with hub vertices, which is what makes hub state cache-hot in
    // pagerank/bfs/bc.
    const RmatGraph g = RmatGraph::generate(1024, 16384, 3);
    std::vector<std::uint32_t> degree(g.vertices);
    for (std::uint32_t v = 0; v < g.vertices; ++v)
        degree[v] = g.offsets[v + 1] - g.offsets[v];
    std::sort(degree.rbegin(), degree.rend());
    const double mean = static_cast<double>(g.edges()) / g.vertices;
    EXPECT_GT(degree[0], 10 * mean); // hubs far above the mean
    // And a large fraction of low-degree vertices.
    const auto low = std::count_if(degree.begin(), degree.end(),
                                   [&](std::uint32_t d) {
                                       return d < mean;
                                   });
    EXPECT_GT(low, static_cast<long>(g.vertices / 2));
}

/** FNV-1a over the raw bytes of a CSR array. */
template <typename T>
std::uint64_t
digest(const std::vector<T> &v)
{
    return fnv1a64(std::string_view(
        reinterpret_cast<const char *>(v.data()), v.size() * sizeof(T)));
}

TEST(Rmat, GenerateMatchesPinnedDigest)
{
    // The 16 MiB analytics shape at the default workload seed
    // (pagerank, bfs and bc size their graph to the footprint:
    // V = 131072, E = 2 Mi words - 3V - 1). Every
    // golden profile of those workloads depends on these exact arrays,
    // so any rewrite of the generator has to reproduce them bit for bit.
    const RmatGraph g = RmatGraph::generate(131072, 1703935, 42);
    ASSERT_EQ(g.edges(), 1703935u);
    EXPECT_EQ(digest(g.offsets), 0xdd70341fde784237ULL);
    EXPECT_EQ(digest(g.targets), 0xda57a88da05c547eULL);
}

TEST(RmatDeath, RequiresPowerOfTwoVertices)
{
    EXPECT_DEATH((void)RmatGraph::generate(100, 500, 1),
                 "power of two");
}

} // namespace
} // namespace dfault::workloads
