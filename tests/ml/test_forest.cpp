/**
 * @file
 * Unit tests for the random-forest regressor.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "common/rng.hh"
#include "ml/forest.hh"

namespace dfault::ml {
namespace {

TEST(Forest, FitsStepFunction)
{
    RandomForestRegressor::Params p;
    p.trees = 30;
    RandomForestRegressor rf(p);
    Matrix x;
    std::vector<double> y;
    for (int i = 0; i < 100; ++i) {
        const double v = i / 100.0;
        x.push_back({v});
        y.push_back(v < 0.5 ? 1.0 : 5.0);
    }
    rf.fit(x, y);
    EXPECT_NEAR(rf.predict(std::vector<double>{0.2}), 1.0, 0.3);
    EXPECT_NEAR(rf.predict(std::vector<double>{0.8}), 5.0, 0.3);
}

TEST(Forest, ConstantTargetExactly)
{
    RandomForestRegressor rf;
    const Matrix x{{0.0}, {1.0}, {2.0}, {3.0}};
    const std::vector<double> y{7.0, 7.0, 7.0, 7.0};
    rf.fit(x, y);
    EXPECT_DOUBLE_EQ(rf.predict(std::vector<double>{1.5}), 7.0);
}

TEST(Forest, UsesMultipleFeatures)
{
    RandomForestRegressor::Params p;
    p.trees = 50;
    p.maxFeatures = 2;
    RandomForestRegressor rf(p);
    Rng rng(4);
    Matrix x;
    std::vector<double> y;
    for (int i = 0; i < 300; ++i) {
        const double a = rng.uniform();
        const double b = rng.uniform();
        x.push_back({a, b});
        y.push_back(a > 0.5 && b > 0.5 ? 10.0 : 0.0);
    }
    rf.fit(x, y);
    EXPECT_GT(rf.predict(std::vector<double>{0.9, 0.9}), 6.0);
    EXPECT_LT(rf.predict(std::vector<double>{0.1, 0.1}), 2.0);
}

TEST(Forest, DeterministicForSeed)
{
    Rng rng(5);
    Matrix x;
    std::vector<double> y;
    for (int i = 0; i < 50; ++i) {
        x.push_back({rng.uniform()});
        y.push_back(rng.uniform());
    }
    RandomForestRegressor a, b;
    a.fit(x, y);
    b.fit(x, y);
    for (const double q : {0.1, 0.5, 0.9})
        EXPECT_DOUBLE_EQ(a.predict(std::vector<double>{q}),
                         b.predict(std::vector<double>{q}));
}

TEST(Forest, DepthLimitCoarsensFit)
{
    Matrix x;
    std::vector<double> y;
    for (int i = 0; i < 64; ++i) {
        x.push_back({static_cast<double>(i)});
        y.push_back(static_cast<double>(i));
    }
    RandomForestRegressor::Params shallow;
    shallow.maxDepth = 1;
    shallow.trees = 10;
    RandomForestRegressor rf(shallow);
    rf.fit(x, y);
    // A depth-1 tree can produce at most two distinct leaf values, so
    // the fit must be visibly coarse at the extremes.
    const double low = rf.predict(std::vector<double>{0.0});
    const double high = rf.predict(std::vector<double>{63.0});
    EXPECT_GT(low, 5.0);
    EXPECT_LT(high, 58.0);
    EXPECT_LT(low, high);
}

TEST(Forest, MinSamplesLeafRespected)
{
    RandomForestRegressor::Params p;
    p.minSamplesLeaf = 50; // larger than half the data -> no split
    p.trees = 5;
    RandomForestRegressor rf(p);
    Matrix x;
    std::vector<double> y;
    for (int i = 0; i < 60; ++i) {
        x.push_back({static_cast<double>(i)});
        y.push_back(i < 30 ? 0.0 : 10.0);
    }
    rf.fit(x, y);
    // With no split possible every prediction is near the global mean
    // of the bootstrap samples.
    EXPECT_NEAR(rf.predict(std::vector<double>{0.0}), 5.0, 2.0);
    EXPECT_NEAR(rf.predict(std::vector<double>{59.0}), 5.0, 2.0);
}

TEST(Forest, PredictManyMatchesPredictBitForBit)
{
    // predictMany's batched, interleaved traversal must reproduce the
    // per-row predict() exactly — same per-row tree sum order — or
    // campaign prediction and bootstrap scoring would drift from the
    // golden stats.
    RandomForestRegressor::Params p;
    p.trees = 40;
    RandomForestRegressor rf(p);
    Rng rng(6);
    Matrix x;
    std::vector<double> y;
    for (int i = 0; i < 200; ++i) {
        x.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
        y.push_back(x.back()[0] + 2.0 * x.back()[1] + rng.uniform());
    }
    rf.fit(x, y);

    // An odd batch size exercises the 4-wide interleave plus the
    // scalar remainder lanes.
    Matrix queries;
    for (int i = 0; i < 11; ++i)
        queries.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
    std::vector<double> batched;
    rf.predictMany(queries, batched);
    ASSERT_EQ(batched.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i)
        EXPECT_DOUBLE_EQ(batched[i], rf.predict(queries[i])) << "row " << i;
}

TEST(Forest, PredictManyEmptyBatch)
{
    RandomForestRegressor rf;
    rf.fit(Matrix{{0.0}, {1.0}}, std::vector<double>{1.0, 2.0});
    std::vector<double> out{99.0};
    rf.predictMany(Matrix{}, out);
    EXPECT_TRUE(out.empty());
}

/**
 * LOBO-shaped, tie-heavy training set: 13 benchmarks x 10 operating
 * points. Two operating-parameter columns repeat five TREFP and two
 * temperature levels; the @p features workload columns are constant
 * within a benchmark, half of them quantized to four levels, and every
 * fifth one duplicates its neighbour. Most candidate sorts therefore
 * see long runs of tied keys, at nodes of well over 16 rows.
 */
void
tieHeavyFixture(std::size_t features, Matrix &x, std::vector<double> &y)
{
    const double trefp[] = {1.173, 1.45, 1.727, 2.005, 2.283};
    Rng rng(11);
    x.clear();
    y.clear();
    for (int g = 0; g < 13; ++g) {
        std::vector<double> workload(features);
        for (std::size_t f = 0; f < features; ++f) {
            if (f % 5 == 4)
                workload[f] = workload[f - 1];
            else if (f % 2 == 0)
                workload[f] = std::floor(rng.uniform() * 4.0) / 4.0;
            else
                workload[f] = rng.uniform();
        }
        const double effect = 1.0 + 3.0 * workload[0] + workload[1];
        for (int r = 0; r < 10; ++r) {
            std::vector<double> row{trefp[r % 5], r < 5 ? 50.0 : 60.0};
            row.insert(row.end(), workload.begin(), workload.end());
            x.push_back(std::move(row));
            y.push_back(effect * trefp[r % 5] * (r < 5 ? 1.0 : 1.5) +
                        0.05 * rng.uniform());
        }
    }
}

TEST(Forest, FitMatchesPinnedDigest)
{
    // A default 100-tree fit on tied keys, pinned bit for bit: the
    // split search may change its data layout, but not the order in
    // which it visits tied rows, so every threshold, leaf value and
    // prediction must stay the same at any pool size.
    Matrix x;
    std::vector<double> y;
    tieHeavyFixture(48, x, y);
    RandomForestRegressor rf;
    rf.fit(x, y);

    Matrix queries = x;
    Rng rng(12);
    for (int i = 0; i < 5; ++i) {
        std::vector<double> probe;
        for (std::size_t f = 0; f < x[0].size(); ++f)
            probe.push_back(rng.uniform() * 2.5);
        queries.push_back(std::move(probe));
    }
    std::vector<double> out;
    rf.predictMany(queries, out);

    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const double v : out) {
        unsigned char bytes[sizeof v];
        std::memcpy(bytes, &v, sizeof v);
        for (const unsigned char b : bytes)
            h = (h ^ b) * 0x100000001b3ull;
    }
    char hex[19];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(h));
    EXPECT_STREQ(hex, "0x99f26ef94a7bffbc");
}

TEST(Forest, Name)
{
    EXPECT_EQ(RandomForestRegressor().name(), "RDF");
}

TEST(ForestSlice, OverWideSliceClampsToWholeForest)
{
    RandomForestRegressor::Params p;
    p.trees = 8;
    RandomForestRegressor rf(p);
    Rng rng(7);
    Matrix x;
    std::vector<double> y;
    for (int i = 0; i < 80; ++i) {
        x.push_back({rng.uniform(), rng.uniform()});
        y.push_back(3.0 * x.back()[0] - x.back()[1]);
    }
    rf.fit(x, y);

    // N past the tree count clamps to the whole forest: the slice's
    // answer is exactly the ensemble's, never an error and never junk.
    ForestSliceRegressor wide(rf, 1000);
    for (const auto &row : {x[0], x[10], x[79]}) {
        EXPECT_DOUBLE_EQ(wide.predict(row), rf.predict(row));
        EXPECT_DOUBLE_EQ(rf.predictFirstTrees(row, 1000),
                         rf.predict(row));
    }
}

TEST(ForestSlice, PredictManyMatchesPredictRowByRow)
{
    RandomForestRegressor::Params p;
    p.trees = 12;
    RandomForestRegressor rf(p);
    Rng rng(8);
    Matrix x;
    std::vector<double> y;
    for (int i = 0; i < 100; ++i) {
        x.push_back({rng.uniform(), rng.uniform()});
        y.push_back(x.back()[0] + rng.uniform());
    }
    rf.fit(x, y);

    ForestSliceRegressor slice(rf, 5);
    std::vector<double> batched;
    slice.predictMany(x, batched);
    ASSERT_EQ(batched.size(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_DOUBLE_EQ(batched[i], slice.predict(x[i])) << "row " << i;
}

TEST(ForestSliceDeath, ZeroTreeSliceIsFatal)
{
    RandomForestRegressor rf;
    rf.fit(Matrix{{0.0}, {1.0}}, std::vector<double>{1.0, 2.0});
    // A 0-tree slice has no prediction; the old silent clamp-to-1
    // would answer with a single tree while claiming to be empty.
    EXPECT_EXIT((ForestSliceRegressor{rf, 0}),
                ::testing::ExitedWithCode(1), "trees must be >= 1");
    EXPECT_EXIT((void)rf.predictFirstTrees(std::vector<double>{0.0}, 0),
                ::testing::ExitedWithCode(1), "trees >= 1");
}

TEST(ForestDeath, InvalidParamsAreFatal)
{
    RandomForestRegressor::Params p;
    p.trees = 0;
    EXPECT_EXIT(RandomForestRegressor{p}, ::testing::ExitedWithCode(1),
                "tree count");
    RandomForestRegressor::Params q;
    q.minSamplesLeaf = 0;
    EXPECT_EXIT(RandomForestRegressor{q}, ::testing::ExitedWithCode(1),
                "minSamplesLeaf");
}

TEST(ForestDeath, PredictBeforeFitPanics)
{
    RandomForestRegressor rf;
    EXPECT_DEATH((void)rf.predict(std::vector<double>{0.0}),
                 "before fit");
}

} // namespace
} // namespace dfault::ml
