/**
 * @file
 * Unit tests for the cell-to-cell interference (disturbance) model.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "dram/interference.hh"

namespace dfault::dram {
namespace {

TEST(Interference, NoAggressorNoWidening)
{
    InterferenceModel m;
    EXPECT_DOUBLE_EQ(m.thresholdWidening(0.0, 2.283), 0.0);
    EXPECT_DOUBLE_EQ(m.thresholdWidening(-5.0, 2.283), 0.0);
    EXPECT_DOUBLE_EQ(m.thresholdWidening(100.0, 0.0), 0.0);
}

TEST(Interference, MonotoneInAggressorRate)
{
    InterferenceModel m;
    double prev = 0.0;
    for (const double rate : {1.0, 10.0, 100.0, 1000.0}) {
        const double d = m.thresholdWidening(rate, 2.283);
        EXPECT_GE(d, prev);
        prev = d;
    }
}

TEST(Interference, MonotoneInRefreshPeriod)
{
    // A longer refresh period exposes the victim to more aggressor
    // activations before its charge is restored.
    InterferenceModel m;
    EXPECT_LT(m.thresholdWidening(100.0, 0.618),
              m.thresholdWidening(100.0, 2.283));
}

TEST(Interference, SaturatesAtMaxDelta)
{
    InterferenceModel::Params p;
    p.maxDelta = 0.4;
    InterferenceModel m(p);
    EXPECT_DOUBLE_EQ(m.thresholdWidening(1e12, 2.283), 0.4);
}

TEST(Interference, ReferencePointValue)
{
    InterferenceModel::Params p;
    p.strength = 1.0;
    p.refActivations = 100.0;
    p.maxDelta = 10.0;
    InterferenceModel m(p);
    // acts/window = 100 -> log1p(1) = ln 2.
    EXPECT_NEAR(m.thresholdWidening(100.0, 1.0), std::log(2.0), 1e-12);
}

TEST(Interference, LogarithmicCompression)
{
    // Doubling an already-high rate must add less than the first
    // doubling did (sub-linear accumulation of disturbance).
    InterferenceModel m;
    const double d1 = m.thresholdWidening(200.0, 1.0);
    const double d2 = m.thresholdWidening(400.0, 1.0);
    const double d3 = m.thresholdWidening(800.0, 1.0);
    EXPECT_GT(d2 - d1, d3 - d2);
}

TEST(InterferenceDeath, BadParamsAreFatal)
{
    InterferenceModel::Params p;
    p.strength = -1.0;
    EXPECT_EXIT(InterferenceModel{p}, ::testing::ExitedWithCode(1),
                "strength");
    InterferenceModel::Params q;
    q.refActivations = 0.0;
    EXPECT_EXIT(InterferenceModel{q}, ::testing::ExitedWithCode(1),
                "refActivations");
    InterferenceModel::Params r;
    r.maxDelta = -0.5;
    EXPECT_EXIT(InterferenceModel{r}, ::testing::ExitedWithCode(1),
                "maxDelta");
}

} // namespace
} // namespace dfault::dram
