/**
 * @file
 * Log-bucketed histogram: bucket math, quantile accuracy, zero/NaN
 * handling, registry integration, deferral capture, and the central
 * determinism claim — bit-identical buckets and quantiles when the
 * same multiset is recorded from 1, 2, or 8 threads. Runs under both
 * the obs (ASan) and par (TSan) CI labels.
 */

#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/deferral.hh"
#include "obs/histogram.hh"
#include "obs/stats.hh"

namespace {

using dfault::obs::Histogram;
using dfault::obs::HistogramSnapshot;

TEST(HistogramBuckets, IndexIsMonotonicAndEdgesBracket)
{
    int prev = -1;
    for (double v = 1e-6; v < 1e9; v *= 1.07) {
        const int idx = Histogram::bucketIndex(v);
        ASSERT_GE(idx, prev) << "bucket index not monotonic at " << v;
        prev = idx;
        ASSERT_LE(Histogram::bucketLowerEdge(idx), v);
        if (idx + 1 < Histogram::kBucketCount) {
            ASSERT_LT(v, Histogram::bucketLowerEdge(idx + 1));
        }
    }
}

TEST(HistogramBuckets, ReportingValueWithinRelativeError)
{
    // 32 sub-buckets per octave bound the bucket width at ~3.1% of
    // its value; the geometric midpoint halves that error.
    for (double v = 1e-3; v < 1e6; v *= 1.013) {
        const double rep =
            Histogram::bucketValue(Histogram::bucketIndex(v));
        EXPECT_NEAR(rep, v, v * 0.031)
            << "reporting value drifted at " << v;
    }
}

TEST(HistogramBuckets, ExtremeValuesClampInsteadOfCrashing)
{
    EXPECT_EQ(Histogram::bucketIndex(1e-300), 0);
    EXPECT_EQ(Histogram::bucketIndex(1e300),
              Histogram::kBucketCount - 1);
}

TEST(Histogram, QuantilesOfUniformStreamAreAccurate)
{
    Histogram h;
    for (int i = 1; i <= 100000; ++i)
        h.record(static_cast<double>(i));
    const HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 100000u);
    EXPECT_EQ(snap.zeros, 0u);
    EXPECT_DOUBLE_EQ(snap.min, 1.0);
    EXPECT_DOUBLE_EQ(snap.max, 100000.0);
    EXPECT_NEAR(snap.p50(), 50000.0, 50000.0 * 0.032);
    EXPECT_NEAR(snap.p90(), 90000.0, 90000.0 * 0.032);
    EXPECT_NEAR(snap.p99(), 99000.0, 99000.0 * 0.032);
    EXPECT_NEAR(snap.p999(), 99900.0, 99900.0 * 0.032);
    EXPECT_NEAR(snap.mean(), 50000.5, 50000.5 * 1e-9);
}

TEST(Histogram, NonPositiveAndNanLandInZeroBin)
{
    Histogram h;
    h.record(0.0);
    h.record(-5.0);
    h.record(std::numeric_limits<double>::quiet_NaN());
    h.record(4.0);
    const HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 4u);
    EXPECT_EQ(snap.zeros, 3u);
    ASSERT_EQ(snap.buckets.size(), 1u);
    EXPECT_EQ(snap.buckets[0].second, 1u);
    EXPECT_DOUBLE_EQ(snap.min, -5.0);
    EXPECT_DOUBLE_EQ(snap.max, 4.0);
    // Ranks at or below the zero bin report the (negative) min.
    EXPECT_DOUBLE_EQ(snap.p50(), -5.0);
    // q=1 ranks past the zeros into the single real bucket.
    EXPECT_NEAR(snap.quantile(1.0), 4.0, 4.0 * 0.032);
}

TEST(Histogram, EmptySnapshotIsAllZero)
{
    Histogram h;
    const HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 0u);
    EXPECT_EQ(snap.buckets.size(), 0u);
    EXPECT_DOUBLE_EQ(snap.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(snap.mean(), 0.0);
}

TEST(Histogram, ResetZeroesEverything)
{
    Histogram h;
    h.record(3.0);
    h.reset();
    EXPECT_EQ(h.snapshot().count, 0u);
    h.record(7.0);
    EXPECT_EQ(h.snapshot().count, 1u);
}

/** The multiset every determinism run records: deterministic LCG. */
std::vector<double>
determinismSamples()
{
    std::vector<double> samples;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 20000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        // Spread over ~6 decades, like nanosecond latencies.
        samples.push_back(1.0 + static_cast<double>(x % 1000000000ULL));
    }
    return samples;
}

HistogramSnapshot
recordWithThreads(const std::vector<double> &samples, int threads)
{
    Histogram h;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            for (std::size_t i = static_cast<std::size_t>(t);
                 i < samples.size();
                 i += static_cast<std::size_t>(threads))
                h.record(samples[i]);
        });
    for (auto &th : pool)
        th.join();
    return h.snapshot();
}

TEST(Histogram, BucketsAndQuantilesBitIdenticalAcrossThreadCounts)
{
    const auto samples = determinismSamples();
    const HistogramSnapshot one = recordWithThreads(samples, 1);
    for (const int threads : {2, 8}) {
        const HistogramSnapshot many =
            recordWithThreads(samples, threads);
        EXPECT_EQ(many.count, one.count) << threads << " threads";
        EXPECT_EQ(many.zeros, one.zeros) << threads << " threads";
        ASSERT_EQ(many.buckets, one.buckets) << threads << " threads";
        // Bit-identical, not approximately equal: quantiles are a
        // deterministic function of the merged integer buckets.
        for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0})
            EXPECT_EQ(many.quantile(q), one.quantile(q))
                << threads << " threads at q=" << q;
        EXPECT_EQ(many.min, one.min);
        EXPECT_EQ(many.max, one.max);
    }
}

TEST(Histogram, ConcurrentRecordAndSnapshotIsSafe)
{
    // TSan target: snapshot() races benignly-by-design against
    // record() via relaxed atomics; assert it stays well-defined.
    Histogram h;
    std::thread writer([&] {
        for (int i = 1; i <= 50000; ++i)
            h.record(static_cast<double>(i));
    });
    std::uint64_t last = 0;
    for (int i = 0; i < 50; ++i) {
        const HistogramSnapshot snap = h.snapshot();
        EXPECT_GE(snap.count, last);
        last = snap.count;
    }
    writer.join();
    EXPECT_EQ(h.snapshot().count, 50000u);
}

TEST(RegistryHistogram, RegistersDumpsAndResets)
{
    dfault::obs::Registry reg;
    dfault::obs::Histogram &h = reg.histogram("req.latency_ns",
                                              "request latency");
    h.record(100.0);
    h.record(200.0);
    EXPECT_EQ(reg.kindOf("req.latency_ns"),
              dfault::obs::StatKind::Histogram);
    EXPECT_TRUE(&reg.histogram("req.latency_ns") == &h)
        << "re-registration must return the same histogram";
    EXPECT_NEAR(reg.value("req.latency_ns"), 150.0, 1e-9);

    const std::string json = reg.toJson();
    EXPECT_NE(json.find("\"kind\":\"histogram\""), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
    EXPECT_NE(json.find("\"buckets\""), std::string::npos);

    reg.resetAll();
    EXPECT_EQ(h.snapshot().count, 0u);
}

TEST(RegistryHistogram, SeparateRegistriesDoNotAlias)
{
    // The thread-local shard cache is keyed by histogram id; two
    // same-named histograms in different registries (and a recreated
    // registry at a possibly-reused address) must tally separately.
    auto reg1 = std::make_unique<dfault::obs::Registry>();
    reg1->histogram("h").record(1.0);
    EXPECT_EQ(reg1->histogram("h").count(), 1u);
    reg1.reset();
    auto reg2 = std::make_unique<dfault::obs::Registry>();
    EXPECT_EQ(reg2->histogram("h").count(), 0u);
    reg2->histogram("h").record(2.0);
    reg2->histogram("h").record(3.0);
    EXPECT_EQ(reg2->histogram("h").count(), 2u);
}

TEST(HistogramDeferral, CapturedSamplesReplayIdentically)
{
    using dfault::obs::StatOp;

    dfault::obs::Registry direct;
    direct.histogram("campaign.wer").record(1e-7);
    direct.histogram("campaign.wer").record(3e-5);

    std::vector<StatOp> ops;
    {
        dfault::obs::StatsDeferral deferral;
        dfault::obs::publishHistogram("campaign.wer", "", 1e-7);
        dfault::obs::publishHistogram("campaign.wer", "", 3e-5);
        ops = deferral.take();
    }
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_EQ(ops[0].kind, StatOp::Kind::HistRecord);

    // Round-trip through the checkpoint JSON encoding, then apply.
    const std::string json = dfault::obs::statOpsJson(ops);
    std::string error;
    const auto parsed = dfault::obs::jsonParse(json, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    std::vector<StatOp> replayed;
    ASSERT_TRUE(dfault::obs::statOpsFromJson(*parsed, replayed, &error))
        << error;
    dfault::obs::Registry resumed;
    dfault::obs::applyStatOps(replayed, &resumed);

    const auto want = direct.histogram("campaign.wer").snapshot();
    const auto got = resumed.histogram("campaign.wer").snapshot();
    EXPECT_EQ(got.count, want.count);
    EXPECT_EQ(got.buckets, want.buckets);
    EXPECT_EQ(got.quantile(0.5), want.quantile(0.5));
}

} // namespace
