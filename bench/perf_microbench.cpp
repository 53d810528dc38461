/**
 * @file
 * google-benchmark micro-benchmarks of the library's hot paths: the
 * SECDED codec (encode plus the no-error / single-bit-correct /
 * double-bit-detect decode paths), the cache (random lookups and an
 * L2-shaped miss stream) and MCU models, feature correlation (full
 * Spearman and the ranking kernel alone), the three ML models'
 * prediction latency (the paper's "predict DRAM errors within 300 ms"
 * claim), the forest and kNN fits, and one full error-integration run.
 *
 * Each kernel benchmark carries two custom counters alongside
 * google-benchmark's mean time:
 *
 *   p50_ns / p99_ns   per-operation latency quantiles, tail-sampled
 *                     into an obs::Histogram. Sub-100ns kernels are
 *                     sampled in batches (the quantile is then of the
 *                     per-batch mean) so the clock reads don't distort
 *                     the measured loop.
 *
 * tools/bench_compare gates on cpu_time and p99_ns; refresh
 * bench/BENCH_perf.json after any intentional change here.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/rng.hh"
#include "core/error_integrator.hh"
#include "dram/controller.hh"
#include "dram/ecc.hh"
#include "features/extractor.hh"
#include "mem/cache.hh"
#include "ml/forest.hh"
#include "ml/knn.hh"
#include "ml/selection.hh"
#include "ml/svr.hh"
#include "obs/histogram.hh"
#include "stats/correlation.hh"
#include "sys/platform.hh"

namespace {

using namespace dfault;

/**
 * Per-benchmark latency quantiles. Bracket every iteration with
 * begin()/end(); the destructor publishes the quantiles.
 */
class KernelProfile
{
  public:
    /**
     * @p batch iterations are timed as one histogram sample (their
     * mean); use > 1 for kernels cheaper than ~2 clock reads.
     */
    explicit KernelProfile(benchmark::State &state, int batch = 1)
        : state_(state), batch_(static_cast<std::uint64_t>(batch))
    {
    }

    void begin()
    {
        if (n_ % batch_ == 0)
            t0_ = std::chrono::steady_clock::now();
    }

    void end()
    {
        ++n_;
        if (n_ % batch_ == 0) {
            const double ns =
                std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - t0_)
                    .count();
            hist_.record(ns / static_cast<double>(batch_));
        }
    }

    ~KernelProfile()
    {
        const obs::HistogramSnapshot snap = hist_.snapshot();
        if (snap.count > 0) {
            state_.counters["p50_ns"] = benchmark::Counter(snap.p50());
            state_.counters["p99_ns"] = benchmark::Counter(snap.p99());
        }
    }

  private:
    benchmark::State &state_;
    obs::Histogram hist_;
    std::uint64_t batch_;
    std::uint64_t n_ = 0;
    std::chrono::steady_clock::time_point t0_;
};

/** Batch size for kernels in the few-ns range. */
constexpr int kTightBatch = 256;

void
BM_EccEncode(benchmark::State &state)
{
    dram::EccSecded ecc;
    Rng rng(1);
    std::uint64_t data = rng.next();
    KernelProfile prof(state, kTightBatch);
    for (auto _ : state) {
        prof.begin();
        benchmark::DoNotOptimize(ecc.encode(data));
        data += 0x9e3779b97f4a7c15ULL;
        prof.end();
    }
}
BENCHMARK(BM_EccEncode);

/**
 * Decode latency across the three SECDED paths the integrator
 * exercises: arg = number of flipped bits (0 = clean syndrome, 1 =
 * single-bit correct, 2 = double-bit detect).
 */
void
BM_EccDecode(benchmark::State &state)
{
    dram::EccSecded ecc;
    Rng rng(2);
    dram::Codeword word = ecc.encode(rng.next());
    if (state.range(0) >= 1)
        dram::EccSecded::flipBit(word, 17);
    if (state.range(0) >= 2)
        dram::EccSecded::flipBit(word, 41);
    KernelProfile prof(state, kTightBatch);
    for (auto _ : state) {
        prof.begin();
        benchmark::DoNotOptimize(ecc.decode(word));
        prof.end();
    }
}
BENCHMARK(BM_EccDecode)->Arg(0)->Arg(1)->Arg(2);

void
BM_CacheAccess(benchmark::State &state)
{
    mem::Cache::Params params;
    params.sizeBytes = 32 * 1024;
    mem::Cache cache(params);
    Rng rng(3);
    KernelProfile prof(state, kTightBatch);
    for (auto _ : state) {
        prof.begin();
        benchmark::DoNotOptimize(
            cache.access(rng.uniformInt(std::uint64_t{1} << 20) * 8,
                         false));
        prof.end();
    }
}
BENCHMARK(BM_CacheAccess);

/**
 * The L2's shape (8 MiB, 16 ways) fed a line-stride stream twice its
 * size: every access misses and evicts the set's LRU way, and every
 * other line was written, so half the evictions write back. This is
 * the path that dominates profiling, where ~97% of L2 lookups miss.
 */
void
BM_L2MissStream(benchmark::State &state)
{
    mem::Cache::Params params;
    params.sizeBytes = 8 * 1024 * 1024;
    params.ways = 16;
    mem::Cache cache(params);
    const std::uint64_t lines = 2 * params.sizeBytes / params.lineBytes;
    std::uint64_t line = 0;
    KernelProfile prof(state, kTightBatch);
    for (auto _ : state) {
        prof.begin();
        benchmark::DoNotOptimize(
            cache.access(line * params.lineBytes, (line & 1) != 0));
        line = line + 1 == lines ? 0 : line + 1;
        prof.end();
    }
}
BENCHMARK(BM_L2MissStream);

void
BM_McuAccess(benchmark::State &state)
{
    dram::Geometry geometry;
    dram::Mcu mcu(geometry, 0);
    Rng rng(4);
    Cycles cycle = 0;
    KernelProfile prof(state, kTightBatch);
    for (auto _ : state) {
        prof.begin();
        dram::WordCoord coord = geometry.decode(
            rng.uniformInt(geometry.capacityBytes() / 8) * 8);
        coord.channel = 0;
        benchmark::DoNotOptimize(mcu.access(coord, false, cycle));
        cycle += 50;
        prof.end();
    }
}
BENCHMARK(BM_McuAccess);

void
BM_Spearman249(benchmark::State &state)
{
    Rng rng(5);
    std::vector<double> x, y;
    for (int i = 0; i < 140; ++i) { // one campaign's worth of samples
        x.push_back(rng.uniform());
        y.push_back(rng.uniform());
    }
    KernelProfile prof(state);
    for (auto _ : state) {
        prof.begin();
        for (int f = 0; f < 249; ++f)
            benchmark::DoNotOptimize(stats::spearman(x, y));
        prof.end();
    }
}
BENCHMARK(BM_Spearman249);

/**
 * The ranking kernel alone (the argsort inside every Spearman call),
 * swept across sample sizes so the O(n log n) scaling is visible in
 * the per-size times; the allocation-free ranksInto is the form the
 * selection path uses.
 */
void
BM_SpearmanRanks(benchmark::State &state)
{
    Rng rng(8);
    std::vector<double> x;
    for (std::int64_t i = 0; i < state.range(0); ++i)
        x.push_back(rng.uniform());
    std::vector<std::size_t> order;
    std::vector<double> out;
    KernelProfile prof(state);
    for (auto _ : state) {
        prof.begin();
        stats::ranksInto(x, order, out);
        benchmark::DoNotOptimize(out.data());
        prof.end();
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SpearmanRanks)
    ->Arg(140)
    ->Arg(1120)
    ->Arg(8960)
    ->Complexity(benchmark::oNLogN);

/**
 * Full feature-selection pass over a campaign-shaped dataset: the
 * target is ranked once and every column is gathered and ranked once
 * (no per-pair copies), which is what replaced 249 independent
 * spearman() calls.
 */
void
BM_CorrelateFeatures(benchmark::State &state)
{
    Rng rng(9);
    std::vector<std::string> names;
    for (int j = 0; j < 249; ++j)
        names.push_back("f" + std::to_string(j));
    ml::Dataset data(names);
    for (int i = 0; i < 140; ++i) {
        std::vector<double> row;
        for (int j = 0; j < 249; ++j)
            row.push_back(rng.uniform());
        data.addSample(std::move(row), rng.uniform(), "g");
    }
    KernelProfile prof(state);
    for (auto _ : state) {
        prof.begin();
        benchmark::DoNotOptimize(ml::correlateFeatures(data));
        prof.end();
    }
}
BENCHMARK(BM_CorrelateFeatures);

/** Training data shaped like one device's WER dataset. */
ml::Matrix
campaignX(std::size_t rows, std::size_t cols)
{
    Rng rng(6);
    ml::Matrix x;
    for (std::size_t i = 0; i < rows; ++i) {
        std::vector<double> row;
        for (std::size_t j = 0; j < cols; ++j)
            row.push_back(rng.uniform());
        x.push_back(std::move(row));
    }
    return x;
}

std::vector<double>
campaignY(std::size_t rows)
{
    Rng rng(7);
    std::vector<double> y;
    for (std::size_t i = 0; i < rows; ++i)
        y.push_back(rng.uniform());
    return y;
}

template <typename Model>
void
predictLatency(benchmark::State &state, std::size_t features)
{
    const auto x = campaignX(140, features);
    const auto y = campaignY(140);
    Model model;
    model.fit(x, y);
    const auto query = campaignX(1, features)[0];
    KernelProfile prof(state);
    for (auto _ : state) {
        prof.begin();
        benchmark::DoNotOptimize(model.predict(query));
        prof.end();
    }
}

void
BM_KnnPredict_Set1(benchmark::State &state)
{
    predictLatency<ml::KnnRegressor>(state, 7);
}
BENCHMARK(BM_KnnPredict_Set1);

void
BM_KnnPredict_AllFeatures(benchmark::State &state)
{
    predictLatency<ml::KnnRegressor>(state, 252);
}
BENCHMARK(BM_KnnPredict_AllFeatures);

void
BM_SvrPredict_Set1(benchmark::State &state)
{
    predictLatency<ml::SvrRegressor>(state, 7);
}
BENCHMARK(BM_SvrPredict_Set1);

void
BM_RdfPredict_Set1(benchmark::State &state)
{
    predictLatency<ml::RandomForestRegressor>(state, 7);
}
BENCHMARK(BM_RdfPredict_Set1);

/** Forest traversal with deep feature vectors (all 252 features). */
void
BM_RdfPredict_AllFeatures(benchmark::State &state)
{
    predictLatency<ml::RandomForestRegressor>(state, 252);
}
BENCHMARK(BM_RdfPredict_AllFeatures);

/**
 * Batched forest scoring of one campaign's worth of rows — the shape
 * grid-search folds and permutation importance evaluate. One pass per
 * tree over the whole batch keeps its packed nodes cache-hot, unlike
 * 140 independent predict() calls.
 */
void
BM_RdfPredictMany_AllFeatures(benchmark::State &state)
{
    const auto x = campaignX(140, 252);
    const auto y = campaignY(140);
    ml::RandomForestRegressor model;
    model.fit(x, y);
    const auto queries = campaignX(140, 252);
    std::vector<double> out;
    KernelProfile prof(state);
    for (auto _ : state) {
        prof.begin();
        model.predictMany(queries, out);
        benchmark::DoNotOptimize(out.data());
        prof.end();
    }
}
BENCHMARK(BM_RdfPredictMany_AllFeatures);

/**
 * One device's WER dataset as the forest sees it in LOBO: 13
 * benchmarks x 10 operating points, two operating-parameter columns
 * with repeated levels and 250 workload features that are constant
 * within a benchmark (half quantized, every fifth a duplicate). Unlike
 * campaignX's uniform draws, nearly every candidate sort is full of
 * tied keys.
 */
ml::Matrix
tieHeavyX(std::vector<double> &y)
{
    const double trefp[] = {1.173, 1.45, 1.727, 2.005, 2.283};
    Rng rng(11);
    ml::Matrix x;
    y.clear();
    for (int g = 0; g < 13; ++g) {
        std::vector<double> workload(250);
        for (std::size_t f = 0; f < workload.size(); ++f) {
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
    return x;
}

/** A default-parameter forest fit (100 trees, mtry 84) on tieHeavyX. */
void
BM_RdfFit_AllFeatures(benchmark::State &state)
{
    std::vector<double> y;
    const auto x = tieHeavyX(y);
    KernelProfile prof(state);
    for (auto _ : state) {
        prof.begin();
        ml::RandomForestRegressor model;
        model.fit(x, y);
        benchmark::DoNotOptimize(&model);
        prof.end();
    }
}
BENCHMARK(BM_RdfFit_AllFeatures)->Unit(benchmark::kMillisecond);

void
BM_KnnFit_Set1(benchmark::State &state)
{
    const auto x = campaignX(140, 7);
    const auto y = campaignY(140);
    KernelProfile prof(state);
    for (auto _ : state) {
        prof.begin();
        ml::KnnRegressor model;
        model.fit(x, y);
        benchmark::DoNotOptimize(&model);
        prof.end();
    }
}
BENCHMARK(BM_KnnFit_Set1);

void
BM_ErrorIntegratorRun(benchmark::State &state)
{
    static sys::Platform platform([] {
        sys::Platform::Params p;
        p.hierarchy.l2.sizeBytes = 1 << 20;
        p.exec.timeDilation = sys::dilationForFootprint(2 << 20);
        return p;
    }());
    workloads::Workload::Params wp;
    wp.footprintBytes = 2 << 20;
    wp.workScale = 0.5;
    const auto &profile = features::ProfileCache::instance().get(
        platform, {"srad", 8, "srad(par)"}, wp);
    core::ErrorIntegrator integrator;
    const dram::OperatingPoint op{2.283, dram::kMinVdd, 60.0};
    std::uint64_t seed = 0;
    KernelProfile prof(state);
    for (auto _ : state) {
        prof.begin();
        benchmark::DoNotOptimize(
            integrator.run(profile, op, platform.geometry(),
                           platform.devices(), seed++));
        prof.end();
    }
}
BENCHMARK(BM_ErrorIntegratorRun)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
