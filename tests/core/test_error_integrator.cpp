/**
 * @file
 * Unit and property tests for the error-manifestation engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>

#include "common/rng.hh"
#include "core/error_integrator.hh"
#include "features/extractor.hh"
#include "sys/platform.hh"

namespace dfault::core {
namespace {

sys::Platform &
sharedPlatform()
{
    // Scaled platform: keep the footprint-to-L2 ratio and wall-clock
    // invariants of the standard 16 MiB configuration at the test's
    // 2 MiB footprint (DESIGN.md 4).
    static sys::Platform platform([] {
        sys::Platform::Params p;
        p.hierarchy.l1.sizeBytes = 16 * 1024;
        p.hierarchy.l2.sizeBytes = 1 << 20;
        p.exec.timeDilation = sys::dilationForFootprint(2 << 20);
        return p;
    }());
    return platform;
}

/** A cached profile of one small workload used across the tests. */
const features::WorkloadProfile &
profileOf(const char *kernel, int threads)
{
    workloads::Workload::Params p;
    p.footprintBytes = 2 << 20;
    p.workScale = 0.5;
    return features::ProfileCache::instance().get(
        sharedPlatform(),
        {kernel, threads, std::string(kernel) + "@t" +
                              std::to_string(threads)},
        p);
}

RunResult
runAt(const dram::OperatingPoint &op, std::uint64_t seed = 0,
      dram::ErrorLog *log = nullptr)
{
    auto &platform = sharedPlatform();
    ErrorIntegrator integrator;
    return integrator.run(profileOf("srad", 8), op,
                          platform.geometry(), platform.devices(),
                          seed, log);
}

TEST(Integrator, NominalOperatingPointIsErrorFree)
{
    const RunResult r = runAt(dram::OperatingPoint{});
    EXPECT_DOUBLE_EQ(r.wer(), 0.0);
    EXPECT_FALSE(r.crashed);
    EXPECT_LT(r.expectedSdc, 1e-6);
}

TEST(Integrator, RelaxedPointManifestsCorrectableErrors)
{
    const RunResult r =
        runAt({dram::kMaxTrefp, dram::kMinVdd, 50.0});
    EXPECT_GT(r.wer(), 1e-10);
    EXPECT_LT(r.wer(), 1e-4);
    EXPECT_FALSE(r.crashed);
}

TEST(Integrator, WerGrowsWithRefreshPeriod)
{
    double prev = -1.0;
    for (const Seconds trefp : {0.618, 1.173, 1.727, 2.283}) {
        const RunResult r = runAt({trefp, dram::kMinVdd, 60.0});
        EXPECT_GE(r.wer(), prev) << trefp;
        prev = r.wer();
    }
    EXPECT_GT(prev, 0.0);
}

TEST(Integrator, WerGrowsWithTemperature)
{
    const double cold =
        runAt({dram::kMaxTrefp, dram::kMinVdd, 50.0}).wer();
    const double warm =
        runAt({dram::kMaxTrefp, dram::kMinVdd, 60.0}).wer();
    EXPECT_GT(warm, cold * 3.0);
}

TEST(Integrator, ExtremePointCrashesWithUe)
{
    // 2.283 s at 70 C crashes every benchmark in the paper (Fig 9a);
    // backprop is the most UE-prone kernel in this model.
    auto &platform = sharedPlatform();
    const RunResult r = ErrorIntegrator().run(
        profileOf("backprop", 8),
        {dram::kMaxTrefp, dram::kMinVdd, 70.0}, platform.geometry(),
        platform.devices());
    EXPECT_TRUE(r.crashed);
    EXPECT_GE(r.crashEpoch, 1);
    EXPECT_GE(r.crashDevice, 0);
    // The run stops at the crash.
    EXPECT_EQ(r.werSeries.size(),
              static_cast<std::size_t>(r.crashEpoch));
}

TEST(Integrator, WerSeriesIsMonotoneAndConverging)
{
    const RunResult r =
        runAt({dram::kMaxTrefp, dram::kMinVdd, 60.0});
    ASSERT_EQ(r.werSeries.size(), 120u);
    for (std::size_t i = 1; i < r.werSeries.size(); ++i)
        EXPECT_GE(r.werSeries[i], r.werSeries[i - 1]);
    // Paper Fig 4: the last 10 minutes change WER by < ~3%.
    const double at110 = r.werSeries[109];
    const double at120 = r.werSeries[119];
    ASSERT_GT(at120, 0.0);
    EXPECT_LT((at120 - at110) / at120, 0.05);
}

TEST(Integrator, DeterministicForSeedAndVariedAcrossRuns)
{
    const dram::OperatingPoint op{1.727, dram::kMinVdd, 60.0};
    const RunResult a = runAt(op, 1);
    const RunResult b = runAt(op, 1);
    const RunResult c = runAt(op, 2);
    EXPECT_EQ(a.werSeries, b.werSeries);
    EXPECT_NE(a.werSeries, c.werSeries); // run-to-run VRT variation
}

TEST(Integrator, WerIsExposureScaleInvariant)
{
    // WER is a density: emulating a larger footprint must not shift it
    // beyond sampling noise.
    auto &platform = sharedPlatform();
    const auto &profile = profileOf("srad", 8);
    const dram::OperatingPoint op{dram::kMaxTrefp, dram::kMinVdd, 60.0};

    ErrorIntegrator::Params small;
    small.exposureWords = 64.0 * (1 << 20);
    ErrorIntegrator::Params large;
    large.exposureWords = 1024.0 * (1 << 20);
    const RunResult a = ErrorIntegrator(small).run(
        profile, op, platform.geometry(), platform.devices());
    const RunResult b = ErrorIntegrator(large).run(
        profile, op, platform.geometry(), platform.devices());
    ASSERT_GT(a.wer(), 0.0);
    EXPECT_NEAR(b.wer() / a.wer(), 1.0, 0.35);
}

TEST(Integrator, DeviceWerSpreadIsLarge)
{
    // Paper Fig 8: WER varies up to ~188x across DIMM/rank devices.
    const RunResult r =
        runAt({dram::kMaxTrefp, dram::kMinVdd, 60.0});
    double lo = 1e300, hi = 0.0;
    for (int d = 0; d < 8; ++d) {
        const double w = r.werForDevice(d);
        if (w > 0.0) {
            lo = std::min(lo, w);
            hi = std::max(hi, w);
        }
    }
    EXPECT_GT(hi / lo, 10.0);
}

TEST(Integrator, HigherPueAtLongerRefresh)
{
    // Estimate PUE over repeats at two TREFP levels (paper Fig 9a).
    int crashes_short = 0, crashes_long = 0;
    for (int rep = 0; rep < 8; ++rep) {
        crashes_short +=
            runAt({1.45, dram::kMinVdd, 70.0}, rep).crashed;
        crashes_long +=
            runAt({2.283, dram::kMinVdd, 70.0}, rep).crashed;
    }
    EXPECT_LE(crashes_short, crashes_long);
    EXPECT_GE(crashes_long, 6); // near-certain at the max TREFP (paper: 100%)
}

TEST(Integrator, LogReceivesRealEccExercisedRecords)
{
    auto &platform = sharedPlatform();
    dram::ErrorLog log(platform.geometry());
    const RunResult r =
        runAt({dram::kMaxTrefp, dram::kMinVdd, 60.0}, 0, &log);
    ASSERT_GT(r.wer(), 0.0);
    EXPECT_GT(log.records().size(), 0u);
    for (const auto &rec : log.records()) {
        EXPECT_LT(rec.bank, 8);
        EXPECT_LT(rec.row, platform.geometry().params().rowsPerBank);
    }
}

TEST(Integrator, CrashLogsUeRecord)
{
    auto &platform = sharedPlatform();
    dram::ErrorLog log(platform.geometry());
    // A specific seed may or may not crash; across several repeats at
    // the extreme point a crash is near certain and must log a UE
    // record when it happens.
    bool crashed = false;
    for (std::uint64_t seed = 0; seed < 8 && !crashed; ++seed) {
        log.clear();
        const RunResult r = ErrorIntegrator().run(
            profileOf("backprop", 8),
            {dram::kMaxTrefp, dram::kMinVdd, 70.0},
            platform.geometry(), platform.devices(), seed, &log);
        crashed = r.crashed;
    }
    ASSERT_TRUE(crashed);
    EXPECT_GE(log.ueCountTotal(), 1u);
}

TEST(Integrator, NoSdcInThePaperEnvelope)
{
    // The paper observed zero SDCs across the whole study; expected
    // miscorrection counts must be far below one event.
    for (const Seconds trefp : {1.173, 2.283}) {
        for (const Celsius temp : {50.0, 70.0}) {
            const RunResult r =
                runAt({trefp, dram::kMinVdd, temp});
            // Far below one event per 8 GiB 2-hour run.
            EXPECT_LT(r.expectedSdc, 0.1)
                << trefp << "s " << temp << "C";
        }
    }
}

/** FNV-1a over the bytes of @p values: pins a series bit for bit. */
std::uint64_t
bitDigest(const std::vector<double> &values)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const double v : values) {
        unsigned char bytes[sizeof v];
        std::memcpy(bytes, &v, sizeof v);
        for (const unsigned char b : bytes)
            h = (h ^ b) * 0x100000001b3ull;
    }
    return h;
}

/** Digest of the logged records' locations, types and epochs. */
std::uint64_t
logDigest(const dram::ErrorLog &log)
{
    std::vector<double> fields;
    for (const auto &rec : log.records())
        for (const double f :
             {double(rec.device.dimm), double(rec.device.rank),
              double(rec.bank), double(rec.row), double(rec.column),
              double(rec.type), double(rec.epoch),
              double(rec.bitsFlipped)})
            fields.push_back(f);
    return bitDigest(fields);
}

/** srad(par) as the campaign labels it (the label seeds the run). */
const features::WorkloadProfile &
sradPar()
{
    workloads::Workload::Params p;
    p.footprintBytes = 2 << 20;
    p.workScale = 0.5;
    return features::ProfileCache::instance().get(
        sharedPlatform(), {"srad", 8, "srad(par)"}, p);
}

/** Three WER operating points and one that crashes. */
const dram::OperatingPoint kPinnedPoints[] = {
    {1.173, dram::kMinVdd, 60.0},
    {1.727, dram::kMinVdd, 60.0},
    {dram::kMaxTrefp, dram::kMinVdd, 50.0},
    {dram::kMaxTrefp, dram::kMinVdd, 70.0},
};

TEST(Integrator, RunMatchesParentBitForBit)
{
    // RunResult of srad(par), seed 0, captured before the integrator's
    // per-row work was restructured: the restructuring keeps every
    // floating-point expression and summation order. Record sampling
    // draws from its own stream, so the same runs with a log attached
    // must return these results too; only their records are pinned
    // apart.
    struct Pinned
    {
        bool crashed;
        int crashEpoch;
        int crashDevice;
        std::size_t epochs;
        std::uint64_t werDigest; ///< bitDigest(werSeries)
        double expectedSdc;
        std::vector<double> cePerDevice;
        std::size_t records;     ///< logged records of the log run
        std::uint64_t logDigest; ///< logDigest() of the log run
    };
    const Pinned pinned[] = {
        {false, -1, -1, 120, 0x6efd673ec1cce7e9ull, 0x1.9dbae92724102p-28,
         {0x1.434p+11, 0x1.cp+2, 0x1.b7p+11, 0x1.c8p+6, 0x1.a2p+7,
          0x1.b76p+13, 0x1.f9p+8, 0x1.8p+2},
         255, 0xc40d2393b8f91cf6ull},
        {false, -1, -1, 120, 0x7864a046133db0daull, 0x1.57c2f0925c8d3p-20,
         {0x1.20d4p+14, 0x1.2cp+6, 0x1.708p+14, 0x1.118p+10, 0x1.d28p+10,
          0x1.487ap+16, 0x1.f2ep+11, 0x1.84p+6},
         256, 0x2c1990bc93e5bc59ull},
        {false, -1, -1, 120, 0x701845334077d821ull, 0x1.70bf1bee3ed9ap-29,
         {0x1.57ep+11, 0x1.cp+2, 0x1.c82p+11, 0x1.fcp+6, 0x1.d8p+7,
          0x1.b4e8p+13, 0x1.038p+9, 0x1p+3},
         256, 0xbcb49e6e1513a09eull},
        {true, 45, 6, 45, 0xc2c226b6e56bf73full, 0x1.2656359a26b34p-4,
         {0x1.4da0cp+19, 0x1.06d8p+13, 0x1.913dep+19, 0x1.1dd7p+16,
          0x1.c6abp+16, 0x1.085dc8p+21, 0x1.957bp+17, 0x1.636p+13},
         257, 0x33ed7a80aeb3fa6aull},
    };

    auto &platform = sharedPlatform();
    const ErrorIntegrator integrator;
    for (std::size_t i = 0; i < std::size(kPinnedPoints); ++i) {
        const dram::OperatingPoint &op = kPinnedPoints[i];
        const Pinned &want = pinned[i];
        SCOPED_TRACE(::testing::Message()
                     << op.trefp << " s " << op.temperature << " C");
        const RunResult r = integrator.run(
            sradPar(), op, platform.geometry(), platform.devices(), 0);
        EXPECT_EQ(r.crashed, want.crashed);
        EXPECT_EQ(r.crashEpoch, want.crashEpoch);
        EXPECT_EQ(r.crashDevice, want.crashDevice);
        EXPECT_EQ(r.werSeries.size(), want.epochs);
        EXPECT_EQ(bitDigest(r.werSeries), want.werDigest);
        EXPECT_EQ(r.expectedSdc, want.expectedSdc);
        EXPECT_EQ(r.cePerDevice, want.cePerDevice);

        dram::ErrorLog log(platform.geometry());
        const RunResult logged =
            integrator.run(sradPar(), op, platform.geometry(),
                           platform.devices(), 0, &log);
        EXPECT_EQ(logged.crashed, r.crashed);
        EXPECT_EQ(logged.crashEpoch, r.crashEpoch);
        EXPECT_EQ(logged.crashDevice, r.crashDevice);
        EXPECT_EQ(bitDigest(logged.werSeries), bitDigest(r.werSeries));
        EXPECT_EQ(logged.expectedSdc, r.expectedSdc);
        EXPECT_EQ(logged.cePerDevice, r.cePerDevice);
        EXPECT_EQ(log.records().size(), want.records);
        EXPECT_EQ(logDigest(log), want.logDigest);
    }
}

TEST(Integrator, AnalyzeRowsMatchesParentBitForBit)
{
    // Same capture as above: every device's row view (rowIndex,
    // ceLambda, suppression, interferenceDelta per row).
    const std::uint64_t want[] = {0xd6cbc2bcc8d9d1a6ull, 0x38a612be737eb651ull,
                                  0x4117fa4b89616fa6ull, 0xbb771fb52c1177e5ull};
    auto &platform = sharedPlatform();
    const ErrorIntegrator integrator;
    for (std::size_t i = 0; i < std::size(kPinnedPoints); ++i) {
        std::vector<double> fields;
        for (int d = 0; d < platform.geometry().deviceCount(); ++d)
            for (const auto &row : integrator.analyzeRows(
                     sradPar(), kPinnedPoints[i], platform.geometry(),
                     platform.devices()[d], d))
                for (const double f :
                     {double(row.rowIndex), row.ceLambda, row.suppression,
                      row.interferenceDelta})
                    fields.push_back(f);
        EXPECT_EQ(fields.size(), 8192u);
        EXPECT_EQ(bitDigest(fields), want[i]) << kPinnedPoints[i].trefp;
    }
}

TEST(Integrator, NeighbourLookupMatchesMapOracle)
{
    auto &platform = sharedPlatform();
    const auto &geometry = platform.geometry();
    const std::uint64_t rows_per_bank = geometry.params().rowsPerBank;
    const std::uint64_t device_rows =
        rows_per_bank * static_cast<std::uint64_t>(
                            geometry.params().banksPerRank);

    // A victim whose physical row ends in all ones: its upper neighbour
    // (phys + 1) ^ key carries into the top bit and lands far away in
    // logical order (and that row's lower neighbour is the victim, far
    // back).
    const std::uint64_t trailing_phys = rows_per_bank / 2 - 1;
    dram::DramDevice::Variation var;
    var.rowScrambleKey =
        static_cast<std::uint32_t>(0x5a5 & (rows_per_bank - 1));
    const dram::DramDevice device(dram::DeviceId{0, 0}, var);
    const std::uint64_t key = var.rowScrambleKey;
    const std::uint64_t far_victim = rows_per_bank + (trailing_phys ^ key);
    const std::uint64_t far_aggressor =
        rows_per_bank + ((trailing_phys + 1) ^ key);
    ASSERT_GT(std::max(far_victim, far_aggressor) -
                  std::min(far_victim, far_aggressor),
              rows_per_bank / 4);

    std::set<std::uint64_t> indices = {
        0, 1, device_rows - 1,                     // first and last rows
        rows_per_bank - 1, rows_per_bank,          // bank boundary
        2 * rows_per_bank - 1, 2 * rows_per_bank,  // bank boundary
        far_victim, far_aggressor,                 // trailing ones
    };
    // Sparse rows elsewhere: most of their neighbours are absent.
    Rng rng(0x0dd);
    while (indices.size() < 400)
        indices.insert(rng.uniformInt(device_rows));
    // A dense stretch: neighbours present on both sides.
    for (std::uint64_t r = 3 * rows_per_bank; r < 3 * rows_per_bank + 64;
         ++r)
        indices.insert(r);

    features::WorkloadProfile profile;
    profile.footprintWords = 1 << 18;
    profile.deviceRows.resize(1);
    std::map<std::uint64_t, double> oracle;
    for (const std::uint64_t index : indices) {
        features::RowStat row;
        row.rowIndex = index;
        // Distinct, below the widening's saturation.
        row.activationRate = 0.5 + 0.25 * static_cast<double>(oracle.size());
        row.touchedWords = 4;
        profile.deviceRows[0].push_back(row);
        oracle[index] = row.activationRate;
    }

    const dram::OperatingPoint op{1.173, dram::kMinVdd, 60.0};
    const ErrorIntegrator integrator;
    const dram::InterferenceModel interference(
        integrator.params().interference);
    const auto rows =
        integrator.analyzeRows(profile, op, geometry, device, 0);
    ASSERT_EQ(rows.size(), indices.size());

    int disturbed = 0;
    for (const auto &row : rows) {
        const std::uint64_t bank_base =
            row.rowIndex / rows_per_bank * rows_per_bank;
        const std::uint64_t phys = (row.rowIndex % rows_per_bank) ^ key;
        double rate = 0.0;
        for (const std::int64_t d : {-1, +1}) {
            const std::int64_t n = static_cast<std::int64_t>(phys) + d;
            if (n < 0 || n >= static_cast<std::int64_t>(rows_per_bank))
                continue;
            const auto it = oracle.find(
                bank_base + (static_cast<std::uint64_t>(n) ^ key));
            if (it != oracle.end())
                rate += it->second;
        }
        const double want = interference.thresholdWidening(rate, op.trefp);
        EXPECT_EQ(row.interferenceDelta, want) << row.rowIndex;
        disturbed += want > 0.0;
        if (row.rowIndex == far_victim || row.rowIndex == far_aggressor) {
            EXPECT_GT(row.interferenceDelta, 0.0);
        }
    }
    EXPECT_GT(disturbed, 64);
    EXPECT_LT(disturbed, static_cast<int>(rows.size()));
}

TEST(IntegratorDeath, UnsortedProfilePanics)
{
    auto &platform = sharedPlatform();
    features::WorkloadProfile unsorted = profileOf("srad", 8);
    auto &rows = unsorted.deviceRows[0];
    ASSERT_GE(rows.size(), 2u);
    std::swap(rows[0], rows[1]);
    EXPECT_DEATH(ErrorIntegrator().run(unsorted, dram::OperatingPoint{},
                                       platform.geometry(),
                                       platform.devices()),
                 "strictly ascending");
}

TEST(IntegratorDeath, MismatchedDevicePopulationPanics)
{
    auto &platform = sharedPlatform();
    ErrorIntegrator integrator;
    std::vector<dram::DramDevice> too_few;
    EXPECT_DEATH(integrator.run(profileOf("srad", 8),
                                dram::OperatingPoint{},
                                platform.geometry(), too_few),
                 "device population");
}

} // namespace
} // namespace dfault::core
