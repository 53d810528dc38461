/**
 * @file
 * Unit tests for the prediction service's write-ahead journal
 * (serve/journal.hh): record JSON round trips, the config digest
 * guard, restore-to-exact-pre-crash-state, quarantine of torn /
 * garbage / mismatched records, snapshot fallback and compaction, ticks
 * past eight digits, counter deltas on a registry that already holds
 * serve.* counts, and the main claim — a killed-and-resumed serving
 * run reaches the bit-identical transcript and stats digest of a run
 * that never died, at 1, 2 and 8 threads, including under armed
 * journal.* faults.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "fi/durable.hh"
#include "fi/injector.hh"
#include "obs/manifest.hh"
#include "par/pool.hh"
#include "serve/journal.hh"
#include "serve/service.hh"

namespace dfault::serve {
namespace {

/** Deterministic primary: predicts the sum of the features. */
struct SumModel : ml::Regressor
{
    void fit(const ml::Matrix &, std::span<const double>) override {}
    double predict(std::span<const double> row) const override
    {
        return std::accumulate(row.begin(), row.end(), 0.0);
    }
    void predictMany(const ml::Matrix &rows,
                     std::vector<double> &out) const override
    {
        out.resize(rows.size());
        for (std::size_t i = 0; i < rows.size(); ++i)
            out[i] = predict(rows[i]);
    }
    std::string name() const override { return "sum"; }
};

/** Deterministic fallback: always the same sentinel value. */
struct ConstModel : ml::Regressor
{
    void fit(const ml::Matrix &, std::span<const double>) override {}
    double predict(std::span<const double>) const override
    {
        return -42.0;
    }
    void predictMany(const ml::Matrix &rows,
                     std::vector<double> &out) const override
    {
        out.assign(rows.size(), -42.0);
    }
    std::string name() const override { return "const"; }
};

/** One canonical line per response; NaN prints as "nan" everywhere. */
std::string
responseLine(const Response &r)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%llu:%llu:%s:%s:%d:%.17g:",
                  static_cast<unsigned long long>(r.id),
                  static_cast<unsigned long long>(r.key),
                  priorityName(r.priority),
                  dispositionName(r.disposition), r.degraded ? 1 : 0,
                  r.prediction);
    return std::string(buf) + r.reason + "\n";
}

std::string
transcriptOf(const std::vector<Response> &responses)
{
    std::string out;
    for (const Response &r : responses)
        out += responseLine(r);
    return out;
}

/**
 * The deterministic driver the tests replay: round r submits
 * kPerRound requests (mixed priorities, two shards) and runs one
 * tick, so 0-based round r commits as journal tick r + 1.
 */
constexpr std::size_t kPerRound = 8;
constexpr std::size_t kRounds = 12;

Request
makeReq(std::uint64_t k)
{
    Request r;
    r.key = k % 19;
    r.priority = k % 11 == 0 ? Priority::Critical
                 : k % 7 == 0 ? Priority::Health
                              : Priority::Bulk;
    r.shard = static_cast<int>(k % 2);
    r.features = {static_cast<double>(k % 19), 1.0};
    return r;
}

void
runRounds(PredictionService &svc, std::size_t from, std::size_t to)
{
    for (std::size_t round = from; round < to; ++round) {
        for (std::size_t i = 0; i < kPerRound; ++i)
            svc.submit(makeReq(round * kPerRound + i));
        svc.tick();
    }
}

struct RunResult
{
    std::string transcript;
    std::uint64_t digest = 0;
    std::map<std::string, double> serve; ///< serve.* counter values
};

std::map<std::string, double>
serveCounters(const obs::Registry &reg)
{
    std::map<std::string, double> out;
    for (const std::string &name : reg.names())
        if (name.starts_with("serve.") &&
            reg.kindOf(name) == obs::StatKind::Counter)
            out[name] = reg.value(name);
    return out;
}

struct JournalTest : ::testing::Test
{
    std::string dir = ::testing::TempDir() + "dfault_wal_" +
                      ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name();

    void SetUp() override { std::filesystem::remove_all(dir); }
    void TearDown() override
    {
        fi::Injector::instance().disarm();
        std::filesystem::remove_all(dir);
    }

    /** Pressure tuning: backlog, deadlines, breakers all in play. */
    Params baseParams(obs::Registry *reg) const
    {
        Params p;
        p.registry = reg;
        p.queueCapacity = 24;
        p.budgetPerTick = 5;
        p.degradeAfterTicks = 2;
        p.shards = 2;
        p.maxRetries = 1;
        p.breaker.consecutiveFailures = 3;
        p.breaker.cooldownTicks = 2;
        p.journalSalt = 77;
        return p;
    }

    /** The golden: same schedule, no journal, never killed. */
    RunResult cleanRun()
    {
        obs::Registry reg;
        PredictionService svc(primary, baseParams(&reg), &fallback);
        runRounds(svc, 0, kRounds);
        svc.drain();
        return {transcriptOf(svc.takeResponses()), obs::statsDigest(&reg),
                serveCounters(reg)};
    }

    /**
     * Leave the serve.* counts of @p preloadRounds rounds in @p reg,
     * the way an earlier, destroyed service on the same registry does.
     */
    void preload(obs::Registry &reg)
    {
        if (preloadRounds == 0)
            return;
        PredictionService svc(primary, baseParams(&reg), &fallback);
        runRounds(svc, 0, preloadRounds);
        svc.drain();
    }

    /**
     * Run with the journal, "crash" (destroy the service — nothing
     * past the last durable record survives) after @p crashRound full
     * rounds plus half a round of uncommitted submissions, then
     * restore into a fresh service and registry and finish the
     * schedule from resumedFromTick().
     */
    RunResult crashAndResume(std::size_t crashRound,
                             std::uint64_t snapshotEvery = 4)
    {
        {
            obs::Registry crashed;
            preload(crashed);
            Params p = baseParams(&crashed);
            p.journalDir = dir;
            p.snapshotEveryTicks = snapshotEvery;
            PredictionService svc(primary, p, &fallback);
            runRounds(svc, 0, crashRound);
            // Half a round submitted but never ticked: lost with the
            // crash, re-submitted by the resumed driver below.
            for (std::size_t i = 0; i < kPerRound / 2; ++i)
                svc.submit(makeReq(crashRound * kPerRound + i));
        }
        obs::Registry reg;
        preload(reg);
        Params p = baseParams(&reg);
        p.journalDir = dir;
        p.snapshotEveryTicks = snapshotEvery;
        PredictionService svc(primary, p, &fallback);
        EXPECT_EQ(svc.resumedFromTick(),
                  static_cast<std::int64_t>(crashRound));
        runRounds(svc, static_cast<std::size_t>(svc.resumedFromTick()),
                  kRounds);
        svc.drain();
        return {transcriptOf(svc.takeResponses()), obs::statsDigest(&reg),
                serveCounters(reg)};
    }

    SumModel primary;
    ConstModel fallback;
    /** Rounds preload() runs before each crashAndResume() phase. */
    std::size_t preloadRounds = 0;
};

TEST_F(JournalTest, SegmentJsonRoundTripsIncludingNaNPrediction)
{
    JournalSegment seg;
    seg.tick = 7;
    seg.nextId = 42;
    JournalRequest rq;
    rq.id = 40;
    rq.key = 5;
    rq.priority = 2;
    rq.shard = 1;
    rq.enqueueTick = 7;
    rq.features = {5.0, 1.0, 0.25};
    seg.admitted.push_back(rq);

    Response served;
    served.id = 38;
    served.key = 3;
    served.priority = Priority::Critical;
    served.disposition = Disposition::Served;
    served.prediction = 4.0;
    seg.responses.push_back(served);
    Response shed;
    shed.id = 39;
    shed.key = 9;
    shed.priority = Priority::Bulk;
    shed.disposition = Disposition::Shed;
    shed.prediction = std::nan("");
    shed.reason = "queue full";
    seg.responses.push_back(shed);

    JournalBreaker b;
    b.state = 1;
    b.consecutive = 3;
    b.window = "0011";
    b.windowFailures = 2;
    b.openedTick = 7;
    seg.breakers.push_back(b);
    for (const char *name : {"serve.submitted", "serve.served",
                             "serve.shed", "serve.shed.bulk",
                             "serve.ticks"})
        seg.statOps.push_back(
            {obs::StatOp::Kind::CounterInc, name, "", 1.0});

    const std::uint64_t digest = 0xabcdefu;
    const std::string json = journalSegmentJson(seg, digest);
    JournalSegment out;
    std::string error;
    ASSERT_TRUE(journalSegmentFromJson(json, digest, out, &error))
        << error;
    EXPECT_EQ(out.tick, 7u);
    EXPECT_EQ(out.nextId, 42u);
    ASSERT_EQ(out.admitted.size(), 1u);
    EXPECT_EQ(out.admitted[0].id, 40u);
    EXPECT_EQ(out.admitted[0].features, rq.features);
    ASSERT_EQ(out.responses.size(), 2u);
    EXPECT_EQ(responseLine(out.responses[0]), responseLine(served));
    // The shed response's NaN survives the trip (JSON null).
    EXPECT_TRUE(std::isnan(out.responses[1].prediction));
    EXPECT_EQ(out.responses[1].reason, "queue full");
    ASSERT_EQ(out.breakers.size(), 1u);
    EXPECT_EQ(out.breakers[0].window, "0011");
    EXPECT_EQ(out.statOps.size(), seg.statOps.size());
}

TEST_F(JournalTest, SnapshotJsonRoundTrips)
{
    JournalSnapshot snap;
    snap.tick = 12;
    snap.nextId = 99;
    JournalRequest rq;
    rq.id = 97;
    rq.key = 2;
    rq.features = {2.0, 1.0};
    snap.queued.push_back(rq);
    Response r;
    r.id = 96;
    r.key = 1;
    r.disposition = Disposition::Degraded;
    r.degraded = true;
    r.prediction = -42.0;
    r.reason = "breaker open; fallback model";
    snap.responses.push_back(r);
    snap.breakers.push_back(JournalBreaker{});
    snap.lastKnownGood = {{1, 2.0}, {5, 6.0}};
    snap.statOps = {
        {obs::StatOp::Kind::CounterInc, "serve.submitted", "", 99.0},
        {obs::StatOp::Kind::CounterInc, "serve.ticks", "", 12.0}};

    const std::string json = journalSnapshotJson(snap, 7u);
    JournalSnapshot out;
    std::string error;
    ASSERT_TRUE(journalSnapshotFromJson(json, 7u, out, &error)) << error;
    EXPECT_EQ(out.tick, 12u);
    EXPECT_EQ(out.nextId, 99u);
    ASSERT_EQ(out.queued.size(), 1u);
    EXPECT_EQ(out.queued[0].id, 97u);
    ASSERT_EQ(out.responses.size(), 1u);
    EXPECT_EQ(responseLine(out.responses[0]), responseLine(r));
    EXPECT_EQ(out.lastKnownGood, snap.lastKnownGood);
}

TEST_F(JournalTest, ParserRejectsTruncatedGarbageAndForeignRecords)
{
    JournalSegment seg;
    seg.tick = 3;
    const std::string good = journalSegmentJson(seg, 1u);

    JournalSegment out;
    std::string error;
    // Truncated mid-document (the torn-write shape).
    EXPECT_FALSE(journalSegmentFromJson(
        good.substr(0, good.size() / 2), 1u, out, &error));
    EXPECT_FALSE(error.empty());
    // Garbage bytes.
    EXPECT_FALSE(journalSegmentFromJson("not json at all", 1u, out,
                                        &error));
    // A valid record from a different configuration.
    EXPECT_FALSE(journalSegmentFromJson(good, 2u, out, &error));
    EXPECT_NE(error.find("config"), std::string::npos);
    // A snapshot is not a segment (kind mismatch).
    JournalSnapshot snap;
    snap.tick = 3;
    EXPECT_FALSE(journalSegmentFromJson(journalSnapshotJson(snap, 1u),
                                        1u, out, &error));
}

/** Integer fields outside their type's range are rejected, not cast. */
TEST_F(JournalTest, ParserRejectsOutOfRangeIntegers)
{
    JournalSegment seg;
    seg.tick = 3;
    seg.breakers.push_back(JournalBreaker{});
    const std::string good = journalSegmentJson(seg, 1u);
    JournalSegment out;
    ASSERT_TRUE(journalSegmentFromJson(good, 1u, out));

    for (const auto &[field, huge] :
         {std::pair{"\"next_id\":0", "\"next_id\":1e30"},
          std::pair{"\"consec\":0", "\"consec\":1e30"},
          std::pair{"\"index\":3", "\"index\":1e30"}}) {
        std::string text = good;
        const std::size_t at = text.find(field);
        ASSERT_NE(at, std::string::npos) << field;
        text.replace(at, std::string(field).size(), huge);
        EXPECT_FALSE(journalSegmentFromJson(text, 1u, out)) << huge;
    }
}

TEST_F(JournalTest, ConfigDigestCoversResultKnobsOnly)
{
    Params a;
    const std::uint64_t base = journalConfigDigest(a);
    EXPECT_EQ(base, journalConfigDigest(a));

    // Every result-bearing knob moves the digest...
    Params b = a;
    b.budgetPerTick = 7;
    EXPECT_NE(journalConfigDigest(b), base);
    b = a;
    b.queueCapacity = 9;
    EXPECT_NE(journalConfigDigest(b), base);
    b = a;
    b.degradeAfterTicks = 3;
    EXPECT_NE(journalConfigDigest(b), base);
    b = a;
    b.shards = 4;
    EXPECT_NE(journalConfigDigest(b), base);
    b = a;
    b.maxRetries = 5;
    EXPECT_NE(journalConfigDigest(b), base);
    b = a;
    b.breaker.consecutiveFailures = 9;
    EXPECT_NE(journalConfigDigest(b), base);
    b = a;
    b.journalSalt = 1;
    EXPECT_NE(journalConfigDigest(b), base);

    // ...while resilience/cadence knobs deliberately do not: changing
    // them on resume must not invalidate an existing journal.
    b = a;
    b.journalDir = "/somewhere/else";
    b.snapshotEveryTicks = 999;
    EXPECT_EQ(journalConfigDigest(b), base);
}

TEST_F(JournalTest, RestoreReachesExactPreCrashState)
{
    fi::Injector::instance().arm(
        "serve.error:below=20;serve.reject:every=13");

    obs::Registry crashed;
    std::vector<double> before;
    std::vector<BreakerState> breakersBefore;
    std::vector<std::pair<std::uint64_t, double>> lkgBefore;
    std::uint64_t tickBefore = 0;
    std::size_t depthBefore = 0;
    const char *const counters[] = {
        "serve.submitted",      "serve.served",
        "serve.degraded",       "serve.shed",
        "serve.shed.critical",  "serve.shed.health",
        "serve.shed.bulk",      "serve.breaker.opened",
        "serve.breaker.half_open", "serve.breaker.closed",
        "serve.ticks"};
    {
        Params p = baseParams(&crashed);
        p.journalDir = dir;
        p.snapshotEveryTicks = 4;
        PredictionService svc(primary, p, &fallback);
        runRounds(svc, 0, 9); // crash on a round boundary: all durable
        tickBefore = svc.ticks();
        depthBefore = svc.queueDepth();
        for (const char *name : counters)
            before.push_back(crashed.value(name));
        for (int shard = 0; shard < 2; ++shard)
            breakersBefore.push_back(svc.breakerState(shard));
        for (std::uint64_t key = 0; key < 19; ++key)
            if (const auto v = svc.lastKnownGood(key))
                lkgBefore.emplace_back(key, *v);
    }

    obs::Registry reg;
    Params p = baseParams(&reg);
    p.journalDir = dir;
    p.snapshotEveryTicks = 4;
    PredictionService svc(primary, p, &fallback);

    // Same tick, same queue depth, same serve.* counters, same
    // breaker phase, same last-known-good cache — the exact state the
    // crashed process held after its last durable record.
    EXPECT_EQ(svc.resumedFromTick(), 9);
    EXPECT_EQ(svc.ticks(), tickBefore);
    EXPECT_EQ(svc.queueDepth(), depthBefore);
    for (std::size_t i = 0; i < before.size(); ++i)
        EXPECT_EQ(reg.value(counters[i]), before[i]) << counters[i];
    for (int shard = 0; shard < 2; ++shard)
        EXPECT_EQ(svc.breakerState(shard), breakersBefore[shard])
            << "shard " << shard;
    std::vector<std::pair<std::uint64_t, double>> lkgAfter;
    for (std::uint64_t key = 0; key < 19; ++key)
        if (const auto v = svc.lastKnownGood(key))
            lkgAfter.emplace_back(key, *v);
    EXPECT_EQ(lkgAfter, lkgBefore);
}

/**
 * The tentpole acceptance claim: a run killed mid-flight (losing a
 * half-submitted round) and resumed from its journal reaches the
 * bit-identical transcript and stats digest of a run that never died
 * — at 1, 2 and 8 threads, with serving faults armed throughout.
 */
TEST_F(JournalTest, KillResumeIsBitIdenticalAcrossThreadCounts)
{
    const int original = par::Pool::global().threads();
    fi::Injector::instance().arm(
        "serve.error:below=20;serve.reject:every=13");
    const RunResult golden = cleanRun();
    ASSERT_FALSE(golden.transcript.empty());

    for (const int threads : {1, 2, 8}) {
        par::Pool::setGlobalThreads(threads);
        std::filesystem::remove_all(dir);
        const RunResult resumed = crashAndResume(7);
        EXPECT_EQ(resumed.transcript, golden.transcript)
            << "threads " << threads;
        EXPECT_EQ(resumed.digest, golden.digest)
            << "threads " << threads;
    }
    par::Pool::setGlobalThreads(original);
}

/**
 * Journaled serve.* ops are differences of counter values, so a
 * service on a registry that already holds serve.* counts — a second
 * service after the first was destroyed — must journal and restore
 * only its own increments.
 */
TEST_F(JournalTest, KillResumeOnRegistryWithEarlierServeCounts)
{
    fi::Injector::instance().arm(
        "serve.error:below=20;serve.reject:every=13");
    const RunResult golden = cleanRun();
    preloadRounds = 5;
    obs::Registry earlier;
    preload(earlier);
    const std::map<std::string, double> before = serveCounters(earlier);
    ASSERT_GT(before.at("serve.submitted"), 0.0);

    const RunResult resumed = crashAndResume(7);
    EXPECT_EQ(resumed.transcript, golden.transcript);
    std::map<std::string, double> want = before;
    for (const auto &[name, value] : golden.serve)
        want[name] += value;
    EXPECT_EQ(resumed.serve, want);
}

/**
 * journal.write makes record writes fail outright: nothing lands and
 * the delta folds into the next successful record. A crash right
 * after a failed write loses those ticks — and the resumed driver
 * re-executes them to the same transcript.
 */
TEST_F(JournalTest, ResumesCorrectlyUnderArmedJournalWriteFaults)
{
    const RunResult golden = cleanRun();
    fi::Injector::instance().arm("journal.write:every=3");
    {
        obs::Registry crashed;
        Params p = baseParams(&crashed);
        p.journalDir = dir;
        p.snapshotEveryTicks = 4;
        PredictionService svc(primary, p, &fallback);
        runRounds(svc, 0, 9);
        // Ticks 3, 6, 9 never landed; tick 9's delta is still pending
        // when the crash hits, so the journal ends at tick 8.
    }
    fi::Injector::instance().disarm();

    obs::Registry reg;
    Params p = baseParams(&reg);
    p.journalDir = dir;
    p.snapshotEveryTicks = 4;
    PredictionService svc(primary, p, &fallback);
    EXPECT_EQ(svc.resumedFromTick(), 8);
    runRounds(svc, 8, kRounds);
    svc.drain();
    EXPECT_EQ(transcriptOf(svc.takeResponses()), golden.transcript);
    EXPECT_EQ(obs::statsDigest(&reg), golden.digest);
}

/**
 * journal.torn_segment makes a write land half a body — the torn
 * write the loader's quarantine path exists for. Replay must stop at
 * the record before the torn one (its delta is lost), re-serving
 * everything from there, and still converge on the golden.
 */
TEST_F(JournalTest, TornSegmentIsQuarantinedAndReServed)
{
    const RunResult golden = cleanRun();
    fi::Injector::instance().arm("journal.torn_segment:every=6,count=1");
    {
        obs::Registry crashed;
        Params p = baseParams(&crashed);
        p.journalDir = dir;
        p.snapshotEveryTicks = 0; // segments only
        PredictionService svc(primary, p, &fallback);
        runRounds(svc, 0, 9); // tick 6's segment lands torn
    }
    fi::Injector::instance().disarm();

    obs::Registry reg;
    Params p = baseParams(&reg);
    p.journalDir = dir;
    p.snapshotEveryTicks = 0;
    PredictionService svc(primary, p, &fallback);
    // Stops *before* the torn tick even though ticks 7..9 have valid
    // segments on disk: their deltas assume tick 6 was applied.
    EXPECT_EQ(svc.resumedFromTick(), 5);
    EXPECT_TRUE(std::filesystem::exists(
        dir + "/seg-00000006.json.quarantined"));
    EXPECT_GE(reg.value("journal.quarantined_files"), 1.0);
    runRounds(svc, 5, kRounds);
    svc.drain();
    EXPECT_EQ(transcriptOf(svc.takeResponses()), golden.transcript);
    EXPECT_EQ(obs::statsDigest(&reg), golden.digest);
}

/**
 * A corrupted *newest snapshot* must fall back to the retained older
 * snapshot — but segment replay still stops before the corrupt
 * snapshot's tick, whose delta lived only in that snapshot.
 */
TEST_F(JournalTest, CorruptNewestSnapshotFallsBackToOlderOne)
{
    const RunResult golden = cleanRun();
    {
        obs::Registry crashed;
        Params p = baseParams(&crashed);
        p.journalDir = dir;
        p.snapshotEveryTicks = 3;
        PredictionService svc(primary, p, &fallback);
        runRounds(svc, 0, 10); // snaps at 3, 6, 9; 6 and 9 retained
    }
    ASSERT_TRUE(fi::atomicWriteFile(dir + "/snap-00000009.json",
                                    "{\"definitely\": \"garbage\""));

    obs::Registry reg;
    Params p = baseParams(&reg);
    p.journalDir = dir;
    p.snapshotEveryTicks = 3;
    PredictionService svc(primary, p, &fallback);
    // snap-6 + segments 7 and 8; tick 9 is lost with its snapshot and
    // tick 10's segment must not be replayed across the gap.
    EXPECT_EQ(svc.resumedFromTick(), 8);
    EXPECT_TRUE(std::filesystem::exists(
        dir + "/snap-00000009.json.quarantined"));
    runRounds(svc, 8, kRounds);
    svc.drain();
    EXPECT_EQ(transcriptOf(svc.takeResponses()), golden.transcript);
    EXPECT_EQ(obs::statsDigest(&reg), golden.digest);
}

/** A journal from a different configuration never silently replays. */
TEST_F(JournalTest, ConfigDigestMismatchQuarantinesAndStartsFresh)
{
    const RunResult golden = cleanRun();
    {
        obs::Registry crashed;
        Params p = baseParams(&crashed);
        p.journalDir = dir;
        p.journalSalt = 1000; // a different traffic configuration
        PredictionService svc(primary, p, &fallback);
        runRounds(svc, 0, 6);
    }

    obs::Registry reg;
    Params p = baseParams(&reg); // salt 77 again
    p.journalDir = dir;
    PredictionService svc(primary, p, &fallback);
    EXPECT_EQ(svc.resumedFromTick(), -1); // fresh start, no replay
    runRounds(svc, 0, kRounds);
    svc.drain();
    EXPECT_EQ(transcriptOf(svc.takeResponses()), golden.transcript);
    EXPECT_EQ(obs::statsDigest(&reg), golden.digest);
}

/**
 * Compaction keeps exactly two snapshots plus the segments after the
 * older one; everything the older snapshot subsumes is deleted.
 */
TEST_F(JournalTest, CompactionRetainsTwoSnapshotsAndTrailingSegments)
{
    obs::Registry reg;
    Params p = baseParams(&reg);
    p.journalDir = dir;
    p.snapshotEveryTicks = 3;
    p.budgetPerTick = 64; // no backlog: exactly one tick per round
    p.degradeAfterTicks = 0;
    PredictionService svc(primary, p, &fallback);
    runRounds(svc, 0, kRounds); // ticks 1..12, snaps at 3, 6, 9, 12

    std::set<std::string> names;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        names.insert(entry.path().filename().string());
    const std::set<std::string> expected = {
        "snap-00000009.json", "snap-00000012.json",
        "seg-00000010.json", "seg-00000011.json"};
    EXPECT_EQ(names, expected);
}

/**
 * Graceful-interrupt coverage (the SIGTERM drain path): a cancelled
 * service sheds every queued request, the conservation law holds over
 * its counters, and the final state is durable — a restore lands on
 * the same accounted-for totals.
 */
TEST_F(JournalTest, CancelledDrainIsConservedAndDurable)
{
    const auto conserved = [](const obs::Registry &reg) {
        return reg.value("serve.submitted") ==
               reg.value("serve.served") + reg.value("serve.degraded") +
                   reg.value("serve.shed");
    };
    std::vector<double> finalCounters;
    {
        obs::Registry reg;
        Params p = baseParams(&reg);
        p.journalDir = dir;
        p.token = par::CancelToken::make();
        PredictionService svc(primary, p, &fallback);
        runRounds(svc, 0, 5);
        ASSERT_GT(svc.queueDepth(), 0u); // backlog to be shed
        p.token.cancel("test drain", "test");
        svc.drain();
        EXPECT_EQ(svc.queueDepth(), 0u);
        EXPECT_TRUE(conserved(reg));
        finalCounters = {reg.value("serve.submitted"),
                         reg.value("serve.served"),
                         reg.value("serve.degraded"),
                         reg.value("serve.shed")};
    }
    obs::Registry reg;
    Params p = baseParams(&reg);
    p.journalDir = dir;
    PredictionService svc(primary, p, &fallback);
    EXPECT_GE(svc.resumedFromTick(), 5);
    EXPECT_TRUE(conserved(reg));
    EXPECT_EQ(reg.value("serve.submitted"), finalCounters[0]);
    EXPECT_EQ(reg.value("serve.served"), finalCounters[1]);
    EXPECT_EQ(reg.value("serve.degraded"), finalCounters[2]);
    EXPECT_EQ(reg.value("serve.shed"), finalCounters[3]);
}

/**
 * Record names pad the tick to eight digits without limiting it to
 * eight: a service past tick 99,999,999 still finds its own records.
 */
TEST_F(JournalTest, TicksPastEightDigitsAreStillLoaded)
{
    obs::Registry reg;
    WriteAheadJournal wal;
    wal.open(dir, 5u, &reg);
    JournalSegment seg;
    seg.tick = 99999999;
    ASSERT_TRUE(wal.writeSegment(seg));
    seg.tick = 100000000;
    ASSERT_TRUE(wal.writeSegment(seg));

    const WriteAheadJournal::Restored restored = wal.load();
    ASSERT_EQ(restored.segments.size(), 2u);
    EXPECT_EQ(restored.segments[0].tick, 99999999u);
    EXPECT_EQ(restored.segments[1].tick, 100000000u);
    EXPECT_EQ(restored.tick, 100000000u);
}

/** journal.* is operational history, digest-excluded like fi.*. */
TEST_F(JournalTest, JournalStatsAreDigestExcluded)
{
    EXPECT_TRUE(obs::digestExcludes("journal.segments_written"));
    EXPECT_TRUE(obs::digestExcludes("journal.replayed_segments"));
    EXPECT_TRUE(obs::digestExcludes("journal.quarantined_files"));
    EXPECT_FALSE(obs::digestExcludes("serve.submitted"));
}

} // namespace
} // namespace dfault::serve
