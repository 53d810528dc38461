/**
 * @file
 * campaign_cold and campaign_warm: the characterization campaign with
 * and without profiling.
 *
 * campaign_cold sweeps the WER grid from an empty ProfileCache at the
 * paper-scale 16 MiB footprint (twice the modelled 8 MiB L2), so almost
 * all of its time is profiling. A pass is one sweep() call; the
 * library's event stream is on during the pass, and each config's
 * "profile" record gives its op latency. Its traced run re-executes
 * every configuration layer by layer and replays each access stream
 * through the memory hierarchy and each trace sink alone, because the
 * host has no hardware counters to split a profile run any other way.
 *
 * campaign_warm profiles an in-L2 2 MiB suite during set-up and then
 * times only integrator traffic: the WER sweep, K re-measurements of
 * every cell with seeded run_seeds, and the PUE study.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include "bench.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "core/characterization.hh"
#include "core/dataset_builder.hh"
#include "features/extractor.hh"
#include "fi/durable.hh"
#include "mem/hierarchy.hh"
#include "obs/events.hh"
#include "obs/json.hh"
#include "par/pool.hh"
#include "trace/entropy_sampler.hh"
#include "trace/reuse_tracker.hh"
#include "workloads/registry.hh"

namespace perfbench {

namespace {

using dfault::core::CharacterizationCampaign;
using dfault::core::Measurement;
namespace features = dfault::features;
namespace sys = dfault::sys;
namespace trace = dfault::trace;
namespace wl = dfault::workloads;

constexpr std::uint64_t kColdFootprint = 16ULL << 20;
constexpr double kColdWorkScale = 0.25;
/** Platform bring-up takes milliseconds and a pass about ten
 *  seconds: set-ups per pass, so the run's median set-up is not one
 *  scheduler hiccup. */
constexpr int kColdSetupReps = 25;
/** Where a cold pass streams the library's events, in the run's
 *  working directory. */
constexpr const char *kColdEvents = "cold_events.jsonl";

constexpr std::uint64_t kWarmFootprint = 2ULL << 20;
constexpr double kWarmWorkScale = 0.25;
/** Re-measurements of every WER cell per warm pass. */
constexpr int kRemeasureK = 4;
/** The paper's PUE repeats (crashes / experiments, Eq. 3). */
constexpr int kPueRepeats = 10;

/** A platform and a campaign over it. */
struct CampaignState
{
    std::unique_ptr<sys::Platform> platform;
    std::unique_ptr<CharacterizationCampaign> campaign;
    CharacterizationCampaign::Params params;
};

std::unique_ptr<CampaignState>
makeCampaign(std::uint64_t footprint, double work_scale)
{
    auto st = std::make_unique<CampaignState>();
    sys::Platform::Params pp;
    pp.exec.timeDilation = sys::dilationForFootprint(footprint);
    st->platform = std::make_unique<sys::Platform>(pp);
    st->params.workload.footprintBytes = footprint;
    st->params.workload.workScale = work_scale;
    st->params.failFast = true;
    st->campaign = std::make_unique<CharacterizationCampaign>(
        *st->platform, st->params);
    return st;
}

/** host_seconds of every "profile" record in event file @p path, in
 *  the order of the records' labels, so the same config has the same
 *  place in every pass whichever pool thread finished it first. */
std::vector<double>
profileSeconds(const std::string &path)
{
    std::string error;
    const auto body = dfault::fi::readFile(path, &error);
    if (!body)
        DFAULT_FATAL("cannot read events: ", error);
    std::map<std::string, double> byLabel;
    std::size_t at = 0;
    while (at < body->size()) {
        std::size_t eol = body->find('\n', at);
        if (eol == std::string::npos)
            eol = body->size();
        const auto record = dfault::obs::jsonParse(
            std::string_view(*body).substr(at, eol - at), &error);
        if (!record)
            DFAULT_FATAL("malformed event in ", path, ": ", error);
        const auto *type = record->find("type");
        const auto *label = record->find("label");
        const auto *seconds = record->find("host_seconds");
        if (type != nullptr && type->string == "profile" &&
            label != nullptr && seconds != nullptr)
            byLabel[label->string] = seconds->number;
        at = eol + 1;
    }
    std::vector<double> out;
    for (const auto &[label, seconds] : byLabel)
        out.push_back(seconds);
    return out;
}

std::string
profileDigest(CampaignState &st, const std::vector<wl::WorkloadConfig> &suite)
{
    Digest d;
    for (const auto &config : suite) {
        const auto &p = features::ProfileCache::instance().get(
            *st.platform, config, st.params.workload);
        d.add(p.label);
        for (const double v : p.features.values())
            d.add(v);
    }
    return d.hex();
}

/** Measurements a sweep failed to produce. */
std::uint64_t
lostCells(const std::vector<Measurement> &ms)
{
    std::uint64_t n = 0;
    for (const auto &m : ms)
        n += (m.quarantined || m.cancelled) ? 1 : 0;
    return n;
}

// ---- campaign_cold layer attribution ------------------------------

/** Per-configuration layer times from the re-executions. */
struct ConfigLayers
{
    double profile = 0, run = 0, runSinks = 0;
    double memReplay = 0, reuseReplay = 0, entropyReplay = 0;
    std::uint64_t accesses = 0, instructions = 0, mcuCmds = 0;
    std::uint64_t l1Accesses = 0, l1Misses = 0, l2Accesses = 0,
                  l2Misses = 0, entropySampled = 0;
};

/**
 * Buffers a run's access stream and, a chunk at a time, replays it
 * through a private memory hierarchy and private trace sinks, timing
 * each layer alone. Chunking bounds memory at any stream length.
 */
class ReplaySink : public trace::AccessSink
{
  public:
    ReplaySink(const sys::Platform &platform, std::uint64_t tracker_bytes,
               ConfigLayers &out)
        : hierarchy_(platform.geometry(), platform.params().hierarchy),
          reuse_(tracker_bytes), out_(out)
    {
        buffer_.reserve(kChunk);
    }

    void onAccess(const trace::AccessEvent &event) override
    {
        buffer_.push_back(event);
        if (buffer_.size() == kChunk)
            flush();
    }

    void flush()
    {
        auto start = Clock::now();
        for (const auto &e : buffer_) {
            const auto t = static_cast<std::size_t>(e.thread);
            if (t >= cycles_.size())
                cycles_.resize(t + 1, 0);
            cycles_[t] += hierarchy_.access(e.thread % hierarchy_.cores(),
                                            e.addr, e.isWrite, cycles_[t]);
        }
        out_.memReplay += secondsSince(start);
        start = Clock::now();
        for (const auto &e : buffer_)
            reuse_.onAccess(e);
        out_.reuseReplay += secondsSince(start);
        start = Clock::now();
        for (const auto &e : buffer_)
            entropy_.onAccess(e);
        out_.entropyReplay += secondsSince(start);
        out_.accesses += buffer_.size();
        buffer_.clear();
    }

  private:
    static constexpr std::size_t kChunk = 1 << 20;
    dfault::mem::MemoryHierarchy hierarchy_;
    trace::ReuseTracker reuse_;
    trace::EntropySampler entropy_;
    std::vector<trace::AccessEvent> buffer_;
    std::vector<dfault::Cycles> cycles_;
    ConfigLayers &out_;
};

std::uint64_t
trackerBytes(std::uint64_t footprint)
{
    // The range features::extractProfile gives its reuse tracker.
    return footprint + footprint / 4 + (4 << 20);
}

/** Run @p config once on @p platform with whatever sinks are attached. */
sys::ExecutionContext
runOnce(sys::Platform &platform, const wl::WorkloadConfig &config,
        const wl::Workload::Params &wparams, double &seconds)
{
    const auto start = Clock::now();
    auto workload = wl::createWorkload(config.kernel, wparams);
    sys::ExecutionContext ctx = platform.startRun(config.threads);
    workload->run(ctx);
    seconds += secondsSince(start);
    return ctx;
}

ConfigLayers
attributeConfig(sys::Platform &platform, const wl::WorkloadConfig &config,
                const wl::Workload::Params &wparams)
{
    ConfigLayers c;
    {
        const auto start = Clock::now();
        features::extractProfile(platform, config, wparams);
        c.profile = secondsSince(start);
    }
    {
        const auto ctx = runOnce(platform, config, wparams, c.run);
        c.instructions = ctx.totalStats().instructions;
        const auto &h = platform.hierarchy();
        const auto l1 = h.l1CountersTotal();
        c.l1Accesses = l1.readAccesses + l1.writeAccesses;
        c.l1Misses = l1.readMisses + l1.writeMisses;
        c.l2Accesses =
            h.l2Counters().readAccesses + h.l2Counters().writeAccesses;
        c.l2Misses = h.l2Counters().readMisses + h.l2Counters().writeMisses;
        c.mcuCmds = h.dramCommandsTotal();
    }
    {
        trace::ReuseTracker reuse(trackerBytes(wparams.footprintBytes));
        trace::EntropySampler entropy;
        platform.bus().attach(&reuse);
        platform.bus().attach(&entropy);
        runOnce(platform, config, wparams, c.runSinks);
        platform.bus().detach(&reuse);
        platform.bus().detach(&entropy);
        c.entropySampled = entropy.sampledStores();
    }
    {
        ReplaySink replay(platform, trackerBytes(wparams.footprintBytes), c);
        platform.bus().attach(&replay);
        double ignored = 0;
        runOnce(platform, config, wparams, ignored);
        platform.bus().detach(&replay);
        replay.flush();
    }
    return c;
}

/** Layer metrics of campaign_cold; returns the profile ledger's
 *  unattributed share, percent. */
double
attributeCold(CampaignState &st, const std::vector<wl::WorkloadConfig> &suite,
              const std::vector<dfault::dram::OperatingPoint> &points,
              Report &report)
{
    // One platform per pool slot, as sweep() profiles on.
    std::vector<std::unique_ptr<sys::Platform>> replicas;
    for (int s = 1; s < kThreads; ++s)
        replicas.push_back(st.platform->clone());
    std::vector<ConfigLayers> per(suite.size());
    dfault::par::Pool::global().parallelFor(suite.size(), [&](std::size_t i) {
        const int slot = std::max(0, dfault::par::Pool::currentSlot());
        per[i] = attributeConfig(
            slot == 0 ? *st.platform
                      : *replicas[static_cast<std::size_t>(slot - 1)],
            suite[i], st.params.workload);
    });
    ConfigLayers t;
    for (const auto &c : per) {
        t.profile += c.profile;
        t.run += c.run;
        t.runSinks += c.runSinks;
        t.memReplay += c.memReplay;
        t.reuseReplay += c.reuseReplay;
        t.entropyReplay += c.entropyReplay;
        t.accesses += c.accesses;
        t.instructions += c.instructions;
        t.mcuCmds += c.mcuCmds;
        t.l1Accesses += c.l1Accesses;
        t.l1Misses += c.l1Misses;
        t.l2Accesses += c.l2Accesses;
        t.l2Misses += c.l2Misses;
        t.entropySampled += c.entropySampled;
    }

    // The integrator alone on every cell of the sweep (profiles are
    // cached by the traced passes).
    double integrate = 0;
    const auto &integrator = st.campaign->integrator();
    for (const auto &config : suite) {
        const auto &profile = features::ProfileCache::instance().get(
            *st.platform, config, st.params.workload);
        for (const auto &op : points) {
            const auto start = Clock::now();
            integrator.run(profile, op, st.platform->geometry(),
                           st.platform->devices());
            integrate += secondsSince(start);
        }
    }

    const double exec = t.run - t.memReplay;
    const double assemble = t.profile - t.runSinks;
    const double unattributed =
        t.runSinks - t.run - t.reuseReplay - t.entropyReplay;
    const double pct = printLedger(
        "campaign_cold profile (summed over configs)", t.profile,
        {{"sys.exec", exec},
         {"mem.access (replay)", t.memReplay},
         {"trace.reuse (replay)", t.reuseReplay},
         {"trace.entropy (replay)", t.entropyReplay},
         {"features.assemble", assemble}});
    std::printf("  (workloads.run %.6f s, workloads.run_sinks %.6f s, "
                "%llu accesses)\n",
                t.run, t.runSinks,
                static_cast<unsigned long long>(t.accesses));

    const double acc = static_cast<double>(t.accesses);
    report.metric("features.profile_s", t.profile, "s");
    report.metric("workloads.run_s", t.run, "s");
    report.metric("workloads.run_sinks_s", t.runSinks, "s");
    report.metric("features.assemble_s", assemble, "s");
    report.metric("sys.exec_s", exec, "s");
    report.metric("mem.access_ns", 1e9 * t.memReplay / acc, "ns");
    report.metric("trace.reuse_ns", 1e9 * t.reuseReplay / acc, "ns");
    report.metric("trace.entropy_ns", 1e9 * t.entropyReplay / acc, "ns");
    report.metric("features.unattributed_s", unattributed, "s");
    report.metric("core.integrate_s", integrate, "s");
    report.metric("sys.instructions", static_cast<double>(t.instructions),
                  "count");
    report.metric("sys.sim_minstr_per_s",
                  static_cast<double>(t.instructions) / t.run / 1e6,
                  "Minstr/s");
    report.metric("mem.accesses", acc, "count");
    report.metric("mem.l1_miss_ratio",
                  static_cast<double>(t.l1Misses) /
                      static_cast<double>(t.l1Accesses),
                  "ratio");
    report.metric("mem.l2_miss_ratio",
                  static_cast<double>(t.l2Misses) /
                      static_cast<double>(t.l2Accesses),
                  "ratio");
    report.metric("dram.mcu_cmds", static_cast<double>(t.mcuCmds), "count");
    report.metric("trace.entropy_sampled",
                  static_cast<double>(t.entropySampled), "count");
    return pct;
}

} // namespace

int
runCampaignCold(const Options &opt, const Expectations &exp, Report &report)
{
    const auto suite = wl::standardSuite();
    const auto points = dfault::core::werOperatingPoints();

    // Set-up: bring up the platform and the campaign.
    std::unique_ptr<CampaignState> st;
    const auto teardown = [&] { st.reset(); };
    const auto setup = [&] {
        st = makeCampaign(kColdFootprint, kColdWorkScale);
    };

    const std::string expected = exp.get("campaign_cold.profiles");
    RepeatedOpLatency latency;
    std::uint64_t attempted = 0, failed = 0;
    const auto pass = [&]() -> double {
        features::ProfileCache::instance().clear();
        auto &events = dfault::obs::EventSink::instance();
        events.open(kColdEvents);
        const auto start = Clock::now();
        const std::vector<Measurement> ms = st->campaign->sweep(suite, points);
        const double wall = secondsSince(start);
        events.close();
        const std::vector<double> lat = profileSeconds(kColdEvents);
        latency.pass(lat);
        attempted += suite.size();
        const std::uint64_t lost = lostCells(ms);
        bool ok = report.check("campaign_cold.profiles",
                               profileDigest(*st, suite), expected);
        if (lat.size() != suite.size()) {
            report.fail("campaign_cold: " + std::to_string(lat.size()) +
                        " profile records for " +
                        std::to_string(suite.size()) + " configs");
            ok = false;
        }
        failed += ok ? std::min<std::uint64_t>(lost, suite.size())
                     : suite.size();
        return wall;
    };

    if (!opt.trace) {
        reportTimings(report,
                      timedIterations(opt.seconds, kColdSetupReps, 1, teardown,
                                      setup, pass),
                      static_cast<double>(suite.size()));
        latency.report(report);
        report.metric("peak_rss_mib", peakRssMib(), "MiB");
    } else {
        setup();
        tracedPasses(opt.seconds, pass, report);
        report.metric("obs.unattributed_pct",
                      attributeCold(*st, suite, points, report), "%");
    }
    report.ops(attempted, failed);
    return 0;
}

int
runCampaignWarm(const Options &opt, const Expectations &exp, Report &report)
{
    const auto suite = wl::standardSuite();
    const auto points = dfault::core::werOperatingPoints();
    const auto pue_points = dfault::core::pueOperatingPoints();
    const std::size_t cells = suite.size() * points.size();

    // Set-up: a cold in-L2 sweep fills the ProfileCache.
    std::unique_ptr<CampaignState> st;
    const auto teardown = [&] {
        st.reset();
        features::ProfileCache::instance().clear();
    };
    const auto setup = [&] {
        st = makeCampaign(kWarmFootprint, kWarmWorkScale);
        st->campaign->sweep(suite, points);
    };

    // The workload seed picks the re-measurement run_seeds.
    std::uint64_t seed_state = opt.seed;
    const std::uint64_t base = dfault::splitMix64(seed_state);

    const std::string expected = exp.get("campaign_warm.wer_pue");
    std::string remeasure_ref;
    OpLatency latency;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<Measurement> last_sweep;
    std::vector<dfault::core::PueSample> last_pue;
    const std::uint64_t ops_per_pass =
        cells * (1 + kRemeasureK) +
        suite.size() * pue_points.size() * kPueRepeats;
    const auto pass = [&]() -> double {
        std::vector<double> lat;
        lat.reserve(cells * kRemeasureK);
        Digest remeasure;
        std::vector<Measurement> ms;
        std::vector<dfault::core::PueSample> samples;
        dfault::ml::Dataset pue_data;
        const auto start = Clock::now();
        {
            const Span span("warm.pass");
            {
                const Span s("core.sweep");
                ms = st->campaign->sweep(suite, points);
            }
            {
                const Span s("core.remeasure");
                for (int k = 0; k < kRemeasureK; ++k)
                    for (std::size_t i = 0; i < cells; ++i) {
                        const auto t = Clock::now();
                        const Measurement m = st->campaign->measure(
                            suite[i / points.size()],
                            points[i % points.size()],
                            base + static_cast<std::uint64_t>(k) * cells +
                                i);
                        lat.push_back(secondsSince(t));
                        remeasure.add(m.run.wer());
                        remeasure.add(
                            static_cast<std::uint64_t>(m.run.crashed));
                    }
            }
            {
                const Span s("core.pue");
                samples = dfault::core::collectPueSamples(
                    *st->campaign, suite, pue_points, kPueRepeats);
            }
            const Span s("core.pue_dataset");
            pue_data = dfault::core::makePueDataset(
                *st->campaign, samples, dfault::core::InputSet::Set1);
        }
        const double wall = secondsSince(start);
        latency.pass(lat);

        Digest d;
        for (const auto &m : ms) {
            d.add(m.run.wer());
            d.add(static_cast<std::uint64_t>(m.run.crashed));
        }
        for (const auto &s : samples)
            d.add(s.pue);
        for (std::size_t r = 0; r < pue_data.size(); ++r) {
            d.add(pue_data.y()[r]);
            for (const double v : pue_data.x()[r])
                d.add(v);
        }
        attempted += ops_per_pass;
        bool ok = report.check("campaign_warm.wer_pue", d.hex(), expected);
        // Re-measurements depend on the seed: every pass must agree
        // with the first, and the default seed with the stored digest.
        if (remeasure_ref.empty())
            remeasure_ref = opt.seed == kDefaultSeed
                                ? exp.get("campaign_warm.remeasure.seed1")
                                : remeasure.hex();
        ok = report.check("campaign_warm.remeasure", remeasure.hex(),
                          remeasure_ref) &&
             ok;
        failed += ok ? lostCells(ms) : ops_per_pass;
        last_sweep = std::move(ms);
        last_pue = std::move(samples);
        return wall;
    };

    if (!opt.trace) {
        reportTimings(report,
                      timedIterations(opt.seconds, 1, 1, teardown, setup,
                                      pass),
                      static_cast<double>(ops_per_pass));
        latency.report(report);
        report.metric("peak_rss_mib", peakRssMib(), "MiB");
    } else {
        setup();
        tracedPasses(opt.seconds, pass, report);
        auto &tr = Tracer::instance();
        const double passes =
            static_cast<double>(tr.totals("warm.pass").count);
        report.metric("obs.unattributed_pct",
                      printSpanLedger("campaign_warm pass (traced)",
                                      "warm.pass",
                                      {"core.sweep", "core.remeasure",
                                       "core.pue", "core.pue_dataset"}),
                      "%");
        report.metric("core.sweep_s", tr.totals("core.sweep").seconds / passes,
                      "s");
        report.metric("core.remeasure_s",
                      tr.totals("core.remeasure").seconds / passes, "s");
        report.metric("core.pue_s", tr.totals("core.pue").seconds / passes,
                      "s");
        report.metric("core.pue_dataset_ms",
                      1e3 * tr.totals("core.pue_dataset").seconds / passes,
                      "ms");

        // measure() against the integrator alone on the same cells.
        std::vector<double> measure_s, integrate_s;
        const auto &integrator = st->campaign->integrator();
        for (std::size_t i = 0; i < cells; ++i) {
            const auto &config = suite[i / points.size()];
            const auto &op = points[i % points.size()];
            auto t = Clock::now();
            const Measurement m = st->campaign->measure(config, op, base + i);
            measure_s.push_back(secondsSince(t));
            t = Clock::now();
            integrator.run(*m.profile, m.achieved, st->platform->geometry(),
                           st->platform->devices(), base + i);
            integrate_s.push_back(secondsSince(t));
        }
        const double measure_ms = 1e3 * median(measure_s);
        const double integrate_ms = 1e3 * median(integrate_s);
        report.metric("core.measure_ms", measure_ms, "ms");
        report.metric("core.integrate_ms", integrate_ms, "ms");
        report.metric("core.cell_overhead_ms", measure_ms - integrate_ms,
                      "ms");

        const double cpu0 = processCpuSeconds();
        const auto t0 = Clock::now();
        st->campaign->sweep(suite, points);
        report.metric("par.sweep_efficiency",
                      (processCpuSeconds() - cpu0) /
                          (secondsSince(t0) * kThreads),
                      "ratio");

        double epochs = 0, crashes = 0, ce_words = 0;
        for (const auto &m : last_sweep) {
            epochs += static_cast<double>(m.run.werSeries.size());
            crashes += m.run.crashed ? 1 : 0;
            for (const double ce : m.run.cePerDevice)
                ce_words += ce;
        }
        // The WER grid is UE-free by design; the PUE study's crashes
        // are pue x repeats per sample.
        for (const auto &s : last_pue)
            crashes += std::round(s.pue * kPueRepeats);
        report.metric("core.cells", static_cast<double>(cells), "count");
        report.metric("core.epochs", epochs, "count");
        report.metric("dram.ue_crashes", crashes, "count");
        report.metric("dram.ce_unique_words", ce_words, "count");
    }
    report.ops(attempted, failed);
    return 0;
}

} // namespace perfbench
