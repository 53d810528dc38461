/**
 * @file
 * serve_fleet: closed-loop traffic against serve::PredictionService.
 *
 * Set-up characterizes a small fleet (one srad run per server at a
 * relaxed operating point, as bench/fleet_study does) and trains the
 * fleet forest and its one-tree fallback slice. One client then runs
 * rounds: submit 1.5x the per-tick budget, tick(), takeResponses().
 * The workload seed sets each round's request order, priorities and
 * shards. Shedding is the service's admission control at 1.5x load,
 * so a shed request is a correct outcome; a request fails only when
 * its response is wrong or missing.
 */

#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>

#include "bench.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "core/characterization.hh"
#include "dram/retention.hh"
#include "features/extractor.hh"
#include "ml/forest.hh"
#include "obs/stats.hh"
#include "par/pool.hh"
#include "serve/service.hh"

namespace perfbench {

namespace {

namespace serve = dfault::serve;
namespace ml = dfault::ml;

constexpr int kServers = 6;
constexpr std::uint64_t kFleetFootprint = 1ULL << 20;
constexpr double kFleetWorkScale = 0.25;
/** Rounds per pass; each pass serves a fresh service. */
constexpr std::size_t kRounds = 16384;

/** fleet_study's service parameters. */
serve::Params
serviceParams()
{
    serve::Params sp;
    sp.queueCapacity = 64;
    sp.budgetPerTick = 32;
    sp.degradeAfterTicks = 3;
    sp.shards = 2;
    sp.maxRetries = 1;
    return sp;
}

/**
 * Forwards to a model and accumulates the predict time per pool slot,
 * so a tick's predict time can be split from its fan-out overhead.
 */
class TimedModel : public ml::Regressor
{
  public:
    explicit TimedModel(const ml::Regressor &inner) : inner_(inner) {}

    void fit(const ml::Matrix &, std::span<const double>) override
    {
        DFAULT_FATAL("TimedModel is predict-only");
    }

    double predict(std::span<const double> row) const override
    {
        const auto start = Clock::now();
        const double v = inner_.predict(row);
        const auto ns = static_cast<std::uint64_t>(
            std::chrono::duration<double, std::nano>(Clock::now() - start)
                .count());
        auto &slot = slots_[static_cast<std::size_t>(
            std::max(0, dfault::par::Pool::currentSlot()))];
        slot.ns.fetch_add(ns, std::memory_order_relaxed);
        slot.calls.fetch_add(1, std::memory_order_relaxed);
        return v;
    }

    std::string name() const override { return inner_.name(); }

    /** Largest per-slot predict time since the last call, seconds. */
    double takeSlotMax()
    {
        std::uint64_t mx = 0;
        for (auto &s : slots_) {
            const std::uint64_t ns = s.ns.exchange(0);
            totalNs_ += ns;
            totalCalls_ += s.calls.exchange(0);
            mx = std::max(mx, ns);
        }
        return static_cast<double>(mx) * 1e-9;
    }

    double meanNs() const
    {
        return totalCalls_ ? static_cast<double>(totalNs_) /
                                 static_cast<double>(totalCalls_)
                           : 0.0;
    }

  private:
    struct alignas(64) Slot
    {
        std::atomic<std::uint64_t> ns{0};
        std::atomic<std::uint64_t> calls{0};
    };
    const ml::Regressor &inner_;
    mutable std::array<Slot, kThreads> slots_{};
    std::uint64_t totalNs_ = 0;
    std::uint64_t totalCalls_ = 0;
};

/** The trained fleet models and the features they are queried with. */
struct Fleet
{
    ml::Matrix features; ///< one row per device with measurable WER
    std::unique_ptr<ml::RandomForestRegressor> forest;
    std::unique_ptr<ml::ForestSliceRegressor> slice;
    std::vector<double> primaryPred, slicePred; ///< per key
};

std::unique_ptr<Fleet>
characterizeFleet()
{
    auto fleet = std::make_unique<Fleet>();
    const dfault::dram::OperatingPoint relaxed{2.283, dfault::dram::kMinVdd,
                                               60.0};
    const dfault::dram::OperatingPoint nominal{};
    const dfault::dram::RetentionModel retention;
    std::vector<double> target;
    for (int server = 0; server < kServers; ++server) {
        dfault::sys::Platform::Params pp;
        pp.devices.masterSeed = 0xf1ee7 + static_cast<std::uint64_t>(server);
        pp.exec.timeDilation =
            dfault::sys::dilationForFootprint(kFleetFootprint);
        dfault::sys::Platform platform(pp);
        dfault::core::CharacterizationCampaign::Params cp;
        cp.workload.footprintBytes = kFleetFootprint;
        cp.workload.workScale = kFleetWorkScale;
        cp.useThermalLoop = false;
        dfault::core::CharacterizationCampaign campaign(platform, cp);
        const auto m = campaign.measure({"srad", 8, "srad(par)"}, relaxed);
        for (int d = 0; d < platform.geometry().deviceCount(); ++d) {
            const double wer = m.run.werForDevice(d);
            if (wer <= 0.0)
                continue;
            const double scale = platform.devices()[d].retentionScale();
            fleet->features.push_back({std::log10(wer), scale,
                                       static_cast<double>(server),
                                       static_cast<double>(d)});
            target.push_back(std::log10(retention.weakProbability(
                dfault::dram::kNominalTrefp, nominal, scale)));
        }
    }
    ml::RandomForestRegressor::Params fp;
    fp.trees = 25;
    fp.maxDepth = 8;
    fleet->forest = std::make_unique<ml::RandomForestRegressor>(fp);
    fleet->forest->fit(fleet->features, target);
    fleet->slice =
        std::make_unique<ml::ForestSliceRegressor>(*fleet->forest, 1);
    for (const auto &row : fleet->features) {
        fleet->primaryPred.push_back(fleet->forest->predict(row));
        fleet->slicePred.push_back(fleet->slice->predict(row));
    }
    return fleet;
}

/** Seeded traffic: kRounds rounds of 1.5x the per-tick budget. */
std::vector<serve::Request>
makeTraffic(const Fleet &fleet, std::uint64_t seed, std::size_t per_round)
{
    dfault::Rng rng(dfault::hashCombine(seed, 0x5e7e));
    std::vector<serve::Request> traffic;
    traffic.reserve(kRounds * per_round);
    for (std::size_t i = 0; i < kRounds * per_round; ++i) {
        serve::Request r;
        r.key = rng.uniformInt(fleet.features.size());
        const double u = rng.uniform();
        r.priority = u < 0.25   ? serve::Priority::Critical
                     : u < 0.45 ? serve::Priority::Health
                                : serve::Priority::Bulk;
        r.shard = static_cast<int>(rng.uniformInt(2));
        r.features = fleet.features[r.key];
        traffic.push_back(std::move(r));
    }
    return traffic;
}

/** What one pass observed. */
struct PassResult
{
    std::uint64_t submitted = 0, responses = 0, answered = 0, wrong = 0;
    double served = 0, degraded = 0, shed = 0, breakerOpened = 0;
    std::string transcript;
};

} // namespace

int
runServeFleet(const Options &opt, const Expectations &exp, Report &report)
{
    std::unique_ptr<Fleet> fleet;
    const auto teardown = [&] {
        fleet.reset();
        dfault::features::ProfileCache::instance().clear();
    };
    const auto setup = [&] { fleet = characterizeFleet(); };

    const serve::Params sp = serviceParams();
    const std::size_t per_round = sp.budgetPerTick * 3 / 2;
    std::vector<serve::Request> traffic;

    // Traced passes query the models through these (traced runs set
    // up once).
    std::unique_ptr<TimedModel> timed_primary, timed_slice;
    std::vector<double> tick_s;
    double fanout_s = 0;
    std::uint64_t fanout_ticks = 0;

    std::string transcript_ref;
    OpLatency op_latency;
    std::uint64_t attempted = 0, failed = 0;
    PassResult last;
    const auto pass = [&]() -> double {
        // Every set-up trains the same models on the same features.
        Digest model;
        for (std::size_t k = 0; k < fleet->features.size(); ++k) {
            model.add(fleet->primaryPred[k]);
            model.add(fleet->slicePred[k]);
        }
        const bool model_ok = report.check(
            "serve_fleet.model", model.hex(), exp.get("serve_fleet.model"));
        if (traffic.empty()) {
            traffic = makeTraffic(*fleet, opt.seed, per_round);
            std::printf("fleet: %zu devices, %zu rounds x %zu requests per "
                        "pass, budget %zu per tick\n",
                        fleet->features.size(), kRounds, per_round,
                        sp.budgetPerTick);
        }
        const bool traced = Tracer::instance().enabled();
        dfault::obs::Registry registry;
        serve::Params params = sp;
        params.registry = &registry;
        serve::PredictionService service(
            traced ? static_cast<const ml::Regressor &>(*timed_primary)
                   : *fleet->forest,
            params,
            traced ? static_cast<const ml::Regressor *>(timed_slice.get())
                   : fleet->slice.get());
        std::vector<Clock::time_point> submitted_at(traffic.size());
        std::vector<double> latency;
        latency.reserve(traffic.size());
        PassResult res;
        Digest transcript;

        // Responses are verified after the timed window; inside it the
        // client only keeps each batch and the time it was taken.
        std::vector<std::vector<serve::Response>> batches;
        std::vector<Clock::time_point> taken_at;
        batches.reserve(kRounds + 1);
        taken_at.reserve(kRounds + 1);
        const auto take = [&] {
            batches.push_back(service.takeResponses());
            taken_at.push_back(Clock::now());
        };
        const auto verify = [&](const std::vector<serve::Response> &out,
                                Clock::time_point now) {
            res.responses += out.size();
            for (const serve::Response &r : out) {
                bool ok = r.key < fleet->features.size();
                const double primary = ok ? fleet->primaryPred[r.key] : 0.0;
                switch (r.disposition) {
                  case serve::Disposition::Served:
                    ok = ok && r.prediction == primary;
                    break;
                  case serve::Disposition::Degraded:
                    ok = ok && (r.prediction == primary ||
                                r.prediction == fleet->slicePred[r.key]);
                    break;
                  case serve::Disposition::Shed:
                    ok = ok && std::isnan(r.prediction);
                    break;
                }
                res.wrong += ok ? 0 : 1;
                if (r.disposition != serve::Disposition::Shed) {
                    ++res.answered;
                    latency.push_back(
                        std::chrono::duration<double>(now -
                                                      submitted_at[r.id])
                            .count());
                }
                transcript.add(r.id);
                transcript.add(r.key);
                transcript.add(static_cast<std::uint64_t>(r.disposition));
                if (r.disposition != serve::Disposition::Shed)
                    transcript.add(r.prediction);
            }
        };

        std::vector<serve::Request> requests = traffic;
        const auto start = Clock::now();
        {
            const Span span("serve.pass");
            for (std::size_t round = 0; round < kRounds; ++round) {
                {
                    // One span per burst: a span per request would cost
                    // as much as the submit it measures.
                    const Span s("serve.submit");
                    for (std::size_t j = 0; j < per_round; ++j) {
                        const auto at = Clock::now();
                        const std::uint64_t id = service.submit(
                            std::move(requests[round * per_round + j]));
                        if (id < submitted_at.size())
                            submitted_at[id] = at;
                    }
                }
                if (traced) {
                    timed_primary->takeSlotMax();
                    timed_slice->takeSlotMax();
                    Tracer::instance().begin("serve.tick");
                    service.tick();
                    const double t = Tracer::instance().end();
                    tick_s.push_back(t);
                    fanout_s += t - std::max(timed_primary->takeSlotMax(),
                                             timed_slice->takeSlotMax());
                    ++fanout_ticks;
                } else {
                    service.tick();
                }
                const Span s("serve.take");
                take();
            }
            const Span s("serve.drain");
            service.drain();
            take();
        }
        const double wall = secondsSince(start);
        for (std::size_t b = 0; b < batches.size(); ++b)
            verify(batches[b], taken_at[b]);

        res.submitted = traffic.size();
        res.served = registry.value("serve.served");
        res.degraded = registry.value("serve.degraded");
        res.shed = registry.value("serve.shed");
        res.breakerOpened = registry.value("serve.breaker.opened");
        const double resolved = res.served + res.degraded + res.shed;
        if (registry.value("serve.submitted") !=
                static_cast<double>(res.submitted) ||
            resolved != static_cast<double>(res.submitted) ||
            res.responses != res.submitted) {
            report.fail("serve_fleet conservation: submitted != served + "
                        "degraded + shed, or a response is missing");
            res.wrong = res.submitted;
        }
        res.transcript = transcript.hex();
        if (transcript_ref.empty())
            transcript_ref = opt.seed == kDefaultSeed
                                 ? exp.get("serve_fleet.transcript.seed1")
                                 : res.transcript;
        if (!report.check("serve_fleet.transcript", res.transcript,
                          transcript_ref) ||
            !model_ok)
            res.wrong = res.submitted;
        attempted += res.submitted;
        failed += res.wrong;
        op_latency.pass(latency);
        last = res;
        return wall;
    };

    if (!opt.trace) {
        const Timings t =
            timedIterations(opt.seconds, 1, 1, teardown, setup, pass);
        reportTimings(report, t, static_cast<double>(last.submitted));
        op_latency.report(report);
        report.metric("peak_rss_mib", peakRssMib(), "MiB");
        std::printf("per pass: %llu submitted, %.0f served, %.0f degraded, "
                    "%.0f shed; %llu latency samples\n",
                    static_cast<unsigned long long>(last.submitted),
                    last.served, last.degraded, last.shed,
                    static_cast<unsigned long long>(last.answered));
    } else {
        setup();
        timed_primary = std::make_unique<TimedModel>(*fleet->forest);
        timed_slice = std::make_unique<TimedModel>(*fleet->slice);
        tracedPasses(opt.seconds, pass, report);
        auto &tr = Tracer::instance();
        const auto submit = tr.totals("serve.submit");
        const auto take = tr.totals("serve.take");
        report.metric("obs.unattributed_pct",
                      printSpanLedger("serve_fleet pass (traced)",
                                      "serve.pass",
                                      {"serve.submit", "serve.tick",
                                       "serve.take", "serve.drain"}),
                      "%");
        report.metric("serve.submit_ns",
                      1e9 * submit.seconds /
                          static_cast<double>(submit.count * per_round),
                      "ns");
        report.metric("serve.tick_p50_us", 1e6 * quantile(tick_s, 0.5), "us");
        report.metric("serve.tick_p99_us", 1e6 * quantile(tick_s, 0.99), "us");
        report.metric("serve.take_us",
                      1e6 * take.seconds / static_cast<double>(take.count),
                      "us");
        report.metric("ml.forest_predict_ns", timed_primary->meanNs(), "ns");
        report.metric("ml.slice_predict_ns", timed_slice->meanNs(), "ns");
        report.metric("par.tick_fanout_us",
                      1e6 * fanout_s / static_cast<double>(fanout_ticks),
                      "us");
        const double n = static_cast<double>(last.submitted);
        report.metric("serve.served_ratio", last.served / n, "ratio");
        report.metric("serve.degraded_ratio", last.degraded / n, "ratio");
        report.metric("serve.shed_ratio", last.shed / n, "ratio");
        report.metric("serve.breaker_opened", last.breakerOpened, "count");
    }
    report.ops(attempted, failed);
    return 0;
}

} // namespace perfbench
