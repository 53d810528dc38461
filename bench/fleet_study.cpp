/**
 * @file
 * The paper's §VII future-work hypothesis, implemented: can a *fast*
 * characterization under relaxed parameters stand in for the years-long
 * observation needed to rank devices by their nominal-parameter failure
 * risk (predictive maintenance)?
 *
 * A fleet of simulated servers (distinct manufacturing seeds) is
 * characterized for two simulated hours at a relaxed operating point;
 * each (DIMM, rank) device is then ranked by its measured relaxed WER
 * and, independently, by its ground-truth nominal-parameter failure
 * intensity (which the simulator knows exactly from the retention
 * model). The Spearman rank correlation between the two orderings is
 * the figure of merit: high correlation means the 2-hour relaxed
 * characterization identifies the devices that will fail first in the
 * field.
 *
 * Phase two reframes the ranking as the online serving problem of the
 * AIOps deployments (ROADMAP item 2): a random forest trained on the
 * characterization features serves per-device risk predictions through
 * serve::PredictionService — bounded queue, priority classes, circuit
 * breakers, degraded fallback (a one-tree forest slice) — and the
 * study reports fleet precision/recall of the served predictions
 * against the ground-truth risk quartile *alongside availability*
 * (served vs degraded vs shed). Chaos knobs: arm serve.slow /
 * serve.error / serve.reject and shrink serve_budget to watch the
 * resilience machinery engage without losing a single disposition.
 *
 * Serving knobs (key=value): serve_rounds, serve_load (submissions per
 * device per round — 4 models sustained 4x over-capacity), serve_queue,
 * serve_budget, serve_shards, serve_degrade_after, serve_retries.
 *
 * Durability knobs (docs/serving.md "Durability and resume"):
 * journal_dir= arms the service write-ahead journal so a killed run
 * resumes from its last durable tick (the manifest then records
 * resumed_from_tick); serve_snapshot_every= sets the compaction
 * cadence; kill_at_tick=N arms serve.kill to _Exit the process at
 * tick N (kill_code= its exit code) — the long-horizon chaos case;
 * transcript_out= writes the full response transcript as JSONL for
 * byte-identical comparison between a killed-and-resumed run and a
 * clean one.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/rng.hh"
#include "dram/retention.hh"
#include "fi/durable.hh"
#include "fi/injector.hh"
#include "harness.hh"
#include "ml/forest.hh"
#include "obs/json.hh"
#include "serve/journal.hh"
#include "serve/service.hh"
#include "stats/correlation.hh"

using namespace dfault;

int
main(int argc, char **argv)
{
    core::RunSession session(argc, argv);
    bench::banner("Fleet study (paper §VII)",
                  "relaxed-parameter WER as a predictive-maintenance "
                  "signal");

    const int servers = static_cast<int>(
        session.config().getInt("servers", 6));
    const auto &wparams = session.campaign().params().workload;

    const dram::OperatingPoint relaxed{2.283, dram::kMinVdd, 60.0};
    const dram::OperatingPoint nominal{}; // 64 ms, 1.5 V, 50 C
    const dram::RetentionModel retention;

    std::vector<double> relaxed_wer, nominal_risk;
    ml::Matrix device_features; // rows for the serving-phase forest
    std::printf("%-8s %-12s %12s %16s\n", "server", "device",
                "relaxed WER", "nominal P(leak)");

    auto &live = obs::Registry::instance();
    live.gauge("live.fleet.servers_total",
               "servers in this fleet study (live)")
        .set(static_cast<double>(servers));

    for (int server = 0; server < servers; ++server) {
        sys::Platform::Params pp;
        pp.devices.masterSeed = 0xf1ee7 + server;
        pp.exec.timeDilation =
            sys::dilationForFootprint(wparams.footprintBytes);
        sys::Platform platform(pp);

        core::CharacterizationCampaign::Params cp;
        cp.workload = wparams;
        cp.useThermalLoop = false;
        core::CharacterizationCampaign campaign(platform, cp);

        const core::Measurement m = campaign.measure(
            {"srad", 8, "srad(par)"}, relaxed);

        for (int d = 0; d < platform.geometry().deviceCount(); ++d) {
            const double wer = m.run.werForDevice(d);
            // Ground truth the operator of a real fleet cannot see:
            // the per-cell leak probability at nominal parameters.
            const double risk = retention.weakProbability(
                dram::kNominalTrefp, nominal,
                platform.devices()[d].retentionScale());
            if (wer <= 0.0)
                continue; // no signal measured on this device
            relaxed_wer.push_back(wer);
            nominal_risk.push_back(risk);
            // Features for the serving-phase forest: the fast
            // characterization signal, the device's retention bin
            // (standing in for vendor binning data), and its fleet
            // position.
            device_features.push_back(
                {std::log10(wer),
                 platform.devices()[d].retentionScale(),
                 static_cast<double>(server), static_cast<double>(d)});
            if (d < 2) // keep the table readable
                std::printf("%-8d %-12s %12.3e %16.3e\n", server,
                            platform.geometry()
                                .deviceAt(d)
                                .label()
                                .c_str(),
                            wer, risk);
        }
        // Per-server progress for the sampler (digest-excluded
        // live.* prefix, so fleet ranking stays provenance-clean).
        live.counter("live.fleet.servers_done",
                     "servers characterized so far (live)")
            .inc();
        live.gauge("live.fleet.devices_ranked",
                   "devices with measurable relaxed WER so far (live)")
            .set(static_cast<double>(relaxed_wer.size()));
    }

    bench::rule();
    const double rs = stats::spearman(relaxed_wer, nominal_risk);
    std::printf("devices with measurable relaxed WER: %zu of %d\n",
                relaxed_wer.size(), servers * 8);
    std::printf("Spearman rank correlation (relaxed WER vs nominal "
                "failure risk): %+0.3f\n",
                rs);
    std::printf("=> a 2-hour relaxed characterization ranks fleet "
                "devices by field failure\n   risk%s -- the paper's "
                "predictive-maintenance proposal (§VII).\n",
                rs > 0.7 ? " accurately" : " only weakly");

    // ---- Phase two: online serving under pressure ------------------
    const std::size_t rounds = static_cast<std::size_t>(
        session.config().getIntIn("serve_rounds", 8, 1, 100000));
    const std::size_t load = static_cast<std::size_t>(
        session.config().getIntIn("serve_load", 1, 1, 1000));
    if (device_features.size() < 4) {
        std::printf("serving phase skipped: only %zu device(s) with "
                    "measurable WER\n",
                    device_features.size());
        return session.exitCode(0);
    }

    bench::rule();
    std::printf("Serving phase: %zu devices x %zu rounds x %zu "
                "submissions/round\n",
                device_features.size(), rounds, load);

    // Train the primary on the characterization features; the target
    // is the log ground-truth risk. The degraded-mode fallback is a
    // one-tree slice of the same forest: ~1/25th of the predict cost.
    std::vector<double> target(nominal_risk.size());
    for (std::size_t i = 0; i < nominal_risk.size(); ++i)
        target[i] = std::log10(nominal_risk[i]);
    ml::RandomForestRegressor::Params fp;
    fp.trees = 25;
    fp.maxDepth = 8;
    ml::RandomForestRegressor forest(fp);
    forest.fit(device_features, target);
    ml::ForestSliceRegressor slice(forest, 1);

    serve::Params sp;
    sp.queueCapacity = static_cast<std::size_t>(
        session.config().getIntIn("serve_queue", 64, 1, 1 << 20));
    sp.budgetPerTick = static_cast<std::size_t>(
        session.config().getIntIn("serve_budget", 32, 1, 1 << 20));
    sp.degradeAfterTicks = static_cast<std::uint64_t>(
        session.config().getIntIn("serve_degrade_after", 3, 0, 100000));
    sp.shards = static_cast<int>(
        session.config().getIntIn("serve_shards", 2, 1, 64));
    sp.maxRetries = static_cast<int>(
        session.config().getIntIn("serve_retries", 1, 0, 100));

    // Durability: journal_dir= makes the serving phase crash-resumable
    // (serve/journal.hh). The journal salt folds in every knob that
    // shapes the submission sequence, so a journal from a different
    // traffic configuration is quarantined, never silently replayed —
    // the same config-digest guard the campaign checkpoint uses.
    // Thread count and snapshot cadence are deliberately excluded.
    sp.journalDir = session.config().getString("journal_dir", "");
    sp.snapshotEveryTicks = static_cast<std::uint64_t>(
        session.config().getIntIn("serve_snapshot_every", 16, 0,
                                  1000000));
    {
        char traffic[160];
        std::snprintf(traffic, sizeof(traffic),
                      "fleet-traffic-v1,%d,%llu,%.17g,%zu,%zu",
                      servers,
                      static_cast<unsigned long long>(
                          wparams.footprintBytes),
                      wparams.workScale,
                      rounds, load);
        sp.journalSalt = fnv1a64(traffic);
    }

    // kill_at_tick=N is the chaos handle the long-horizon CI case
    // drives: the process _Exit()s right after tick N commits
    // in-memory but before it reaches the journal, so the tick is
    // re-served on resume.
    const std::int64_t kill_at_tick =
        session.config().getIntIn("kill_at_tick", 0, 0, 1000000);
    if (kill_at_tick > 0) {
        const std::int64_t kill_code =
            session.config().getIntIn("kill_code", 9, 1, 255);
        fi::Injector::instance().arm(
            "serve.kill:every=" + std::to_string(kill_at_tick) +
            ",count=1,code=" + std::to_string(kill_code));
    }

    serve::PredictionService service(forest, sp, &slice);

    // Resume: the restored tick says how many submission rounds are
    // already committed (round r commits as tick r+1); re-running them
    // would double-submit. A crash mid-round lost its partial
    // submissions with the unjournaled tick, so re-running that round
    // reproduces them deterministically.
    std::size_t start_round = 0;
    if (service.resumedFromTick() >= 0) {
        session.setResumedFromTick(service.resumedFromTick());
        start_round = std::min(
            static_cast<std::size_t>(service.resumedFromTick()), rounds);
        std::printf("resumed from journal tick %lld: skipping %zu "
                    "committed round(s)\n",
                    static_cast<long long>(service.resumedFromTick()),
                    start_round);
    }

    // Deterministic priority rule: top-quartile measured WER is
    // mitigation-critical, every 5th device is a health probe, the
    // rest is bulk re-scoring (the class that sheds first).
    std::vector<double> wer_sorted = relaxed_wer;
    std::nth_element(wer_sorted.begin(),
                     wer_sorted.begin() + wer_sorted.size() * 3 / 4,
                     wer_sorted.end());
    const double wer_q75 = wer_sorted[wer_sorted.size() * 3 / 4];

    for (std::size_t round = start_round; round < rounds; ++round) {
        for (std::size_t rep = 0; rep < load; ++rep)
            for (std::size_t i = 0; i < device_features.size(); ++i) {
                serve::Request req;
                req.key = i;
                req.priority = relaxed_wer[i] >= wer_q75
                                   ? serve::Priority::Critical
                               : i % 5 == 0 ? serve::Priority::Health
                                            : serve::Priority::Bulk;
                req.shard = static_cast<int>(i) % sp.shards;
                req.features = device_features[i];
                service.submit(req);
            }
        service.tick();
    }
    service.drain();

    // Availability: every submission must hold a disposition.
    const auto &reg = obs::Registry::instance();
    const double submitted = reg.value("serve.submitted");
    const double served = reg.value("serve.served");
    const double degraded = reg.value("serve.degraded");
    const double shed = reg.value("serve.shed");
    if (submitted != served + degraded + shed) {
        std::fprintf(stderr,
                     "disposition conservation violated: %g submitted "
                     "!= %g served + %g degraded + %g shed\n",
                     submitted, served, degraded, shed);
        return session.exitCode(1);
    }
    std::printf("dispositions: %.0f submitted = %.0f served + %.0f "
                "degraded + %.0f shed\n",
                submitted, served, degraded, shed);
    std::printf("shed by class: critical %.0f, health %.0f, bulk %.0f; "
                "breaker open/half-open/closed: %.0f/%.0f/%.0f\n",
                reg.value("serve.shed.critical"),
                reg.value("serve.shed.health"),
                reg.value("serve.shed.bulk"),
                reg.value("serve.breaker.opened"),
                reg.value("serve.breaker.half_open"),
                reg.value("serve.breaker.closed"));

    const std::vector<serve::Response> transcript =
        service.takeResponses();

    // transcript_out= captures every disposition in decision order —
    // a journaled, killed and resumed run must produce this file
    // byte-for-byte identical to an unkilled run's (the chaos gate).
    const std::string transcript_out =
        session.config().getString("transcript_out", "");
    if (!transcript_out.empty()) {
        std::string body;
        for (const serve::Response &r : transcript) {
            obs::JsonWriter w;
            w.field("id", r.id);
            w.field("key", r.key);
            w.field("priority", serve::priorityName(r.priority));
            w.field("disposition",
                    serve::dispositionName(r.disposition));
            w.field("degraded", r.degraded);
            w.fieldRaw("prediction", obs::jsonNumber(r.prediction));
            w.field("reason", r.reason);
            body += w.str();
            body += '\n';
        }
        if (!fi::atomicWriteFile(transcript_out, body))
            return session.exitCode(1);
        std::printf("serving transcript (%zu responses) written to %s\n",
                    transcript.size(), transcript_out.c_str());
    }

    // Fleet precision/recall of the *served* answers (primary or
    // degraded) against the ground-truth top risk quartile.
    std::vector<double> answer(device_features.size(),
                               std::numeric_limits<double>::quiet_NaN());
    for (const serve::Response &r : transcript)
        if (r.disposition != serve::Disposition::Shed)
            answer[r.key] = r.prediction; // last answer per device wins
    std::vector<double> answered;
    for (const double a : answer)
        if (std::isfinite(a))
            answered.push_back(a);
    if (answered.size() >= 4) {
        std::vector<double> risk_sorted = target;
        std::nth_element(risk_sorted.begin(),
                         risk_sorted.begin() + risk_sorted.size() * 3 / 4,
                         risk_sorted.end());
        const double risk_q75 = risk_sorted[risk_sorted.size() * 3 / 4];
        std::vector<double> pred_sorted = answered;
        std::nth_element(pred_sorted.begin(),
                         pred_sorted.begin() + pred_sorted.size() * 3 / 4,
                         pred_sorted.end());
        const double pred_q75 = pred_sorted[pred_sorted.size() * 3 / 4];
        int tp = 0, fp_n = 0, fn = 0;
        for (std::size_t i = 0; i < answer.size(); ++i) {
            if (!std::isfinite(answer[i]))
                continue;
            const bool truly_at_risk = target[i] >= risk_q75;
            const bool flagged = answer[i] >= pred_q75;
            tp += flagged && truly_at_risk;
            fp_n += flagged && !truly_at_risk;
            fn += !flagged && truly_at_risk;
        }
        const double precision =
            tp + fp_n > 0 ? static_cast<double>(tp) / (tp + fp_n) : 0.0;
        const double recall =
            tp + fn > 0 ? static_cast<double>(tp) / (tp + fn) : 0.0;
        const double availability = (served + degraded) / submitted;
        std::printf("fleet precision %.3f, recall %.3f (top risk "
                    "quartile, %zu/%zu devices answered)\n",
                    precision, recall, answered.size(), answer.size());
        std::printf("availability: %.1f%% answered (%.1f%% by the "
                    "primary, %.1f%% degraded)\n",
                    100.0 * availability, 100.0 * served / submitted,
                    100.0 * degraded / submitted);
        // Deterministic (digested) study results: the serving outcome
        // is a pure function of the submission sequence and the fault
        // schedule, so these belong in the golden digest.
        auto &fleet = obs::Registry::instance();
        fleet.gauge("fleet.serve.precision",
                    "serving-phase precision, top risk quartile")
            .set(precision);
        fleet.gauge("fleet.serve.recall",
                    "serving-phase recall, top risk quartile")
            .set(recall);
        fleet.gauge("fleet.serve.answered",
                    "devices with a served or degraded answer")
            .set(static_cast<double>(answered.size()));
    } else {
        std::printf("fleet precision/recall skipped: only %zu "
                    "answered device(s)\n",
                    answered.size());
    }
    return session.exitCode(0);
}
