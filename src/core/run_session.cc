#include "core/run_session.hh"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <sstream>
#include <string_view>

#include "common/logging.hh"
#include "core/report.hh"
#include "fi/injector.hh"
#include "obs/alloc_tracker.hh"
#include "obs/events.hh"
#include "obs/manifest.hh"
#include "obs/perf_counters.hh"
#include "obs/sampler.hh"
#include "obs/span.hh"
#include "obs/stats.hh"
#include "obs/timer.hh"
#include "obs/trace_writer.hh"
#include "par/cancel.hh"
#include "par/pool.hh"
#include "par/shutdown.hh"

namespace dfault::core {

namespace {

/** Every key the session reads: what a "--" argument may name. */
constexpr std::string_view kSessionKeys[] = {
    "alloc_track", "checkpoint", "deadline", "epochs", "fail_fast",
    "faults", "footprint_mib", "manifest_out", "metrics_out",
    "metrics_port", "perf_counters", "progress", "quarantine_out",
    "retries", "sample_interval", "slo", "stats_out", "task_timeout",
    "thermal_loop", "threads", "trace_events", "trace_out", "work_scale",
};

/** "--x-y=v" -> "x_y=v" and "--flag" -> "flag=true"; else unchanged. */
std::string
canonicalArg(std::string_view arg)
{
    if (!arg.starts_with("--"))
        return std::string(arg);
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    std::string key(arg.substr(0, eq));
    std::replace(key.begin(), key.end(), '-', '_');
    if (std::ranges::find(kSessionKeys, key) == std::end(kSessionKeys)) {
        std::string known;
        for (const std::string_view k : kSessionKeys)
            (known += ' ') += k;
        DFAULT_FATAL("unknown flag '--", arg.substr(0, eq),
                     "'; flags name a session key:", known);
    }
    if (eq == std::string_view::npos)
        return key + "=true";
    return key + "=" + std::string(arg.substr(eq + 1));
}

} // namespace

RunSession::RunSession(int argc, const char *const *argv)
    : start_(std::chrono::steady_clock::now())
{
    // Install before any work starts so an early ^C already drains
    // cooperatively instead of killing the run mid-write.
    par::installSignalHandlers();
    tool_ = argc > 0 ? argv[0] : "dfault";
    const std::size_t slash = tool_.find_last_of('/');
    if (slash != std::string::npos)
        tool_ = tool_.substr(slash + 1);
    std::vector<std::string> args;
    for (int i = 0; i < argc; ++i) {
        if (i > 0)
            commandLine_ += ' ';
        commandLine_ += argv[i];
        args.push_back(i > 0 ? canonicalArg(argv[i]) : argv[i]);
    }
    std::vector<const char *> arg_ptrs;
    for (const std::string &arg : args)
        arg_ptrs.push_back(arg.c_str());
    positional_ = config_.parseArgs(argc, arg_ptrs.data());

    // Touching the injector here validates a malformed DFAULT_FAULTS
    // spec up front, even on runs that never reach a fault point.
    const std::string faults = config_.getString("faults", "");
    if (!faults.empty())
        fi::Injector::instance().arm(faults);
    else
        (void)fi::Injector::instance();
    // Sized before anything touches Pool::global().
    const int threads =
        static_cast<int>(config_.getIntIn("threads", 0, 1, 4096));
    if (threads > 0)
        par::Pool::setGlobalThreads(threads);

    const std::uint64_t footprint =
        static_cast<std::uint64_t>(
            config_.getIntIn("footprint_mib", 16, 1, 1 << 20))
        << 20;
    sys::Platform::Params pp;
    pp.exec.timeDilation = sys::dilationForFootprint(footprint);
    platform_ = std::make_unique<sys::Platform>(pp);

    CharacterizationCampaign::Params cp;
    cp.workload.footprintBytes = footprint;
    cp.workload.workScale =
        config_.getDoubleIn("work_scale", 1.0, 1e-6, 1000.0);
    cp.integrator.epochs =
        static_cast<int>(config_.getIntIn("epochs", 120, 1, 1000000));
    cp.useThermalLoop = config_.getBool("thermal_loop", true);
    cp.taskRetries = static_cast<int>(
        config_.getIntIn("retries", cp.taskRetries, 0, 1000));
    cp.failFast = config_.getBool("fail_fast", cp.failFast);
    cp.checkpointDir = config_.getString("checkpoint", "");
    campaign_ = std::make_unique<CharacterizationCampaign>(*platform_, cp);

    const std::string trace = config_.getString("trace_out", "");
    if (!trace.empty())
        obs::EventSink::instance().open(trace);
    if (!config_.getString("trace_events", "").empty())
        obs::SpanTracer::instance().enable();
    obs::setProgress(config_.getBool("progress", false));
    if (config_.getBool("perf_counters", false)) {
        obs::PerfCounters::setPhaseProfiling(true);
        const auto &pc = obs::PerfCounters::threadInstance();
        if (!pc.available())
            DFAULT_INFORM("perf counters unavailable (",
                          pc.unavailableReason(),
                          "); perf.* stats will read zero");
    }
    if (config_.getBool("alloc_track", false))
        obs::AllocTracker::enable();

    // Supervision: a watchdog for silent tasks and a wall-clock
    // deadline for the whole run. 0 (the default) disables each.
    par::WatchdogOptions wd;
    wd.taskTimeoutSeconds =
        config_.getDoubleIn("task_timeout", 0.0, 0.0, 86400.0);
    wd.deadlineSeconds = config_.getDoubleIn("deadline", 0.0, 0.0, 86400.0);
    if (wd.taskTimeoutSeconds > 0.0 || wd.deadlineSeconds > 0.0)
        par::Pool::global().enableWatchdog(wd);

    startSampler();
}

/** Any sampler knob switches the background sampler on. */
void
RunSession::startSampler()
{
    const std::string metrics_out = config_.getString("metrics_out", "");
    const std::string interval = config_.getString("sample_interval", "");
    const std::string slo_specs = config_.getString("slo", "");
    const int metrics_port =
        static_cast<int>(config_.getIntIn("metrics_port", -1, -1, 65535));
    if (metrics_out.empty() && metrics_port < 0 && slo_specs.empty() &&
        interval.empty())
        return;

    obs::SamplerOptions so;
    if (!interval.empty()) {
        const auto seconds = obs::parseDurationSeconds(interval);
        if (!seconds || *seconds <= 0.0)
            DFAULT_FATAL("malformed sample_interval '", interval,
                         "' (want e.g. 100ms, 2s)");
        so.intervalSeconds = *seconds;
    }
    so.metricsOutPath = metrics_out;
    so.metricsPort = metrics_port;
    std::istringstream specs(slo_specs);
    for (std::string spec; std::getline(specs, spec, ',');) {
        if (spec.empty())
            continue;
        std::string error;
        const auto target = obs::parseSloTarget(spec, &error);
        if (!target)
            DFAULT_FATAL("bad slo spec '", spec, "': ", error);
        so.sloTargets.push_back(*target);
    }
    obs::Sampler::instance().start(so);
    const auto &server = obs::Sampler::instance().server();
    if (server.running())
        DFAULT_INFORM("serving OpenMetrics on http://127.0.0.1:",
                      server.port(), "/metrics");
}

RunSession::~RunSession()
{
    const std::string stats_out = config_.getString("stats_out", "");
    const std::string trace_events = config_.getString("trace_events", "");
    const std::string metrics_out = config_.getString("metrics_out", "");
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
    const auto phases = obs::phaseTimes();
    if (!phases.empty()) {
        std::printf("\n%-36s %12s %8s\n", "phase", "seconds", "calls");
        for (const auto &p : phases)
            std::printf("%-36s %12.3f %8llu\n", p.path.c_str(), p.seconds,
                        static_cast<unsigned long long>(p.calls));
    }
    std::printf("\ntotal wall clock %.3f s\n", wall);
    if (config_.getBool("perf_counters", false))
        obs::printPerfTable(stdout);

    auto &tracer = obs::SpanTracer::instance();
    if (tracer.enabled()) {
        tracer.disable();
        const auto entries = tracer.drain();
        std::printf("\n");
        obs::printCriticalPath(stdout, obs::exclusiveTimes(entries));
        if (tracer.dropped() > 0)
            DFAULT_WARN("span ring overflow: ", tracer.dropped(),
                        " oldest trace entries dropped");
        if (!obs::writeTraceFile(trace_events, entries))
            DFAULT_FATAL("cannot write trace events to '", trace_events,
                         "'");
        DFAULT_INFORM("trace events written to ", trace_events,
                      " (load in ui.perfetto.dev)");
    }

    // Record what the injector actually did this run; fi.* stats are
    // excluded from the manifest digest, so a faulted run can still
    // digest-match a clean one.
    auto &inj = fi::Injector::instance();
    if (inj.armed()) {
        // Chaos hook for the drain path itself: lets CI check that a
        // single signal waits for the artifacts and a second one still
        // exits immediately.
        inj.maybeStall("shutdown.slow_drain", 0);
        for (const auto &[point, fired] : inj.firedCounts())
            obs::Registry::instance()
                .gauge("fi.fired." + point, "times this fault point fired")
                .set(static_cast<double>(fired));
    }

    const auto &quarantine = campaign_->lastQuarantine();
    std::string quarantine_path = config_.getString("quarantine_out", "");
    if (quarantine_path.empty() && !stats_out.empty())
        quarantine_path = stats_out + ".quarantine.json";
    if (!quarantine.empty() && !quarantine_path.empty()) {
        if (!writeQuarantineFile(quarantine, quarantine_path))
            DFAULT_FATAL("cannot write quarantine report to '",
                         quarantine_path, "'");
        DFAULT_INFORM(quarantine.size(),
                      " quarantined cell(s); report written to ",
                      quarantine_path);
    }

    // Stop the sampler before the stats/manifest epilogue: stop() runs
    // the final flush tick (last metrics snapshot, final SLO verdicts)
    // and emits closing slo_breach events while the event sink is open.
    auto &sampler = obs::Sampler::instance();
    const bool sampled = sampler.running() || sampler.ticks() > 0;
    sampler.stop();
    if (sampled && !metrics_out.empty())
        DFAULT_INFORM("OpenMetrics snapshot written to ", metrics_out);

    if (!stats_out.empty()) {
        obs::Registry::instance().writeFile(stats_out);
        DFAULT_INFORM("stats written to ", stats_out);
    }
    // Provenance: tie every artifact back to the run that produced it
    // (the digest covers the deterministic stats only, so a same-seed
    // re-run reproduces it exactly).
    std::string manifest_path = config_.getString("manifest_out", "");
    if (manifest_path.empty() && !stats_out.empty())
        manifest_path = stats_out + ".manifest.json";
    if (!manifest_path.empty()) {
        obs::ManifestInfo info;
        info.tool = tool_;
        info.command = commandLine_;
        for (const std::string &key : config_.keys())
            info.config.emplace_back(key, config_.getString(key));
        info.threads = par::Pool::global().threads();
        info.statsPath = stats_out;
        info.tracePath = trace_events;
        info.wallSeconds = wall;
        if (par::rootCancelToken().cancelled()) {
            info.interrupted = true;
            info.interruptReason = par::rootCancelToken().reason();
        }
        info.resumedFromTick = resumedFromTick_;
        if (sampled) {
            info.metricsPath = metrics_out;
            info.samplerTicks = sampler.ticks();
            info.sloSummaryJson = sampler.sloSummaryJson();
        }
        if (!obs::writeManifestFile(manifest_path, info))
            DFAULT_FATAL("cannot write manifest to '", manifest_path, "'");
        DFAULT_INFORM("run manifest written to ", manifest_path);
    }
    obs::EventSink::instance().close();
    par::Pool::global().disableWatchdog();
    par::uninstallSignalHandlers();
}

int
RunSession::exitCode(int rc)
{
    const int sig = par::shutdownExitCode();
    return sig != 0 ? sig : rc;
}

} // namespace dfault::core
