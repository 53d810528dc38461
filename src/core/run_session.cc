#include "core/run_session.hh"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string_view>

#include "common/logging.hh"
#include "core/report.hh"
#include "fi/injector.hh"
#include "obs/events.hh"
#include "obs/manifest.hh"
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
    "checkpoint", "deadline", "epochs", "fail_fast", "faults",
    "footprint_mib", "manifest_out", "progress", "quarantine_out",
    "retries", "stats_out", "task_timeout", "thermal_loop", "threads",
    "trace_events", "trace_out", "work_scale",
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

    // Supervision: a watchdog for silent tasks and a wall-clock
    // deadline for the whole run. 0 (the default) disables each.
    par::WatchdogOptions wd;
    wd.taskTimeoutSeconds =
        config_.getDoubleIn("task_timeout", 0.0, 0.0, 86400.0);
    wd.deadlineSeconds = config_.getDoubleIn("deadline", 0.0, 0.0, 86400.0);
    if (wd.taskTimeoutSeconds > 0.0 || wd.deadlineSeconds > 0.0)
        par::Pool::global().enableWatchdog(wd);
}

RunSession::~RunSession()
{
    const std::string stats_out = config_.getString("stats_out", "");
    const std::string trace_events = config_.getString("trace_events", "");
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
    // The phase table goes to stderr, so stdout holds only what the
    // tool itself printed and two runs of it diff clean. Seconds are
    // summed over threads; speedup is the pool's realized
    // parallelism for phases that submitted batches.
    const auto phases = obs::phaseTimes();
    if (!phases.empty()) {
        const auto &reg = obs::Registry::instance();
        std::fprintf(stderr, "\n%-36s %14s %14s %8s %8s\n", "phase",
                     "incl thread-s", "excl thread-s", "calls", "speedup");
        for (const auto &p : phases) {
            std::fprintf(stderr, "%-36s %14.3f %14.3f %8llu", p.path.c_str(),
                         p.seconds, p.exclusiveSeconds,
                         static_cast<unsigned long long>(p.calls));
            const std::string speedup = "par.phase." + p.path + ".speedup";
            if (reg.has(speedup))
                std::fprintf(stderr, " %7.2fx", reg.value(speedup));
            std::fputc('\n', stderr);
        }
    }
    std::fprintf(stderr, "\ntotal wall clock %.3f s\n", wall);

    auto &tracer = obs::SpanTracer::instance();
    if (tracer.enabled()) {
        tracer.disable();
        const auto entries = tracer.drain();
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
        if (par::cancelled()) {
            info.interrupted = true;
            info.interruptReason = par::cancelReason();
        }
        info.resumedFromTick = resumedFromTick_;
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
