/**
 * @file
 * One run of the pipeline from a command line: the setup and teardown
 * shared by the `dfault` CLI and every bench binary.
 *
 * A RunSession parses "key=value" arguments into a Config (tokens
 * without '=' come back as positionals) and configures the process
 * from one key set. "--x-y=v" and "--flag" are aliases for
 * "x_y=v" and "flag=true"; a "--" argument naming no key below is
 * fatal.
 *
 * Platform and campaign:
 *   footprint_mib=16 work_scale=1.0 epochs=120 thermal_loop=true
 *   threads=<n>          size the global pool (overrides DFAULT_THREADS);
 *                        results are bit-identical for any value
 *
 * Telemetry (see docs/observability.md):
 *   stats_out=<path>     dump the stats registry when the session ends;
 *                        also writes <path>.manifest.json provenance
 *   manifest_out=<path>  write the run manifest here instead
 *   trace_out=<path>     stream JSONL events ("-" for stderr)
 *   trace_events=<path>  record spans, export Perfetto trace-event
 *                        JSON, print the exclusive-time critical path
 *   progress=true        one-line progress updates on stderr
 *   perf_counters=true   per-phase hardware-counter attribution plus a
 *                        perf table at exit (zeros without a PMU)
 *   alloc_track=true     per-phase heap allocation attribution
 *   metrics_out=<path>   background sampler atomically rewrites this
 *                        OpenMetrics snapshot every tick
 *   metrics_port=<port>  serve GET /metrics on 127.0.0.1:<port>
 *                        (0 picks a free port)
 *   sample_interval=<d>  sampler cadence, e.g. 100ms (the default)
 *   slo=<spec>[,...]     SLO targets, e.g. slo=campaign.cell_ns:p99<5ms;
 *                        verdicts land in the manifest "slo" section
 *
 * Robustness (see docs/robustness.md):
 *   faults=<spec>        arm fault-injection points (fi/injector.hh)
 *   checkpoint=<dir>     journal sweep cells; resume from them on re-run
 *   retries=<n>          per-cell retries before quarantine (default 2)
 *   fail_fast=true       abort a sweep on an exhausted cell
 *   quarantine_out=<path> quarantine report destination (default
 *                        <stats_out>.quarantine.json)
 *   task_timeout=<s>     watchdog fails a task silent for this long
 *   deadline=<s>         cancel the whole run after this much wall time
 *
 * SIGINT/SIGTERM cancel the run cooperatively: main should catch
 * par::CancelledError, let the destructor write every artifact (the
 * manifest marked "interrupted": true) and return exitCode(). A
 * second signal exits immediately.
 */

#ifndef DFAULT_CORE_RUN_SESSION_HH
#define DFAULT_CORE_RUN_SESSION_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "core/characterization.hh"
#include "sys/platform.hh"

namespace dfault::core {

/** See file comment. */
class RunSession
{
  public:
    RunSession(int argc, const char *const *argv);

    /** Phase table, wall clock and every requested artifact. */
    ~RunSession();

    RunSession(const RunSession &) = delete;
    RunSession &operator=(const RunSession &) = delete;

    sys::Platform &platform() { return *platform_; }
    CharacterizationCampaign &campaign() { return *campaign_; }
    const Config &config() const { return config_; }
    /** Arguments without '=', argv[0] excluded. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /**
     * What main should return: 128+signo after a signal-driven
     * shutdown (130 for SIGINT, 143 for SIGTERM), else @p rc.
     */
    static int exitCode(int rc = 0);

    /**
     * Record that the serving phase resumed from its write-ahead
     * journal at @p tick; the manifest then carries resumed_from_tick.
     */
    void setResumedFromTick(std::int64_t tick) { resumedFromTick_ = tick; }

  private:
    void startSampler();

    Config config_;
    std::vector<std::string> positional_;
    std::string tool_;
    std::string commandLine_;
    std::int64_t resumedFromTick_ = -1;
    std::chrono::steady_clock::time_point start_;
    std::unique_ptr<sys::Platform> platform_;
    std::unique_ptr<CharacterizationCampaign> campaign_;
};

} // namespace dfault::core

#endif // DFAULT_CORE_RUN_SESSION_HH
