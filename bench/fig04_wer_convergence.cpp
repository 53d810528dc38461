/**
 * @file
 * Paper Fig 4: WER(t) for every benchmark configuration over the
 * 2-hour run under TREFP = 2.283 s and lowered VDD at 50 C —
 * demonstrating that 120 minutes suffices for the unique-location WER
 * to converge (the paper reports < 3% change over the last 10 min).
 */

#include "harness.hh"

using namespace dfault;

int
main(int argc, char **argv)
{
    core::RunSession session(argc, argv);
    bench::banner("Fig 4",
                  "WER(t) convergence for all benchmarks at "
                  "TREFP=2.283s, 1.428V, 50C");

    const dram::OperatingPoint op{2.283, dram::kMinVdd, 50.0};
    const auto suite = workloads::standardSuite();

    std::printf("%-14s %10s %10s %10s %10s %12s\n", "benchmark",
                "30min", "60min", "90min", "120min", "last10min%");

    // A sweep (not a measure() loop) so the session's checkpoint/
    // retry/quarantine machinery applies: fig04 doubles as the chaos
    // suite's kill-and-resume workload.
    std::vector<core::Measurement> measurements;
    try {
        measurements = session.campaign().sweep(suite, {op});
    } catch (const par::CancelledError &e) {
        // fail_fast=true only: returning lets the session destructor
        // still write checkpoint-consistent partial artifacts.
        DFAULT_WARN("run cancelled: ", e.what(),
                    "; writing partial artifacts");
        return core::RunSession::exitCode(1);
    }

    double worst_tail = 0.0;
    std::size_t n_cancelled = 0;
    for (const core::Measurement &m : measurements) {
        if (m.cancelled) {
            ++n_cancelled;
            continue;
        }
        if (m.quarantined) {
            std::printf("%-14s quarantined: %s\n", m.label.c_str(),
                        m.failure.c_str());
            continue;
        }
        const auto &series = m.run.werSeries;
        if (series.size() < 120) {
            std::printf("%-14s crashed after %zu minutes\n",
                        m.label.c_str(), series.size());
            continue;
        }
        const double tail_change =
            series[119] > 0.0
                ? 100.0 * (series[119] - series[109]) / series[119]
                : 0.0;
        worst_tail = std::max(worst_tail, tail_change);
        std::printf("%-14s %10.3e %10.3e %10.3e %10.3e %11.2f%%\n",
                    m.label.c_str(), series[29], series[59],
                    series[89], series[119], tail_change);
    }

    bench::rule();
    if (n_cancelled > 0)
        std::printf("%zu cell(s) cancelled before completion; rerun "
                    "with the same checkpoint= dir to finish them\n",
                    n_cancelled);
    std::printf("worst last-10-minute change: %.2f%% "
                "(paper: < 3%% at 50C)\n",
                worst_tail);
    return core::RunSession::exitCode();
}
