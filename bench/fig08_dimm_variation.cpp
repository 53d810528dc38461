/**
 * @file
 * Paper Fig 8: WER per DIMM/rank for every benchmark under
 * TREFP = 2.283 s at 50 C — the DIMM-to-DIMM variation axis. The paper
 * reports a spread of up to 188x across devices (bc:
 * 1.75e-7 on DIMM2/rank0 vs 9.31e-10 on DIMM3/rank1).
 */

#include "harness.hh"

using namespace dfault;

int
main(int argc, char **argv)
{
    core::RunSession session(argc, argv);
    bench::banner("Fig 8",
                  "WER per DIMM/rank at TREFP=2.283s, 1.428V, 50C");

    const dram::OperatingPoint op{2.283, dram::kMinVdd, 50.0};
    const auto suite = workloads::standardSuite();
    const auto &geometry = session.platform().geometry();

    std::printf("%-14s", "benchmark");
    for (int d = 0; d < geometry.deviceCount(); ++d)
        std::printf(" %11s", geometry.deviceAt(d).label().c_str() + 4);
    std::printf("\n");

    double global_lo = 1e300, global_hi = 0.0;
    std::string lo_where, hi_where;
    for (const core::Measurement &m : session.campaign().sweep(suite, {op})) {
        if (m.quarantined || m.cancelled) {
            std::printf("%-14s no result: %s\n", m.label.c_str(),
                        m.failure.c_str());
            continue;
        }
        std::printf("%-14s", m.label.c_str());
        for (int d = 0; d < geometry.deviceCount(); ++d) {
            const double wer = m.run.werForDevice(d);
            std::printf(" %11.2e", wer);
            if (wer > 0.0 && wer < global_lo) {
                global_lo = wer;
                lo_where = m.label + " on " + geometry.deviceAt(d).label();
            }
            if (wer > global_hi) {
                global_hi = wer;
                hi_where = m.label + " on " + geometry.deviceAt(d).label();
            }
        }
        std::printf("\n");
    }

    bench::rule();
    std::printf("device retention scales (simulated hardware):\n ");
    for (const auto &dev : session.platform().devices())
        std::printf(" %s=%.2f", dev.id().label().c_str(),
                    dev.retentionScale());
    std::printf("\n");
    if (global_hi > 0.0 && global_lo < 1e300)
        std::printf("device spread: %.0fx (%s highest; %s lowest) "
                    "[paper: up to 188x]\n",
                    global_hi / global_lo, hi_where.c_str(),
                    lo_where.c_str());
    return core::RunSession::exitCode();
}
