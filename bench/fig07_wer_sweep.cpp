/**
 * @file
 * Paper Fig 7 (a-f): WER per benchmark for DRAM operating under
 * TREFP in {0.618, 1.173, 1.727, 2.283} s and lowered VDD at
 * 50/60/70 C; panel (f) is the benchmark-averaged WER versus TREFP,
 * which grows exponentially.
 *
 * At 70 C only the two shortest TREFP levels complete without UEs
 * (paper §V-B); crashed cells are marked.
 */

#include <cmath>
#include <map>

#include "harness.hh"

using namespace dfault;

int
main(int argc, char **argv)
{
    core::RunSession session(argc, argv);
    const auto suite = workloads::standardSuite();

    const Seconds trefps[] = {0.618, 1.173, 1.727, 2.283};

    std::vector<dram::OperatingPoint> points;
    for (const Celsius temp : {50.0, 60.0, 70.0}) {
        for (const Seconds trefp : trefps) {
            if (temp >= 70.0 && trefp > 1.2)
                continue; // UE territory, covered by Fig 9
            points.push_back({trefp, dram::kMinVdd, temp});
        }
    }

    // One pooled sweep over the whole workload x operating-point grid
    // (bit-identical to measuring each cell serially).
    const auto measurements = session.campaign().sweep(suite, points);

    std::map<std::string, std::map<std::string, core::Measurement>>
        table;
    for (std::size_t i = 0; i < measurements.size(); ++i) {
        const auto &op = points[i % points.size()];
        table[op.label()].emplace(suite[i / points.size()].label,
                                  measurements[i]);
    }

    for (const Celsius temp : {50.0, 60.0, 70.0}) {
        char title[80];
        std::snprintf(title, sizeof(title),
                      "WER per benchmark at %.0fC (VDD=1.428V)", temp);
        bench::banner(temp < 60    ? "Fig 7a/7b"
                      : temp < 70  ? "Fig 7c/7d"
                                   : "Fig 7e",
                      title);
        std::printf("%-14s", "benchmark");
        for (const Seconds trefp : trefps) {
            if (temp >= 70.0 && trefp > 1.2)
                continue;
            std::printf(" %12.3fs", trefp);
        }
        std::printf("\n");

        for (const auto &config : suite) {
            std::printf("%-14s", config.label.c_str());
            for (const Seconds trefp : trefps) {
                if (temp >= 70.0 && trefp > 1.2)
                    continue;
                const dram::OperatingPoint op{trefp, dram::kMinVdd,
                                              temp};
                const auto &m = table[op.label()].at(config.label);
                if (m.run.crashed)
                    std::printf(" %13s", "UE(crash)");
                else
                    std::printf(" %13.3e", m.run.wer());
            }
            std::printf("\n");
        }

        // Per-panel spread (the paper quotes ~8x at 0.618 s / 70 C).
        for (const Seconds trefp : trefps) {
            if (temp >= 70.0 && trefp > 1.2)
                continue;
            const dram::OperatingPoint op{trefp, dram::kMinVdd, temp};
            double lo = 1e300, hi = 0.0;
            std::string lo_name, hi_name;
            for (const auto &config : suite) {
                const auto &m = table[op.label()].at(config.label);
                if (m.run.crashed || m.run.wer() <= 0.0)
                    continue;
                if (m.run.wer() < lo) {
                    lo = m.run.wer();
                    lo_name = config.label;
                }
                if (m.run.wer() > hi) {
                    hi = m.run.wer();
                    hi_name = config.label;
                }
            }
            if (hi > 0.0)
                std::printf("  spread at %.3fs: %.1fx (%s lowest, %s "
                            "highest)\n",
                            trefp, hi / lo, lo_name.c_str(),
                            hi_name.c_str());
        }
    }

    bench::banner("Fig 7f",
                  "benchmark-averaged WER vs TREFP (exponential growth)");
    std::printf("%-10s %14s %14s\n", "TREFP(s)", "avg WER 50C",
                "avg WER 60C");
    double prev50 = 0.0;
    for (const Seconds trefp : trefps) {
        std::printf("%-10.3f", trefp);
        for (const Celsius temp : {50.0, 60.0}) {
            const dram::OperatingPoint op{trefp, dram::kMinVdd, temp};
            double sum = 0.0;
            int n = 0;
            for (const auto &config : suite) {
                const auto &m = table[op.label()].at(config.label);
                if (!m.run.crashed) {
                    sum += m.run.wer();
                    ++n;
                }
            }
            const double avg = n > 0 ? sum / n : 0.0;
            std::printf(" %14.3e", avg);
            if (temp < 60.0) {
                if (prev50 > 0.0)
                    std::printf(" (x%.1f)", avg / prev50);
                prev50 = avg;
            }
        }
        std::printf("\n");
    }
    return 0;
}
