/**
 * @file
 * Paper Fig 9: (a) the probability of an uncorrectable error (PUE) per
 * benchmark for TREFP in {1.450, 1.727, 2.283} s at 70 C, from 10
 * repeats of each 2-hour experiment; (b) the distribution of UEs over
 * DIMM/rank devices. Table I's CE/UE taxonomy is exercised through the
 * real SECDED codec on the way.
 *
 * Paper reference points: mean PUE < 0.4 at 1.450 s, growing ~2.15x at
 * 1.727 s, and 1.0 for every benchmark at 2.283 s; most UEs land on
 * two of the eight devices.
 */

#include "dram/error_log.hh"
#include "harness.hh"

using namespace dfault;

int
main(int argc, char **argv)
{
    core::RunSession session(argc, argv);
    const int repeats = bench::repeats(session.config());
    bench::banner("Fig 9a", "PUE per benchmark at 70C (VDD=1.428V), " +
                                std::to_string(repeats) + " repeats each");

    const auto suite = workloads::standardSuite();
    const auto points = core::pueOperatingPoints();
    const auto &geometry = session.platform().geometry();

    dram::ErrorLog log(geometry);

    std::printf("%-14s", "benchmark");
    for (const auto &op : points)
        std::printf(" %9.3fs", op.trefp);
    std::printf("\n");

    std::vector<double> mean_per_point(points.size(), 0.0);
    for (const auto &config : suite) {
        std::printf("%-14s", config.label.c_str());
        for (std::size_t i = 0; i < points.size(); ++i) {
            int crashes = 0;
            for (int rep = 0; rep < repeats; ++rep) {
                const core::Measurement m = session.campaign().measure(
                    config, points[i],
                    static_cast<std::uint64_t>(rep) + 1, &log);
                crashes += m.run.crashed ? 1 : 0;
            }
            const double pue =
                static_cast<double>(crashes) / repeats;
            mean_per_point[i] += pue / suite.size();
            std::printf(" %10.2f", pue);
        }
        std::printf("\n");
    }
    bench::rule();
    std::printf("%-14s", "Average");
    for (const double mean : mean_per_point)
        std::printf(" %10.2f", mean);
    std::printf("\n");
    if (mean_per_point[0] > 0.0)
        std::printf("growth 1.450s -> 1.727s: %.2fx (paper: 2.15x); "
                    "mean at 1.450s: %.2f (paper: < 0.4)\n",
                    mean_per_point[1] / mean_per_point[0],
                    mean_per_point[0]);

    bench::banner("Fig 9b",
                  "probability a UE lands on each DIMM/rank");
    const std::uint64_t total_ues = log.ueCountTotal();
    for (int d = 0; d < geometry.deviceCount(); ++d) {
        const auto id = geometry.deviceAt(d);
        const double share =
            total_ues > 0
                ? static_cast<double>(log.ueCount(id)) / total_ues
                : 0.0;
        std::printf("%-14s %6.2f\n", id.label().c_str(), share);
    }
    bench::rule();
    std::printf("total UEs logged: %llu; SDCs observed: %llu "
                "(paper: zero SDCs)\n",
                static_cast<unsigned long long>(total_ues),
                static_cast<unsigned long long>(log.sdcCountTotal()));

    bench::banner("Table I", "error taxonomy under SECDED (72,64)");
    std::printf("  1 corrupted bit  -> corrected (CE)\n"
                "  2 corrupted bits -> detected, uncorrected (UE, "
                "crash)\n"
                "  >2 corrupted bits -> possibly miscorrected (SDC)\n"
                "  (each logged record above passed through the real "
                "codec)\n");
    return 0;
}
