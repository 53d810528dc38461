/**
 * @file
 * Energy/reliability trade-off study — the paper's motivation (§I:
 * "guiding the adjustment of the circuit DRAM parameters for saving
 * energy"): per-rank DRAM power versus TREFP and VDD, next to the WER
 * manifested at each point, for one representative workload.
 */

#include "dram/power.hh"
#include "dram/refresh.hh"
#include "harness.hh"

using namespace dfault;

int
main(int argc, char **argv)
{
    core::RunSession session(argc, argv);
    bench::banner("Energy study",
                  "per-rank DRAM power vs WER across the TREFP/VDD "
                  "grid (srad(par), 50C)");

    const auto &wparams = session.campaign().params().workload;
    const auto &profile = features::ProfileCache::instance().get(
        session.platform(), {"srad", 8, "srad(par)"}, wparams);

    // Average activity per rank from the profile.
    double act_rate = 0.0, cmd_rate = 0.0;
    for (const auto &dev : profile.deviceRows)
        for (const auto &row : dev) {
            act_rate += row.activationRate;
            cmd_rate += row.accessRate;
        }
    const int ranks = session.platform().geometry().deviceCount();
    act_rate /= ranks;
    cmd_rate /= ranks;

    const dram::PowerModel power;
    const dram::RefreshScheduler refresh;

    std::printf("%-10s %-8s %10s %10s %10s %10s %9s %12s\n",
                "TREFP(s)", "VDD(V)", "bg(W)", "refresh(W)", "act(W)",
                "total(W)", "blocked%", "WER");
    for (const Volts vdd : {dram::kNominalVdd, dram::kMinVdd}) {
        for (const Seconds trefp :
             {dram::kNominalTrefp, 0.618, 1.173, 2.283}) {
            const dram::OperatingPoint op{trefp, vdd, 50.0};
            const auto breakdown =
                power.rankPower(op, act_rate, cmd_rate);
            const auto run = session.campaign().integrator().run(
                profile, op, session.platform().geometry(),
                session.platform().devices());
            std::printf("%-10.3f %-8.3f %10.3f %10.3f %10.3f %10.3f"
                        " %8.3f%% %12.3e\n",
                        trefp, vdd, breakdown.background,
                        breakdown.refresh, breakdown.activate,
                        breakdown.total(),
                        100.0 * refresh.blockedFraction(op),
                        run.wer());
        }
    }

    bench::rule();
    const dram::OperatingPoint relaxed{2.283, dram::kMinVdd, 50.0};
    const dram::OperatingPoint nominal{};
    const double saving =
        100.0 *
        (power.rankPower(nominal, act_rate, cmd_rate).total() -
         power.rankPower(relaxed, act_rate, cmd_rate).total()) /
        power.rankPower(nominal, act_rate, cmd_rate).total();
    std::printf("scaling TREFP 64ms -> 2.283s and VDD 1.5 -> 1.428V "
                "cuts rank power by %.1f%%\n(paper §V: \"the maximum "
                "power gain is achieved when both TREFP and VDD are "
                "scaled\"),\nat the WER cost quantified above -- the "
                "trade the error model lets designers tune.\n",
                saving);
    return 0;
}
