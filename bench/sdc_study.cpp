/**
 * @file
 * SDC deep-dive: why the paper observed zero silent data corruptions.
 *
 * Part 1 measures the SECDED (72,64) decoder's behaviour under k
 * random bit flips (Monte Carlo through the real codec): 1 flip is
 * always corrected, 2 always detected, and from 3 flips on a fraction
 * aliases onto valid single-bit syndromes and is silently
 * miscorrected — the SDC mechanism of Table I.
 *
 * Part 2 evaluates the expected number of >=3-flip words per 2-hour
 * 8 GiB run across the paper's operating envelope: the per-word flip
 * intensities are so small that triple coincidences are vanishingly
 * rare, which is why no SDC was ever observed.
 */

#include "common/rng.hh"
#include "dram/ecc.hh"
#include "harness.hh"

using namespace dfault;

int
main(int argc, char **argv)
{
    core::RunSession session(argc, argv);
    bench::banner("SDC study (part 1)",
                  "SECDED decode outcomes vs injected flip count "
                  "(Monte Carlo, real codec)");

    dram::EccSecded ecc;
    Rng rng(0xecc);
    const int trials = static_cast<int>(
        session.config().getInt("sdc_trials", 20000));

    std::printf("%-6s %12s %12s %12s\n", "flips", "corrected",
                "detected", "miscorrected");
    for (int flips = 1; flips <= 6; ++flips) {
        int corrected = 0, detected = 0, miscorrected = 0;
        for (int t = 0; t < trials; ++t) {
            const std::uint64_t data = rng.next();
            dram::Codeword word = ecc.encode(data);
            // Choose `flips` distinct bit positions.
            int chosen[6];
            for (int i = 0; i < flips; ++i) {
                bool fresh = true;
                do {
                    chosen[i] = static_cast<int>(
                        rng.uniformInt(std::uint64_t{72}));
                    fresh = true;
                    for (int j = 0; j < i; ++j)
                        fresh = fresh && chosen[j] != chosen[i];
                } while (!fresh);
                dram::EccSecded::flipBit(word, chosen[i]);
            }
            const auto result = ecc.decodeKnownFlips(word, flips, data);
            switch (result.outcome) {
              case dram::EccOutcome::Corrected:
                ++corrected;
                break;
              case dram::EccOutcome::Uncorrectable:
                ++detected;
                break;
              case dram::EccOutcome::Miscorrected:
                ++miscorrected;
                break;
              case dram::EccOutcome::NoError:
                // Only reachable if flips cancelled -- they cannot,
                // positions are distinct.
                break;
            }
        }
        std::printf("%-6d %11.1f%% %11.1f%% %11.1f%%\n", flips,
                    100.0 * corrected / trials, 100.0 * detected / trials,
                    100.0 * miscorrected / trials);
    }

    bench::banner("SDC study (part 2)",
                  "expected >=3-flip words per 2-hour 8 GiB run");
    std::printf("%-34s %16s\n", "operating point", "E[SDC events]");
    const auto &wparams = session.campaign().params().workload;
    const auto &profile = features::ProfileCache::instance().get(
        session.platform(), {"srad", 8, "srad(par)"}, wparams);

    for (const dram::OperatingPoint op :
         {dram::OperatingPoint{1.173, dram::kMinVdd, 50.0},
          dram::OperatingPoint{2.283, dram::kMinVdd, 50.0},
          dram::OperatingPoint{2.283, dram::kMinVdd, 60.0},
          dram::OperatingPoint{1.450, dram::kMinVdd, 70.0},
          dram::OperatingPoint{2.283, dram::kMinVdd, 70.0}}) {
        const auto run = session.campaign().integrator().run(
            profile, op, session.platform().geometry(),
            session.platform().devices());
        std::printf("%-34s %16.3e%s\n", op.label().c_str(),
                    run.expectedSdc,
                    run.crashed ? "  (run crashes with a UE first)"
                                : "");
    }

    bench::rule();
    std::printf("conclusion: even at the most aggressive point the "
                "expected SDC count per\nrun is <<1 -- consistent with "
                "the paper's zero observed SDCs -- while the\ndecoder "
                "itself WOULD miscorrect a substantial share of >=3-bit "
                "words if they\noccurred (part 1).\n");
    return 0;
}
