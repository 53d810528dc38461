/**
 * @file
 * Paper Fig 10: Spearman rank correlation of the 249 program features
 * against WER and against PUE.
 *
 * The paper's reading: the memory access rate is the strongest WER
 * correlate (rs ~ 0.57), wait cycles follow (~0.4), HDP ~0.39, and
 * Treuse is weakest (~0.23); PUE correlations are lower across the
 * board (access rate ~0.43).
 */

#include <algorithm>

#include "harness.hh"
#include "ml/selection.hh"

using namespace dfault;

int
main(int argc, char **argv)
{
    core::RunSession session(argc, argv);

    // WER dataset: the TREFP x temperature grid that stays UE-free
    // (paper §VI-A), pooled across the 14 benchmarks; per-device
    // targets averaged into the aggregate WER as in the paper.
    const auto suite = workloads::standardSuite();
    const auto measurements =
        session.campaign().sweep(suite, core::werOperatingPoints());

    ml::Dataset wer_data(
        features::FeatureCatalog::instance().names());
    for (const auto &m : measurements) {
        if (m.run.crashed)
            continue;
        wer_data.addSample(m.profile->features.values(), m.run.wer(),
                           m.label);
    }

    // PUE dataset: 70 C, the three UE-prone TREFP levels.
    const int repeats = bench::repeats(session.config());
    ml::Dataset pue_data(
        features::FeatureCatalog::instance().names());
    for (const auto &sample : core::collectPueSamples(
             session.campaign(), suite, core::pueOperatingPoints(),
             repeats)) {
        const auto &profile = features::ProfileCache::instance().get(
            session.platform(), sample.config,
            session.campaign().params().workload);
        pue_data.addSample(profile.features.values(), sample.pue,
                           sample.config.label);
    }

    const auto wer_cors = ml::correlateFeatures(wer_data);
    const auto pue_cors = ml::correlateFeatures(pue_data);

    bench::banner("Fig 10",
                  "Spearman rs of 249 program features vs WER and PUE");

    const char *headline[] = {"mem_accesses_per_cycle",
                              "wait_cycles_ratio", "hdp_entropy",
                              "treuse_seconds", "ipc",
                              "cpu_utilization"};
    std::printf("headline features (paper's Fig 10 annotations):\n");
    std::printf("%-26s %10s %10s\n", "feature", "rs(WER)", "rs(PUE)");
    for (const char *name : headline) {
        const std::size_t idx =
            features::FeatureCatalog::instance().index(name);
        std::printf("%-26s %+10.3f %+10.3f\n", name, wer_cors[idx].rs,
                    pue_cors[idx].rs);
    }

    bench::rule();
    std::printf("strongest |rs(WER)| program features:\n");
    auto ranked = ml::rankFeatures(wer_data);
    int shown = 0;
    for (const auto &c : ranked) {
        std::printf("  %-32s rs(WER)=%+6.3f rs(PUE)=%+6.3f\n",
                    c.name.c_str(), c.rs,
                    pue_cors[c.featureIndex].rs);
        if (++shown == 15)
            break;
    }

    bench::rule();
    int positive = 0, negative = 0, weak = 0;
    for (const auto &c : wer_cors) {
        if (c.rs > 0.2)
            ++positive;
        else if (c.rs < -0.2)
            ++negative;
        else
            ++weak;
    }
    std::printf("feature population: %d with rs > 0.2, %d with "
                "rs < -0.2, %d weak (|rs| <= 0.2) of %zu\n",
                positive, negative, weak, wer_cors.size());
    return 0;
}
