/**
 * @file
 * Paper Fig 13: workload-aware vs conventional modelling. The trained
 * KNN model predicts the WER of two unseen lulesh builds (default -O2
 * and aggressive -F compiler optimizations) at TREFP = 0.618 s / 70 C;
 * the conventional model applies the random data-pattern
 * micro-benchmark's constant rate to every workload.
 *
 * Paper reference: the model predicts both lulesh builds within ~3%,
 * resolving their ~29% WER difference, while the conventional constant
 * rate is off by ~2.9x. Prediction takes < 300 ms on the paper's
 * setup; the per-query latency here is reported alongside.
 */

#include <chrono>

#include "harness.hh"
#include "ml/metrics.hh"

using namespace dfault;

int
main(int argc, char **argv)
{
    core::RunSession session(argc, argv);
    bench::banner("Fig 13", "measured vs predicted WER for lulesh(O2), "
                            "lulesh(F) and the random micro-benchmark");

    // Train the model on the standard 14-benchmark campaign; lulesh is
    // NOT part of the training suite.
    const auto measurements = session.campaign().sweep(
        workloads::standardSuite(), core::werOperatingPoints());
    const auto model = core::DramErrorModel::trainWer(
        measurements, session.platform().geometry().deviceCount(),
        core::DramErrorModel::Options{});

    const core::ConventionalModel conventional(
        session.campaign(), core::werOperatingPoints());

    const dram::OperatingPoint op{0.618, dram::kMinVdd, 70.0};

    std::printf("%-14s %12s %12s %12s %10s\n", "workload", "measured",
                "predicted", "conventional", "pred.err%");

    double measured_o2 = 0.0, measured_f = 0.0;
    std::vector<double> measured_all, predicted_all, conventional_all;
    double predict_ns = 0.0;
    int predictions = 0;

    for (const auto &config : workloads::extendedSuite()) {
        const core::Measurement m =
            session.campaign().measure(config, op);
        const auto start = std::chrono::steady_clock::now();
        const double predicted =
            model.predictWerAggregate(*m.profile, op);
        const auto stop = std::chrono::steady_clock::now();
        predict_ns += std::chrono::duration<double, std::nano>(
                          stop - start)
                          .count();
        ++predictions;

        const double constant = conventional.predictWer(op);
        const double err =
            m.run.wer() > 0.0
                ? ml::percentageError(m.run.wer(), predicted)
                : 0.0;
        std::printf("%-14s %12.3e %12.3e %12.3e %10.1f\n",
                    config.label.c_str(), m.run.wer(), predicted,
                    constant, err);

        if (config.label == "lulesh(O2)")
            measured_o2 = m.run.wer();
        if (config.label == "lulesh(F)")
            measured_f = m.run.wer();
        if (m.run.wer() > 0.0 && config.label != "random") {
            measured_all.push_back(m.run.wer());
            predicted_all.push_back(predicted);
            conventional_all.push_back(constant);
        }
    }

    bench::rule();
    if (measured_o2 > 0.0 && measured_f > 0.0)
        std::printf("lulesh(F) vs lulesh(O2) measured WER difference: "
                    "%.1f%% (paper: ~29%%)\n",
                    100.0 * (measured_f - measured_o2) / measured_o2);
    if (!measured_all.empty()) {
        std::printf("workload-aware model error factor: %.2fx; "
                    "conventional model error factor: %.2fx "
                    "(paper: ~2.9x)\n",
                    ml::errorFactor(measured_all, predicted_all),
                    ml::errorFactor(measured_all, conventional_all));
    }
    std::printf("prediction latency: %.1f us per query "
                "(paper: < 300 ms)\n",
                predict_ns / predictions / 1000.0);
    return 0;
}
