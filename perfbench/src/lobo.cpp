/**
 * @file
 * lobo_train: leave-one-benchmark-out training and validation of the
 * three learners on every input set for a fixed set of devices, on the
 * measurements of an in-L2 sweep made during set-up.
 */

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <iterator>

#include "bench.hh"
#include "core/characterization.hh"
#include "core/dataset_builder.hh"
#include "core/trainer.hh"
#include "features/extractor.hh"
#include "ml/cross_validation.hh"
#include "ml/scaler.hh"
#include "par/pool.hh"
#include "workloads/registry.hh"

namespace perfbench {

namespace {

namespace core = dfault::core;
namespace ml = dfault::ml;

constexpr std::uint64_t kFootprint = 2ULL << 20;
constexpr double kWorkScale = 0.25;
/** Devices whose WER the learners predict: one rank on each of two
 *  DIMMs. */
constexpr int kDevices[] = {0, 5};
/** Timed passes per set-up. A pass reads the set-up's measurements
 *  without changing them, so it can be repeated; fewer set-ups leave
 *  room for more passes, on which the op latency quantiles rest. */
constexpr int kPassesPerSetup = 2;
/** The paper's KNN MPE on input set 1 (§VI-B). */
constexpr double kPaperKnnMpePct = 10.1;

const char *
evalSpanName(core::ModelKind kind)
{
    switch (kind) {
      case core::ModelKind::Svm:
        return "ml.svm.eval";
      case core::ModelKind::Knn:
        return "ml.knn.eval";
      case core::ModelKind::Rdf:
        return "ml.rdf.eval";
    }
    return "ml.eval";
}

std::string
lower(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

/** Fit and predict one representative fold; fills fit/predict times. */
void
representativeFold(const ml::Dataset &data, core::ModelKind kind,
                   Report &report)
{
    const auto folds = ml::leaveOneGroupOut(data);
    const ml::Fold &fold = folds.front();
    const ml::Dataset train = data.subset(fold.trainRows);
    const ml::Dataset test = data.subset(fold.testRows);
    ml::StandardScaler scaler;
    scaler.fit(train.x());
    const ml::Matrix train_x = scaler.transform(train.x());
    const ml::Matrix test_x = scaler.transform(test.x());
    std::vector<double> train_y = train.y();
    for (double &y : train_y)
        y = std::log10(std::max(y, 1e-14));

    std::vector<double> fit_s, predict_s;
    for (int rep = 0; rep < 3; ++rep) {
        auto model = core::makeModel(kind);
        auto t = Clock::now();
        model->fit(train_x, train_y);
        fit_s.push_back(secondsSince(t));
        t = Clock::now();
        double sink = 0;
        for (const auto &row : test_x)
            sink += model->predict(row);
        predict_s.push_back(secondsSince(t) /
                            static_cast<double>(test_x.size()));
        if (!std::isfinite(sink))
            report.fail("non-finite prediction in the representative fold");
    }
    const std::string name = "ml." + lower(core::modelKindName(kind));
    report.metric(name + ".fit_ms", 1e3 * median(fit_s), "ms");
    report.metric(name + ".predict_us", 1e6 * median(predict_s), "us");
}

} // namespace

int
runLoboTrain(const Options &opt, const Expectations &exp, Report &report)
{
    const auto suite = dfault::workloads::standardSuite();
    const auto points = core::werOperatingPoints();

    std::vector<core::Measurement> measurements;
    std::unique_ptr<dfault::sys::Platform> platform;
    std::unique_ptr<core::CharacterizationCampaign> campaign;
    const auto teardown = [&] {
        measurements.clear();
        campaign.reset();
        platform.reset();
        dfault::features::ProfileCache::instance().clear();
    };
    const auto setup = [&] {
        dfault::sys::Platform::Params pp;
        pp.exec.timeDilation = dfault::sys::dilationForFootprint(kFootprint);
        platform = std::make_unique<dfault::sys::Platform>(pp);
        core::CharacterizationCampaign::Params cp;
        cp.workload.footprintBytes = kFootprint;
        cp.workload.workScale = kWorkScale;
        cp.failFast = true;
        campaign =
            std::make_unique<core::CharacterizationCampaign>(*platform, cp);
        measurements = campaign->sweep(suite, points);
    };

    const std::string expected = exp.get("lobo_train.mpe_table");
    const std::uint64_t ops_per_pass =
        std::size(kDevices) * std::size(core::kAllInputSets) *
        std::size(core::kAllModelKinds);
    RepeatedOpLatency latency;
    std::uint64_t attempted = 0, failed = 0, folds = 0;
    double knn_set1_mpe = 0;
    const auto pass = [&]() -> double {
        // Results and op latencies in table order: input set, device,
        // learner.
        std::vector<core::EvaluationResult> table(ops_per_pass);
        std::vector<double> lat(ops_per_pass);
        folds = 0;
        const auto start = Clock::now();
        {
            const Span span("lobo.pass");
            // Device outermost, so the short evaluations of the two
            // devices sit on either side of a long set-3 RDF fit and
            // a burst of load on a shared host delays fewer of them.
            for (std::size_t di = 0; di < std::size(kDevices); ++di)
                for (std::size_t si = 0; si < std::size(core::kAllInputSets);
                     ++si) {
                    ml::Dataset data;
                    {
                        const Span s("core.dataset");
                        data = core::makeWerDataset(
                            measurements, kDevices[di],
                            core::kAllInputSets[si]);
                    }
                    for (std::size_t ki = 0;
                         ki < std::size(core::kAllModelKinds); ++ki) {
                        const core::ModelKind kind = core::kAllModelKinds[ki];
                        const std::size_t op =
                            (si * std::size(kDevices) + di) *
                                std::size(core::kAllModelKinds) +
                            ki;
                        const auto t = Clock::now();
                        {
                            const Span s(evalSpanName(kind));
                            table[op] = core::evaluateModel(data, kind, true);
                        }
                        lat[op] = secondsSince(t);
                        folds += data.distinctGroups().size();
                    }
                }
        }
        const double wall = secondsSince(start);
        latency.pass(lat);
        Digest d;
        double knn_sum = 0;
        std::size_t op = 0;
        for (const core::InputSet set : core::kAllInputSets)
            for (const int dev : kDevices)
                for (const core::ModelKind kind : core::kAllModelKinds) {
                    const core::EvaluationResult &r = table[op++];
                    d.add(core::modelKindName(kind));
                    d.add(core::inputSetName(set));
                    d.add(static_cast<std::uint64_t>(dev));
                    d.add(r.mpe);
                    for (const auto &[group, mpe] : r.mpePerGroup) {
                        d.add(group);
                        d.add(mpe);
                    }
                    if (kind == core::ModelKind::Knn &&
                        set == core::InputSet::Set1)
                        knn_sum += r.mpe;
                }
        knn_set1_mpe = knn_sum / static_cast<double>(std::size(kDevices));
        attempted += ops_per_pass;
        if (!report.check("lobo_train.mpe_table", d.hex(), expected))
            failed += ops_per_pass;
        return wall;
    };

    if (!opt.trace) {
        reportTimings(report,
                      timedIterations(opt.seconds, 1, kPassesPerSetup,
                                      teardown, setup, pass),
                      static_cast<double>(ops_per_pass));
        latency.report(report);
        report.metric("peak_rss_mib", peakRssMib(), "MiB");
    } else {
        setup();
        tracedPasses(opt.seconds, pass, report);
        auto &tr = Tracer::instance();
        const double passes =
            static_cast<double>(tr.totals("lobo.pass").count);
        report.metric("obs.unattributed_pct",
                      printSpanLedger("lobo_train pass (traced)", "lobo.pass",
                                      {"core.dataset", "ml.svm.eval",
                                       "ml.knn.eval", "ml.rdf.eval"}),
                      "%");
        report.metric("core.dataset_ms",
                      1e3 * tr.totals("core.dataset").seconds /
                          static_cast<double>(tr.totals("core.dataset").count),
                      "ms");
        for (const char *name : {"ml.svm.eval", "ml.knn.eval", "ml.rdf.eval"})
            report.metric(std::string(name) + "_s",
                          tr.totals(name).seconds / passes, "s");
        report.metric("ml.folds", static_cast<double>(folds), "count");
        report.metric("mpe_pct", knn_set1_mpe, "%");

        const ml::Dataset data = core::makeWerDataset(
            measurements, kDevices[0], core::InputSet::Set1);
        for (const core::ModelKind kind : core::kAllModelKinds)
            representativeFold(data, kind, report);

        const double cpu0 = processCpuSeconds();
        const auto t0 = Clock::now();
        for (const core::ModelKind kind : core::kAllModelKinds)
            core::evaluateModel(data, kind, true);
        report.metric("par.lobo_efficiency",
                      (processCpuSeconds() - cpu0) /
                          (secondsSince(t0) * kThreads),
                      "ratio");
    }
    std::printf("mpe_pct: KNN on input set 1, averaged over devices "
                "{%d, %d}: %.2f%% (paper: %.1f%%)\n",
                kDevices[0], kDevices[1], knn_set1_mpe, kPaperKnnMpePct);
    report.ops(attempted, failed);
    return 0;
}

} // namespace perfbench
