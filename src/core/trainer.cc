#include "core/trainer.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "ml/cross_validation.hh"
#include "obs/events.hh"
#include "obs/span.hh"
#include "obs/stats.hh"
#include "obs/timer.hh"
#include "par/cancel.hh"
#include "par/pool.hh"
#include "ml/forest.hh"
#include "ml/knn.hh"
#include "ml/metrics.hh"
#include "ml/scaler.hh"
#include "ml/svr.hh"

namespace dfault::core {

namespace {

/** Floor applied before log-transforming WER targets. */
constexpr double kLogFloor = 1e-14;

double
toLog(double y)
{
    return std::log10(std::max(y, kLogFloor));
}

double
fromLog(double y_log)
{
    return std::pow(10.0, y_log);
}

} // namespace

std::string
modelKindName(ModelKind kind)
{
    switch (kind) {
      case ModelKind::Svm:
        return "SVM";
      case ModelKind::Knn:
        return "KNN";
      case ModelKind::Rdf:
        return "RDF";
    }
    DFAULT_PANIC("unreachable model kind");
}

ml::RegressorPtr
makeModel(ModelKind kind)
{
    switch (kind) {
      case ModelKind::Svm:
        return std::make_unique<ml::SvrRegressor>();
      case ModelKind::Knn:
        return std::make_unique<ml::KnnRegressor>();
      case ModelKind::Rdf:
        return std::make_unique<ml::RandomForestRegressor>();
    }
    DFAULT_PANIC("unreachable model kind");
}

namespace {

/** Per-fold result committed by fold index; reduced in fold order. */
struct FoldOutcome
{
    char contributed = 0;
    double groupMpe = 0.0;
    double hostSeconds = 0.0;
};

} // namespace

EvaluationResult
evaluateModel(const ml::Dataset &data, ModelKind kind, bool log_target)
{
    DFAULT_ASSERT(!data.empty(), "cannot evaluate on an empty dataset");

    EvaluationResult result;
    const obs::ScopedTimer cv_timer("cross_validate");
    const auto folds = ml::leaveOneGroupOut(data);

    // Folds are independent (each trains its own model on its own
    // split), so they fan out over the pool; all reduction and event
    // emission happens below in fold order, keeping the result —
    // including floating-point summation order — identical to a
    // serial run.
    const auto outcomes = par::Pool::global().parallelMap<FoldOutcome>(
        folds.size(), [&](std::size_t f) {
            // A fold is minutes of fitting at full scale: honour
            // shutdown/deadline cancellation before starting one.
            par::throwIfCancelled();
            const ml::Fold &fold = folds[f];
            const obs::ScopedTimer fold_timer("fold");
            // Name the fold in the trace by its held-out benchmark.
            if (obs::SpanTracer::instance().enabled())
                obs::ScopedTimer::annotate(
                    modelKindName(kind) + " holdout " +
                    fold.heldOutGroup);
            const ml::Dataset train = data.subset(fold.trainRows);
            const ml::Dataset test = data.subset(fold.testRows);

            ml::StandardScaler scaler;
            scaler.fit(train.x());
            const ml::Matrix train_x = scaler.transform(train.x());

            std::vector<double> train_y = train.y();
            if (log_target)
                for (auto &y : train_y)
                    y = toLog(y);

            auto model = makeModel(kind);
            {
                const obs::ScopedTimer fit_timer("train");
                model->fit(train_x, train_y);
            }

            // Clamp predictions to the envelope of the training
            // targets (plus one decade in log space): a prediction
            // outside the observed range for a held-out benchmark is
            // an extrapolation artifact, not information.
            double y_lo = train_y[0], y_hi = train_y[0];
            for (const double y : train_y) {
                y_lo = std::min(y_lo, y);
                y_hi = std::max(y_hi, y);
            }
            const double margin = log_target ? 1.0 : 0.0;

            // Percentage error over the held-out benchmark's samples.
            double err_sum = 0.0;
            int err_count = 0;
            for (std::size_t i = 0; i < test.size(); ++i) {
                const double measured = test.y()[i];
                if (measured == 0.0)
                    continue; // no percentage is defined
                double predicted =
                    model->predict(scaler.transform(test.x()[i]));
                predicted =
                    std::clamp(predicted, y_lo - margin, y_hi + margin);
                if (log_target)
                    predicted = fromLog(predicted);
                err_sum += ml::percentageError(measured, predicted);
                ++err_count;
            }

            FoldOutcome outcome;
            outcome.hostSeconds = fold_timer.elapsed();
            if (err_count > 0) {
                outcome.contributed = 1;
                outcome.groupMpe = err_sum / err_count;
            }
            // err_count == 0: benchmark never manifested the metric
            return outcome;
        });

    double mpe_sum = 0.0;
    int contributing_groups = 0;
    auto &sink = obs::EventSink::instance();
    for (std::size_t f = 0; f < folds.size(); ++f) {
        obs::Registry::instance()
            .counter("ml.folds", "LOBO cross-validation folds run")
            .inc();
        const FoldOutcome &outcome = outcomes[f];
        if (!outcome.contributed)
            continue;
        result.mpePerGroup[folds[f].heldOutGroup] = outcome.groupMpe;
        mpe_sum += outcome.groupMpe;
        ++contributing_groups;

        if (sink.enabled()) {
            obs::JsonWriter w;
            w.field("model", modelKindName(kind));
            w.field("held_out", folds[f].heldOutGroup);
            w.field("group_mpe", outcome.groupMpe);
            w.field("train_rows",
                    static_cast<std::uint64_t>(folds[f].trainRows.size()));
            w.field("test_rows",
                    static_cast<std::uint64_t>(folds[f].testRows.size()));
            w.field("host_seconds", outcome.hostSeconds);
            sink.emit("fold", w);
        }
    }

    result.mpe = contributing_groups > 0
                     ? mpe_sum / contributing_groups
                     : 0.0;
    return result;
}

} // namespace dfault::core
