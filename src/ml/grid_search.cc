#include "ml/grid_search.hh"

#include <algorithm>

#include "common/logging.hh"
#include "ml/cross_validation.hh"
#include "ml/metrics.hh"
#include "ml/scaler.hh"
#include "obs/span.hh"
#include "obs/timer.hh"
#include "par/cancel.hh"
#include "par/pool.hh"

namespace dfault::ml {

std::vector<GridResult>
gridSearch(const Dataset &data, const std::vector<GridCandidate> &grid)
{
    DFAULT_ASSERT(!data.empty(), "grid search needs data");
    DFAULT_ASSERT(!grid.empty(), "grid search needs candidates");

    const auto folds = leaveOneGroupOut(data);
    DFAULT_ASSERT(folds.size() >= 2,
                  "grid search needs at least two groups");

    // Every (candidate, fold) cell is an independent fit: flatten the
    // two loops into one task list so even a small grid saturates the
    // pool. Per-candidate means are reduced below in fold order, so
    // the RMSE sums match a serial run bit for bit.
    struct Cell
    {
        double rmse = 0.0;
        char contributed = 0;
    };
    const obs::ScopedTimer timer("grid_search");
    const std::size_t n_folds = folds.size();
    const auto cells = par::Pool::global().parallelMap<Cell>(
        grid.size() * n_folds, [&](std::size_t i) {
            // Honour shutdown/deadline cancellation between fits.
            par::throwIfCancelled();
            const auto &candidate = grid[i / n_folds];
            const Fold &fold = folds[i % n_folds];
            // Name the cell in the trace by candidate and held-out
            // fold, so a slow grid cell is identifiable in Perfetto.
            if (obs::SpanTracer::instance().enabled())
                obs::ScopedTimer::annotate(
                    candidate.label + " holdout " + fold.heldOutGroup);
            if (fold.trainRows.empty() || fold.testRows.empty())
                return Cell{};
            const Dataset train = data.subset(fold.trainRows);
            const Dataset test = data.subset(fold.testRows);

            StandardScaler scaler;
            scaler.fit(train.x());
            auto model = candidate.make();
            model->fit(scaler.transform(train.x()), train.y());

            std::vector<double> predicted;
            model->predictMany(scaler.transform(test.x()), predicted);
            return Cell{rmse(test.y(), predicted), 1};
        });

    std::vector<GridResult> results;
    results.reserve(grid.size());
    for (std::size_t c = 0; c < grid.size(); ++c) {
        double rmse_sum = 0.0;
        int fold_count = 0;
        for (std::size_t f = 0; f < n_folds; ++f) {
            const Cell &cell = cells[c * n_folds + f];
            if (!cell.contributed)
                continue;
            rmse_sum += cell.rmse;
            ++fold_count;
        }
        GridResult result;
        result.label = grid[c].label;
        result.meanRmse =
            fold_count > 0 ? rmse_sum / fold_count : 0.0;
        results.push_back(std::move(result));
    }
    return results;
}

std::size_t
bestCandidate(const std::vector<GridResult> &results)
{
    DFAULT_ASSERT(!results.empty(), "no grid results to rank");
    std::size_t best = 0;
    for (std::size_t i = 1; i < results.size(); ++i)
        if (results[i].meanRmse < results[best].meanRmse)
            best = i;
    return best;
}

} // namespace dfault::ml
