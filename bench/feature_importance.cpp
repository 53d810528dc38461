/**
 * @file
 * Model-based feature importance and hyperparameter selection —
 * pipeline extensions beyond the paper's Spearman screening.
 *
 * Part 1: permutation importance of a KNN model trained on input set 1
 * (+ operating parameters): which inputs does the deployed model
 * actually rely on? The paper's §VI-B overfitting story predicts that
 * the operating parameters dominate and the weak program features
 * contribute little.
 *
 * Part 2: LOGO grid search over KNN's k and the SVR box constraint,
 * selecting the configuration that generalizes to held-out benchmarks.
 */

#include <algorithm>
#include <cmath>

#include "harness.hh"
#include "ml/grid_search.hh"
#include "ml/importance.hh"
#include "ml/knn.hh"
#include "ml/scaler.hh"
#include "ml/svr.hh"

using namespace dfault;

int
main(int argc, char **argv)
{
    core::RunSession session(argc, argv);

    const auto measurements = session.campaign().sweep(
        workloads::standardSuite(), core::werOperatingPoints());
    // Device 0's WER dataset on input set 1, log-space targets.
    auto data = core::makeWerDataset(measurements, 0,
                                     core::InputSet::Set1);
    ml::Dataset logdata(data.featureNames());
    for (std::size_t i = 0; i < data.size(); ++i)
        logdata.addSample(data.x()[i],
                          std::log10(std::max(data.y()[i], 1e-14)),
                          data.groups()[i]);

    bench::banner("Extension: permutation importance",
                  "what the deployed KNN/set1 model actually uses");
    {
        ml::StandardScaler scaler;
        scaler.fit(logdata.x());
        ml::Dataset scaled(logdata.featureNames());
        for (std::size_t i = 0; i < logdata.size(); ++i)
            scaled.addSample(scaler.transform(logdata.x()[i]),
                             logdata.y()[i], logdata.groups()[i]);

        ml::KnnRegressor model;
        model.fit(scaled.x(), scaled.y());
        for (const auto &fi : ml::rankImportance(model, scaled, 5))
            std::printf("  %-26s rmse increase %+0.3f (log10 "
                        "decades)\n",
                        fi.name.c_str(), fi.rmseIncrease);
    }

    bench::banner("Extension: LOGO grid search",
                  "hyperparameters selected on held-out benchmarks");
    std::vector<ml::GridCandidate> grid;
    for (const int k : {1, 3, 5, 9}) {
        ml::KnnRegressor::Params p;
        p.k = k;
        grid.push_back({"KNN k=" + std::to_string(k), [p] {
                            return std::make_unique<ml::KnnRegressor>(
                                p);
                        }});
    }
    for (const double c : {0.5, 2.0, 8.0}) {
        ml::SvrRegressor::Params p;
        p.c = c;
        grid.push_back(
            {"SVR C=" + std::to_string(c).substr(0, 3), [p] {
                 return std::make_unique<ml::SvrRegressor>(p);
             }});
    }
    const auto results = ml::gridSearch(logdata, grid);
    const std::size_t best = ml::bestCandidate(results);
    for (std::size_t i = 0; i < results.size(); ++i)
        std::printf("  %-14s mean RMSE %.3f decades%s\n",
                    results[i].label.c_str(), results[i].meanRmse,
                    i == best ? "   <= selected" : "");
    return 0;
}
