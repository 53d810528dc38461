/**
 * @file
 * The workload-aware DRAM error behavioural model — the paper's primary
 * deliverable (Eq. 1):
 *
 *   Merr = M(Ftrs, Dev, TREFP, VDD, TEMPDRAM)
 *
 * Trained on a characterization campaign, the model predicts the WER of
 * any workload on a specific (DIMM, rank) device from the workload's
 * program features and the DRAM operating parameters — in
 * microseconds, without re-running hours of characterization. (The
 * paper's PUE study, Fig 12, trains its learners on makePueDataset()
 * through core/trainer.hh.)
 *
 * The workload-unaware ConventionalModel (constant rates measured with
 * the random data-pattern micro-benchmark) is provided as the baseline
 * the paper compares against in Fig 13.
 */

#ifndef DFAULT_CORE_ERROR_MODEL_HH
#define DFAULT_CORE_ERROR_MODEL_HH

#include <map>
#include <vector>

#include "core/characterization.hh"
#include "core/dataset_builder.hh"
#include "core/input_sets.hh"
#include "core/trainer.hh"
#include "ml/scaler.hh"

namespace dfault::core {

/** See file comment. */
class DramErrorModel
{
  public:
    struct Options
    {
        ModelKind kind = ModelKind::Knn; ///< most accurate (paper §VI)
        InputSet inputSet = InputSet::Set1;
        bool logTarget = true; ///< train WER in log10 space
    };

    /**
     * Train per-device WER predictors from campaign measurements.
     * Crashed runs are excluded.
     */
    static DramErrorModel trainWer(
        const std::vector<Measurement> &measurements, int device_count,
        const Options &options);

    /**
     * Predict the WER of a workload on one device.
     * @pre the model was trained with trainWer().
     */
    double predictWer(const features::WorkloadProfile &profile,
                      const dram::OperatingPoint &op, int device) const;

    /** WER aggregated over all devices (word-weighted mean). */
    double predictWerAggregate(const features::WorkloadProfile &profile,
                               const dram::OperatingPoint &op) const;

    const Options &options() const { return options_; }

  private:
    struct DeviceModel
    {
        ml::StandardScaler scaler;
        ml::RegressorPtr regressor;
        double wordsShare = 1.0;
        /** Training-target envelope; predictions are clamped to it. */
        double targetLo = 0.0;
        double targetHi = 0.0;
    };

    Options options_;
    std::vector<std::string> programFeatures_;
    std::vector<DeviceModel> werModels_;

    std::vector<double> makeRow(const features::WorkloadProfile &profile,
                                const dram::OperatingPoint &op) const;
};

/**
 * Conventional workload-unaware model: the per-operating-point WER of
 * the random data-pattern micro-benchmark, applied to every workload
 * (paper §VI-C).
 */
class ConventionalModel
{
  public:
    /** Characterize the micro-benchmark at the given operating points. */
    ConventionalModel(CharacterizationCampaign &campaign,
                      const std::vector<dram::OperatingPoint> &points);

    /** Constant WER for the operating point, whatever the workload. */
    double predictWer(const dram::OperatingPoint &op) const;

  private:
    std::vector<std::pair<dram::OperatingPoint, double>> table_;
};

} // namespace dfault::core

#endif // DFAULT_CORE_ERROR_MODEL_HH
