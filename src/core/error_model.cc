#include "core/error_model.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace dfault::core {

namespace {

constexpr double kLogFloor = 1e-14;

} // namespace

std::vector<double>
DramErrorModel::makeRow(const features::WorkloadProfile &profile,
                        const dram::OperatingPoint &op) const
{
    std::vector<double> row;
    row.reserve(programFeatures_.size() + 3);
    for (const auto &name : programFeatures_)
        row.push_back(profile.features.get(name));
    row.push_back(op.trefp);
    row.push_back(op.vdd);
    row.push_back(op.temperature);
    return row;
}

DramErrorModel
DramErrorModel::trainWer(const std::vector<Measurement> &measurements,
                         int device_count, const Options &options)
{
    DFAULT_ASSERT(device_count > 0, "need at least one device");
    DramErrorModel model;
    model.options_ = options;
    model.programFeatures_ = inputSetFeatures(options.inputSet);

    double total_words = 0.0;
    std::vector<double> device_words(device_count, 0.0);

    for (int d = 0; d < device_count; ++d) {
        const ml::Dataset data =
            makeWerDataset(measurements, d, options.inputSet);
        DFAULT_ASSERT(!data.empty(), "no usable WER measurements");

        DeviceModel dev;
        dev.scaler.fit(data.x());
        std::vector<double> y = data.y();
        if (options.logTarget)
            for (auto &v : y)
                v = std::log10(std::max(v, kLogFloor));
        dev.targetLo = *std::min_element(y.begin(), y.end());
        dev.targetHi = *std::max_element(y.begin(), y.end());
        dev.regressor = makeModel(options.kind);
        dev.regressor->fit(dev.scaler.transform(data.x()), y);
        model.werModels_.push_back(std::move(dev));
    }

    for (const auto &m : measurements) {
        // Quarantined and cancelled cells carry an empty run.
        if (m.quarantined || m.cancelled || m.run.crashed)
            continue;
        for (int d = 0; d < device_count; ++d)
            device_words[d] += m.run.wordsPerDevice.at(d);
        total_words += m.run.allocatedWords;
    }
    for (int d = 0; d < device_count; ++d)
        model.werModels_[d].wordsShare =
            total_words > 0.0 ? device_words[d] / total_words : 0.0;

    return model;
}

double
DramErrorModel::predictWer(const features::WorkloadProfile &profile,
                           const dram::OperatingPoint &op,
                           int device) const
{
    DFAULT_ASSERT(!werModels_.empty(), "model was not trained for WER");
    DFAULT_ASSERT(device >= 0 &&
                      device < static_cast<int>(werModels_.size()),
                  "device index out of range");
    const DeviceModel &dev = werModels_[device];
    // Clamp to the training envelope (one extra decade in log space):
    // beyond it the regressor is extrapolating, not predicting.
    const double margin = options_.logTarget ? 1.0 : 0.0;
    const double raw = std::clamp(
        dev.regressor->predict(
            dev.scaler.transform(makeRow(profile, op))),
        dev.targetLo - margin, dev.targetHi + margin);
    return options_.logTarget ? std::pow(10.0, raw) : std::max(raw, 0.0);
}

double
DramErrorModel::predictWerAggregate(
    const features::WorkloadProfile &profile,
    const dram::OperatingPoint &op) const
{
    double acc = 0.0;
    for (std::size_t d = 0; d < werModels_.size(); ++d)
        acc += werModels_[d].wordsShare *
               predictWer(profile, op, static_cast<int>(d));
    return acc;
}

ConventionalModel::ConventionalModel(
    CharacterizationCampaign &campaign,
    const std::vector<dram::OperatingPoint> &points)
{
    const workloads::WorkloadConfig micro{"random", 8, "random"};
    for (const auto &op : points) {
        const Measurement m = campaign.measure(micro, op);
        table_.emplace_back(op, m.run.wer());
    }
}

double
ConventionalModel::predictWer(const dram::OperatingPoint &op) const
{
    DFAULT_ASSERT(!table_.empty(), "conventional model has no table");
    // Nearest operating point by (log TREFP, temperature) distance.
    double best = 1e300;
    double wer = 0.0;
    for (const auto &[point, value] : table_) {
        const double d_trefp =
            std::log(op.trefp) - std::log(point.trefp);
        const double d_temp =
            (op.temperature - point.temperature) / 10.0;
        const double d2 = d_trefp * d_trefp + d_temp * d_temp;
        if (d2 < best) {
            best = d2;
            wer = value;
        }
    }
    return wer;
}

} // namespace dfault::core
