#include "core/dataset_builder.hh"

#include <cmath>

#include "common/logging.hh"
#include "features/catalog.hh"
#include "obs/stats.hh"

namespace dfault::core {

namespace {

/** Feature schema of a dataset: program features + operating params. */
std::vector<std::string>
schema(InputSet set)
{
    std::vector<std::string> names = inputSetFeatures(set);
    for (const char *op : kOpFeatureNames)
        names.emplace_back(op);
    return names;
}

/** Assemble one sample row from a profile and an operating point. */
std::vector<double>
sampleRow(const features::WorkloadProfile &profile,
          const dram::OperatingPoint &op,
          const std::vector<std::string> &program_features)
{
    std::vector<double> row;
    row.reserve(program_features.size() + 3);
    for (const auto &name : program_features)
        row.push_back(profile.features.get(name));
    row.push_back(op.trefp);
    row.push_back(op.vdd);
    row.push_back(op.temperature);
    return row;
}

/**
 * Final screen before a row enters a training set: reject NaN/inf
 * features or targets, naming the offending feature. A corrupted
 * measurement (e.g. an injected fault, or a model bug) must cost one
 * sample and a warning, not silently poison the whole fit.
 */
bool
admitSample(ml::Dataset &data, std::vector<double> row, double target,
            const std::string &group)
{
    if (const auto bad = ml::firstNonFinite(row)) {
        DFAULT_WARN("dataset: quarantining sample of ", group,
                    ": feature '", data.featureNames()[*bad],
                    "' is not finite");
        obs::Registry::instance()
            .counter("fi.quarantined_rows",
                     "dataset rows dropped for non-finite values")
            .inc();
        return false;
    }
    if (!std::isfinite(target)) {
        DFAULT_WARN("dataset: quarantining sample of ", group,
                    ": target is not finite");
        obs::Registry::instance()
            .counter("fi.quarantined_rows",
                     "dataset rows dropped for non-finite values")
            .inc();
        return false;
    }
    data.addSample(std::move(row), target, group);
    return true;
}

} // namespace

ml::Dataset
makeWerDataset(const std::vector<Measurement> &measurements, int device,
               InputSet set)
{
    const auto program_features = inputSetFeatures(set);
    ml::Dataset data(schema(set));
    for (const auto &m : measurements) {
        if (m.quarantined) {
            DFAULT_WARN("dataset: skipping quarantined measurement ",
                        m.label, " at ", m.requested.label());
            continue;
        }
        if (m.cancelled)
            continue; // interrupted, not failed: re-measured on resume
        if (m.run.crashed)
            continue;
        DFAULT_ASSERT(m.profile != nullptr, "measurement lost its profile");
        admitSample(data,
                    sampleRow(*m.profile, m.requested, program_features),
                    m.run.werForDevice(device), m.label);
    }
    return data;
}

std::vector<PueSample>
collectPueSamples(CharacterizationCampaign &campaign,
                  const std::vector<workloads::WorkloadConfig> &suite,
                  const std::vector<dram::OperatingPoint> &points,
                  int repeats)
{
    const std::vector<double> pue =
        campaign.measurePue(suite, points, repeats);
    std::vector<PueSample> samples;
    samples.reserve(pue.size());
    for (std::size_t i = 0; i < pue.size(); ++i)
        samples.push_back({suite[i / points.size()],
                           points[i % points.size()], pue[i]});
    return samples;
}

ml::Dataset
makePueDataset(CharacterizationCampaign &campaign,
               const std::vector<PueSample> &samples, InputSet set)
{
    const auto program_features = inputSetFeatures(set);
    ml::Dataset data(schema(set));
    for (const auto &sample : samples) {
        const features::WorkloadProfile &profile =
            features::ProfileCache::instance().get(
                campaign.platform(), sample.config,
                campaign.params().workload);
        admitSample(data,
                    sampleRow(profile, sample.op, program_features),
                    sample.pue, sample.config.label);
    }
    return data;
}

} // namespace dfault::core
