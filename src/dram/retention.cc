#include "dram/retention.hh"

#include <cmath>

#include "common/logging.hh"
#include "stats/distributions.hh"

namespace dfault::dram {

RetentionModel::RetentionModel() : RetentionModel(Params{}) {}

RetentionModel::RetentionModel(const Params &params) : params_(params)
{
    if (params_.sigma <= 0.0)
        DFAULT_FATAL("retention model: sigma must be positive");
    if (params_.tempAlpha < 0.0)
        DFAULT_FATAL("retention model: tempAlpha must be non-negative");
}

double
RetentionModel::tauScale(const OperatingPoint &op) const
{
    const double temp_factor =
        std::exp(-params_.tempAlpha * (op.temperature -
                                       params_.refTemperature));
    const double vdd_factor = std::pow(op.vdd / kNominalVdd,
                                       params_.vddGamma);
    return temp_factor * vdd_factor;
}

double
RetentionModel::effectiveScale(const OperatingPoint &op,
                               double device_scale) const
{
    DFAULT_ASSERT(device_scale > 0.0, "device retention scale must be > 0");
    return tauScale(op) * device_scale;
}

double
RetentionModel::weakProbability(Seconds t_eff, const OperatingPoint &op,
                                double device_scale) const
{
    if (t_eff <= 0.0)
        return 0.0;
    return weakProbabilityAtScale(t_eff, effectiveScale(op, device_scale));
}

double
RetentionModel::weakProbabilityAtScale(Seconds t_eff, double scale) const
{
    if (t_eff <= 0.0)
        return 0.0;
    // tau' = tau * scale; P(tau' < t) = F(t / scale).
    return stats::lognormalCdf(t_eff / scale, params_.mu, params_.sigma);
}

Seconds
RetentionModel::weakQuantile(double p, const OperatingPoint &op,
                             double device_scale) const
{
    DFAULT_ASSERT(p > 0.0 && p < 1.0, "quantile level out of (0,1)");
    return stats::lognormalQuantile(p, params_.mu, params_.sigma) *
           effectiveScale(op, device_scale);
}

} // namespace dfault::dram
