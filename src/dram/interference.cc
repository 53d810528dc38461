#include "dram/interference.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace dfault::dram {

InterferenceModel::InterferenceModel() : InterferenceModel(Params{}) {}

InterferenceModel::InterferenceModel(const Params &params) : params_(params)
{
    if (params_.strength < 0.0)
        DFAULT_FATAL("interference: strength must be non-negative");
    if (params_.refActivations <= 0.0)
        DFAULT_FATAL("interference: refActivations must be positive");
    if (params_.maxDelta < 0.0)
        DFAULT_FATAL("interference: maxDelta must be non-negative");
}

double
InterferenceModel::thresholdWidening(double aggressor_rate,
                                     Seconds trefp) const
{
    if (aggressor_rate <= 0.0 || trefp <= 0.0)
        return 0.0;
    // Disturbance accumulates between refreshes; a refresh restores the
    // victim's charge, so the window of exposure is one refresh period.
    const double acts_per_window = aggressor_rate * trefp;
    const double delta =
        params_.strength * std::log1p(acts_per_window /
                                      params_.refActivations);
    return std::min(delta, params_.maxDelta);
}

} // namespace dfault::dram
