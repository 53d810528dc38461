#include "core/retention_profiler.hh"

#include <algorithm>

#include "common/logging.hh"
#include "features/extractor.hh"
#include "par/cancel.hh"

namespace dfault::core {

double
ProfileMismatch::missRate()
    const
{
    return appErrorRows > 0
               ? static_cast<double>(missedByProfile) / appErrorRows
               : 0.0;
}

double
ProfileMismatch::falseAlarmRate() const
{
    return flaggedRows > 0
               ? static_cast<double>(falseAlarms) / flaggedRows
               : 0.0;
}

RetentionProfiler::RetentionProfiler(CharacterizationCampaign &campaign)
    : RetentionProfiler(campaign, Params{})
{
}

RetentionProfiler::RetentionProfiler(CharacterizationCampaign &campaign,
                                     const Params &params)
    : campaign_(campaign), params_(params)
{
    if (params_.levels.empty())
        DFAULT_FATAL("retention profiler: need at least one TREFP level");
    if (!std::is_sorted(params_.levels.begin(), params_.levels.end()))
        DFAULT_FATAL("retention profiler: levels must be ascending");
    if (params_.detectionLambda <= 0.0)
        DFAULT_FATAL("retention profiler: detection threshold must be "
                     "positive");
}

std::vector<RowIntensity>
RetentionProfiler::rowsUnder(const workloads::WorkloadConfig &config,
                             Seconds trefp, int device_index)
{
    auto &platform = campaign_.platform();
    const auto &profile = features::ProfileCache::instance().get(
        platform, config, campaign_.params().workload);
    const dram::OperatingPoint op{trefp, params_.vdd,
                                  params_.temperature};
    return campaign_.integrator().analyzeRows(
        profile, op, platform.geometry(),
        platform.devices().at(device_index), device_index);
}

DeviceRetentionProfile
RetentionProfiler::profileDevice(int device_index)
{
    const workloads::WorkloadConfig micro{"random", 8, "random"};

    DeviceRetentionProfile out;
    std::uint64_t touched_rows = 0;
    for (const Seconds trefp : params_.levels) {
        // Each level is a full row-space analysis; honour shutdown/
        // deadline cancellation at level boundaries.
        par::throwIfCancelled();
        const auto rows = rowsUnder(micro, trefp, device_index);
        touched_rows = std::max<std::uint64_t>(touched_rows,
                                               rows.size());
        for (const auto &row : rows) {
            if (row.ceLambda < params_.detectionLambda)
                continue;
            // Record the shortest failing level only.
            out.firstFailingTrefp.emplace(row.rowIndex, trefp);
        }
    }
    out.unflaggedRows = touched_rows - out.firstFailingTrefp.size();
    return out;
}

ProfileMismatch
RetentionProfiler::compare(const DeviceRetentionProfile &profile,
                           const workloads::WorkloadConfig &config,
                           Seconds trefp, int device_index)
{
    par::throwIfCancelled();
    ProfileMismatch mismatch;
    mismatch.flaggedRows = 0;
    for (const auto &[row, level] : profile.firstFailingTrefp)
        if (level <= trefp)
            ++mismatch.flaggedRows;

    std::uint64_t flagged_and_clean = mismatch.flaggedRows;
    for (const auto &row : rowsUnder(config, trefp, device_index)) {
        const bool app_error =
            row.ceLambda >= params_.detectionLambda;
        const auto it = profile.firstFailingTrefp.find(row.rowIndex);
        const bool flagged = it != profile.firstFailingTrefp.end() &&
                             it->second <= trefp;
        if (app_error) {
            ++mismatch.appErrorRows;
            if (!flagged)
                ++mismatch.missedByProfile;
        }
        if (flagged && app_error)
            --flagged_and_clean;
    }
    mismatch.falseAlarms = flagged_and_clean;
    return mismatch;
}

} // namespace dfault::core
