#include "core/error_integrator.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"
#include "obs/deferral.hh"
#include "obs/stats.hh"
#include "par/pool.hh"

namespace dfault::core {

namespace {

/** Pairs of cells per 72-bit ECC word. */
constexpr double kPairsPerWord = 72.0 * 71.0 / 2.0;
/** Triples of cells per 72-bit ECC word. */
constexpr double kTriplesPerWord = 72.0 * 71.0 * 70.0 / 6.0;
/** The paper's per-run allocation: 8 GiB of 64-bit words. */
constexpr double kPaperWords = 8.0 * 1024.0 * 1024.0 * 1024.0 / 8.0;
/** Cap on detailed records sampled into the error log per run. */
constexpr int kMaxLoggedRecords = 256;
/** Mixed into a run's seed to derive its record-sampling stream. */
constexpr std::uint64_t kLogStreamTag = 0x6c6f672d73747265ull; // "log-stre"

std::uint64_t
hashOperatingPoint(const dram::OperatingPoint &op)
{
    std::uint64_t h = 0x9e37;
    h = dfault::hashCombine(h, std::llround(op.trefp * 1e6));
    h = dfault::hashCombine(h, std::llround(op.vdd * 1e6));
    h = dfault::hashCombine(h, std::llround(op.temperature * 1e3));
    return h;
}

/** Paper-scale words emulated per profiled footprint word. */
double
exposureScale(const ErrorIntegrator::Params &params,
              const features::WorkloadProfile &profile)
{
    const double exposure_words =
        params.exposureWords > 0.0 ? params.exposureWords : kPaperWords;
    return exposure_words /
           static_cast<double>(
               std::max<std::uint64_t>(profile.footprintWords, 1));
}

/** Mean probability of a stored 1 over the 64 bit positions. */
double
meanBitOne(const features::WorkloadProfile &profile)
{
    double mean_p1 = 0.0;
    for (const double p : profile.bitOneProb)
        mean_p1 += p;
    return mean_p1 / 64.0;
}

/**
 * Index of the row with flat index @p target in @p rows, or rows.size()
 * if that row is untouched. @p rows is ascending by rowIndex. A victim's
 * physical neighbours are usually a few entries away from it in logical
 * order, so the search gallops outward from the victim's index @p from
 * (steps 1, 2, 4, ...) and finishes with a binary search of the last
 * step.
 */
std::size_t
findRow(const std::vector<features::RowStat> &rows, std::size_t from,
        std::uint64_t target)
{
    const std::size_t n = rows.size();
    std::size_t first = 0; // the target lies in [first, last)
    std::size_t last = n;
    std::size_t step = 1;
    if (rows[from].rowIndex < target) {
        first = from + 1;
        while (from + step < n && rows[from + step].rowIndex < target) {
            first = from + step + 1;
            step *= 2;
        }
        last = std::min(from + step + 1, n);
    } else {
        last = from + 1;
        while (step <= from && rows[from - step].rowIndex > target) {
            last = from - step;
            step *= 2;
        }
        first = step <= from ? from - step : 0;
    }
    const auto end = rows.begin() + static_cast<std::ptrdiff_t>(last);
    const auto it = std::lower_bound(
        rows.begin() + static_cast<std::ptrdiff_t>(first), end, target,
        [](const features::RowStat &row, std::uint64_t t) {
            return row.rowIndex < t;
        });
    return it != end && it->rowIndex == target
               ? static_cast<std::size_t>(it - rows.begin())
               : n;
}

/** Per-row terms shared by the run and the row analysis. */
struct RowTerms
{
    std::uint32_t phys = 0;      ///< physical row within its bank
    double suppression = 1.0;    ///< implicit-refresh factor
    double delta = 0.0;          ///< threshold widening from hammering
    double pDisturbed = 0.0;     ///< weak-cell probability under delta
};

/**
 * One device's touched rows at one operating point. What depends only
 * on the device and the operating point (the retention scale and the
 * undisturbed weak-cell probability) is computed once here, not per row.
 */
class DeviceRows
{
  public:
    DeviceRows(const std::vector<features::RowStat> &rows,
               const dram::OperatingPoint &op,
               const dram::Geometry &geometry,
               const dram::DramDevice &device,
               const dram::RetentionModel &retention,
               const dram::InterferenceModel &interference,
               double refresh_exponent)
        : rows_(rows), device_(device), retention_(retention),
          interference_(interference), trefp_(op.trefp),
          refreshExponent_(refresh_exponent),
          rowsPerBank_(geometry.params().rowsPerBank),
          rowMask_(rowsPerBank_ - 1),
          scale_(retention.effectiveScale(op, device.retentionScale())),
          pBase_(retention.weakProbabilityAtScale(op.trefp, scale_))
    {
        // findRow() relies on it (features/profile.hh).
        DFAULT_ASSERT(std::adjacent_find(rows.begin(), rows.end(),
                                         [](const auto &a, const auto &b) {
                                             return a.rowIndex >=
                                                    b.rowIndex;
                                         }) == rows.end(),
                      "profile rows of a device must be strictly "
                      "ascending by rowIndex");
    }

    /** Base retention leakage against the refresh period. */
    double pBase() const { return pBase_; }

    RowTerms
    terms(std::size_t i) const
    {
        const features::RowStat &row = rows_[i];
        RowTerms t;
        // Implicit refresh: a row the program re-accesses faster than
        // TREFP has its charge restored by the access stream itself.
        // The suppression is partial (see Params::accessRefreshExponent):
        // rows touched only once in the window get no implicit refresh.
        if (row.longestGap > 0.0 && row.longestGap < trefp_)
            t.suppression =
                std::pow(row.longestGap / trefp_, refreshExponent_);

        // Aggressor activity: activation rates of the two physically
        // adjacent rows in the same bank (after vendor row scrambling).
        // Geometry makes rowsPerBank a power of two: mask, not divide.
        const std::uint64_t bank_base = row.rowIndex & ~rowMask_;
        t.phys = device_.physicalRow(
            static_cast<std::uint32_t>(row.rowIndex & rowMask_));
        double aggressor_rate = 0.0;
        for (const std::int64_t d : {-1, +1}) {
            const std::int64_t neighbour_phys =
                static_cast<std::int64_t>(t.phys) + d;
            if (neighbour_phys < 0 ||
                neighbour_phys >= static_cast<std::int64_t>(rowsPerBank_))
                continue;
            const std::uint32_t neighbour_logical = device_.physicalRow(
                static_cast<std::uint32_t>(neighbour_phys));
            const std::size_t j =
                findRow(rows_, i, bank_base + neighbour_logical);
            if (j != rows_.size())
                aggressor_rate += rows_[j].activationRate;
        }
        t.delta = interference_.thresholdWidening(aggressor_rate, trefp_);

        // Near-threshold cells pushed over by neighbour disturbance. At
        // delta == 0 the window is trefp * 1.0 == trefp: p_base exactly.
        t.pDisturbed = t.delta > 0.0
                           ? retention_.weakProbabilityAtScale(
                                 trefp_ * (1.0 + t.delta), scale_)
                           : pBase_;
        return t;
    }

  private:
    const std::vector<features::RowStat> &rows_;
    const dram::DramDevice &device_;
    const dram::RetentionModel &retention_;
    const dram::InterferenceModel &interference_;
    const Seconds trefp_;
    const double refreshExponent_;
    const std::uint32_t rowsPerBank_;
    const std::uint64_t rowMask_;
    const double scale_;
    const double pBase_;
};

} // namespace

double
RunResult::wer() const
{
    if (allocatedWords <= 0.0)
        return 0.0;
    double total = 0.0;
    for (const double ce : cePerDevice)
        total += ce;
    return total / allocatedWords;
}

double
RunResult::werForDevice(int device) const
{
    const double words = wordsPerDevice.at(device);
    if (words <= 0.0)
        return 0.0;
    return cePerDevice.at(device) / words;
}

ErrorIntegrator::ErrorIntegrator() : ErrorIntegrator(Params{}) {}

ErrorIntegrator::ErrorIntegrator(const Params &params)
    : params_(params), retention_(params.retention), vrt_(params.vrt),
      interference_(params.interference)
{
    if (params_.epochs <= 0)
        DFAULT_FATAL("integrator: epoch count must be positive");
    if (params_.epochLength <= 0.0)
        DFAULT_FATAL("integrator: epoch length must be positive");
    firstActivation_.reserve(static_cast<std::size_t>(params_.epochs));
    for (int epoch = 1; epoch <= params_.epochs; ++epoch)
        firstActivation_.push_back(vrt_.firstActivationProbability(
            static_cast<std::uint64_t>(epoch)));
}

std::vector<RowIntensity>
ErrorIntegrator::analyzeRows(const features::WorkloadProfile &profile,
                             const dram::OperatingPoint &op,
                             const dram::Geometry &geometry,
                             const dram::DramDevice &device,
                             int device_index) const
{
    const auto &rows = profile.deviceRows.at(device_index);
    std::vector<RowIntensity> out;
    out.reserve(rows.size());
    if (rows.empty())
        return out;

    const double exposure_scale = exposureScale(params_, profile);
    const double mean_p1 = meanBitOne(profile);
    const DeviceRows device_rows(rows, op, geometry, device, retention_,
                                 interference_,
                                 params_.accessRefreshExponent);

    for (std::size_t i = 0; i < rows.size(); ++i) {
        const RowTerms t = device_rows.terms(i);
        RowIntensity info;
        info.rowIndex = rows[i].rowIndex;
        info.suppression = t.suppression;
        info.interferenceDelta = t.delta;
        const double v =
            params_.dataPatternVulnerability
                ? (device.rowIsTrueCell(t.phys) ? mean_p1
                                                : 1.0 - mean_p1)
                : 0.5;
        info.ceLambda = rows[i].touchedWords * exposure_scale *
                        units::totalBitsPerWord * t.pDisturbed *
                        info.suppression * v;
        out.push_back(info);
    }
    return out;
}

DeviceIntensity
ErrorIntegrator::computeIntensity(const features::WorkloadProfile &profile,
                                  const dram::OperatingPoint &op,
                                  const dram::Geometry &geometry,
                                  const dram::DramDevice &device,
                                  int device_index, double exposure_scale,
                                  bool collect_hot_rows) const
{
    DeviceIntensity out;
    const auto &rows = profile.deviceRows.at(device_index);
    if (rows.empty())
        return out;

    // Data-pattern vulnerability: the average fraction of stored bits in
    // the charged (leak-capable) state for each cell orientation.
    const double mean_p1 = meanBitOne(profile);
    const double v_true = mean_p1;        // true cells leak 1 -> 0
    const double v_anti = 1.0 - mean_p1;  // anti cells leak 0 -> 1

    const DeviceRows device_rows(rows, op, geometry, device, retention_,
                                 interference_,
                                 params_.accessRefreshExponent);
    const double p_base = device_rows.pBase();
    const double pi_active = vrt_.stationaryActiveFraction();
    double ue_per_epoch = 0.0;

    for (std::size_t i = 0; i < rows.size(); ++i) {
        const RowTerms t = device_rows.terms(i);
        const double p_weak = t.pDisturbed * t.suppression;
        if (p_weak <= 0.0)
            continue;

        const double v =
            params_.dataPatternVulnerability
                ? (device.rowIsTrueCell(t.phys) ? v_true : v_anti)
                : 0.5;
        const double p_cell = p_weak * v;
        if (p_cell <= 0.0)
            continue;

        const double words = rows[i].touchedWords * exposure_scale;
        const double lambda_ce =
            words * units::totalBitsPerWord * p_cell;
        const double p_active = p_cell * pi_active;
        // A double-bit word needs a second simultaneously-failing cell;
        // disturbance is a single-cell mechanism, so the partner cell
        // fails at the base retention rate (interference enters the
        // pair linearly, not squared). The partner is typically a cell
        // of a *cold* word of the row (implicit refresh is per-word
        // access, per-row restore is partial), so the pair carries one
        // suppression factor, not two.
        const double p_active_base = p_base * v * pi_active;

        out.ceLambda += lambda_ce;
        ue_per_epoch += words * kPairsPerWord * p_active *
                        p_active_base * params_.ueWordCoupling;
        out.sdcPerEpoch +=
            words * kTriplesPerWord * p_active * p_active_base *
            p_active_base;
        out.touchedWords += words;
        if (collect_hot_rows && lambda_ce > 0.0)
            out.hotRows.emplace_back(rows[i].rowIndex, lambda_ce);
    }
    out.pUePerEpoch = 1.0 - std::exp(-ue_per_epoch);

    // Keep only the heaviest rows for record sampling.
    std::sort(out.hotRows.begin(), out.hotRows.end(),
              [](const auto &a, const auto &b) {
                  return a.second > b.second;
              });
    if (out.hotRows.size() > 64)
        out.hotRows.resize(64);
    return out;
}

RunResult
ErrorIntegrator::run(const features::WorkloadProfile &profile,
                     const dram::OperatingPoint &op,
                     const dram::Geometry &geometry,
                     const std::vector<dram::DramDevice> &devices,
                     std::uint64_t run_seed, dram::ErrorLog *log) const
{
    // Hot rows only feed the error log's record sampling.
    return runEpochs(profile, op, geometry,
                     intensity(profile, op, geometry, devices,
                               log != nullptr),
                     run_seed, log);
}

std::vector<DeviceIntensity>
ErrorIntegrator::intensity(const features::WorkloadProfile &profile,
                           const dram::OperatingPoint &op,
                           const dram::Geometry &geometry,
                           const std::vector<dram::DramDevice> &devices,
                           bool hot_rows) const
{
    op.validate();
    DFAULT_ASSERT(static_cast<int>(devices.size()) ==
                      geometry.deviceCount(),
                  "device population does not match the geometry");
    DFAULT_ASSERT(profile.deviceRows.size() == devices.size(),
                  "profile does not match the device population");
    DFAULT_ASSERT(profile.footprintWords > 0,
                  "profile has an empty footprint");

    const double exposure_scale = exposureScale(params_, profile);
    const int n_dev = geometry.deviceCount();
    std::vector<DeviceIntensity> out;
    out.reserve(n_dev);
    for (int d = 0; d < n_dev; ++d)
        out.push_back(computeIntensity(profile, op, geometry, devices[d],
                                       d, exposure_scale, hot_rows));
    return out;
}

RunResult
ErrorIntegrator::runEpochs(const features::WorkloadProfile &profile,
                           const dram::OperatingPoint &op,
                           const dram::Geometry &geometry,
                           const std::vector<DeviceIntensity> &intensity,
                           std::uint64_t run_seed,
                           dram::ErrorLog *log) const
{
    const int n_dev = geometry.deviceCount();
    DFAULT_ASSERT(static_cast<int>(intensity.size()) == n_dev,
                  "intensities do not match the geometry");

    RunResult result;
    result.cePerDevice.assign(n_dev, 0.0);
    result.wordsPerDevice.resize(n_dev);
    for (int d = 0; d < n_dev; ++d)
        result.wordsPerDevice[d] = intensity[d].touchedWords;
    result.allocatedWords = static_cast<double>(profile.footprintWords) *
                            exposureScale(params_, profile);

    const std::uint64_t stream_seed = hashCombine(
        hashCombine(params_.seed, hashOperatingPoint(op)),
        hashCombine(run_seed, std::hash<std::string>{}(profile.label)));
    // CE, UE and crash outcomes draw from `rng`; record sampling for
    // the error log draws from its own stream, so attaching a log
    // leaves the run's result unchanged.
    Rng rng(stream_seed);
    Rng log_rng(hashCombine(stream_seed, kLogStreamTag));

    const std::uint32_t rows_per_bank = geometry.params().rowsPerBank;
    int logged = 0;

    for (int epoch = 1; epoch <= params_.epochs; ++epoch) {
        // Heartbeat contract: one beat per simulated epoch keeps the
        // watchdog's view of a healthy cell fresh even under sanitizer
        // slowdowns (no-op outside a pool task).
        par::heartbeat();
        const double first_act = firstActivation_[epoch - 1];

        for (int d = 0; d < n_dev; ++d) {
            const DeviceIntensity &dev_int = intensity[d];

            // New unique CE word locations discovered this epoch.
            const double lambda = dev_int.ceLambda * first_act;
            const std::uint64_t new_ce = rng.poisson(lambda);
            result.cePerDevice[d] += static_cast<double>(new_ce);

            // Sample a few concrete records through the real SECDED
            // codec for the error log.
            if (log != nullptr && new_ce > 0 &&
                logged < kMaxLoggedRecords &&
                !dev_int.hotRows.empty()) {
                const auto &hot = dev_int.hotRows[log_rng.uniformInt(
                    static_cast<std::uint64_t>(dev_int.hotRows.size()))];
                const std::uint64_t payload = log_rng.next();
                dram::Codeword word = ecc_.encode(payload);
                const int bit =
                    static_cast<int>(log_rng.uniformInt(std::uint64_t{72}));
                dram::EccSecded::flipBit(word, bit);
                const auto decode =
                    ecc_.decodeKnownFlips(word, 1, payload);
                DFAULT_ASSERT(decode.outcome ==
                                  dram::EccOutcome::Corrected,
                              "SECDED failed to correct a single flip");
                dram::ErrorRecord record;
                record.device = geometry.deviceAt(d);
                record.bank = static_cast<int>(hot.first / rows_per_bank);
                record.row = static_cast<std::uint32_t>(hot.first %
                                                        rows_per_bank);
                record.column = static_cast<std::uint32_t>(
                    log_rng.uniformInt(std::uint64_t{
                        geometry.params().wordsPerRow}));
                record.type = dram::ErrorType::CE;
                record.epoch = static_cast<std::uint64_t>(epoch);
                record.bitsFlipped = 1;
                log->report(record);
                ++logged;
            }

            // Uncorrectable errors crash the machine.
            if (!result.crashed && rng.bernoulli(dev_int.pUePerEpoch)) {
                result.crashed = true;
                result.crashEpoch = epoch;
                result.crashDevice = d;
                if (log != nullptr && !dev_int.hotRows.empty()) {
                    const auto &hot = dev_int.hotRows[0];
                    const std::uint64_t payload = log_rng.next();
                    dram::Codeword word = ecc_.encode(payload);
                    dram::EccSecded::flipBit(word, 3);
                    dram::EccSecded::flipBit(word, 47);
                    const auto decode =
                        ecc_.decodeKnownFlips(word, 2, payload);
                    DFAULT_ASSERT(
                        decode.outcome ==
                            dram::EccOutcome::Uncorrectable,
                        "SECDED failed to detect a double flip");
                    dram::ErrorRecord record;
                    record.device = geometry.deviceAt(d);
                    record.bank =
                        static_cast<int>(hot.first / rows_per_bank);
                    record.row = static_cast<std::uint32_t>(
                        hot.first % rows_per_bank);
                    record.column = 0;
                    record.type = dram::ErrorType::UE;
                    record.epoch = static_cast<std::uint64_t>(epoch);
                    record.bitsFlipped = 2;
                    log->report(record);
                }
            }

            result.expectedSdc += dev_int.sdcPerEpoch;
        }

        result.werSeries.push_back(result.wer());
        if (result.crashed)
            break;
    }

    // publish*() so campaign-cell deferrals (obs/deferral.hh) can
    // capture the run's stats transactionally; outside a deferral
    // these apply immediately, as before.
    obs::publishCounter("integrator.runs",
                        "characterization runs integrated");
    obs::publishCounter("integrator.epochs", "one-minute epochs simulated",
                        result.werSeries.size());
    double total_ce = 0.0;
    for (const double ce : result.cePerDevice)
        total_ce += ce;
    obs::publishCounter(
        "dram.ce_unique_words",
        "unique CE word locations (exposure-scaled)",
        static_cast<std::uint64_t>(std::llround(total_ce)));
    if (result.crashed)
        obs::publishCounter("dram.ue_crashes", "runs ended by a UE");
    obs::publishGaugeAdd("dram.sdc_expected",
                         "cumulative expected SDC events",
                         result.expectedSdc);

    return result;
}

} // namespace dfault::core
