/**
 * @file
 * The DRAM error-manifestation engine (DESIGN.md §5).
 *
 * Given a workload profile (per-row access statistics + data pattern)
 * and an operating point, the integrator evolves the 2-hour
 * characterization run in one-minute epochs:
 *
 *  - each touched row has an effective refresh interval
 *    Teff = min(TREFP, mean inter-access time): accesses implicitly
 *    refresh the row (paper §II-C);
 *  - the retention model gives the probability that a cell leaks within
 *    Teff under the operating point and the device's variation scale;
 *  - aggressor activations of physically adjacent rows widen the
 *    failing threshold (cell-to-cell interference / row hammer);
 *  - the true-/anti-cell orientation gates failures on the stored data
 *    (a cell only flips if it holds the charged state), coupling the
 *    workload's bit-level data pattern into the error rate;
 *  - variable retention time (VRT) toggles weak cells between failing
 *    and quiet states across epochs: the unique-location WER grows over
 *    the run and converges (Figs 2/4), and repeat runs differ;
 *  - manifested flips are pushed through the SECDED codec: single flips
 *    are CEs, double flips are UEs and crash the machine, triples may
 *    be silently miscorrected (SDC).
 *
 * Counting runs at "paper scale": expected counts are multiplied by
 * exposureScale so that absolute-count statistics (UE probability) are
 * computed as if the workload had allocated the paper's 8 GB footprint
 * (DESIGN.md §4); WER, a density, is invariant to this.
 */

#ifndef DFAULT_CORE_ERROR_INTEGRATOR_HH
#define DFAULT_CORE_ERROR_INTEGRATOR_HH

#include <cstdint>
#include <vector>

#include "dram/device.hh"
#include "dram/ecc.hh"
#include "dram/error_log.hh"
#include "dram/interference.hh"
#include "dram/operating_point.hh"
#include "dram/retention.hh"
#include "dram/vrt.hh"
#include "features/profile.hh"

namespace dfault::core {

/** Result of one simulated characterization run. */
struct RunResult
{
    /** Aggregate WER (unique CE words / allocated words) per epoch. */
    std::vector<double> werSeries;

    /** Final unique CE word count per device (exposure-scaled). */
    std::vector<double> cePerDevice;

    /** Words of the workload footprint on each device (scaled). */
    std::vector<double> wordsPerDevice;

    /** True if a UE crashed the run. */
    bool crashed = false;

    /** Epoch of the crash (meaningless unless crashed). */
    int crashEpoch = -1;

    /** Device that triggered the crash (index; -1 if none). */
    int crashDevice = -1;

    /** Expected SDC events (miscorrections); ~0 in the paper's regime. */
    double expectedSdc = 0.0;

    /** Scaled MEMSIZE: allocated words x exposure scale (WER denominator). */
    double allocatedWords = 0.0;

    /** Final aggregate WER. */
    double wer() const;

    /** Final WER of one device. */
    double werForDevice(int device) const;
};

/** Per-row failure intensity, for retention-profiling analyses. */
struct RowIntensity
{
    std::uint64_t rowIndex = 0;   ///< flat row index within the device
    double ceLambda = 0.0;        ///< expected failing cells (scaled)
    double suppression = 1.0;     ///< implicit-refresh factor applied
    double interferenceDelta = 0.0; ///< threshold widening from hammering
};

/**
 * One device's seed-independent failure intensities under one
 * operating point: the per-row pass of a run, before any draw.
 */
struct DeviceIntensity
{
    double ceLambda = 0.0;     ///< expected failing cells (scaled)
    double pUePerEpoch = 0.0;  ///< P(a UE word) per epoch
    double sdcPerEpoch = 0.0;  ///< expected >=3-flip words per epoch
    double touchedWords = 0.0; ///< scaled words on this device
    /**
     * The heaviest rows, for record sampling into an error log;
     * empty unless intensity() was asked to collect them.
     */
    std::vector<std::pair<std::uint64_t, double>> hotRows;
};

/** See file comment. */
class ErrorIntegrator
{
  public:
    struct Params
    {
        Seconds epochLength = 60.0;
        int epochs = 120; ///< the paper's 2-hour runs
        /**
         * Footprint words emulated for absolute counts; <= 0 selects
         * the paper's 8 GiB. The scale factor applied per run is
         * exposureWords / footprintWords.
         */
        double exposureWords = -1.0;
        /**
         * Exponent of the implicit-refresh suppression factor
         * (mean inter-access time / TREFP)^exponent applied to rows the
         * workload re-accesses faster than the refresh period. Accesses
         * restore charge, but bursty schedules, VRT and scheduling gaps
         * keep the suppression partial (the paper finds the reuse time
         * only weakly anti-correlated with WER, rs ~ 0.23).
         */
        double accessRefreshExponent = 0.8;
        /**
         * Gate failures on the stored data vs the cell orientation
         * (true-/anti-cell). Disable for ablation studies: every cell
         * is then treated as half-vulnerable regardless of content.
         */
        bool dataPatternVulnerability = true;
        /**
         * Fraction of weak-cell pairs sharing an ECC word that
         * co-manifest within one refresh window. Two independently
         * decaying cells rarely cross their thresholds in the same
         * window, so a UE needs more than two nominally-weak cells in
         * a word (calibrated against paper Fig 9a: mean PUE < 0.4 at
         * TREFP = 1.45 s / 70 C, zero UEs at or below 60 C).
         */
        double ueWordCoupling = 0.0015;
        dram::RetentionModel::Params retention;
        dram::VrtModel::Params vrt;
        dram::InterferenceModel::Params interference;
        std::uint64_t seed = 0x5eed;
    };

    ErrorIntegrator();
    explicit ErrorIntegrator(const Params &params);

    const Params &params() const { return params_; }

    /**
     * Simulate one characterization run of @p profile at @p op on the
     * device population @p devices.
     *
     * @param run_seed distinguishes repeat runs of the same experiment
     *        (paper repeats each PUE experiment 10 times)
     * @param log optional error log receiving sampled error records;
     *        sampling draws from its own random stream, so the
     *        returned RunResult is the same with or without a log
     */
    RunResult run(const features::WorkloadProfile &profile,
                  const dram::OperatingPoint &op,
                  const dram::Geometry &geometry,
                  const std::vector<dram::DramDevice> &devices,
                  std::uint64_t run_seed = 0,
                  dram::ErrorLog *log = nullptr) const;

    /**
     * The seed-independent stage of run(): each device's failure
     * intensities for @p profile at @p op. Repeats of one experiment
     * (run seeds, PUE repeats) share it; the characterization campaign
     * computes it once per (profile, operating point).
     *
     * @param hot_rows also collect each device's heaviest rows, which
     *        only a run with an error log samples
     */
    std::vector<DeviceIntensity>
    intensity(const features::WorkloadProfile &profile,
              const dram::OperatingPoint &op,
              const dram::Geometry &geometry,
              const std::vector<dram::DramDevice> &devices,
              bool hot_rows = false) const;

    /**
     * The seeded stage of run(): the epoch loop's CE, UE and record
     * draws from @p intensity, as intensity() returned it for the same
     * @p profile, @p op and @p geometry. run() is exactly
     * runEpochs(intensity(...), ...). A @p log receives records only
     * from intensities computed with hot_rows.
     */
    RunResult runEpochs(const features::WorkloadProfile &profile,
                        const dram::OperatingPoint &op,
                        const dram::Geometry &geometry,
                        const std::vector<DeviceIntensity> &intensity,
                        std::uint64_t run_seed = 0,
                        dram::ErrorLog *log = nullptr) const;

    /**
     * Per-row expected failure intensities of one device under @p op —
     * the analysis view behind retention profiling (which rows would a
     * characterization flag?) and row-level risk tooling. Only touched
     * rows appear; ordering follows the profile's row list.
     */
    std::vector<RowIntensity>
    analyzeRows(const features::WorkloadProfile &profile,
                const dram::OperatingPoint &op,
                const dram::Geometry &geometry,
                const dram::DramDevice &device, int device_index) const;

  private:
    Params params_;
    dram::RetentionModel retention_;
    dram::VrtModel vrt_;
    dram::InterferenceModel interference_;
    dram::EccSecded ecc_;

    /** VrtModel::firstActivationProbability of epoch e at [e - 1],
     *  for every epoch of a run (it depends on nothing else). */
    std::vector<double> firstActivation_;

    DeviceIntensity
    computeIntensity(const features::WorkloadProfile &profile,
                     const dram::OperatingPoint &op,
                     const dram::Geometry &geometry,
                     const dram::DramDevice &device, int device_index,
                     double exposure_scale, bool collect_hot_rows) const;
};

} // namespace dfault::core

#endif // DFAULT_CORE_ERROR_INTEGRATOR_HH
