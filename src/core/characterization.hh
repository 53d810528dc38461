/**
 * @file
 * Characterization campaign: the paper's data-collection phase (Fig 3).
 *
 * A campaign couples the simulated platform (the "server"), the profile
 * cache (the profiling phase) and the error integrator (the 2-hour
 * characterization runs). Before each measurement the thermal testbed's
 * PID loop drives the DIMM heaters to the requested temperature and the
 * *achieved* temperature is what the DRAM experiences — exactly the
 * physical loop of the paper's testbed.
 */

#ifndef DFAULT_CORE_CHARACTERIZATION_HH
#define DFAULT_CORE_CHARACTERIZATION_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/error_integrator.hh"
#include "features/extractor.hh"
#include "sys/platform.hh"
#include "workloads/registry.hh"

namespace dfault::core {

class CheckpointJournal;

/** One characterization experiment: workload x operating point. */
struct Measurement
{
    std::string label;
    int threads = 0;
    dram::OperatingPoint requested; ///< configured operating point
    dram::OperatingPoint achieved;  ///< after the thermal control loop
    RunResult run;
    const features::WorkloadProfile *profile = nullptr; ///< cache-owned
    /** Slot failed every attempt of a degrade-and-report sweep; run
     *  is empty and failure holds the final error. */
    bool quarantined = false;
    /** Slot was skipped (or stopped) by cooperative cancellation; run
     *  is empty, failure holds the cancel reason. Unlike quarantine
     *  this is not a failure: the cell is neither journaled nor
     *  reported, so a resumed sweep re-measures it. */
    bool cancelled = false;
    std::string failure;
};

/** See file comment. */
class CharacterizationCampaign
{
  public:
    struct Params
    {
        workloads::Workload::Params workload;
        ErrorIntegrator::Params integrator;
        /** Drive the PID thermal loop (false: temperatures are ideal). */
        bool useThermalLoop = true;
        /** Retries granted to a failing sweep cell or PUE repeat.
         *  Results are attempt-independent (the measurement seed never
         *  depends on the attempt), so a recovered retry is
         *  bit-identical to a first-try success. */
        int taskRetries = 2;
        /** true: a cell that exhausts its retries aborts the sweep
         *  with par::BatchError (after siblings drain). false: the
         *  cell is quarantined into the returned Measurement and
         *  lastQuarantine(). */
        bool failFast = false;
        /** Non-empty: journal completed sweep cells here and resume
         *  from any found on the next run (see core/checkpoint.hh). */
        std::string checkpointDir;
    };

    /** One sweep cell that failed all its attempts. */
    struct QuarantineEntry
    {
        std::size_t cell = 0;
        std::string label; ///< workload label
        std::string op;    ///< operating point label
        int attempts = 0;
        std::string error;
    };

    CharacterizationCampaign(sys::Platform &platform,
                             const Params &params);
    explicit CharacterizationCampaign(sys::Platform &platform);

    /**
     * Run one experiment: profile (cached), heat the DIMMs from a
     * reset testbed, integrate errors over the 2-hour window. The
     * testbed reset makes every measurement independent of campaign
     * history, which is what allows sweeps to run in any order — or
     * in parallel — with identical results. Runs the cell body on
     * the calling thread, outside the pool. The seed-independent part
     * of the integration (ErrorIntegrator::intensity) is computed once
     * per (profile, achieved operating point) per campaign; later run
     * seeds of the cell only draw the epochs.
     *
     * @param run_seed distinguishes repeats of the same experiment
     * @param log optional destination for sampled error records
     */
    Measurement measure(const workloads::WorkloadConfig &config,
                        const dram::OperatingPoint &op,
                        std::uint64_t run_seed = 0,
                        dram::ErrorLog *log = nullptr);

    /**
     * Full sweep: every workload at every operating point, fanned out
     * over the global par::Pool. Worker slots measure on per-slot
     * platform replicas (Platform::clone); results are committed in
     * (workload, point) order, so the returned vector is bit-identical
     * for any DFAULT_THREADS.
     *
     * Execution is resilient: a throwing cell is retried
     * params_.taskRetries times, then (unless failFast) quarantined —
     * its Measurement comes back with quarantined set and siblings
     * are unaffected. With params_.checkpointDir set, completed cells
     * are journaled and a re-run resumes from them (file comment of
     * core/checkpoint.hh).
     *
     * Cancellation (par::cancel(), e.g. from a signal) drains the
     * sweep gracefully: in-flight cells finish or stop at their next
     * heartbeat, queued cells come back with Measurement.cancelled set
     * (distinct from quarantined — not journaled, not reported), and
     * a later resume re-measures exactly the missing cells, reaching a
     * stats digest bit-identical to an uninterrupted sweep.
     */
    std::vector<Measurement>
    sweep(const std::vector<workloads::WorkloadConfig> &suite,
          const std::vector<dram::OperatingPoint> &points);

    /** Cells quarantined by the most recent sweep(), in cell order. */
    const std::vector<QuarantineEntry> &lastQuarantine() const
    {
        return lastQuarantine_;
    }

    /**
     * Probability of a UE for every sweep() cell of suite x points
     * from @p repeats runs each, seeded 1..repeats (paper Eq. 3:
     * crashes / experiments). Repeats retry like sweep cells but fail
     * fast (par::BatchError): a quarantined repeat would bias the
     * fraction. Stats reach the registry in (cell, repeat) order.
     */
    std::vector<double>
    measurePue(const std::vector<workloads::WorkloadConfig> &suite,
               const std::vector<dram::OperatingPoint> &points,
               int repeats);

    sys::Platform &platform() { return platform_; }
    const ErrorIntegrator &integrator() const { return integrator_; }
    const Params &params() const { return params_; }

  private:
    /** A workload at an operating point under a run seed. */
    struct Cell
    {
        const workloads::WorkloadConfig *config = nullptr;
        const dram::OperatingPoint *op = nullptr;
        std::uint64_t runSeed = 0;
    };

    /**
     * The batch behind sweep() and measurePue(): profile, then measure
     * every cell on the pool with retries, applying each cell's stats
     * in cell order. Failed cells throw par::BatchError if @p fail_fast,
     * else return quarantined; cancelled cells return cancelled. An
     * open @p journal replays the cells it holds and stores the rest.
     */
    std::vector<Measurement>
    measureCells(const std::vector<Cell> &cells, bool fail_fast,
                 const CheckpointJournal *journal);

    /** The cell body, on the campaign's platform or a worker replica.
     *  @p attempt keys the fault schedule only, never the result. */
    Measurement measureCell(sys::Platform &platform, const Cell &cell,
                            int attempt, dram::ErrorLog *log);

    /** The calling slot's platform: the campaign's own on the
     *  submitting thread, a lazily-built replica on pool workers. */
    sys::Platform &slotPlatform();

    /**
     * Exact key of one (profile, achieved operating point): the cached
     * profile's address and the bit patterns of the achieved TREFP,
     * VDD and temperature, so no two distinct points share an entry.
     */
    struct IntensityKey
    {
        std::uintptr_t profile = 0;
        std::uint64_t trefp = 0;
        std::uint64_t vdd = 0;
        std::uint64_t temperature = 0;
        auto operator<=>(const IntensityKey &) const = default;
    };

    struct IntensityEntry
    {
        std::once_flag once;
        std::vector<DeviceIntensity> devices;
    };

    /**
     * The device intensities of @p profile at @p achieved, computed on
     * @p platform's devices by the first caller and shared by every
     * later run seed. All platforms of a campaign (its own and the
     * replicas) carry the same devices, and the integrator's params
     * are fixed, so an entry depends on its key alone.
     */
    std::shared_ptr<const IntensityEntry>
    intensityFor(const sys::Platform &platform,
                 const features::WorkloadProfile &profile,
                 const dram::OperatingPoint &achieved);

    sys::Platform &platform_;
    Params params_;
    ErrorIntegrator integrator_;
    /** Per-slot platform replicas, grown to the pool's slot count by
     *  each batch (index 0 unused: that is platform_). */
    std::vector<std::unique_ptr<sys::Platform>> replicas_;
    std::vector<QuarantineEntry> lastQuarantine_;

    /** Guards intensities_ and intensityGeneration_ (not the entries,
     *  which fill under their own once_flag). */
    std::mutex intensityMutex_;
    std::map<IntensityKey, std::shared_ptr<IntensityEntry>> intensities_;
    /** ProfileCache::generation() the keys' profile addresses are from. */
    std::uint64_t intensityGeneration_ = 0;
};

/** The WER study's operating points: Fig 7's TREFP x temperature grid
 *  (70 C only at the two TREFP levels that do not crash; paper §V-B). */
std::vector<dram::OperatingPoint> werOperatingPoints();

/** The PUE study's operating points (Fig 9): 70 C, three TREFP levels. */
std::vector<dram::OperatingPoint> pueOperatingPoints();

} // namespace dfault::core

#endif // DFAULT_CORE_CHARACTERIZATION_HH
