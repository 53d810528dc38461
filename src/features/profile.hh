/**
 * @file
 * Workload profile: everything the "Profiling phase" (paper Fig 3)
 * learns about one benchmark configuration.
 *
 * A profile combines the 249 program features (the ML model inputs)
 * with the physical DRAM activity statistics (per-row access and
 * activation rates) that the error integrator needs for the
 * characterization phase. Profiles depend only on the program and the
 * platform, never on the DRAM operating point, so one profile serves
 * every (TREFP, VDD, temperature) combination of a campaign.
 */

#ifndef DFAULT_FEATURES_PROFILE_HH
#define DFAULT_FEATURES_PROFILE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"
#include "features/catalog.hh"

namespace dfault::features {

/** Steady-state DRAM activity of one touched row. */
struct RowStat
{
    std::uint64_t rowIndex = 0;     ///< flat row index within the device
    double accessRate = 0.0;        ///< CAS commands per second
    double activationRate = 0.0;    ///< ACT commands per second
    /** Longest unaccessed stretch (charge-decay window); 0 if <2 accesses. */
    Seconds longestGap = 0.0;
    int touchedWords = 0;           ///< distinct columns referenced
};

/** See file comment. */
struct WorkloadProfile
{
    std::string label;
    int threads = 0;

    /** Program features (model inputs). */
    FeatureVector features;

    /** Profile window wall-clock time (dilated seconds). */
    Seconds wallSeconds = 0.0;

    /** 64-bit words allocated (MEMSIZE in paper Eq. 2). */
    std::uint64_t footprintWords = 0;

    /** Average DRAM reuse time in seconds (Table II). */
    Seconds treuse = 0.0;

    /** Data-pattern entropy in bits (Eq. 5). */
    double entropy = 0.0;

    /** Per-bit-position probability of a written 1. */
    std::array<double, 64> bitOneProb{};

    /**
     * Touched-row statistics, indexed by device index. Each device's
     * rows are strictly ascending by rowIndex (extractProfile emits
     * them in that order); the error integrator's neighbour lookup
     * relies on it and asserts it.
     */
    std::vector<std::vector<RowStat>> deviceRows;
};

} // namespace dfault::features

#endif // DFAULT_FEATURES_PROFILE_HH
