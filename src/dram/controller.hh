/**
 * @file
 * Memory Controller Unit (MCU) model.
 *
 * Command-level accounting of one DDR3 channel, matching what the paper
 * extracts from the X-Gene2 performance counters: read/write commands
 * issued per MCU, row-buffer hits/misses, activations. The controller
 * also maintains per-row access statistics (activation counts and mean
 * inter-access intervals) which the error integrator uses to compute
 * each row's effective refresh interval and its neighbours' aggressor
 * activity.
 *
 * An open-page policy is modelled: an access to the open row of a bank
 * is a row hit; any other access precharges and activates (row miss).
 */

#ifndef DFAULT_DRAM_CONTROLLER_HH
#define DFAULT_DRAM_CONTROLLER_HH

#include <cstdint>
#include <vector>

#include "dram/geometry.hh"

namespace dfault::dram {

/** Cumulative activity of one DRAM row during a profiled run. */
struct RowActivity
{
    std::uint64_t accesses = 0;   ///< CAS commands touching the row.
    std::uint64_t activations = 0;///< ACT commands opening the row.
    Cycles firstCycle = 0;
    Cycles lastCycle = 0;
    /**
     * Longest observed stretch of cycles without an access to this
     * row: the window in which stored charge decays unrefreshed. A
     * burst-averaged interval would wildly overstate the implicit-
     * refresh effect for bursty access patterns.
     */
    Cycles maxGapCycles = 0;
    /** 128-bit column-touch bitmap (columns folded mod 128). */
    std::uint64_t wordMaskLo = 0;
    std::uint64_t wordMaskHi = 0;

    /** Mean time between accesses in cycles; 0 if fewer than 2. */
    double meanIntervalCycles() const;

    /** Distinct columns touched (exact for <=128 words/row). */
    int touchedWords() const;

    /**
     * Record a CAS to the 64 B line holding @p column: its eight
     * words count as touched.
     */
    void touchLine(std::uint32_t column);
};

/** Aggregate MCU counters (exported as program features). */
struct McuCounters
{
    std::uint64_t readCmds = 0;
    std::uint64_t writeCmds = 0;
    std::uint64_t activations = 0;
    std::uint64_t precharges = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;

    std::uint64_t totalCmds() const { return readCmds + writeCmds; }
};

/**
 * One memory channel: latency model, counters and per-row statistics
 * for the two ranks behind it.
 */
class Mcu
{
  public:
    struct Params
    {
        Cycles rowHitLatency = 36;   ///< CPU cycles, ~15 ns at 2.4 GHz
        Cycles rowMissLatency = 108; ///< CPU cycles, ~45 ns
        Cycles queuePenalty = 8;     ///< fixed controller overhead
        /**
         * Channel occupancy per command (64 B burst at DDR3-1866 is
         * ~4.3 ns ~ 10 CPU cycles): concurrent threads queue behind
         * each other, bounding per-channel bandwidth -- this is what
         * limits the parallel speedup of memory-bound kernels.
         */
        Cycles burstCycles = 10;
    };

    Mcu(const Geometry &geometry, int channel, const Params &params);
    Mcu(const Geometry &geometry, int channel);

    int channel() const { return channel_; }
    const McuCounters &counters() const { return counters_; }

    /**
     * Issue one DRAM access (a cache miss or writeback reaching memory).
     *
     * @param coord decoded word coordinate; must be on this channel
     * @param is_write true for a write command
     * @param cycle current CPU cycle
     * @return access latency in CPU cycles
     */
    Cycles access(const WordCoord &coord, bool is_write, Cycles cycle);

    /** Per-row activity for one rank of this channel. */
    const std::vector<RowActivity> &rowActivity(int rank) const;

    /** Reset counters and row statistics. */
    void reset();

  private:
    const Geometry &geometry_;
    int channel_;
    Params params_;
    McuCounters counters_;
    /** Open row per (rank, bank); -1 when the bank is precharged. */
    std::vector<std::int64_t> openRow_;
    /** Cycle at which the channel becomes free again. */
    Cycles busyUntil_ = 0;
    /** Row statistics per rank, indexed by Geometry::rowIndex(). */
    std::vector<std::vector<RowActivity>> rows_;
};

} // namespace dfault::dram

#endif // DFAULT_DRAM_CONTROLLER_HH
