#include "dram/controller.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace dfault::dram {

double
RowActivity::meanIntervalCycles() const
{
    if (accesses < 2)
        return 0.0;
    return static_cast<double>(lastCycle - firstCycle) /
           static_cast<double>(accesses - 1);
}

int
RowActivity::touchedWords() const
{
    return std::popcount(wordMaskLo) + std::popcount(wordMaskHi);
}

void
RowActivity::touchLine(std::uint32_t column)
{
    // The line's first word, folded mod 128, is a multiple of 8, so
    // all eight words land in the same half of the bitmap.
    const std::uint32_t folded = column & 120u;
    const std::uint64_t line_mask = 0xffULL << (folded & 63u);
    if (folded < 64)
        wordMaskLo |= line_mask;
    else
        wordMaskHi |= line_mask;
}

Mcu::Mcu(const Geometry &geometry, int channel)
    : Mcu(geometry, channel, Params{})
{
}

Mcu::Mcu(const Geometry &geometry, int channel, const Params &params)
    : geometry_(geometry), channel_(channel), params_(params)
{
    DFAULT_ASSERT(channel >= 0 && channel < geometry.params().channels,
                  "MCU channel out of range");
    const auto &g = geometry_.params();
    openRow_.assign(static_cast<std::size_t>(g.ranksPerDimm) *
                        g.banksPerRank, -1);
    rows_.resize(g.ranksPerDimm);
    for (auto &rank_rows : rows_)
        rank_rows.resize(geometry_.rowsPerDevice());
}

Cycles
Mcu::access(const WordCoord &coord, bool is_write, Cycles cycle)
{
    DFAULT_ASSERT(coord.channel == channel_, "access routed to wrong MCU");

    const auto &g = geometry_.params();
    const std::size_t bank_slot =
        static_cast<std::size_t>(coord.rank) * g.banksPerRank + coord.bank;
    const auto row_id = static_cast<std::int64_t>(coord.row);

    // Channel contention: commands serialize on the channel's data bus.
    const Cycles start = std::max(cycle, busyUntil_);
    busyUntil_ = start + params_.burstCycles;
    Cycles latency = params_.queuePenalty + (start - cycle);
    const bool hit = openRow_[bank_slot] == row_id;

    RowActivity &row = rows_[coord.rank][geometry_.rowIndex(coord)];
    if (hit) {
        ++counters_.rowHits;
        latency += params_.rowHitLatency;
    } else {
        ++counters_.rowMisses;
        if (openRow_[bank_slot] >= 0)
            ++counters_.precharges;
        ++counters_.activations;
        ++row.activations;
        openRow_[bank_slot] = row_id;
        latency += params_.rowMissLatency;
    }

    if (is_write)
        ++counters_.writeCmds;
    else
        ++counters_.readCmds;

    if (row.accesses == 0) {
        row.firstCycle = cycle;
    } else if (cycle > row.lastCycle) {
        // Thread clocks are only loosely synchronized; count forward
        // gaps only.
        row.maxGapCycles = std::max(row.maxGapCycles,
                                    cycle - row.lastCycle);
    }
    row.lastCycle = std::max(row.lastCycle, cycle);
    ++row.accesses;
    // A CAS transfers the full 64 B line: all eight words of the line
    // hold application data and count as touched.
    row.touchLine(coord.column);

    return latency;
}

const std::vector<RowActivity> &
Mcu::rowActivity(int rank) const
{
    DFAULT_ASSERT(rank >= 0 &&
                  rank < static_cast<int>(rows_.size()),
                  "rank out of range");
    return rows_[rank];
}

void
Mcu::reset()
{
    counters_ = McuCounters{};
    busyUntil_ = 0;
    std::fill(openRow_.begin(), openRow_.end(), -1);
    for (auto &rank_rows : rows_)
        std::fill(rank_rows.begin(), rank_rows.end(), RowActivity{});
}

} // namespace dfault::dram
