/**
 * @file
 * Unit tests for the MCU model: open-page accounting, row statistics,
 * and channel bandwidth contention.
 */

#include <gtest/gtest.h>

#include "dram/controller.hh"

namespace dfault::dram {
namespace {

WordCoord
coordOn(int channel, int rank, int bank, std::uint32_t row,
        std::uint32_t col)
{
    WordCoord c;
    c.channel = channel;
    c.rank = rank;
    c.bank = bank;
    c.row = row;
    c.column = col;
    return c;
}

TEST(Mcu, RowHitAfterActivation)
{
    Geometry g;
    Mcu mcu(g, 0);
    const Cycles miss = mcu.access(coordOn(0, 0, 0, 5, 0), false, 1000);
    const Cycles hit = mcu.access(coordOn(0, 0, 0, 5, 1), false, 2000);
    EXPECT_GT(miss, hit);
    EXPECT_EQ(mcu.counters().rowMisses, 1u);
    EXPECT_EQ(mcu.counters().rowHits, 1u);
    EXPECT_EQ(mcu.counters().activations, 1u);
    EXPECT_EQ(mcu.counters().precharges, 0u);
}

TEST(Mcu, ConflictPrechargesAndReactivates)
{
    Geometry g;
    Mcu mcu(g, 0);
    mcu.access(coordOn(0, 0, 0, 5, 0), false, 1000);
    mcu.access(coordOn(0, 0, 0, 9, 0), false, 2000); // same bank, new row
    EXPECT_EQ(mcu.counters().precharges, 1u);
    EXPECT_EQ(mcu.counters().activations, 2u);
}

TEST(Mcu, BanksHaveIndependentOpenRows)
{
    Geometry g;
    Mcu mcu(g, 0);
    mcu.access(coordOn(0, 0, 0, 5, 0), false, 1000);
    mcu.access(coordOn(0, 0, 1, 7, 0), false, 2000); // other bank
    mcu.access(coordOn(0, 0, 0, 5, 1), false, 3000); // still open
    EXPECT_EQ(mcu.counters().rowHits, 1u);
}

TEST(Mcu, ReadWriteCounters)
{
    Geometry g;
    Mcu mcu(g, 0);
    mcu.access(coordOn(0, 0, 0, 1, 0), false, 1);
    mcu.access(coordOn(0, 0, 0, 1, 1), true, 2);
    mcu.access(coordOn(0, 0, 0, 1, 2), true, 3);
    EXPECT_EQ(mcu.counters().readCmds, 1u);
    EXPECT_EQ(mcu.counters().writeCmds, 2u);
    EXPECT_EQ(mcu.counters().totalCmds(), 3u);
}

TEST(Mcu, RowActivityTracksAccessesAndColumns)
{
    Geometry g;
    Mcu mcu(g, 0);
    mcu.access(coordOn(0, 1, 2, 10, 3), false, 100);
    mcu.access(coordOn(0, 1, 2, 10, 3), false, 200);
    mcu.access(coordOn(0, 1, 2, 10, 4), true, 300);

    WordCoord c = coordOn(0, 1, 2, 10, 0);
    const auto &row = mcu.rowActivity(1).at(g.rowIndex(c));
    EXPECT_EQ(row.accesses, 3u);
    EXPECT_EQ(row.activations, 1u);
    EXPECT_EQ(row.firstCycle, 100u);
    EXPECT_EQ(row.lastCycle, 300u);
    EXPECT_EQ(row.touchedWords(), 8); // full 64 B line
    EXPECT_DOUBLE_EQ(row.meanIntervalCycles(), 100.0);
}

TEST(Mcu, ChannelContentionQueuesBackToBackAccesses)
{
    Geometry g;
    Mcu::Params p;
    p.burstCycles = 50;
    Mcu mcu(g, 0, p);
    // Two accesses at the same cycle: the second queues behind the
    // first's burst occupancy.
    const Cycles first = mcu.access(coordOn(0, 0, 0, 1, 0), false, 0);
    const Cycles second = mcu.access(coordOn(0, 0, 0, 1, 1), false, 0);
    EXPECT_GE(second, first - p.rowMissLatency + p.rowHitLatency + 50 -
                          1); // queued at least one burst
    EXPECT_GT(second, mcu.access(coordOn(0, 0, 0, 1, 2), false,
                                 1000000)); // idle channel is faster
}

TEST(Mcu, NoContentionWhenSpacedOut)
{
    Geometry g;
    Mcu::Params p;
    Mcu mcu(g, 0, p);
    const Cycles a = mcu.access(coordOn(0, 0, 0, 1, 0), false, 0);
    // Far in the future: channel long since free.
    const Cycles b = mcu.access(coordOn(0, 0, 0, 1, 1), false, 100000);
    EXPECT_EQ(b, p.queuePenalty + p.rowHitLatency);
    EXPECT_EQ(a, p.queuePenalty + p.rowMissLatency);
}

TEST(Mcu, ResetClearsEverything)
{
    Geometry g;
    Mcu mcu(g, 0);
    mcu.access(coordOn(0, 0, 0, 1, 0), true, 10);
    mcu.reset();
    EXPECT_EQ(mcu.counters().totalCmds(), 0u);
    EXPECT_EQ(mcu.rowActivity(0)[g.rowIndex(coordOn(0, 0, 0, 1, 0))]
                  .accesses,
              0u);
    // After reset the bank is precharged again -> first access misses.
    mcu.access(coordOn(0, 0, 0, 1, 0), false, 20);
    EXPECT_EQ(mcu.counters().rowMisses, 1u);
}

TEST(McuDeath, WrongChannelPanics)
{
    Geometry g;
    Mcu mcu(g, 0);
    EXPECT_DEATH(mcu.access(coordOn(1, 0, 0, 1, 0), false, 0),
                 "wrong MCU");
}

TEST(RowActivity, TouchLineFoldsBeyond128)
{
    RowActivity row;
    row.touchLine(0);
    row.touchLine(133); // line 128..135 folds onto line 0..7
    EXPECT_EQ(row.touchedWords(), 8);
    row.touchLine(127); // line 120..127: the high half's last byte
    EXPECT_EQ(row.touchedWords(), 16);
    EXPECT_EQ(row.wordMaskLo, 0xffULL);
    EXPECT_EQ(row.wordMaskHi, 0xffULL << 56);
    row.touchLine(64 + 3); // line 64..71: the high half's first byte
    EXPECT_EQ(row.wordMaskHi, (0xffULL << 56) | 0xffULL);
}

} // namespace
} // namespace dfault::dram
