/**
 * @file
 * Tests for the DRAM energy model: component accounting and the
 * relative relationships the paper's motivation rests on.
 */

#include <gtest/gtest.h>

#include <utility>

#include "dram/energy.hpp"

namespace cop {
namespace {

DramStats
someStats()
{
    DramStats s;
    s.reads = 1000;
    s.writes = 400;
    s.rowMisses = 500;
    s.rowConflicts = 200;
    s.rowHits = 700;
    return s;
}

TEST(Energy, ComponentsSumToTotal)
{
    const DramEnergyModel model;
    const DramEnergyReport r = model.evaluate(someStats(), 1000000, 8);
    EXPECT_NEAR(r.totalMj(), r.activateMj + r.readMj + r.writeMj +
                                 r.ioMj + r.backgroundMj,
                1e-12);
    EXPECT_GT(r.totalMj(), 0.0);
}

TEST(Energy, EccDimmCostsOneNinthMore)
{
    // Same traffic, 9 chips instead of 8: dynamic and background scale
    // by exactly 9/8 (I/O too: 72 bits per beat vs 64).
    const DramEnergyModel model;
    const DramStats stats = someStats();
    const DramEnergyReport e8 = model.evaluate(stats, 1000000, 8);
    const DramEnergyReport e9 = model.evaluate(stats, 1000000, 9);
    EXPECT_NEAR(e9.totalMj() / e8.totalMj(), 9.0 / 8.0, 1e-9);
}

TEST(Energy, MoreAccessesMoreEnergy)
{
    const DramEnergyModel model;
    DramStats more = someStats();
    more.reads *= 2;
    more.rowMisses *= 2;
    const DramEnergyReport base =
        model.evaluate(someStats(), 1000000, 8);
    const DramEnergyReport doubled = model.evaluate(more, 1000000, 8);
    EXPECT_GT(doubled.totalMj(), base.totalMj());
    EXPECT_NEAR(doubled.readMj, 2 * base.readMj, 1e-12);
    EXPECT_DOUBLE_EQ(doubled.writeMj, base.writeMj);
}

TEST(Energy, IoEnergyCountsEveryBurstAlike)
{
    // Every access is one full burst on the bus: I/O energy follows
    // reads + writes, whichever direction they go.
    const DramEnergyModel model;
    DramStats swapped = someStats();
    std::swap(swapped.reads, swapped.writes);
    DramStats doubled = someStats();
    doubled.reads *= 2;
    doubled.writes *= 2;
    const DramEnergyReport base = model.evaluate(someStats(), 1000000, 8);
    EXPECT_NEAR(base.ioMj, (1000 + 400) * model.params().ioNj * 1e-6,
                1e-12);
    EXPECT_NEAR(model.evaluate(swapped, 1000000, 8).ioMj, base.ioMj,
                1e-12);
    const DramEnergyReport twice = model.evaluate(doubled, 1000000, 8);
    EXPECT_NEAR(twice.ioMj, 2 * base.ioMj, 1e-12);
    EXPECT_NEAR(twice.writeMj, 2 * base.writeMj, 1e-12);
}

TEST(Energy, BackgroundScalesWithTime)
{
    const DramEnergyModel model;
    const DramEnergyReport a = model.evaluate(someStats(), 1000000, 8);
    const DramEnergyReport b = model.evaluate(someStats(), 3000000, 8);
    EXPECT_NEAR(b.backgroundMj, 3 * a.backgroundMj, 1e-12);
    EXPECT_DOUBLE_EQ(b.readMj, a.readMj);
}

TEST(Energy, RowHitsCostNoActivateEnergy)
{
    const DramEnergyModel model;
    DramStats hits = someStats();
    hits.rowHits += 1000;
    const DramEnergyReport a = model.evaluate(someStats(), 1000000, 8);
    const DramEnergyReport b = model.evaluate(hits, 1000000, 8);
    EXPECT_DOUBLE_EQ(a.activateMj, b.activateMj);
}

} // namespace
} // namespace cop
