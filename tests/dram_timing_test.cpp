/**
 * @file
 * Regression tests for the DRAM-timing bugfix sweep: column commands
 * (not just activates) stall during tRFC refresh windows, the
 * four-activate window binds the fifth activate, bankReadyHint agrees
 * with the schedule access() actually produces (including rank and
 * refresh constraints it used to ignore), and closed-page forces
 * re-activation. Each timing assertion is computed by hand from the
 * DramConfig constants so a model change that shifts any of these
 * first-order effects fails loudly.
 */

#include <gtest/gtest.h>

#include "dram/dram_system.hpp"

namespace cop {
namespace {

DramConfig
quietConfig()
{
    DramConfig cfg;
    cfg.refreshEnabled = false;
    return cfg;
}

/** Address of bank @p bank (rank 0, channel 0, row 0). */
Addr
bankAddr(const DramConfig &cfg, unsigned bank)
{
    return static_cast<Addr>(bank) * cfg.blocksPerRow() * kBlockBytes *
           cfg.channels;
}

/** Address of row @p row (bank 0, rank 0, channel 0). */
Addr
rowAddr(const DramConfig &cfg, u64 row)
{
    return row * cfg.rowBytes * cfg.banksPerRank * cfg.ranksPerChannel *
           cfg.channels;
}

TEST(DramRefresh, RowHitCasInsideWindowIsDelayed)
{
    DramConfig cfg;
    cfg.refreshEnabled = true;
    DramSystem dram(cfg);

    // Open the row just past the first refresh window: the ACT at
    // phase tRFC is unobstructed.
    const DramResult first = dram.access({0, false, cfg.tRFC});
    EXPECT_FALSE(first.rowHit);
    EXPECT_EQ(first.complete, cfg.tRFC + cfg.tRCD + cfg.tCL + cfg.tBURST);
    EXPECT_EQ(dram.stats().refreshStalls, 0u);
    EXPECT_EQ(dram.stats().refreshStallsCas, 0u);

    // A row hit arriving exactly at the second refresh interval lands
    // at phase 0 — inside the tRFC window. The CAS (a column command)
    // must slip to the window's end; the old model issued it
    // immediately, under-counting read latency by up to tRFC cycles.
    const DramResult hit = dram.access({128, false, cfg.tREFI});
    EXPECT_TRUE(hit.rowHit);
    EXPECT_EQ(hit.complete,
              cfg.tREFI + cfg.tRFC + cfg.tCL + cfg.tBURST);
    EXPECT_EQ(dram.stats().refreshStallsCas, 1u);
    // Booked as a column stall, not an ACT stall.
    EXPECT_EQ(dram.stats().refreshStalls, 0u);
}

TEST(DramRefresh, ActAndCasStallsCountedSeparately)
{
    DramConfig cfg;
    cfg.refreshEnabled = true;
    DramSystem dram(cfg);

    // Arrival inside the first window: the ACT stalls to tRFC, and the
    // CAS at tRFC + tRCD is clear of the window — one ACT stall only.
    dram.access({0, false, 0});
    EXPECT_EQ(dram.stats().refreshStalls, 1u);
    EXPECT_EQ(dram.stats().refreshStallsCas, 0u);
}

TEST(DramTiming, FifthActivateWaitsForFourActivateWindow)
{
    DramSystem dram(quietConfig());
    const DramConfig &cfg = dram.config();

    // Activates to five distinct banks of rank 0, all arriving at 0.
    // ACT issue cycles: 0, tRRD, 2*tRRD, 3*tRRD, then the fifth must
    // wait for the first activate's tFAW window (tFAW > 4*tRRD).
    ASSERT_GT(cfg.tFAW, 4 * cfg.tRRD);
    Cycle complete = 0;
    for (unsigned b = 0; b < 5; ++b)
        complete = dram.access({bankAddr(cfg, b), false, 0}).complete;
    EXPECT_EQ(complete, cfg.tFAW + cfg.tRCD + cfg.tCL + cfg.tBURST);
}

TEST(DramTiming, HintMatchesAccessOnFreshBank)
{
    DramSystem dram(quietConfig());
    const DramConfig &cfg = dram.config();
    const Cycle hint = dram.bankReadyHint(0);
    EXPECT_EQ(hint, 0u);
    const DramResult r = dram.access({0, false, 0});
    EXPECT_EQ(r.complete, hint + cfg.tRCD + cfg.tCL + cfg.tBURST);
}

TEST(DramTiming, HintMatchesAccessOnRowHit)
{
    DramSystem dram(quietConfig());
    const DramConfig &cfg = dram.config();
    dram.access({0, false, 0});
    // Open row: the hint is the earliest CAS; the next same-row access
    // starts its column phase exactly there.
    const Cycle hint = dram.bankReadyHint(128);
    const DramResult r = dram.access({128, false, 0});
    EXPECT_TRUE(r.rowHit);
    EXPECT_EQ(r.complete, hint + cfg.tCL + cfg.tBURST);
}

TEST(DramTiming, HintMatchesAccessOnRowConflict)
{
    DramSystem dram(quietConfig());
    const DramConfig &cfg = dram.config();
    dram.access({0, false, 0});
    // Conflicting row in the same bank: precharge then activate.
    const Addr other = rowAddr(cfg, 1);
    const Cycle hint = dram.bankReadyHint(other);
    const DramResult r = dram.access({other, false, 0});
    EXPECT_TRUE(r.rowConflict);
    EXPECT_EQ(r.complete, hint + cfg.tRCD + cfg.tCL + cfg.tBURST);
}

TEST(DramTiming, HintSeesFourActivateWindow)
{
    DramSystem dram(quietConfig());
    const DramConfig &cfg = dram.config();
    for (unsigned b = 0; b < 4; ++b)
        dram.access({bankAddr(cfg, b), false, 0});

    // The fifth bank of the rank is idle, but the rank's tFAW window
    // pins its next activate; the old hint reported the bank as ready
    // at cycle 0.
    const Addr fifth = bankAddr(cfg, 4);
    const Cycle hint = dram.bankReadyHint(fifth);
    EXPECT_EQ(hint, cfg.tFAW);
    const DramResult r = dram.access({fifth, false, 0});
    EXPECT_EQ(r.complete, hint + cfg.tRCD + cfg.tCL + cfg.tBURST);
}

TEST(DramTiming, HintSeesRefreshWithoutMutatingStats)
{
    DramConfig cfg;
    cfg.refreshEnabled = true;
    const DramSystem dram(cfg); // const: the hint cannot mutate stats
    // A fresh bank could activate at cycle 0 — but cycle 0 is inside
    // the first refresh window, so readiness is really tRFC.
    EXPECT_EQ(dram.bankReadyHint(0), cfg.tRFC);
    EXPECT_EQ(dram.stats().refreshStalls, 0u);
    EXPECT_EQ(dram.stats().refreshStallsCas, 0u);
}

TEST(DramTiming, ClosedRowForcesReactivation)
{
    DramConfig cfg = quietConfig();
    cfg.rowPolicy = RowPolicy::Closed;
    DramSystem dram(cfg);

    const DramResult first = dram.access({0, false, 0});
    EXPECT_FALSE(first.rowHit);

    // Same row again, arriving after the auto-precharge completed: the
    // access must pay a full activate, not a column-only hit.
    const Cycle arrival = 1000;
    const Cycle hint = dram.bankReadyHint(0);
    const DramResult again = dram.access({0, false, arrival});
    EXPECT_FALSE(again.rowHit);
    EXPECT_EQ(dram.stats().rowHits, 0u);
    EXPECT_EQ(dram.stats().rowMisses, 2u);
    EXPECT_GE(arrival, hint); // bank was ready before the request
    EXPECT_EQ(again.complete,
              arrival + cfg.tRCD + cfg.tCL + cfg.tBURST);

    // Open-row control: the identical sequence scores a hit.
    DramSystem open_dram(quietConfig());
    open_dram.access({0, false, 0});
    EXPECT_TRUE(open_dram.access({0, false, arrival}).rowHit);
}

TEST(DramTiming, OpenAndClosedAgreeOnActReadyBookkeeping)
{
    // The dedup of the row-policy branches must not change either
    // policy's activate bookkeeping: after one access, a conflicting
    // row's schedule is identical under both policies.
    DramConfig open_cfg = quietConfig();
    DramConfig closed_cfg = quietConfig();
    closed_cfg.rowPolicy = RowPolicy::Closed;
    DramSystem open_dram(open_cfg), closed_dram(closed_cfg);
    open_dram.access({0, false, 0});
    closed_dram.access({0, false, 0});

    const Addr other = rowAddr(open_cfg, 1);
    // Closed-page has already precharged, so the conflict row is a
    // plain miss gated by actReady; open-row pays the precharge path.
    // Both end at the same cycle because actReady == preReady + tRP.
    EXPECT_EQ(open_dram.access({other, false, 0}).complete,
              closed_dram.access({other, false, 0}).complete);
}

TEST(DramTiming, WriteToReadTurnaroundPaysTwtr)
{
    DramSystem dram(quietConfig());
    const DramConfig &cfg = dram.config();

    // Write to a fresh bank: ACT at 0, CAS at tRCD, data after tCWL.
    const DramResult w = dram.access({0, true, 0});
    EXPECT_EQ(w.complete, cfg.tRCD + cfg.tCWL + cfg.tBURST);

    // Same-row read on the same channel: its column command is ready at
    // effective-CAS + tCCD = (tRCD + tCWL - tCWL) + tCCD, but the bus
    // must first drain the write burst AND pay the write->read
    // turnaround, which here is the binding constraint:
    //   data = writeComplete + tWTR, complete = data + tBURST.
    // The pre-fix model skipped tWTR and finished tWTR cycles early.
    const DramResult r = dram.access({128, false, 0});
    EXPECT_TRUE(r.rowHit);
    EXPECT_EQ(r.complete, w.complete + cfg.tWTR + cfg.tBURST);
    EXPECT_EQ(dram.stats().busTurnarounds, 1u);
}

TEST(DramTiming, ReadToWriteTurnaroundPaysTrtw)
{
    DramSystem dram(quietConfig());
    const DramConfig &cfg = dram.config();

    const DramResult r = dram.access({0, false, 0});
    EXPECT_EQ(r.complete, cfg.tRCD + cfg.tCL + cfg.tBURST);

    // Same-row write: CAS could issue at effective-CAS + tCCD with data
    // tCWL later (tRCD + tCCD + tCWL = 92 < readComplete), so the bus —
    // free at readComplete plus the read->write gap — binds:
    //   complete = readComplete + tRTW + tBURST.
    const DramResult w = dram.access({128, true, 0});
    EXPECT_TRUE(w.rowHit);
    EXPECT_EQ(w.complete, r.complete + cfg.tRTW + cfg.tBURST);
    EXPECT_EQ(dram.stats().busTurnarounds, 1u);
}

TEST(DramTiming, SameDirectionBurstsPayNoTurnaround)
{
    DramSystem dram(quietConfig());
    const DramConfig &cfg = dram.config();

    // Two same-row reads: the second's burst starts the cycle the
    // first's ends — bus serialisation only, no turnaround gap.
    const DramResult first = dram.access({0, false, 0});
    const DramResult second = dram.access({128, false, 0});
    EXPECT_TRUE(second.rowHit);
    EXPECT_EQ(second.complete, first.complete + cfg.tBURST);
    EXPECT_EQ(dram.stats().busTurnarounds, 0u);
}

TEST(DramTiming, CasToCasAcrossBanksOfOneRankHonoursTccd)
{
    // A burst shorter than tCCD frees the bus before the rank may take
    // its next column command, so only a rank-level tCCD spaces CAS
    // commands to different banks of one rank.
    DramConfig cfg = quietConfig();
    cfg.tBURST = cfg.tCCD / 2;
    DramSystem dram(cfg);
    const Addr a = bankAddr(cfg, 0);
    const Addr b = bankAddr(cfg, 1);

    // Open a row in each bank, then let every constraint expire.
    dram.access({a, false, 0});
    dram.access({b, false, 0});
    const Cycle t = 10000;
    const DramResult first = dram.access({a + 128, false, t});
    EXPECT_EQ(dram.bankReadyHint(b + 128), t + cfg.tCCD);
    const DramResult second = dram.access({b + 128, false, t});
    ASSERT_TRUE(first.rowHit);
    ASSERT_TRUE(second.rowHit);
    EXPECT_EQ(first.complete, t + cfg.tCL + cfg.tBURST);
    EXPECT_EQ(second.complete, t + cfg.tCCD + cfg.tCL + cfg.tBURST);
}

TEST(DramTiming, CasToCasAcrossRanksIsNotHeldByTccd)
{
    // tCCD binds one rank only: with bursts a quarter of tCCD long, a
    // column command to the other rank of the channel waits for the
    // bus alone.
    DramConfig cfg = quietConfig();
    cfg.tBURST = cfg.tCCD / 4;
    DramSystem dram(cfg);
    const Addr rank0 = bankAddr(cfg, 0);
    const Addr rank1 = bankAddr(cfg, cfg.banksPerRank); // rank 1, bank 0

    dram.access({rank0, false, 0});
    dram.access({rank1, false, 0});
    const Cycle t = 10000;
    const DramResult first = dram.access({rank0 + 128, false, t});
    EXPECT_LE(dram.bankReadyHint(rank1 + 128), t);
    const DramResult second = dram.access({rank1 + 128, false, t});
    ASSERT_TRUE(first.rowHit);
    ASSERT_TRUE(second.rowHit);
    EXPECT_EQ(first.complete, t + cfg.tCL + cfg.tBURST);
    EXPECT_EQ(second.complete, first.complete + cfg.tBURST);
    EXPECT_LT(second.complete, t + cfg.tCCD + cfg.tCL + cfg.tBURST);
}

TEST(DramTiming, ReadLatencyHistogramTracksAccesses)
{
    DramSystem dram(quietConfig());
    const DramConfig &cfg = dram.config();
    const DramResult r = dram.access({0, false, 0});
    dram.access({1 * kBlockBytes, true, 0}); // other channel, a write
    const DramStats &s = dram.stats();
    EXPECT_EQ(s.readLatency.count(), 1u);
    EXPECT_EQ(s.writeLatency.count(), 1u);
    EXPECT_EQ(s.readLatency.maxValue(), r.complete);
    EXPECT_EQ(s.readLatency.sum(), s.totalReadLatency);
    EXPECT_LE(s.readLatency.percentile(50), r.complete);
    (void)cfg;
}

} // namespace
} // namespace cop
