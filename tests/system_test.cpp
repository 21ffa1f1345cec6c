/**
 * @file
 * Integration tests for the interval simulator: end-to-end runs of the
 * full stack (trace -> LLC -> controller -> DRAM -> decode) for every
 * controller kind, with the built-in data-verification invariant armed.
 */

#include <gtest/gtest.h>

#include "sim/runner.hpp"
#include "sim/system.hpp"

namespace cop {
namespace {

SystemConfig
smallConfig(ControllerKind kind, unsigned cores = 2,
            u64 epochs = 1500)
{
    SystemConfig cfg;
    cfg.cores = cores;
    cfg.kind = kind;
    cfg.epochsPerCore = epochs;
    cfg.llc = CacheConfig{256ULL << 10, 8, 34}; // small LLC: more misses
    cfg.verifyData = true;
    return cfg;
}

class SystemKinds : public ::testing::TestWithParam<ControllerKind>
{
};

TEST_P(SystemKinds, RunsCleanWithDataVerification)
{
    const auto &profile = WorkloadRegistry::byName("gcc");
    System sys(profile, smallConfig(GetParam()));
    const SystemResults results = sys.run();
    EXPECT_GT(results.instructions, 0u);
    EXPECT_GT(results.cycles, 0u);
    EXPECT_GT(results.ipc, 0.0);
    EXPECT_LE(results.ipc, 2 * profile.perfectIpc * 2);
    EXPECT_GT(results.llcMisses, 0u);
    EXPECT_GT(results.vuln.totalReads(), 0u);
}

TEST_P(SystemKinds, TccdNeverBindsAtDefaultTimings)
{
    // At the default timings a burst lasts as long as tCCD, so the bus
    // already spaces every pair of column commands of a rank at least
    // tCCD apart: dropping tCCD must change no result. Refresh is off
    // because the refresh check sees a column command before its bus
    // wait, so there tCCD can still move a command past a tRFC window.
    const auto &profile = WorkloadRegistry::byName("gcc");
    SystemConfig cfg = smallConfig(GetParam());
    cfg.dram.refreshEnabled = false;
    SystemConfig free_cas = cfg;
    free_cas.dram.tCCD = 0;
    System with(profile, cfg);
    System without(profile, free_cas);
    std::string a;
    std::string b;
    appendResultsJson(a, with.run());
    appendResultsJson(b, without.run());
    EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SystemKinds,
    ::testing::Values(ControllerKind::Unprotected, ControllerKind::EccDimm,
                      ControllerKind::EccRegion, ControllerKind::Cop4,
                      ControllerKind::Cop8, ControllerKind::CopEr),
    [](const ::testing::TestParamInfo<ControllerKind> &info) {
        std::string name = controllerKindName(info.param);
        std::erase_if(name, [](char c) { return !std::isalnum(c); });
        return name;
    });

TEST(System, PerformanceOrderingMatchesPaper)
{
    // Figure 11's shape: Unprot >= COP >= COP-ER > ECC Reg. (mcf is
    // memory-bound, so the differences are visible).
    const auto &profile = WorkloadRegistry::byName("mcf");
    auto run = [&](ControllerKind kind) {
        System sys(profile, smallConfig(kind, 2, 2500));
        return sys.run().ipc;
    };
    const double unprot = run(ControllerKind::Unprotected);
    const double cop = run(ControllerKind::Cop4);
    const double coper = run(ControllerKind::CopEr);
    const double eccreg = run(ControllerKind::EccRegion);

    EXPECT_GE(unprot * 1.001, cop);
    EXPECT_GE(cop * 1.01, coper);
    EXPECT_GT(coper, eccreg * 0.99);
    // And the whole spread is modest (paper: within ~20% of unprot).
    EXPECT_GT(eccreg, unprot * 0.5);
}

TEST(System, CopVulnLogSplitsProtectedAndRaw)
{
    const auto &profile = WorkloadRegistry::byName("bzip2");
    System sys(profile, smallConfig(ControllerKind::Cop4));
    const SystemResults r = sys.run();
    // bzip2-like data has a solid incompressible fraction.
    EXPECT_GT(r.vuln.of(VulnClass::CopProtected4).reads, 0u);
    EXPECT_GT(r.vuln.of(VulnClass::Unprotected).reads, 0u);
}

TEST(System, CopErLogsNoUnprotectedReads)
{
    const auto &profile = WorkloadRegistry::byName("bzip2");
    System sys(profile, smallConfig(ControllerKind::CopEr));
    const SystemResults r = sys.run();
    EXPECT_EQ(r.vuln.of(VulnClass::Unprotected).reads, 0u);
    EXPECT_GT(r.vuln.of(VulnClass::CopErUncompressed).reads, 0u);
    EXPECT_GT(r.eccRegionBytes, 0u);
}

TEST(System, EverUncompressedTracksIncompressibleFraction)
{
    const auto &profile = WorkloadRegistry::byName("mcf");
    System sys(profile, smallConfig(ControllerKind::CopEr));
    const SystemResults r = sys.run();
    ASSERT_GT(r.touchedBlocks, 0u);
    const double frac = static_cast<double>(r.everUncompressedBlocks) /
                        static_cast<double>(r.touchedBlocks);
    // mcf-like content: a small minority incompressible.
    EXPECT_LT(frac, 0.25);
}

TEST(System, SharedFootprintParsecRuns)
{
    const auto &profile = WorkloadRegistry::byName("canneal");
    System sys(profile, smallConfig(ControllerKind::Cop4, 4, 800));
    const SystemResults r = sys.run();
    EXPECT_GT(r.ipc, 0.0);
}

TEST(System, DeterministicAcrossRuns)
{
    const auto &profile = WorkloadRegistry::byName("gcc");
    System a(profile, smallConfig(ControllerKind::Cop4));
    System b(profile, smallConfig(ControllerKind::Cop4));
    const SystemResults ra = a.run();
    const SystemResults rb = b.run();
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.instructions, rb.instructions);
    EXPECT_EQ(ra.llcMisses, rb.llcMisses);
}

TEST(System, AtMostTwoContentRegenerationsPerMiss)
{
    // The hot-path dedup contract. Every blockFor call regenerates
    // content, so the call count is the regeneration count. A miss
    // needs at most two (the first-touch DRAM image and the oracle);
    // a dirty eviction needs one, the filter probe, whose block the
    // writeback reuses, and so does each alias the filter pins. The
    // pre-dedup fill path regenerated once more per miss and fails
    // this bound.
    const auto &profile = WorkloadRegistry::byName("mcf");
    for (ControllerKind kind :
         {ControllerKind::Cop4, ControllerKind::Unprotected}) {
        System sys(profile, smallConfig(kind, 2, 800));
        const SystemResults r = sys.run();
        ASSERT_GT(r.llcMisses, 0u);
        EXPECT_GE(r.poolBlockForCalls, r.llcMisses)
            << "oracle consults functional memory on every miss";
        EXPECT_LE(r.poolBlockForCalls,
                  2 * r.llcMisses + r.writebacks + r.aliasPinEvents)
            << controllerKindName(kind)
            << ": content regenerated more than the bound allows";
    }
}

TEST(System, ProactiveAliasCheckRunsClean)
{
    // Section 3.1's alternative policy: checking at LLC-write time.
    // Synthetic data essentially never aliases, so the run must agree
    // with the lazy policy bit-for-bit.
    const auto &profile = WorkloadRegistry::byName("gcc");
    SystemConfig lazy_cfg = smallConfig(ControllerKind::Cop4);
    SystemConfig eager_cfg = lazy_cfg;
    eager_cfg.proactiveAliasCheck = true;
    System lazy(profile, lazy_cfg);
    System eager(profile, eager_cfg);
    const SystemResults a = lazy.run();
    const SystemResults b = eager.run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
    EXPECT_EQ(b.aliasPinEvents, 0u);
}

TEST(System, ClosedPagePolicyCostsPerformance)
{
    // lbm streams rows; auto-precharge throws the locality away.
    const auto &profile = WorkloadRegistry::byName("lbm");
    SystemConfig open_cfg = smallConfig(ControllerKind::Unprotected);
    SystemConfig closed_cfg = open_cfg;
    closed_cfg.dram.rowPolicy = RowPolicy::Closed;
    System open_sys(profile, open_cfg);
    System closed_sys(profile, closed_cfg);
    const double open_ipc = open_sys.run().ipc;
    const double closed_ipc = closed_sys.run().ipc;
    EXPECT_LT(closed_ipc, open_ipc);
}

TEST(System, NaiveCopErBetweenBaselineAndCopEr)
{
    const auto &profile = WorkloadRegistry::byName("mcf");
    auto run = [&](ControllerKind kind) {
        System sys(profile, smallConfig(kind, 2, 2500));
        return sys.run().ipc;
    };
    const double eccreg = run(ControllerKind::EccRegion);
    const double naive = run(ControllerKind::CopErNaive);
    EXPECT_GT(naive, eccreg);
}

TEST(System, AddressOutsideFootprintRegionsPanics)
{
    // mcf is a SPEC profile: per-core private footprints. An address at
    // exactly cores * region is one past the last region and must panic
    // (it used to be a compiled-out assert, i.e. UB in release builds).
    const auto &profile = WorkloadRegistry::byName("mcf");
    ASSERT_FALSE(profile.sharedFootprint);
    const u64 region = profile.footprintBlocks * kBlockBytes;

    System sys(profile, smallConfig(ControllerKind::Unprotected, 2, 10));
    // Just below the boundary: last block of the last core's region.
    EXPECT_NO_FATAL_FAILURE(
        sys.controller().read(2 * region - kBlockBytes, 0));
    EXPECT_DEATH(sys.controller().read(2 * region, 0),
                 "outside the 2 per-core footprint regions");
}

TEST(System, MoreCoresMoreContention)
{
    const auto &profile = WorkloadRegistry::byName("lbm");
    System one(profile, smallConfig(ControllerKind::Unprotected, 1, 2000));
    System four(profile, smallConfig(ControllerKind::Unprotected, 4, 2000));
    const double ipc1 = one.run().ipc; // aggregate IPC of 1 core
    const double ipc4 = four.run().ipc / 4.0; // per-core
    EXPECT_LT(ipc4, ipc1 * 1.001);
}

constexpr ControllerKind kAllKinds[] = {
    ControllerKind::Unprotected, ControllerKind::EccDimm,
    ControllerKind::EccRegion,   ControllerKind::Cop4,
    ControllerKind::Cop8,        ControllerKind::CopEr,
    ControllerKind::CopErNaive,
};

TEST(System, FaultFreeRunsKeepNoImages)
{
    // With fault injection off no controller writes the image side
    // table, and the touched footprint still counts every stored
    // block: as many as a run that keeps images (faults armed, none
    // arriving) stores.
    const auto &profile = WorkloadRegistry::byName("gcc");
    for (const ControllerKind kind : kAllKinds) {
        System clean(profile, smallConfig(kind));
        const SystemResults r = clean.run();
        EXPECT_GT(r.touchedBlocks, 0u) << controllerKindName(kind);
        EXPECT_EQ(clean.controller().sideTableImages(), 0u)
            << controllerKindName(kind);

        SystemConfig armed = smallConfig(kind);
        armed.fault.enabled = true;
        System imaged(profile, armed);
        const SystemResults ri = imaged.run();
        EXPECT_EQ(ri.touchedBlocks, r.touchedBlocks)
            << controllerKindName(kind);
        EXPECT_EQ(imaged.controller().sideTableImages(), ri.touchedBlocks)
            << controllerKindName(kind);
    }
}

/** One core whose every epoch reads the same block. */
class OneBlockSource : public EpochSource
{
  public:
    OneBlockSource(const WorkloadProfile &profile, Addr addr)
        : pool_(profile)
    {
        epoch_.instructions = 100;
        epoch_.accesses.push_back(TraceAccess{addr, false});
    }

    const Epoch &next() override { return epoch_; }
    BlockContentPool &pool() override { return pool_; }
    const BlockContentPool &pool() const override { return pool_; }

  private:
    BlockContentPool pool_;
    Epoch epoch_;
};

TEST(SystemDeathTest, FillOfAStaleCopyPanics)
{
    // A fault-free fill returns functional memory's current content,
    // so only the stored version can show that DRAM holds an older
    // copy: here a store the controller never saw.
    const auto &profile = WorkloadRegistry::byName("gcc");
    const Addr addr = 12 * kBlockBytes;
    BlockContentPool *pool = nullptr;
    SystemConfig cfg = smallConfig(ControllerKind::Cop4, 1, 1);
    cfg.epochSource = [&](unsigned) {
        auto source = std::make_unique<OneBlockSource>(profile, addr);
        pool = &source->pool();
        return source;
    };
    {
        // Stored at the current version: the fill passes the oracle.
        System sys(profile, cfg);
        sys.controller().writeback(addr, pool->blockFor(addr), 0, false);
        EXPECT_EQ(sys.run().llcMisses, 1u);
    }
    System sys(profile, cfg);
    sys.controller().writeback(addr, pool->blockFor(addr), 0, false);
    pool->bumpVersion(addr);
    EXPECT_DEATH(sys.run(), "stale copy of block 768: stored at version "
                            "0, current 1");
}

} // namespace
} // namespace cop
