/**
 * @file
 * Tests for live in-simulation fault injection and the error-recovery
 * pipeline: per-variant detection through the real decoders
 * (scrub-on-read, bounded retry, page retirement), the Poisson /
 * campaign / patrol-scrub event sources of LiveInjector, and
 * system-level acceptance runs where verifyData acts as the
 * ground-truth SDC oracle.
 */

#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <string>
#include <vector>

#include "mem/coper_controller.hpp"
#include "mem/coper_naive_controller.hpp"
#include "reliability/error_model.hpp"
#include "sim/runner.hpp"
#include "workloads/trace_gen.hpp"

namespace cop {
namespace {

/** Fixture with a quiet DRAM and an mcf-like content pool. */
class LiveFaultTest : public ::testing::Test
{
  protected:
    LiveFaultTest()
        : profile(WorkloadRegistry::byName("mcf")), pool(profile)
    {
        DramConfig cfg;
        cfg.refreshEnabled = false;
        dram = std::make_unique<DramSystem>(cfg);
    }

    MemoryController::ContentSource
    source()
    {
        return [this](Addr a) -> const CacheBlock & {
            return pool.blockForRef(a);
        };
    }

    /** First address whose fill under @p ctrl is compressed (or not). */
    Addr
    findAddr(MemoryController &ctrl, bool want_uncompressed)
    {
        for (Addr a = 0; a < 5000 * kBlockBytes; a += kBlockBytes) {
            const MemReadResult r = ctrl.read(a, 0);
            if (r.wasUncompressed == want_uncompressed && !r.aliasPinned)
                return a;
        }
        ADD_FAILURE() << "no suitable block in footprint";
        return 0;
    }

    const WorkloadProfile &profile;
    BlockContentPool pool;
    std::unique_ptr<DramSystem> dram;
};

TEST_F(LiveFaultTest, CopSingleFlipCorrectedAndScrubbedOnRead)
{
    CopController ctrl(*dram, source());
    ctrl.enableFaultInjection(RecoveryConfig{});
    const Addr addr = findAddr(ctrl, false);

    EXPECT_TRUE(ctrl.injectFault(addr, {5}, 100, false));
    const MemReadResult r = ctrl.read(addr, 200);
    EXPECT_EQ(r.data, pool.blockFor(addr));
    EXPECT_TRUE(r.correctedError);
    EXPECT_TRUE(r.faultedBlock);
    EXPECT_FALSE(r.detectedUncorrectable);
    EXPECT_EQ(ctrl.errorLog().corrected, 1u);
    EXPECT_EQ(ctrl.errorLog().scrubOnReadWrites, 1u);
    EXPECT_EQ(ctrl.errorLog().of(VulnClass::CopProtected4).corrected,
              1u);

    // Scrub-on-read restored the clean image: no second correction.
    const MemReadResult again = ctrl.read(addr, 300);
    EXPECT_FALSE(again.correctedError);
    EXPECT_FALSE(again.faultedBlock);
    EXPECT_EQ(ctrl.errorLog().corrected, 1u);
}

TEST_F(LiveFaultTest, CopSameWordDoubleRetriesThenRecovers)
{
    CopController ctrl(*dram, source());
    ctrl.enableFaultInjection(RecoveryConfig{});
    const Addr addr = findAddr(ctrl, false);

    // Two flips in one (128,120) word: detected-uncorrectable.
    EXPECT_TRUE(ctrl.injectFault(addr, {0, 1}, 100, false));
    const MemReadResult r = ctrl.read(addr, 200);
    EXPECT_TRUE(r.detectedUncorrectable);
    EXPECT_EQ(r.retries, 2u); // default maxReadRetries
    // Recovery replaced the fill with the functional truth.
    EXPECT_EQ(r.data, pool.blockFor(addr));
    const ErrorLog &log = ctrl.errorLog();
    EXPECT_EQ(log.detected, 1u);
    EXPECT_EQ(log.readRetries, 2u);
    EXPECT_GT(log.retryDramReads, 0u);
    EXPECT_EQ(log.recoveryRewrites, 1u);
    ASSERT_FALSE(log.events.empty());
    const ErrorEvent &ev = log.events.back();
    EXPECT_EQ(ev.kind, ErrorEventKind::Detected);
    EXPECT_EQ(ev.addr, addr);
    EXPECT_EQ(ev.cycle, 200u);
    EXPECT_EQ(ev.retries, 2u);

    // The rewrite healed the image.
    const MemReadResult again = ctrl.read(addr, 300);
    EXPECT_FALSE(again.detectedUncorrectable);
    EXPECT_EQ(again.data, pool.blockFor(addr));
    EXPECT_EQ(ctrl.errorLog().detected, 1u);
}

TEST_F(LiveFaultTest, PersistentFaultRetiresPageThenAccessesSucceed)
{
    EccDimmController ctrl(*dram, source());
    RecoveryConfig cfg;
    cfg.retirePageThreshold = 3;
    ctrl.enableFaultInjection(cfg);
    const Addr addr = 17 * kBlockBytes;
    ctrl.read(addr, 0); // materialise the image

    // A stuck double in one (72,64) word: every read is a DUE and the
    // recovery rewrite re-acquires the fault, until retirement.
    EXPECT_TRUE(ctrl.injectFault(addr, {0, 2}, 100, true));
    for (unsigned i = 1; i <= 3; ++i) {
        const MemReadResult r = ctrl.read(addr, 100 + i * 100);
        EXPECT_TRUE(r.detectedUncorrectable) << "read " << i;
        EXPECT_EQ(ctrl.errorLog().detected, i);
    }
    EXPECT_TRUE(ctrl.pageRetired(addr));
    EXPECT_EQ(ctrl.errorLog().retiredPages, 1u);

    // The page was remapped to a healthy frame: accesses now succeed.
    const MemReadResult after = ctrl.read(addr, 1000);
    EXPECT_FALSE(after.detectedUncorrectable);
    EXPECT_FALSE(after.faultedBlock);
    EXPECT_EQ(after.data, pool.blockFor(addr));
    EXPECT_EQ(ctrl.errorLog().detected, 3u);

    // Later strikes on the retired page are dropped.
    EXPECT_FALSE(ctrl.injectFault(addr, {7}, 2000, false));
    EXPECT_EQ(ctrl.errorLog().faultsOnRetiredPages, 1u);
}

TEST_F(LiveFaultTest, EccDimmCheckBitStrikesAreCorrected)
{
    EccDimmController ctrl(*dram, source());
    ctrl.enableFaultInjection(RecoveryConfig{});
    const Addr addr = 3 * kBlockBytes;
    ctrl.read(addr, 0);
    EXPECT_EQ(ctrl.storedBits(addr), 576u);

    // Bit 512 is the first check bit of word 0: a single, corrected.
    EXPECT_TRUE(ctrl.injectFault(addr, {512}, 100, false));
    const MemReadResult r = ctrl.read(addr, 200);
    EXPECT_TRUE(r.correctedError);
    EXPECT_FALSE(r.detectedUncorrectable);
    EXPECT_EQ(r.data, pool.blockFor(addr));

    // A data bit + a check bit of the same word: an uncorrectable pair.
    EXPECT_TRUE(ctrl.injectFault(addr, {0, 512}, 300, false));
    const MemReadResult due = ctrl.read(addr, 400);
    EXPECT_TRUE(due.detectedUncorrectable);
}

TEST_F(LiveFaultTest, EccRegionWideCodeCoversCheckSidecar)
{
    // The same three strikes against the baseline's blocks and against a
    // raw block of naive COP-ER, whose check bits sit in the same kind
    // of offset-addressed (523,512) sidecar.
    const auto strike = [this](MemoryController &ctrl, Addr addr) {
        EXPECT_EQ(ctrl.storedBits(addr), kBlockBits + 11);

        // Single data-bit flip: the (523,512) code corrects it.
        EXPECT_TRUE(ctrl.injectFault(addr, {17}, 100, false));
        const MemReadResult one = ctrl.read(addr, 200);
        EXPECT_TRUE(one.correctedError);
        EXPECT_EQ(one.data, pool.blockFor(addr));

        // Single check-bit flip (bit 512): also corrected, data intact.
        EXPECT_TRUE(ctrl.injectFault(addr, {512}, 300, false));
        const MemReadResult chk = ctrl.read(addr, 400);
        EXPECT_TRUE(chk.correctedError);
        EXPECT_EQ(chk.data, pool.blockFor(addr));

        // A double in the wide word: detected.
        EXPECT_TRUE(ctrl.injectFault(addr, {40, 41}, 500, false));
        const MemReadResult due = ctrl.read(addr, 600);
        EXPECT_TRUE(due.detectedUncorrectable);
        EXPECT_EQ(due.data, pool.blockFor(addr)); // recovered from truth
    };

    EccRegionController region(*dram, source(), 64 << 10);
    region.enableFaultInjection(RecoveryConfig{});
    const Addr addr = 11 * kBlockBytes;
    region.read(addr, 0);
    strike(region, addr);

    CopErNaiveController naive(*dram, source(), 4, 64 << 10);
    naive.enableFaultInjection(RecoveryConfig{});
    const Addr raw = findAddr(naive, true); // incompressible
    strike(naive, raw);
    EXPECT_EQ(naive.errorLog().of(VulnClass::CopErUncompressed).corrected,
              2u);
    EXPECT_EQ(naive.errorLog().of(VulnClass::CopErUncompressed).detected,
              1u);
}

TEST_F(LiveFaultTest, CopErEntryStrikesCoverValidBit)
{
    CopErController ctrl(*dram, source(), 4, 64 << 10);
    ctrl.enableFaultInjection(RecoveryConfig{});
    const Addr addr = findAddr(ctrl, true); // incompressible
    ASSERT_EQ(ctrl.storedBits(addr), kBlockBits + 46);

    // A displaced-data bit in the ECC-region entry: wide code corrects.
    EXPECT_TRUE(ctrl.injectFault(addr, {kBlockBits}, 100, false));
    const MemReadResult disp = ctrl.read(addr, 200);
    EXPECT_TRUE(disp.correctedError);
    EXPECT_EQ(disp.data, pool.blockFor(addr));

    // The valid bit (index 557): the entry vanishes, the pointer chase
    // fails, and the read is a detected loss recovered from truth.
    EXPECT_TRUE(ctrl.injectFault(addr, {kBlockBits + 45}, 300, false));
    const MemReadResult due = ctrl.read(addr, 400);
    EXPECT_TRUE(due.detectedUncorrectable);
    EXPECT_EQ(due.data, pool.blockFor(addr));
    // Recovery re-stored the block (fresh entry): reads are clean.
    const MemReadResult after = ctrl.read(addr, 500);
    EXPECT_FALSE(after.detectedUncorrectable);
    EXPECT_EQ(after.data, pool.blockFor(addr));
}

TEST_F(LiveFaultTest, UnprotectedFlipIsSilentCountedOnce)
{
    UnprotectedController ctrl(*dram, source());
    ctrl.enableFaultInjection(RecoveryConfig{});
    const Addr addr = 5 * kBlockBytes;
    ctrl.read(addr, 0);

    EXPECT_TRUE(ctrl.injectFault(addr, {9}, 100, false));
    const MemReadResult r = ctrl.read(addr, 200);
    EXPECT_FALSE(r.detectedUncorrectable);
    EXPECT_FALSE(r.correctedError);
    EXPECT_NE(r.data, pool.blockFor(addr)); // wrong, silently

    // The SDC oracle (System::handleMiss) reports the mismatch.
    ctrl.noteSilentFill(addr, r.fillClass, 200);
    EXPECT_EQ(ctrl.errorLog().silent, 1u);
    EXPECT_EQ(ctrl.errorLog().of(VulnClass::Unprotected).silent, 1u);

    // Re-reading the same corrupt image is not a second corruption.
    const MemReadResult again = ctrl.read(addr, 300);
    EXPECT_NE(again.data, pool.blockFor(addr));
    ctrl.noteSilentFill(addr, again.fillClass, 300);
    EXPECT_EQ(ctrl.errorLog().silent, 1u);
}

TEST_F(LiveFaultTest, AliasRejectRecoveryDropsOnlyTheImage)
{
    // Pool and controller share one block table, as inside a System.
    BlockTable blocks;
    pool.shareBlockTable(blocks);
    bool truth_is_alias = false;
    CacheBlock alias_block;
    CopController ctrl(*dram, [&](Addr a) -> const CacheBlock & {
        return truth_is_alias ? alias_block : pool.blockForRef(a);
    });
    ctrl.shareBlockTable(blocks);
    ctrl.enableFaultInjection(RecoveryConfig{});
    Rng rng(5);
    std::array<u8, 60> payload{};
    for (auto &b : payload)
        b = static_cast<u8>(rng.next());
    alias_block = ctrl.codec().protectPayload(payload);

    const Addr addr = findAddr(ctrl, false);
    pool.bumpVersion(addr);
    ctrl.writeback(addr, pool.blockFor(addr), 500, false);
    const u64 images = ctrl.imageBlockCount();

    // The functional truth turns into an incompressible alias, and a
    // DUE's recovery rewrite of it is rejected: the image goes, the
    // block's history (version, write time) stays.
    truth_is_alias = true;
    EXPECT_TRUE(ctrl.injectFault(addr, {0, 1}, 600, false));
    const MemReadResult due = ctrl.read(addr, 700);
    EXPECT_TRUE(due.detectedUncorrectable);
    EXPECT_EQ(ctrl.stats().aliasRejects, 1u);
    EXPECT_EQ(ctrl.imageBlockCount(), images - 1);
    EXPECT_EQ(ctrl.imageOf(addr), nullptr);
    const auto rec = blocks.find(addr);
    ASSERT_NE(rec, blocks.end());
    EXPECT_EQ(rec->second.version, 1u);
    EXPECT_EQ(rec->second.lastWrite, 500u);
    EXPECT_EQ(pool.versionOf(addr), 1u);

    // The next read re-runs first touch: the alias pins in the LLC.
    const MemReadResult pinned = ctrl.read(addr, 800);
    EXPECT_TRUE(pinned.aliasPinned);
    EXPECT_EQ(ctrl.imageBlockCount(), images - 1);

    // Once the truth is storable again, first touch re-creates the
    // image from the surviving version.
    truth_is_alias = false;
    const MemReadResult fresh = ctrl.read(addr, 900);
    EXPECT_FALSE(fresh.aliasPinned);
    EXPECT_EQ(fresh.data, pool.blockFor(addr));
    EXPECT_EQ(ctrl.imageBlockCount(), images);
    EXPECT_EQ(blocks.find(addr)->second.lastWrite, 500u);
}

TEST_F(LiveFaultTest, VersionOnlyRecordsAreNotImages)
{
    BlockTable blocks;
    pool.shareBlockTable(blocks);
    UnprotectedController ctrl(*dram, source());
    ctrl.shareBlockTable(blocks);
    ctrl.enableFaultInjection(RecoveryConfig{});
    const Addr filled = 2 * kBlockBytes;
    const Addr stored_only = 5 * kBlockBytes;
    ctrl.read(filled, 0);
    pool.bumpVersion(stored_only); // a record with a version, no image
    EXPECT_EQ(blocks.size(), 2u);
    EXPECT_EQ(ctrl.imageBlockCount(), 1u);
    EXPECT_EQ(ctrl.imageAddressesSorted(), std::vector<Addr>{filled});

    // The scrubber and the injector see no image there.
    ctrl.patrolScrub(stored_only, 100);
    EXPECT_EQ(ctrl.errorLog().scrubbedBlocks, 0u);
    EXPECT_FALSE(ctrl.injectFault(stored_only, {3}, 100, false));
    EXPECT_EQ(ctrl.errorLog().coldFaults, 1u);
    ctrl.patrolScrub(filled, 200);
    EXPECT_EQ(ctrl.errorLog().scrubbedBlocks, 1u);
    EXPECT_EQ(ctrl.imageBlockCount(), 1u);
    EXPECT_EQ(ctrl.imageOf(stored_only), nullptr);
}

TEST_F(LiveFaultTest, SilentFillWithoutFaultStillPanics)
{
    // The oracle keeps catching genuine encoder bugs: a mismatch on a
    // block nobody injected into must abort, faults enabled or not.
    UnprotectedController ctrl(*dram, source());
    ctrl.enableFaultInjection(RecoveryConfig{});
    ctrl.read(0, 0);
    EXPECT_DEATH(ctrl.noteSilentFill(0, VulnClass::Unprotected, 100),
                 "no fault injected there");
}

TEST_F(LiveFaultTest, InjectFaultBitOutOfRangePanics)
{
    EccDimmController ctrl(*dram, source());
    ctrl.enableFaultInjection(RecoveryConfig{});
    ctrl.read(0, 0);
    EXPECT_DEATH(ctrl.injectFault(0, {600}, 100, false),
                 "out of range for a 576-bit stored image");
}

TEST_F(LiveFaultTest, StoredBitsFollowDecodeGeometry)
{
    CopErNaiveController naive(*dram, source(), 4, 64 << 10);
    naive.enableFaultInjection(RecoveryConfig{});
    const Addr comp = findAddr(naive, false);
    const Addr raw = findAddr(naive, true);
    EXPECT_EQ(naive.storedBits(comp), kBlockBits);
    EXPECT_EQ(naive.storedBits(raw), kBlockBits + 11);

    CopErController coper(*dram, source(), 4, 64 << 10);
    coper.enableFaultInjection(RecoveryConfig{});
    const Addr comp2 = findAddr(coper, false);
    EXPECT_EQ(coper.storedBits(comp2), kBlockBits);
}

// ---------------------------------------------------------------------
// LiveInjector event sources.
// ---------------------------------------------------------------------

TEST_F(LiveFaultTest, CampaignFaultsFireInCycleOrder)
{
    EccDimmController ctrl(*dram, source());
    ctrl.enableFaultInjection(RecoveryConfig{});
    ctrl.read(0, 0);
    ctrl.read(kBlockBytes, 0);

    FaultConfig cfg;
    cfg.enabled = true;
    cfg.campaign = {
        PlannedFault{500, kBlockBytes, {3}, false},
        PlannedFault{100, 0, {1}, false},
    };
    LiveInjector inj(cfg, ctrl, 0, 0);

    inj.advanceTo(99);
    EXPECT_EQ(ctrl.errorLog().faultEvents, 0u);
    inj.advanceTo(100);
    EXPECT_EQ(ctrl.errorLog().faultEvents, 1u);
    inj.advanceTo(10000);
    EXPECT_EQ(ctrl.errorLog().faultEvents, 2u);
    EXPECT_EQ(ctrl.errorLog().bitsFlipped, 2u);
}

TEST_F(LiveFaultTest, PoissonStreamIsDeterministic)
{
    auto run = [&]() {
        DramConfig dcfg;
        dcfg.refreshEnabled = false;
        DramSystem d(dcfg);
        UnprotectedController ctrl(d, source());
        ctrl.enableFaultInjection(RecoveryConfig{});
        for (Addr a = 0; a < 64 * kBlockBytes; a += kBlockBytes)
            ctrl.read(a, 0);
        FaultConfig cfg;
        cfg.enabled = true;
        cfg.eventsPerMegacycle = 5000.0;
        cfg.seed = 42;
        LiveInjector inj(cfg, ctrl, 64 * kBlockBytes, 7);
        inj.advanceTo(1000000);
        const ErrorLog &log = ctrl.errorLog();
        return std::pair<u64, u64>(log.faultEvents, log.bitsFlipped);
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a, b);
    EXPECT_GT(a.first, 0u);
}

TEST_F(LiveFaultTest, PatrolScrubHealsBeforeDemandRead)
{
    EccDimmController ctrl(*dram, source());
    ctrl.enableFaultInjection(RecoveryConfig{});
    const Addr addr = 2 * kBlockBytes;
    ctrl.read(addr, 0);
    EXPECT_TRUE(ctrl.injectFault(addr, {8}, 100, false));

    FaultConfig cfg;
    cfg.enabled = true;
    cfg.scrubIntervalCycles = 1000;
    LiveInjector inj(cfg, ctrl, 0, 0);
    inj.advanceTo(100000); // many passes over the one stored image

    const ErrorLog &log = ctrl.errorLog();
    EXPECT_GT(log.scrubbedBlocks, 0u);
    EXPECT_GT(log.scrubReads, 0u);
    EXPECT_EQ(log.scrubCorrected, 1u);

    // The demand read finds a clean image: no correction, no event.
    const MemReadResult r = ctrl.read(addr, 200000);
    EXPECT_FALSE(r.correctedError);
    EXPECT_FALSE(r.faultedBlock);
    EXPECT_EQ(log.corrected, 0u);
}

// ---------------------------------------------------------------------
// System-level acceptance.
// ---------------------------------------------------------------------

/** Small-footprint copy of a profile so Poisson strikes land warm. */
WorkloadProfile
warmProfile(const char *name)
{
    WorkloadProfile p = WorkloadRegistry::byName(name);
    p.footprintBlocks = 1u << 12;
    return p;
}

SystemConfig
faultyConfig(ControllerKind kind, unsigned flips, double rate,
             Cycle scrub_interval = 0)
{
    SystemConfig cfg;
    cfg.cores = 2;
    cfg.kind = kind;
    cfg.epochsPerCore = 1200;
    cfg.llc = CacheConfig{64ULL << 10, 8, 34};
    cfg.verifyData = true;
    cfg.fault.enabled = true;
    cfg.fault.eventsPerMegacycle = rate;
    cfg.fault.flipsPerEvent = flips;
    cfg.fault.seed = 0xBEEF;
    cfg.fault.scrubIntervalCycles = scrub_interval;
    return cfg;
}

class LiveFaultKinds : public ::testing::TestWithParam<ControllerKind>
{
};

TEST_P(LiveFaultKinds, CompletesUnderFaultsWithOracleArmed)
{
    const WorkloadProfile profile = warmProfile("mcf");
    System sys(profile, faultyConfig(GetParam(), 2, 150.0));
    const SystemResults r = sys.run();
    EXPECT_GT(r.instructions, 0u);
    EXPECT_GT(r.errors.faultEvents, 0u);
    // Every injected event was either observed at a fill, healed, or
    // never read again — but nothing aborted the run.
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, LiveFaultKinds,
    ::testing::Values(ControllerKind::Unprotected,
                      ControllerKind::EccDimm, ControllerKind::EccRegion,
                      ControllerKind::Cop4, ControllerKind::Cop8,
                      ControllerKind::CopEr, ControllerKind::CopErNaive),
    [](const ::testing::TestParamInfo<ControllerKind> &info) {
        std::string name = controllerKindName(info.param);
        std::erase_if(name, [](char c) { return !std::isalnum(c); });
        return name;
    });

TEST(LiveFaultSystem, ErrorLogDeterministicForFixedSeed)
{
    const WorkloadProfile profile = warmProfile("lbm");
    auto run = [&]() {
        System sys(profile, faultyConfig(ControllerKind::Cop4, 2, 150.0,
                                         500000));
        return sys.run();
    };
    const SystemResults a = run();
    const SystemResults b = run();
    std::string ja, jb;
    appendResultsJson(ja, a);
    appendResultsJson(jb, b);
    EXPECT_EQ(ja, jb);
    ASSERT_EQ(a.errors.events.size(), b.errors.events.size());
    for (size_t i = 0; i < a.errors.events.size(); ++i) {
        EXPECT_EQ(a.errors.events[i].cycle, b.errors.events[i].cycle);
        EXPECT_EQ(a.errors.events[i].addr, b.errors.events[i].addr);
        EXPECT_EQ(a.errors.events[i].kind, b.errors.events[i].kind);
    }
}

TEST(LiveFaultSystem, PatrolScrubberConsumesBandwidthAndCorrects)
{
    const WorkloadProfile profile = warmProfile("mcf");
    System sys(profile,
               faultyConfig(ControllerKind::EccDimm, 1, 400.0, 100000));
    const SystemResults r = sys.run();
    EXPECT_GT(r.errors.scrubbedBlocks, 0u);
    EXPECT_GT(r.errors.scrubReads, 0u);
    EXPECT_GT(r.errors.scrubCorrected, 0u);
    // Single-bit faults never become uncorrectable or silent.
    EXPECT_EQ(r.errors.detected, 0u);
    EXPECT_EQ(r.errors.silent, 0u);
}

TEST(LiveFaultSystem, Cop4TwoFlipOutcomesMatchConditionalModel)
{
    // Acceptance band: the measured silent share of uncorrected 2-flip
    // outcomes under COP-4B must sit within the analytic conditional
    // prediction band. Note the cross-word patterns that go silent are
    // misdecoded as raw, so the silent fills are logged under the raw
    // class — the split only makes sense at run level (same-word DUEs
    // land in CopProtected4, cross-word silents in Unprotected).
    WorkloadProfile profile = warmProfile("mcf");
    profile.footprintBlocks = 1u << 11;
    SystemConfig cfg = faultyConfig(ControllerKind::Cop4, 2, 1500.0);
    cfg.epochsPerCore = 8000;
    System sys(profile, cfg);
    const SystemResults r = sys.run();
    EXPECT_GT(r.errors.of(VulnClass::CopProtected4).detected, 0u);
    const u64 uncorrected = r.errors.detected + r.errors.silent;
    ASSERT_GE(uncorrected, 40u)
        << "campaign too small for a stable fraction";
    const double silent_frac = static_cast<double>(r.errors.silent) /
                               static_cast<double>(uncorrected);
    const ConditionalOutcome model =
        ErrorRateModel::conditionalOutcome(VulnClass::CopProtected4, 2);
    const double model_silent_frac =
        model.silent / (model.silent + model.detected);
    EXPECT_NEAR(silent_frac, model_silent_frac, 0.15);
}

} // namespace
} // namespace cop
