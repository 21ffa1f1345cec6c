/**
 * @file
 * Tests for the naive COP-ER controller (paper Section 3.3's
 * full-size-region variant): read-your-writes, region traffic only on
 * incompressible fills, alias rejection like plain COP, and full-size
 * storage accounting.
 */

#include <gtest/gtest.h>

#include "mem/coper_naive_controller.hpp"
#include "test_blocks.hpp"
#include "workloads/trace_gen.hpp"

namespace cop {
namespace {

class NaiveCoperTest : public ::testing::Test
{
  protected:
    NaiveCoperTest()
        : profile(WorkloadRegistry::byName("bzip2")), pool(profile)
    {
        DramConfig cfg;
        cfg.refreshEnabled = false;
        dram = std::make_unique<DramSystem>(cfg);
        ctrl = std::make_unique<CopErNaiveController>(
            *dram, [this](Addr a) -> const CacheBlock & {
                return pool.blockForRef(a);
            });
    }

    const WorkloadProfile &profile;
    BlockContentPool pool;
    std::unique_ptr<DramSystem> dram;
    std::unique_ptr<CopErNaiveController> ctrl;
};

TEST_F(NaiveCoperTest, ReadYourWrites)
{
    Cycle now = 0;
    for (Addr addr = 0; addr < 400 * kBlockBytes; addr += kBlockBytes) {
        const MemReadResult r = ctrl->read(addr, now);
        if (!r.aliasPinned) {
            ASSERT_EQ(r.data, pool.blockFor(addr)) << addr;
        }
        now = r.complete;
        pool.bumpVersion(addr);
        const CacheBlock updated = pool.blockFor(addr);
        const MemWriteResult w = ctrl->writeback(addr, updated, now, false);
        if (!w.aliasRejected) {
            ASSERT_EQ(ctrl->read(addr, now + 10).data, updated) << addr;
        }
    }
}

TEST_F(NaiveCoperTest, CompressibleFillsSkipTheRegion)
{
    // Touch only compressible (zero-category) blocks: no meta traffic.
    unsigned found = 0;
    Cycle now = 0;
    for (Addr addr = 0; addr < 4000 * kBlockBytes && found < 50;
         addr += kBlockBytes) {
        if (pool.categoryOf(addr) != BlockCategory::Zero)
            continue;
        ++found;
        now = ctrl->read(addr, now).complete;
    }
    ASSERT_EQ(found, 50u);
    EXPECT_EQ(ctrl->stats().metaReads, 0u);
    EXPECT_EQ(ctrl->stats().metaCacheMisses, 0u);
}

TEST_F(NaiveCoperTest, IncompressibleFillsChargeTheRegion)
{
    unsigned found = 0;
    Cycle now = 0;
    for (Addr addr = 0; addr < 4000 * kBlockBytes && found < 20;
         addr += kBlockBytes) {
        if (pool.categoryOf(addr) != BlockCategory::Random)
            continue;
        ++found;
        const MemReadResult r = ctrl->read(addr, now);
        EXPECT_TRUE(r.wasUncompressed);
        now = r.complete;
    }
    ASSERT_EQ(found, 20u);
    EXPECT_GT(ctrl->stats().metaReads, 0u);
}

TEST_F(NaiveCoperTest, AliasStillRejectedLikePlainCop)
{
    // The naive variant has no pointer displacement, so it cannot
    // de-alias: writebacks of incompressible aliases must be refused.
    Rng rng(5);
    std::array<u8, 60> payload{};
    for (auto &b : payload)
        b = static_cast<u8>(rng.next());
    const CacheBlock alias_block =
        ctrl->codec().protectPayload(payload);
    ASSERT_TRUE(ctrl->wouldAliasReject(alias_block));
    const MemWriteResult w =
        ctrl->writeback(7 * kBlockBytes, alias_block, 0, false);
    EXPECT_TRUE(w.aliasRejected);
}

TEST_F(NaiveCoperTest, StorageIsFullSize)
{
    // Same reservation as the Virtualized-ECC-style baseline.
    EXPECT_EQ(CopErNaiveController::storageBytesFor(5000), 10000u);
}

TEST_F(NaiveCoperTest, VulnClassesMatchOptimisedCopEr)
{
    Cycle now = 0;
    for (Addr addr = 0; addr < 500 * kBlockBytes; addr += kBlockBytes)
        now = ctrl->read(addr, now).complete;
    EXPECT_GT(ctrl->vulnLog().of(VulnClass::CopProtected4).reads, 0u);
    EXPECT_GT(ctrl->vulnLog().of(VulnClass::CopErUncompressed).reads, 0u);
    EXPECT_EQ(ctrl->vulnLog().of(VulnClass::Unprotected).reads, 0u);
}

} // namespace
} // namespace cop
