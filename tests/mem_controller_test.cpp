/**
 * @file
 * Tests for the memory-controller variants: read-your-writes through
 * the full encode/store/decode pipeline, metadata traffic accounting,
 * alias handling, COP-ER entry lifecycle, and vulnerability logging.
 */

#include <gtest/gtest.h>

#include "mem/coper_controller.hpp"
#include "mem/ecc_region_controller.hpp"
#include "test_blocks.hpp"
#include "test_memory.hpp"
#include "workloads/trace_gen.hpp"

namespace cop {
namespace {

/** Test fixture with a quiet DRAM and an mcf-like content pool. */
class ControllerTest : public ::testing::Test
{
  protected:
    ControllerTest()
        : profile(WorkloadRegistry::byName("mcf")), pool(profile),
          memory(pool)
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

    const WorkloadProfile &profile;
    BlockContentPool pool;
    /** Functional memory for the tests that write content back. */
    TestMemory memory;
    std::unique_ptr<DramSystem> dram;
};

TEST_F(ControllerTest, UnprotectedReadYourWrites)
{
    UnprotectedController ctrl(*dram, memory.source());
    const Addr addr = 7 * kBlockBytes;
    // First touch: initial content.
    EXPECT_EQ(ctrl.read(addr, 0).data, pool.blockFor(addr));
    // Write new content; read it back.
    pool.bumpVersion(addr);
    const CacheBlock updated = pool.blockFor(addr);
    memory.write(ctrl, addr, updated, 1000, false);
    EXPECT_EQ(ctrl.read(addr, 2000).data, updated);
}

TEST_F(ControllerTest, CopReadYourWritesAcrossManyBlocks)
{
    CopController ctrl(*dram, memory.source());
    Cycle now = 0;
    for (Addr addr = 0; addr < 500 * kBlockBytes; addr += kBlockBytes) {
        const MemReadResult r = ctrl.read(addr, now);
        ASSERT_EQ(r.data, pool.blockFor(addr)) << "addr " << addr;
        now = r.complete;
        // Update and write back.
        pool.bumpVersion(addr);
        const CacheBlock updated = pool.blockFor(addr);
        const MemWriteResult w =
            memory.write(ctrl, addr, updated, now, false);
        if (!w.aliasRejected) {
            const MemReadResult r2 = ctrl.read(addr, now + 100);
            ASSERT_EQ(r2.data, updated) << "addr " << addr;
        }
    }
    // mcf-like data is overwhelmingly compressible.
    const MemStats &s = ctrl.stats();
    EXPECT_GT(s.protectedWrites, s.unprotectedWrites * 5);
}

TEST_F(ControllerTest, CopAddsDecodeLatency)
{
    CopController cop(*dram, source(), CopConfig::fourByte(), 4);
    DramConfig quiet;
    quiet.refreshEnabled = false;
    DramSystem dram2(quiet);
    UnprotectedController plain(dram2, source());
    const Cycle cop_done = cop.read(0, 0).complete;
    const Cycle plain_done = plain.read(0, 0).complete;
    EXPECT_EQ(cop_done, plain_done + 4);
}

TEST_F(ControllerTest, CopMarksUncompressedFills)
{
    CopController ctrl(*dram, source());
    // Find an incompressible (random-category) block.
    for (Addr addr = 0; addr < 5000 * kBlockBytes; addr += kBlockBytes) {
        if (pool.categoryOf(addr) == BlockCategory::Random) {
            const MemReadResult r = ctrl.read(addr, 0);
            if (!r.aliasPinned) {
                EXPECT_TRUE(r.wasUncompressed);
                return;
            }
        }
    }
    FAIL() << "no random block found in footprint";
}

TEST_F(ControllerTest, CopWouldAliasRejectMatchesEncoder)
{
    CopController ctrl(*dram, source());
    Rng rng(3);
    // Protected-image bits as application data: incompressible alias.
    std::array<u8, 60> payload{};
    for (auto &b : payload)
        b = static_cast<u8>(rng.next());
    const CacheBlock alias_block = ctrl.codec().protectPayload(payload);
    EXPECT_TRUE(ctrl.wouldAliasReject(alias_block));
    const MemWriteResult w = ctrl.writeback(99 * kBlockBytes, alias_block,
                                            0, false);
    EXPECT_TRUE(w.aliasRejected);
    EXPECT_EQ(ctrl.stats().aliasRejects, 1u);

    // Normal data must not be rejected.
    EXPECT_FALSE(ctrl.wouldAliasReject(pool.blockFor(0)));
}

TEST_F(ControllerTest, EccRegionChargesMetadataTraffic)
{
    EccRegionController ctrl(*dram, source(), 1 << 14);
    // Touch many widely-spread blocks: each 32-block group needs its
    // own ECC block, and the tiny metadata cache forces misses.
    Cycle now = 0;
    for (unsigned i = 0; i < 200; ++i) {
        const Addr addr = static_cast<Addr>(i) * 32 * kBlockBytes;
        now = ctrl.read(addr, now).complete;
    }
    EXPECT_GT(ctrl.stats().metaCacheMisses, 150u);
    EXPECT_GT(ctrl.stats().metaReads, 150u);
}

TEST_F(ControllerTest, EccRegionMetaCacheCapturesLocality)
{
    EccRegionController ctrl(*dram, source());
    // 32 consecutive blocks share one ECC block: 1 miss, 31 hits.
    Cycle now = 0;
    for (unsigned i = 0; i < 32; ++i)
        now = ctrl.read(i * kBlockBytes, now).complete;
    EXPECT_EQ(ctrl.stats().metaCacheMisses, 1u);
    EXPECT_EQ(ctrl.stats().metaCacheHits, 31u);
}

TEST_F(ControllerTest, EccRegionStorageIsTwoBytesPerBlock)
{
    EXPECT_EQ(EccRegionController::storageBytesFor(1000), 2000u);
}

// ---------------------------------------------------------------------
// COP-ER.
// ---------------------------------------------------------------------

TEST_F(ControllerTest, CopErReadYourWrites)
{
    CopErController ctrl(*dram, memory.source());
    Cycle now = 0;
    for (Addr addr = 0; addr < 500 * kBlockBytes; addr += kBlockBytes) {
        const MemReadResult r = ctrl.read(addr, now);
        ASSERT_EQ(r.data, pool.blockFor(addr)) << "addr " << addr;
        ASSERT_FALSE(r.aliasPinned); // COP-ER never pins
        now = r.complete + 10;
        pool.bumpVersion(addr);
        const CacheBlock updated = pool.blockFor(addr);
        const MemWriteResult w =
            memory.write(ctrl, addr, updated, now, r.wasUncompressed);
        EXPECT_FALSE(w.aliasRejected);
        const MemReadResult r2 = ctrl.read(addr, now + 100);
        ASSERT_EQ(r2.data, updated) << "addr " << addr;
        now = r2.complete;
    }
}

TEST_F(ControllerTest, CopErAllocatesEntriesForIncompressibleOnly)
{
    CopErController ctrl(*dram, source());
    unsigned incompressible = 0;
    Cycle now = 0;
    for (Addr addr = 0; addr < 2000 * kBlockBytes; addr += kBlockBytes) {
        const MemReadResult r = ctrl.read(addr, now);
        incompressible += r.wasUncompressed;
        now = r.complete;
    }
    EXPECT_EQ(ctrl.region().validEntries(), incompressible);
    EXPECT_GT(incompressible, 0u);
}

TEST_F(ControllerTest, CopErFreesEntryWhenBlockBecomesCompressible)
{
    CopErController ctrl(*dram, memory.source());
    // Find an incompressible block.
    Addr target = 0;
    bool found = false;
    for (Addr addr = 0; addr < 5000 * kBlockBytes; addr += kBlockBytes) {
        if (pool.categoryOf(addr) == BlockCategory::Random) {
            target = addr;
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found);
    const MemReadResult r = ctrl.read(target, 0);
    ASSERT_TRUE(r.wasUncompressed);
    EXPECT_EQ(ctrl.region().validEntries(), 1u);

    // Overwrite with compressible data: the entry must be freed.
    const CacheBlock zeros;
    memory.write(ctrl, target, zeros, 1000, true);
    EXPECT_EQ(ctrl.region().validEntries(), 0u);
    EXPECT_EQ(ctrl.erStats().entryFrees, 1u);
    EXPECT_EQ(ctrl.read(target, 2000).data, zeros);
}

TEST_F(ControllerTest, CopErReusesEntryOnIncompressibleRewrite)
{
    CopErController ctrl(*dram, memory.source());
    Addr target = 0;
    for (Addr addr = 0;; addr += kBlockBytes) {
        ASSERT_LT(addr, 5000 * kBlockBytes);
        if (pool.categoryOf(addr) == BlockCategory::Random) {
            target = addr;
            break;
        }
    }
    const MemReadResult r = ctrl.read(target, 0);
    ASSERT_TRUE(r.wasUncompressed);

    pool.bumpVersion(target); // still Random category => incompressible
    const CacheBlock updated = pool.blockFor(target);
    memory.write(ctrl, target, updated, 1000, true);
    EXPECT_EQ(ctrl.erStats().entryReuses, 1u);
    EXPECT_EQ(ctrl.region().validEntries(), 1u);
    EXPECT_EQ(ctrl.read(target, 2000).data, updated);
}

TEST_F(ControllerTest, CopErRawRecordsNameEntriesThatRebuildTheirBlocks)
{
    // Fault-free fills never read a region entry back, so check the
    // entries directly. After rounds of allocations, reuses and frees,
    // each raw block's record names its own valid entry, and that
    // entry's displaced and check bits rebuild the block's current
    // content from the image the block is stored as.
    BlockTable table;
    CopErController ctrl(*dram, memory.source());
    ctrl.shareBlockTable(table);
    Rng rng(41);
    Cycle now = 0;
    for (unsigned round = 0; round < 3; ++round) {
        for (Addr addr = 0; addr < 400 * kBlockBytes; addr += kBlockBytes) {
            const MemReadResult r = ctrl.read(addr, now);
            CacheBlock next{}; // all-zero: compressible
            const u64 pick = rng.next() % 3;
            if (pick == 0) {
                pool.bumpVersion(addr);
                next = pool.blockFor(addr);
            } else if (pick == 1) {
                next = testblocks::random(rng);
            }
            now = r.complete + 10;
            memory.write(ctrl, addr, next, now, r.wasUncompressed);
        }
    }
    EXPECT_GT(ctrl.erStats().entryReuses, 0u);
    EXPECT_GT(ctrl.erStats().entryFrees, 0u);

    const CoperCodec coper(ctrl.codec());
    const MemoryController::ContentSource content = memory.source();
    FlatSet entries;
    u64 raw = 0;
    for (const auto &[addr, rec] : table) {
        if (rec.stored != Stored::Raw)
            continue;
        ++raw;
        ASSERT_TRUE(ctrl.region().valid(rec.entry)) << "addr " << addr;
        EXPECT_TRUE(entries.insert(rec.entry)) << "addr " << addr;
        const CacheBlock &data = content(addr);
        const CacheBlock stored =
            coper.encodeIncompressible(data, rec.entry).stored;
        const CoperDecodeResult back =
            coper.reconstruct(stored, ctrl.region().entryAt(rec.entry));
        EXPECT_EQ(back.data, data) << "addr " << addr;
        EXPECT_FALSE(back.blockEcc.corrected()) << "addr " << addr;
        EXPECT_FALSE(back.blockEcc.uncorrectable()) << "addr " << addr;
    }
    EXPECT_GT(raw, 0u);
    EXPECT_EQ(ctrl.region().validEntries(), raw);
}

TEST_F(ControllerTest, CopErUncompressedReadCostsEntryFetch)
{
    CopErController ctrl(*dram, source(), 4, 1 << 14);
    Addr target = 0;
    for (Addr addr = 0;; addr += kBlockBytes) {
        ASSERT_LT(addr, 5000 * kBlockBytes);
        if (pool.categoryOf(addr) == BlockCategory::Random) {
            target = addr;
            break;
        }
    }
    const MemReadResult r = ctrl.read(target, 0);
    EXPECT_TRUE(r.wasUncompressed);
    EXPECT_EQ(r.dramAccesses, 2u); // data + entry block
}

TEST_F(ControllerTest, VulnLogClassesMatchStorage)
{
    CopErController ctrl(*dram, source());
    Cycle now = 0;
    for (Addr addr = 0; addr < 1000 * kBlockBytes; addr += kBlockBytes)
        now = ctrl.read(addr, now).complete;
    const VulnLog &log = ctrl.vulnLog();
    EXPECT_GT(log.of(VulnClass::CopProtected4).reads, 0u);
    EXPECT_GT(log.of(VulnClass::CopErUncompressed).reads, 0u);
    EXPECT_EQ(log.of(VulnClass::Unprotected).reads, 0u);
    EXPECT_EQ(log.totalReads(), 1000u);
}

TEST_F(ControllerTest, VulnResidencyGrowsWithTime)
{
    UnprotectedController ctrl(*dram, source());
    ctrl.writeback(0, pool.blockFor(0), 1000, false);
    ctrl.read(0, 501000);
    const auto &entry = ctrl.vulnLog().of(VulnClass::Unprotected);
    EXPECT_EQ(entry.reads, 1u);
    EXPECT_DOUBLE_EQ(entry.totalCycles, 500000.0);
}

} // namespace
} // namespace cop
