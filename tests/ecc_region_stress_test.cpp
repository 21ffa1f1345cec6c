/**
 * @file
 * Randomized stress tests of the COP-ER ECC region: long interleaved
 * allocate/free sequences must preserve every bookkeeping invariant
 * (validity, uniqueness, counts, high-water monotonicity), including
 * across full-L3-block boundaries where the valid-bit tree gets
 * exercised.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "core/ecc_region.hpp"

namespace cop {
namespace {

TEST(EccRegionStress, RandomAllocFreeInvariants)
{
    EccRegion region;
    Rng rng(1234);
    std::set<u32> live;
    u64 hw = 0;

    for (int step = 0; step < 50000; ++step) {
        const bool do_alloc = live.empty() || rng.chance(0.55);
        if (do_alloc) {
            const u32 idx = region.allocate();
            ASSERT_TRUE(live.insert(idx).second)
                << "allocator returned a live entry " << idx;
            ASSERT_TRUE(region.valid(idx));
            region.entryAt(idx).displaced = idx * 3 + 1;
            region.entryAt(idx).check = static_cast<u16>(idx & 0x7FF);
        } else {
            auto it = live.begin();
            std::advance(it,
                         static_cast<long>(rng.below(live.size())));
            const u32 idx = *it;
            // Payload must have survived since allocation.
            ASSERT_EQ(region.entryAt(idx).displaced, idx * 3 + 1);
            region.free(idx);
            ASSERT_FALSE(region.valid(idx));
            live.erase(it);
        }
        ASSERT_EQ(region.validEntries(), live.size());
        ASSERT_GE(region.highWaterEntries(), hw);
        hw = region.highWaterEntries();
        if (!live.empty()) {
            ASSERT_GE(hw, static_cast<u64>(*live.rbegin()) + 1);
        }
    }
    EXPECT_EQ(region.stats().allocs - region.stats().frees, live.size());
}

TEST(EccRegionStress, ChurnAcrossL3Boundary)
{
    // Fill past one L3 block's coverage, then free/refill across the
    // boundary to exercise tree-bit set/clear transitions.
    EccRegion region;
    const unsigned per_l3 = 501 * 11;
    std::vector<u32> all;
    for (unsigned i = 0; i < per_l3 + 100; ++i)
        all.push_back(region.allocate());

    Rng rng(99);
    for (int round = 0; round < 2000; ++round) {
        const u32 victim = all[rng.below(all.size())];
        if (!region.valid(victim)) {
            const u32 idx = region.allocate();
            ASSERT_TRUE(region.valid(idx));
        } else {
            region.free(victim);
        }
    }
    // Re-derive the live count from scratch.
    u64 live = 0;
    for (u32 i = 0; i < region.highWaterEntries(); ++i)
        live += region.valid(i);
    EXPECT_EQ(live, region.validEntries());
}

TEST(EccRegionStress, PackedAllocationRefillsHoles)
{
    EccRegion region;
    for (unsigned i = 0; i < 200; ++i)
        region.allocate();
    // Free a scattered subset entirely within the MRU L3 block.
    Rng rng(7);
    std::set<u32> freed;
    while (freed.size() < 50) {
        const u32 idx = static_cast<u32>(rng.below(200));
        if (freed.insert(idx).second)
            region.free(idx);
    }
    // The next 50 allocations must land exactly in the freed holes
    // (first-fit packing keeps the region dense).
    for (unsigned i = 0; i < 50; ++i) {
        const u32 idx = region.allocate();
        EXPECT_TRUE(freed.count(idx)) << idx;
    }
    EXPECT_EQ(region.highWaterEntries(), 200u);
}

TEST(EccRegionStress, StorageAccountingConsistentWithHighWater)
{
    EccRegion region;
    for (unsigned i = 0; i < 3000; ++i) {
        region.allocate();
        ASSERT_EQ(region.storageBlocksHighWater(),
                  EccRegion::storageBlocksForEntries(
                      region.highWaterEntries()));
    }
}

TEST(EccRegionStress, StorageForEntriesMonotone)
{
    u64 prev = 0;
    for (u64 n : {0ULL, 1ULL, 11ULL, 12ULL, 5511ULL, 5512ULL,
                  100000ULL, 2761011ULL}) {
        const u64 blocks = EccRegion::storageBlocksForEntries(n);
        EXPECT_GE(blocks, prev);
        prev = blocks;
        if (n > 0) {
            // Overhead bound: tree adds < 0.5% on top of entry blocks.
            const u64 entry_blocks = (n + 10) / 11;
            EXPECT_LE(blocks, entry_blocks + entry_blocks / 200 + 3);
        }
    }
}

} // namespace
} // namespace cop
