/**
 * @file
 * Randomized equivalence tests for the open-addressing FlatMap/FlatSet
 * against std::unordered_map/std::unordered_set: same operation
 * sequence, same observable contents. Exercises backward-shift deletion
 * under heavy collision chains, rehash growth, and non-trivial value
 * types (CacheBlock, std::vector), including a footprint-sized table
 * through two rehashes. Direct cases pin the control-byte
 * layout: keys whose tags collide, erase across the array's wrap, and
 * slot placement against a plain linear-probing model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/cache_block.hpp"
#include "common/flat_map.hpp"
#include "common/rng.hpp"

namespace cop {
namespace {

/** Draw keys the simulator actually uses: block-aligned addresses from
 *  a small (collision-heavy) domain plus far-away metadata spaces. */
u64
drawKey(Rng &rng)
{
    const u64 r = rng.below(3);
    if (r == 0)
        return rng.below(512) * 64;
    if (r == 1)
        return (1ULL << 40) + rng.below(256) * 64;
    return rng.next();
}

TEST(FlatMap, RandomizedEquivalenceWithUnorderedMap)
{
    Rng rng(0xF1A7);
    FlatMap<u64> flat;
    std::unordered_map<u64, u64> ref;

    for (unsigned op = 0; op < 50000; ++op) {
        const u64 key = drawKey(rng);
        switch (rng.below(5)) {
          case 0:
          case 1: { // emplace
            const u64 val = rng.next();
            const auto [fit, finserted] = flat.emplace(key, val);
            const auto [rit, rinserted] = ref.emplace(key, val);
            EXPECT_EQ(finserted, rinserted);
            EXPECT_EQ(fit->second, rit->second);
            break;
          }
          case 2: { // operator[]
            const u64 val = rng.next();
            flat[key] = val;
            ref[key] = val;
            break;
          }
          case 3: // erase
            EXPECT_EQ(flat.erase(key), ref.erase(key));
            break;
          default: { // lookup
            EXPECT_EQ(flat.count(key), ref.count(key));
            const auto fit = flat.find(key);
            const auto rit = ref.find(key);
            ASSERT_EQ(fit == flat.end(), rit == ref.end());
            if (rit != ref.end()) {
                EXPECT_EQ(fit->second, rit->second);
            }
            break;
          }
        }
        ASSERT_EQ(flat.size(), ref.size());
    }

    // Full-content equivalence, both directions.
    u64 iterated = 0;
    for (const auto &[key, val] : flat) {
        const auto rit = ref.find(key);
        ASSERT_NE(rit, ref.end()) << key;
        EXPECT_EQ(val, rit->second);
        ++iterated;
    }
    EXPECT_EQ(iterated, ref.size());
    for (const auto &[key, val] : ref)
        EXPECT_EQ(flat.find(key)->second, val);
}

TEST(FlatSet, RandomizedEquivalenceWithUnorderedSet)
{
    Rng rng(0x5E7);
    FlatSet flat;
    std::unordered_set<u64> ref;

    for (unsigned op = 0; op < 30000; ++op) {
        const u64 key = drawKey(rng);
        if (rng.chance(0.3)) {
            EXPECT_EQ(flat.erase(key), ref.erase(key));
        } else {
            EXPECT_EQ(flat.insert(key), ref.insert(key).second);
        }
        EXPECT_EQ(flat.count(key), ref.count(key));
        ASSERT_EQ(flat.size(), ref.size());
    }
    for (const u64 key : ref)
        EXPECT_EQ(flat.count(key), 1u);
}

/** A key-dependent value of @p V (u64, or the stuck-bits map's type). */
template <typename V>
V
valueFor(u64 x)
{
    if constexpr (std::is_same_v<V, u64>)
        return x;
    else
        return V{static_cast<unsigned>(x), static_cast<unsigned>(x >> 7)};
}

/** Every entry of @p flat is in @p ref with the same value, and back. */
template <typename V>
void
expectSameContents(const FlatMap<V> &flat,
                   const std::unordered_map<u64, V> &ref)
{
    ASSERT_EQ(flat.size(), ref.size());
    u64 iterated = 0;
    for (const auto &[key, val] : flat) {
        const auto rit = ref.find(key);
        ASSERT_NE(rit, ref.end()) << key;
        ASSERT_EQ(val, rit->second) << key;
        ++iterated;
    }
    ASSERT_EQ(iterated, ref.size());
    for (const auto &[key, val] : ref) {
        const auto fit = flat.find(key);
        ASSERT_NE(fit, flat.end()) << key;
        ASSERT_EQ(fit->second, val) << key;
    }
}

/**
 * A footprint-sized table: reserved at 2^17 slots, then driven through
 * inserts, updates and backward-shift erases of live keys until it has
 * rehashed twice (2^17 -> 2^18 -> 2^19), checked against
 * std::unordered_map at each growth and at the end. Moving the result
 * must hand over every live entry.
 */
template <typename V>
void
largeTableMatchesUnorderedMap()
{
    FlatMap<V> flat;
    flat.reserve(100000);
    ASSERT_EQ(flat.capacity(), u64{1} << 17);
    std::unordered_map<u64, V> ref;
    std::vector<u64> inserted;
    Rng rng(0x1A46E);
    unsigned rehashes = 0;
    while (rehashes < 2 || flat.size() < 240000) {
        const u64 before = flat.capacity();
        const u64 r = rng.below(10);
        if (r < 7) {
            const u64 key = rng.below(u64{1} << 22) * kBlockBytes;
            const V val = valueFor<V>(rng.next());
            const bool fresh = flat.emplace(key, val).second;
            ASSERT_EQ(fresh, ref.emplace(key, val).second);
            if (fresh)
                inserted.push_back(key);
        } else if (r < 9 && !inserted.empty()) {
            const u64 key = inserted[rng.below(inserted.size())];
            ASSERT_EQ(flat.erase(key), ref.erase(key));
        } else if (!inserted.empty()) {
            const u64 key = inserted[rng.below(inserted.size())];
            const V val = valueFor<V>(rng.next());
            flat[key] = val;
            ref[key] = val;
        }
        if (flat.capacity() != before) {
            ASSERT_EQ(flat.capacity(), before * 2);
            ++rehashes;
            expectSameContents(flat, ref);
        }
    }
    EXPECT_EQ(rehashes, 2u);
    EXPECT_EQ(flat.capacity(), u64{1} << 19);
    expectSameContents(flat, ref);

    FlatMap<V> moved = std::move(flat);
    expectSameContents(moved, ref);
    EXPECT_TRUE(flat.empty());
}

TEST(FlatMap, LargeTableOfTrivialValuesMatchesUnorderedMap)
{
    largeTableMatchesUnorderedMap<u64>();
}

TEST(FlatMap, LargeTableOfVectorValuesMatchesUnorderedMap)
{
    largeTableMatchesUnorderedMap<std::vector<unsigned>>();
}

TEST(FlatMap, BackwardShiftEraseKeepsDenseChainsIntact)
{
    // Dense consecutive small keys probe into long collision chains
    // after mixing; deleting every other key forces the backward-shift
    // path to repair chains rather than leave tombstones.
    FlatMap<u64> flat;
    constexpr u64 kN = 4096;
    for (u64 k = 0; k < kN; ++k)
        flat.emplace(k, k * 3);
    for (u64 k = 0; k < kN; k += 2)
        EXPECT_EQ(flat.erase(k), 1u);
    EXPECT_EQ(flat.size(), kN / 2);
    for (u64 k = 0; k < kN; ++k) {
        if (k % 2 == 0) {
            EXPECT_EQ(flat.count(k), 0u) << k;
        } else {
            ASSERT_EQ(flat.count(k), 1u) << k;
            EXPECT_EQ(flat.find(k)->second, k * 3);
        }
    }
    // Erased keys can be reinserted afterwards.
    for (u64 k = 0; k < kN; k += 2)
        flat.emplace(k, k + 1);
    EXPECT_EQ(flat.size(), kN);
    EXPECT_EQ(flat.find(10)->second, 11u);
    EXPECT_EQ(flat.find(11)->second, 33u);
}

TEST(FlatMap, ReserveAvoidsRehashAndGrowthIsAutomatic)
{
    FlatMap<u64> flat;
    flat.reserve(10000);
    const u64 cap = flat.capacity();
    EXPECT_GE(cap, 10000u);
    for (u64 k = 0; k < 10000; ++k)
        flat.emplace(k * 64, k);
    EXPECT_EQ(flat.capacity(), cap) << "reserve() must pre-size";

    FlatMap<u64> growing;
    for (u64 k = 0; k < 10000; ++k)
        growing.emplace(k * 64, k);
    EXPECT_EQ(growing.size(), 10000u);
    for (u64 k = 0; k < 10000; ++k)
        ASSERT_EQ(growing.find(k * 64)->second, k);
}

TEST(FlatMap, CacheBlockValuesSurviveRehash)
{
    FlatMap<CacheBlock> flat;
    for (u64 k = 0; k < 300; ++k) {
        CacheBlock b;
        b.setWord64(0, k ^ 0xDEADBEEFULL);
        b.setByte(63, static_cast<u8>(k));
        flat.emplace(k * 64, b);
    }
    for (u64 k = 0; k < 300; ++k) {
        const auto it = flat.find(k * 64);
        ASSERT_NE(it, flat.end());
        EXPECT_EQ(it->second.word64(0), k ^ 0xDEADBEEFULL);
        EXPECT_EQ(it->second.byte(63), static_cast<u8>(k));
    }
}

TEST(FlatMap, VectorValuesAndEmplaceSkipsConstructionWhenPresent)
{
    FlatMap<std::vector<unsigned>> flat;
    flat.emplace(7, std::vector<unsigned>{1, 2, 3});
    // Second emplace with a different payload must not overwrite.
    const auto [it, inserted] =
        flat.emplace(7, std::vector<unsigned>{9, 9});
    EXPECT_FALSE(inserted);
    EXPECT_EQ(it->second, (std::vector<unsigned>{1, 2, 3}));
    flat[7].push_back(4);
    EXPECT_EQ(flat.find(7)->second.back(), 4u);
    flat[8]; // operator[] default-constructs
    EXPECT_TRUE(flat.find(8)->second.empty());
    EXPECT_EQ(flat.size(), 2u);
}

TEST(FlatMap, ClearResetsToEmpty)
{
    FlatMap<u64> flat;
    for (u64 k = 0; k < 100; ++k)
        flat.emplace(k, k);
    flat.clear();
    EXPECT_TRUE(flat.empty());
    EXPECT_EQ(flat.count(5), 0u);
    EXPECT_EQ(flat.begin(), flat.end());
    flat.emplace(5, 50);
    EXPECT_EQ(flat.find(5)->second, 50u);
}

/** Home slot of @p key in a table of @p capacity slots. */
u64
homeSlot(u64 key, u64 capacity)
{
    return detail::flatHash(key) & (capacity - 1);
}

/** Slot index of @p key, from its entry's offset to the first one. */
template <typename V>
std::ptrdiff_t
offsetFromBegin(const FlatMap<V> &map, u64 key)
{
    return &*map.find(key) - &*map.begin();
}

TEST(FlatMap, KeysSharingHomeSlotAndTagStayDistinct)
{
    // Two keys with the same home slot in a 16-slot table and the same
    // 7-bit tag: the control bytes match, so only the key compare can
    // tell them apart.
    constexpr u64 kCap = 16;
    const u64 a = 64;
    const auto same = [&](u64 k) {
        return homeSlot(k, kCap) == homeSlot(a, kCap) &&
               detail::flatTag(detail::flatHash(k)) ==
                   detail::flatTag(detail::flatHash(a));
    };
    u64 b = a + 64;
    while (!same(b))
        b += 64;

    FlatMap<u64> flat;
    EXPECT_TRUE(flat.emplace(a, 1).second);
    EXPECT_EQ(flat.count(b), 0u);
    EXPECT_EQ(flat.erase(b), 0u);
    EXPECT_TRUE(flat.emplace(b, 2).second);
    ASSERT_EQ(flat.capacity(), kCap);
    EXPECT_FALSE(flat.emplace(a, 9).second);
    EXPECT_FALSE(flat.emplace(b, 9).second);
    EXPECT_EQ(flat.find(a)->second, 1u);
    EXPECT_EQ(flat.find(b)->second, 2u);
    EXPECT_EQ(offsetFromBegin(flat, b) - offsetFromBegin(flat, a), 1);

    // Erasing the first pulls the second back into the home slot.
    EXPECT_EQ(flat.erase(a), 1u);
    EXPECT_EQ(flat.count(a), 0u);
    EXPECT_EQ(flat.find(b)->second, 2u);
    EXPECT_TRUE(flat.emplace(a, 3).second);
    EXPECT_EQ(flat.find(a)->second, 3u);
    EXPECT_EQ(flat.erase(b), 1u);
    EXPECT_EQ(flat.find(a)->second, 3u);
    EXPECT_EQ(flat.size(), 1u);
}

TEST(FlatMap, BackwardShiftEraseAcrossTheWrap)
{
    // Three keys homed in the last slot of a 16-slot table fill slots
    // 15, 0 and 1; a key homed in slot 0 then lands in slot 2.
    constexpr u64 kCap = 16;
    std::vector<u64> last;
    u64 first_home = 0;
    for (u64 k = 64; last.size() < 3 || first_home == 0; k += 64) {
        if (homeSlot(k, kCap) == kCap - 1 && last.size() < 3)
            last.push_back(k);
        else if (homeSlot(k, kCap) == 0 && first_home == 0)
            first_home = k;
    }
    FlatMap<u64> flat;
    for (const u64 k : last)
        flat.emplace(k, k + 1);
    flat.emplace(first_home, first_home + 1);
    ASSERT_EQ(flat.capacity(), kCap);
    // Slot order from 0: last[1], last[2], first_home, ..., last[0].
    EXPECT_EQ(flat.begin()->first, last[1]);
    EXPECT_EQ(offsetFromBegin(flat, first_home), 2);
    EXPECT_EQ(offsetFromBegin(flat, last[0]), 15);

    // Erasing slot 15 shifts the whole chain back across the wrap:
    // last[1] -> 15, last[2] -> 0, first_home -> 1 (its home).
    EXPECT_EQ(flat.erase(last[0]), 1u);
    EXPECT_EQ(flat.begin()->first, last[2]);
    EXPECT_EQ(offsetFromBegin(flat, first_home), 1);
    EXPECT_EQ(offsetFromBegin(flat, last[1]), 15);
    for (const u64 k : {last[1], last[2], first_home})
        EXPECT_EQ(flat.find(k)->second, k + 1);
    EXPECT_EQ(flat.count(last[0]), 0u);

    // And again from the wrapped position: erasing slot 0 moves
    // first_home (homed at 0) back to slot 0.
    EXPECT_EQ(flat.erase(last[2]), 1u);
    EXPECT_EQ(flat.begin()->first, first_home);
    EXPECT_EQ(offsetFromBegin(flat, last[1]), 15);
    EXPECT_EQ(flat.size(), 2u);
}

TEST(FlatMap, PlacementMatchesPlainLinearProbingModel)
{
    // An independent model of the placement rule: same hash, linear
    // probing to the first empty slot, doubling once an insert would
    // pass 7/8 load, rehashing the old slots in index order.
    std::vector<std::optional<u64>> model(16);
    u64 model_size = 0;
    const auto place = [](std::vector<std::optional<u64>> &slots, u64 k) {
        u64 pos = homeSlot(k, slots.size());
        while (slots[pos])
            pos = (pos + 1) & (slots.size() - 1);
        slots[pos] = k;
    };

    Rng rng(0x91AC);
    std::vector<u64> keys;
    for (u64 k = 0; k < 3000; ++k)
        keys.push_back(k * 64);
    for (u64 k = 0; k < 3000; ++k)
        keys.push_back((1ULL << 40) + rng.below(1u << 20) * 64);
    for (u64 k = 0; k < 1000; ++k)
        keys.push_back(rng.next());

    FlatMap<u64> flat;
    for (const u64 k : keys) {
        const bool fresh = flat.emplace(k, k).second;
        const bool model_fresh =
            std::none_of(model.begin(), model.end(),
                         [&](const std::optional<u64> &s) { return s == k; });
        ASSERT_EQ(fresh, model_fresh);
        if (!fresh)
            continue;
        if (model_size + 1 > model.size() - model.size() / 8) {
            std::vector<std::optional<u64>> grown(model.size() * 2);
            for (const auto &s : model)
                if (s)
                    place(grown, *s);
            model = std::move(grown);
        }
        place(model, k);
        ++model_size;
    }

    ASSERT_EQ(flat.capacity(), model.size());
    ASSERT_EQ(flat.size(), model_size);
    std::vector<u64> model_order;
    std::vector<u64> model_index;
    for (u64 i = 0; i < model.size(); ++i) {
        if (model[i]) {
            model_order.push_back(*model[i]);
            model_index.push_back(i);
        }
    }
    std::vector<u64> flat_order;
    for (const auto &kv : flat)
        flat_order.push_back(kv.first);
    ASSERT_EQ(flat_order, model_order);
    for (u64 i = 0; i < model_order.size(); ++i) {
        ASSERT_EQ(offsetFromBegin(flat, model_order[i]),
                  static_cast<std::ptrdiff_t>(model_index[i] -
                                              model_index[0]))
            << model_order[i];
    }
}

} // namespace
} // namespace cop
