#include "workloads/trace_gen.hpp"

#include <algorithm>

namespace cop {

namespace {

/** splitmix64 finaliser — cheap, well-mixed hash. */
u64
mix64(u64 z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Power-of-two content-cache slot count (0 stays 0: counting only). */
u64
cacheSlotsFor(unsigned entries)
{
    if (entries == 0)
        return 0;
    u64 slots = 1;
    while (slots < entries)
        slots <<= 1;
    return slots;
}

} // namespace

BlockContentPool::BlockContentPool(const WorkloadProfile &profile,
                                   u64 seed_salt, unsigned cache_entries)
    : profile_(profile), seed_(profile.seed() ^ seed_salt),
      cacheSlots_(cacheSlotsFor(cache_entries)),
      cacheMask_(cacheSlots_ == 0 ? 0 : cacheSlots_ - 1)
{
    double acc = 0;
    for (unsigned c = 0; c < kBlockCategories; ++c) {
        acc += profile.mix.weight[c];
        cdf_[c] = acc;
    }
}

u64
BlockContentPool::mixHash(Addr block_addr) const
{
    return mix64(seed_ ^ (block_addr / kBlockBytes) * 0x9E3779B185EBCA87ULL);
}

BlockCategory
BlockContentPool::categoryFromUniform(double u) const
{
    for (unsigned c = 0; c < kBlockCategories; ++c) {
        if (u < cdf_[c])
            return static_cast<BlockCategory>(c);
    }
    return BlockCategory::Random;
}

BlockCategory
BlockContentPool::categoryOf(Addr block_addr) const
{
    const double u =
        static_cast<double>(mixHash(block_addr) >> 11) * 0x1.0p-53;
    return categoryFromUniform(u);
}

CacheBlock
BlockContentPool::generateAt(Addr block_addr, u32 version) const
{
    Rng rng(mixHash(block_addr) ^ mix64(version * 0xD6E8FEB86659FD93ULL));
    return generateBlock(categoryOf(block_addr), profile_.gen, rng);
}

const CacheBlock &
BlockContentPool::blockForRef(Addr block_addr) const
{
    ++blockForCalls_;
    u32 version = 0;
    if (!versions_.empty()) {
        if (auto it = versions_.find(block_addr); it != versions_.end())
            version = it->second;
    }

    if (cacheSlots_ == 0) {
        scratch_ = generateAt(block_addr, version);
        return scratch_;
    }
    if (cache_.empty())
        cache_.resize(cacheSlots_);

    // Direct-mapped on the block index: the hot working set is a
    // contiguous slice of the footprint, so it maps conflict-free. A
    // version bump leaves the stale entry in place — the full
    // (addr, version) compare rejects it and the regeneration below
    // overwrites the slot, so old versions can never be returned.
    CacheSlot &slot = cache_[(block_addr / kBlockBytes) & cacheMask_];
    if (slot.valid && slot.addr == block_addr &&
        slot.version == version) {
        ++contentCacheHits_;
        return slot.block;
    }
    slot.block = generateAt(block_addr, version);
    slot.addr = block_addr;
    slot.version = version;
    slot.valid = true;
    return slot.block;
}

void
BlockContentPool::bumpVersion(Addr block_addr)
{
    ++versions_[block_addr];
    if (bumpLogEnabled_)
        bumpLog_.push_back(block_addr);
}

std::vector<CacheBlock>
BlockContentPool::sample(unsigned n, u64 seed) const
{
    Rng rng(seed_ ^ mix64(seed));
    std::vector<CacheBlock> blocks;
    blocks.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        const BlockCategory c = categoryFromUniform(rng.uniform());
        blocks.push_back(generateBlock(c, profile_.gen, rng));
    }
    return blocks;
}

u64
contentPoolSalt(const WorkloadProfile &profile, unsigned core_id)
{
    return profile.sharedFootprint ? 0 : mix64(core_id);
}

TraceGenerator::TraceGenerator(const WorkloadProfile &profile,
                               unsigned core_id, u64 seed_salt,
                               unsigned content_cache_entries)
    : profile_(profile),
      rng_(profile.seed() ^ mix64(core_id + 1) ^ seed_salt),
      base_(profile.sharedFootprint
                ? 0
                : core_id * profile.footprintBlocks * kBlockBytes),
      pool_(profile, contentPoolSalt(profile, core_id),
            content_cache_entries)
{
    cursor_ = rng_.below(profile.footprintBlocks);
}

Addr
TraceGenerator::pickAddress()
{
    if (rng_.chance(profile_.streamFraction)) {
        cursor_ = (cursor_ + 1) % profile_.footprintBlocks;
    } else if (rng_.chance(0.75)) {
        // Non-streaming references cluster on a hot working set
        // (1/16th of the footprint) — the temporal locality that lets
        // cached ECC metadata blocks get reused.
        const u64 hot = std::max<u64>(1, profile_.footprintBlocks / 16);
        cursor_ = rng_.below(hot);
    } else {
        cursor_ = rng_.below(profile_.footprintBlocks);
    }
    return base_ + cursor_ * kBlockBytes;
}

const Epoch &
TraceGenerator::next()
{
    Epoch &epoch = epoch_;
    epoch.accesses.clear();
    // Epoch length: profile.mlp overlappable references per epoch, with
    // the instruction count implied by the L3 reference rate. Jitter of
    // +/- 50% keeps the stream from being perfectly periodic.
    const double mean_instr =
        profile_.mlp / profile_.l3Apki * 1000.0;
    epoch.instructions = static_cast<u64>(
        mean_instr * (0.5 + rng_.uniform()));
    if (epoch.instructions == 0)
        epoch.instructions = 1;

    const unsigned count =
        1 + static_cast<unsigned>(rng_.below(2 * profile_.mlp));
    epoch.accesses.reserve(count);
    for (unsigned i = 0; i < count; ++i) {
        epoch.accesses.push_back(
            {pickAddress(), rng_.chance(profile_.writeFraction)});
    }
    return epoch;
}

} // namespace cop
