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

} // namespace

BlockContentPool::BlockContentPool(const WorkloadProfile &profile,
                                   u64 seed_salt)
    : profile_(profile), seed_(profile.seed() ^ seed_salt)
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
    // The version is re-read on every call, so a store, setVersion or
    // another pool's bump on a shared table changes the key and forces
    // a regeneration; a repeat of the same pair (a first-touch fill and
    // its oracle check) reuses the block generateAt already produced.
    const u32 version = versionOf(block_addr);
    if (block_addr != scratchAddr_ || version != scratchVersion_) {
        scratch_ = generateAt(block_addr, version);
        scratchAddr_ = block_addr;
        scratchVersion_ = version;
    }
    return scratch_;
}

void
BlockContentPool::bumpVersion(Addr block_addr)
{
    ++(*blocks_)[block_addr].version;
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
                               unsigned core_id, u64 seed_salt, unsigned)
    : profile_(profile),
      rng_(profile.seed() ^ mix64(core_id + 1) ^ seed_salt),
      base_(profile.sharedFootprint
                ? 0
                : core_id * profile.footprintBlocks * kBlockBytes),
      pool_(profile, contentPoolSalt(profile, core_id))
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
