/**
 * @file
 * Benchmark workload profiles — the synthetic stand-ins for the
 * SPEC CPU2006 and PARSEC workloads of the paper's evaluation
 * (Tables 1-2, Figures 1, 4, 8-12). Each profile pairs a block-content
 * mix (what the data looks like, which drives compressibility) with an
 * access model (footprint, L3 reference rate, memory-level parallelism,
 * perfect-L3 IPC — the inputs of the interval performance model).
 *
 * The numbers are calibrated judgments, not measurements of the real
 * benchmarks; DESIGN.md section 1 explains why this substitution
 * preserves the behaviours COP's evaluation depends on.
 */

#ifndef COP_WORKLOADS_PROFILE_HPP
#define COP_WORKLOADS_PROFILE_HPP

#include <array>
#include <string>
#include <vector>

#include "workloads/block_gen.hpp"

namespace cop {

/** Benchmark suite tags (Table 2 groups results by suite). */
enum class Suite : u8 { SpecInt, SpecFp, Parsec };

const char *suiteName(Suite s);

/** Weights over block categories; normalised by the registry. */
struct BlockMix
{
    std::array<double, kBlockCategories> weight{};

    bool operator==(const BlockMix &) const = default;

    double &
    operator[](BlockCategory c)
    {
        return weight[static_cast<unsigned>(c)];
    }

    double
    of(BlockCategory c) const
    {
        return weight[static_cast<unsigned>(c)];
    }
};

/** One benchmark's synthetic model. */
struct WorkloadProfile
{
    std::string name;
    Suite suite = Suite::SpecInt;
    /** In the paper's memory-intensive set (Table 2, Figures 8-12). */
    bool memoryIntensive = false;

    BlockMix mix;
    BlockGenParams gen;

    // --- access model (interval simulation inputs) ---
    /** IPC with a perfect (always-hitting) L3. */
    double perfectIpc = 1.5;
    /** L3 references per kilo-instruction. */
    double l3Apki = 10.0;
    /** Average overlappable misses per epoch (memory-level parallelism). */
    unsigned mlp = 3;
    /** Fraction of L3 references that are writes. */
    double writeFraction = 0.3;
    /** Working-set size in 64-byte blocks. */
    u64 footprintBlocks = 1u << 20;
    /** Fraction of references that stream sequentially. */
    double streamFraction = 0.3;
    /** PARSEC-style shared footprint across cores (vs. rate mode). */
    bool sharedFootprint = false;

    bool operator==(const WorkloadProfile &) const = default;

    /** Deterministic per-benchmark base seed. */
    u64 seed() const;
};

/** The profile registry. */
class WorkloadRegistry
{
  public:
    /** All known profiles. */
    static const std::vector<WorkloadProfile> &all();

    /** Look up by name; fatal if unknown. */
    static const WorkloadProfile &byName(const std::string &name);

    /** The paper's Table 2 memory-intensive set (20 benchmarks). */
    static std::vector<const WorkloadProfile *> memoryIntensive();

    /** All benchmarks of one suite. */
    static std::vector<const WorkloadProfile *> bySuite(Suite s);

    /** The SPECfp set used in Figure 4. */
    static std::vector<const WorkloadProfile *> specFpFigure4();

    /** The SPECint set used in Figure 1. */
    static std::vector<const WorkloadProfile *> specIntFigure1();
};

} // namespace cop

#endif // COP_WORKLOADS_PROFILE_HPP
