/**
 * @file
 * Deterministic pseudo-random number generation (xoshiro256++) used by the
 * workload generators, the fault injector and the Monte-Carlo benches.
 * Deterministic seeding keeps every experiment reproducible run-to-run.
 */

#ifndef COP_COMMON_RNG_HPP
#define COP_COMMON_RNG_HPP

#include <algorithm>
#include <array>
#include <vector>

#include "common/types.hpp"

namespace cop {

/**
 * xoshiro256++ 1.0 (Blackman & Vigna, public domain algorithm),
 * re-implemented here. Not cryptographic; plenty for simulation.
 */
class Rng
{
  public:
    explicit Rng(u64 seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

    /** Re-seed via splitmix64 so that nearby seeds decorrelate. */
    void
    reseed(u64 seed)
    {
        for (auto &word : state_) {
            seed += 0x9e3779b97f4a7c15ULL;
            u64 z = seed;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    /** Next 64 uniform random bits. */
    u64
    next()
    {
        const u64 result = rotl(state_[0] + state_[3], 23) + state_[0];
        const u64 t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be nonzero. */
    u64
    below(u64 bound)
    {
        COP_ASSERT(bound != 0);
        // Rejection-free modulo is fine at simulation scale; bias is
        // negligible for bound << 2^64.
        return next() % bound;
    }

    /** Uniform integer in [lo, hi]. */
    u64
    range(u64 lo, u64 hi)
    {
        COP_ASSERT(lo <= hi);
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p. */
    bool chance(double p) { return uniform() < p; }

  private:
    static u64 rotl(u64 x, int k) { return (x << k) | (x >> (64 - k)); }

    std::array<u64, 4> state_;
};

/**
 * Draw @p flips distinct integers below @p bits into @p out, in draw
 * order: one rng.below(bits) per attempt, a repeat drawn again. Every
 * uniform fault pattern in the reliability models comes from here.
 */
inline void
drawDistinct(Rng &rng, unsigned bits, unsigned flips,
             std::vector<unsigned> &out)
{
    COP_ASSERT(flips <= bits);
    out.clear();
    while (out.size() < flips) {
        const auto b = static_cast<unsigned>(rng.below(bits));
        if (std::find(out.begin(), out.end(), b) == out.end())
            out.push_back(b);
    }
}

} // namespace cop

#endif // COP_COMMON_RNG_HPP
