/**
 * @file
 * Monte-Carlo fault injection: flips real bits in real stored images
 * and runs the real decoders, validating the analytic model end-to-end
 * (something the paper's purely analytic methodology could not do).
 * Used by the table3/ecc-comparison benches, the fault-injection
 * example, and the integration tests.
 */

#ifndef COP_RELIABILITY_FAULT_INJECTOR_HPP
#define COP_RELIABILITY_FAULT_INJECTOR_HPP

#include <functional>

#include "common/rng.hpp"
#include "core/chipkill_codec.hpp"
#include "core/coper_codec.hpp"
#include "ecc/secded.hpp"
#include "reliability/error_model.hpp"

namespace cop {

/** Classified results of an injection campaign. */
struct InjectionOutcome
{
    u64 trials = 0;
    u64 benign = 0;    ///< Decoded data identical without correction.
    u64 corrected = 0; ///< Errors repaired; data intact.
    u64 detected = 0;  ///< Flagged uncorrectable; data lost but known.
    u64 silent = 0;    ///< Wrong data returned with no indication.
    /**
     * Trials skipped because the block could not be injected at all
     * (alias-rejected encode under skipAliasRejected). Excluded from
     * `trials`, so the rate denominators stay meaningful.
     */
    u64 skipped = 0;

    double
    silentRate() const
    {
        return trials ? static_cast<double>(silent) / trials : 0.0;
    }

    double
    uncorrectedRate() const
    {
        return trials
                   ? static_cast<double>(silent + detected) / trials
                   : 0.0;
    }

    InjectionOutcome &
    operator+=(const InjectionOutcome &o)
    {
        trials += o.trials;
        benign += o.benign;
        corrected += o.corrected;
        detected += o.detected;
        silent += o.silent;
        skipped += o.skipped;
        return *this;
    }
};

/**
 * Fault-injection campaigns against each protection scheme. Each trial
 * encodes @p data, flips @p flips distinct random bits of the stored
 * image, decodes, and classifies the outcome.
 */
class FaultInjector
{
  public:
    /**
     * Produces the flip positions of one fault event (bit indices into
     * the 512-bit stored block).
     */
    using FlipGen = std::function<void(Rng &, std::vector<unsigned> &)>;

    explicit FaultInjector(u64 seed = 0xFau) : rng_(seed) {}

    /**
     * Campaign mode: an alias-rejected block skips its trials
     * (InjectionOutcome::skipped) instead of COP_FATALing, so a long
     * sweep survives blocks that cannot be stored protected. Off by
     * default — explicit single-shot injection keeps the hard failure.
     */
    void setSkipAliasRejected(bool on) { skipAliasRejected_ = on; }
    bool skipAliasRejected() const { return skipAliasRejected_; }

    /** Inject into a COP-protected (or raw, if incompressible) block. */
    InjectionOutcome injectCop(const CopCodec &codec,
                               const CacheBlock &data, unsigned flips,
                               u64 trials);

    /** Inject into a COP-ER incompressible block (stored + entry). */
    InjectionOutcome injectCopEr(const CoperCodec &coper,
                                 const CacheBlock &data, unsigned flips,
                                 u64 trials);

    /** Inject into an ECC-DIMM block (8 x (72,64), 576 stored bits). */
    InjectionOutcome injectEccDimm(const CacheBlock &data, unsigned flips,
                                   u64 trials);

    /** Inject into an unprotected raw block. */
    InjectionOutcome injectUnprotected(const CacheBlock &data,
                                       unsigned flips, u64 trials);

    /**
     * Pattern-based variants for the field failure-mode study: the
     * generator decides where each trial's flips land (e.g. confined
     * to one word, one chip lane, or a row burst).
     */
    InjectionOutcome injectCopPattern(const CopCodec &codec,
                                      const CacheBlock &data,
                                      const FlipGen &gen, u64 trials);
    InjectionOutcome injectCopErPattern(const CoperCodec &coper,
                                        const CacheBlock &data,
                                        const FlipGen &gen, u64 trials);
    InjectionOutcome injectEccDimmPattern(const CacheBlock &data,
                                          const FlipGen &gen,
                                          u64 trials);
    InjectionOutcome injectChipkillPattern(const ChipkillCodec &codec,
                                           const CacheBlock &data,
                                           const FlipGen &gen,
                                           u64 trials);

    Rng &rng() { return rng_; }

  private:
    /** A scheme's verdict on one trial's flip positions. */
    using Classify =
        std::function<OutcomeKind(const std::vector<unsigned> &)>;

    /** Uniform generator of @p flips distinct positions below @p bits. */
    static FlipGen uniformGen(unsigned flips, unsigned bits);

    /**
     * The trial loop: each trial draws a pattern from @p gen, checks
     * it against the @p limit-bit image, and counts its verdict.
     */
    InjectionOutcome run(const FlipGen &gen, unsigned limit, u64 trials,
                         const Classify &classify);

    /**
     * Trials on a COP-family image: an alias-rejected encode has no
     * image to strike, so its trials are skipped in campaign mode and
     * fatal otherwise.
     */
    InjectionOutcome runEncoded(const CopEncodeResult &enc,
                                const FlipGen &gen, u64 trials,
                                const Classify &classify);

    Rng rng_;
    bool skipAliasRejected_ = false;
};

} // namespace cop

#endif // COP_RELIABILITY_FAULT_INJECTOR_HPP
