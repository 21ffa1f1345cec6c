/**
 * @file
 * PARMA-inspired analytic soft-error model (paper Section 4). Every
 * block read from DRAM was exposed for T cycles; given the raw FIT rate
 * (5000 FIT/Mbit, after Li et al.) the model computes, per protection
 * class, the probability the exposure ends in a silent corruption (SDC)
 * or a detected-uncorrectable error (DUE). Aggregated over a run's
 * VulnLog this yields the per-benchmark error rates behind Figure 10
 * and the COP-ER-vs-ECC-DIMM comparison of Section 4.
 */

#ifndef COP_RELIABILITY_ERROR_MODEL_HPP
#define COP_RELIABILITY_ERROR_MODEL_HPP

#include <vector>

#include "mem/vuln_log.hpp"

namespace cop {

/** One read's classification — the one-hot form of ConditionalOutcome. */
enum class OutcomeKind : u8 {
    Benign,    ///< No host-visible data effect.
    Corrected, ///< All flips repaired transparently.
    Detected,  ///< Detected but uncorrectable (DUE).
    Silent,    ///< Wrong data handed over with no error.
};

/** Physical parameters of the error model. */
struct ReliabilityParams
{
    /** Raw soft-error rate per Mbit (Section 4: 5000, from [11]). */
    double fitPerMbit = 5000.0;
    /** Core clock, converts cycles to seconds (Table 1: 3.2 GHz). */
    double coreGHz = 3.2;
    /**
     * Optional memory-scrubbing interval in cycles (0 = disabled).
     * A scrubber reads and corrects every block periodically, so a
     * *protected* block can accumulate errors for at most one interval
     * before singles are cleaned out; it cannot help unprotected
     * blocks. (Extension beyond the paper's model.)
     */
    double scrubIntervalCycles = 0;

    /** Per-bit flip probability over @p cycles of exposure. */
    double
    bitFlipProbability(double cycles) const
    {
        // FIT = failures per 1e9 device-hours; per Mbit -> per bit.
        const double per_bit_per_hour =
            fitPerMbit / (1024.0 * 1024.0) * 1e-9;
        const double hours = cycles / (coreGHz * 1e9) / 3600.0;
        return per_bit_per_hour * hours;
    }
};

/**
 * Outcome distribution conditioned on a known number of flips — the
 * analytic counterpart of one live fault-injection event, where the
 * flip count is chosen rather than Poisson-distributed. Probabilities
 * sum to 1.
 */
struct ConditionalOutcome
{
    double benign = 0;    ///< No flips: the read is unaffected.
    double corrected = 0; ///< All flips corrected transparently.
    double detected = 0;  ///< Detected but uncorrectable (DUE).
    double silent = 0;    ///< Wrong data handed over with no error.
};

/** Expected error outcomes of one exposure window. */
struct ExposureOutcome
{
    double silent = 0;   ///< Probability of silent data corruption.
    double detected = 0; ///< Probability of a detected, uncorrectable loss.

    double uncorrected() const { return silent + detected; }
};

/** Aggregate error-rate report for one run. */
struct ErrorRateReport
{
    /** Expected uncorrected errors with the run's protection. */
    double uncorrected = 0;
    double silent = 0;
    double detected = 0;
    /** Expected errors had every block been unprotected. */
    double baselineUnprotected = 0;

    /** Figure 10's metric: reduction in error rate vs no protection. */
    double
    reduction() const
    {
        return baselineUnprotected > 0
                   ? 1.0 - uncorrected / baselineUnprotected
                   : 0.0;
    }
};

/**
 * The analytic model. All probabilities use the small-rate expansion of
 * the Poisson distribution (m = bits * lambda * T is ~1e-10 at realistic
 * exposures), keeping second-order terms so that double-error modes —
 * the ones that separate the schemes — are represented.
 */
class ErrorRateModel
{
  public:
    explicit ErrorRateModel(
        const ReliabilityParams &params = ReliabilityParams{})
        : params_(params)
    {
    }

    /**
     * Outcome probabilities for one read after @p cycles of exposure
     * under @p cls (p = per-bit flip probability). Unprotected: any
     * flip is silent, P = 512 p. Every protected class corrects
     * singles, so its second-order terms are the exact census's pair
     * counts times p^2: a pair in one SECDED word is detected (DUE);
     * a pair across words is two corrected singles, except in COP-4B,
     * where it leaves only 2 of 4 valid codewords and the block is
     * handed over as raw data, silently (Section 3.1). COP-8B's
     * 5-of-8 threshold survives any cross-word pair; the wide
     * (523,512) word (ECC region, COP-ER) detects every pair.
     */
    ExposureOutcome outcome(VulnClass cls, double cycles) const;

    /**
     * Outcome distribution for exactly @p flips bit flips placed
     * uniformly at random over one block's stored bits (geometry per
     * class: 512 inline bits for COP, 576 for an ECC DIMM, 523 for the
     * wide code). This is what a live fault-injection campaign at a
     * fixed flips-per-event samples, so measured class rates can be
     * checked against it directly. Exact for every flips <= 3: the
     * census counts each pattern, each resolved by the same column
     * algebra as classifyPattern(), and the split is count / C(N,
     * flips). More than 3 flips is fatal: no caller asks (campaigns use
     * 1-3, and on-die miscorrection grows a 2-flip raw event to at
     * most 3 stored flips).
     */
    static ConditionalOutcome conditionalOutcome(VulnClass cls,
                                                 unsigned flips);

    /**
     * Exact classification of one explicit flip pattern (stored-bit
     * indices, no duplicates) under @p cls, obtained by running the
     * real codes' column algebra: per-word syndromes, single-error
     * correction, COP's valid-codeword threshold, and the data-versus-
     * check position of every residual flip (check-bit residue is
     * invisible to the verifyData oracle, which compares data bytes).
     */
    static OutcomeKind classifyPattern(VulnClass cls,
                                       const std::vector<unsigned> &bits);

    /**
     * Stored-bit count of the model geometry for @p cls (512 inline
     * bits for COP and unprotected, 576 for an ECC DIMM, 523 for the
     * wide code) — the space conditionalOutcome counts patterns over.
     */
    static unsigned storedBitsOf(VulnClass cls);

    /** Aggregate a run's vulnerability log. */
    ErrorRateReport evaluate(const VulnLog &log) const;

    /**
     * Ratio of COP-ER's uncorrected-error rate to a conventional ECC
     * DIMM's for the same exposure (Section 4 reports ~6x: one wide
     * (523,512) word suffers double hits ~523^2 / (8 * 72^2) more often
     * than eight (72,64) words).
     */
    double copErVsEccDimmRatio(double cycles) const;

    const ReliabilityParams &params() const { return params_; }

  private:
    ReliabilityParams params_;
};

} // namespace cop

#endif // COP_RELIABILITY_ERROR_MODEL_HPP
