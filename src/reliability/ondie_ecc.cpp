#include "reliability/ondie_ecc.hpp"

#include <algorithm>

#include "ecc/secded.hpp"
#include "reliability/pattern_model.hpp"

namespace cop {

OndieOutcome
OndieEcc::filter(unsigned stored_bits,
                 const std::vector<unsigned> &raw_flips,
                 std::vector<unsigned> &out)
{
    out.clear();
    for (const unsigned r : raw_flips)
        COP_ASSERT(r < extendedBits(stored_bits));
    const HammingCode &code = codes::ondie136();
    // Raw flips below stored_bits address the stored image; the hidden
    // check bits follow, 8 per word.
    const WordLayout layout{kWordBits, kWordBits + kCheckBitsPerWord,
                            stored_bits};

    bool miscorrected = false;
    std::vector<unsigned> pos;
    for (unsigned w = 0; w < words(stored_bits); ++w) {
        // An aliasing word forwards unchanged, and so does one with no
        // column match: detected on die, but the chip has no reporting
        // channel. A matched column is undone for a lone flip; with two
        // or more flips the SEC adds one, forwarded to the host.
        miscorrected |=
            resolveSecWord(code, layout, raw_flips, w, pos) ==
            SecFix::Added;
        for (const unsigned p : pos) {
            if (p >= kWordBits)
                continue; // residue in hidden check bits: invisible
            const unsigned idx = w * kWordBits + p;
            // A miscorrection can target the zero-padded tail of a
            // shortened last word; no host-visible cell exists there.
            if (idx < stored_bits)
                out.push_back(idx);
        }
    }
    std::sort(out.begin(), out.end());

    if (out.empty())
        return OndieOutcome::Corrected;
    return miscorrected ? OndieOutcome::Miscorrected
                        : OndieOutcome::Forwarded;
}

OndieModelResult
OndieEcc::model(VulnClass cls, unsigned raw_flips, u64 trials, u64 seed)
{
    COP_ASSERT(raw_flips > 0 && trials > 0);
    const unsigned stored = ErrorRateModel::storedBitsOf(cls);

    Rng rng(seed);
    std::vector<unsigned> fwd;
    u64 corrected = 0, miscorrected = 0, forwarded = 0;
    OndieModelResult res;
    res.onArrival = tallyOutcomes(
        rng, extendedBits(stored), raw_flips, trials,
        [&](const std::vector<unsigned> &raw)
            -> std::optional<OutcomeKind> {
            switch (filter(stored, raw, fwd)) {
              case OndieOutcome::Corrected:
                ++corrected;
                return std::nullopt;
              case OndieOutcome::Miscorrected:
                ++miscorrected;
                break;
              case OndieOutcome::Forwarded:
                ++forwarded;
                break;
            }
            return ErrorRateModel::classifyPattern(cls, fwd);
        });
    res.correctedOnDie = static_cast<double>(corrected) / trials;
    res.miscorrectedOnDie = static_cast<double>(miscorrected) / trials;
    res.forwardedOnDie = static_cast<double>(forwarded) / trials;
    return res;
}

} // namespace cop
