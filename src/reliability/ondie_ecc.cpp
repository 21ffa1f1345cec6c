#include "reliability/ondie_ecc.hpp"

#include <algorithm>
#include <array>

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
        gatherWord(layout, raw_flips, w, pos);
        miscorrected |= resolveSec(code, pos) == SecFix::Added;
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
OndieEcc::model(VulnClass cls, unsigned raw_flips)
{
    const unsigned stored = ErrorRateModel::storedBitsOf(cls);
    const unsigned bits = extendedBits(stored);
    COP_ASSERT(raw_flips > 0 && raw_flips <= bits);

    // Every pattern of raw_flips distinct positions, each weighed
    // equally.
    std::vector<unsigned> fwd;
    u64 on_die[3] = {0, 0, 0};    // by OndieOutcome
    std::array<u64, 4> arrival{}; // by OutcomeKind, forwarded only
    forEachPattern(bits, raw_flips, [&](const std::vector<unsigned> &raw) {
        const OndieOutcome o = filter(stored, raw, fwd);
        ++on_die[static_cast<unsigned>(o)];
        if (o != OndieOutcome::Corrected)
            ++arrival[static_cast<unsigned>(
                ErrorRateModel::classifyPattern(cls, fwd))];
    });

    OndieModelResult res;
    const auto all = static_cast<double>(on_die[0] + on_die[1] + on_die[2]);
    res.correctedOnDie = on_die[0] / all;
    res.miscorrectedOnDie = on_die[1] / all;
    res.forwardedOnDie = on_die[2] / all;
    if (const u64 forwarded = on_die[1] + on_die[2]; forwarded > 0)
        res.onArrival = outcomeShares(arrival, forwarded);
    return res;
}

} // namespace cop
