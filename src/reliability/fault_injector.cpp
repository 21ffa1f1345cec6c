#include "reliability/fault_injector.hpp"

#include <cstring>
#include <string>

namespace cop {

namespace {

/**
 * A pattern generator that emits a flip position past the stored image
 * would index out of bounds downstream (e.g. the DIMM path's word
 * index); reject it loudly instead of corrupting the injector.
 */
void
checkFlips(const std::vector<unsigned> &bits, unsigned limit)
{
    for (const unsigned b : bits) {
        if (b >= limit) {
            COP_PANIC("flip position " + std::to_string(b) +
                      " is outside the " + std::to_string(limit) +
                      "-bit stored image");
        }
    }
}

/** A copy of @p block with every position of @p bits flipped. */
CacheBlock
withFlips(CacheBlock block, const std::vector<unsigned> &bits)
{
    for (const unsigned b : bits)
        block.flipBit(b);
    return block;
}

/**
 * The verdict on a decoded block: intact data is benign unless the
 * decoder corrected something; lost data is detected only when the
 * decoder flagged it.
 */
OutcomeKind
judge(bool intact, bool corrected, bool detected)
{
    if (intact)
        return corrected ? OutcomeKind::Corrected : OutcomeKind::Benign;
    return detected ? OutcomeKind::Detected : OutcomeKind::Silent;
}

/** ECC DIMM stored bits: eight (72,64) words on 9 chips. */
constexpr unsigned kDimmBits = 576;

/**
 * ECC-DIMM verdict over the 576 stored positions: position s is bit
 * s % 72 of word s / 72, and each word decodes on its own.
 */
std::function<OutcomeKind(const std::vector<unsigned> &)>
eccDimmClassifier(const CacheBlock &data)
{
    const HsiaoCode &code = codes::dimm72();
    std::array<std::array<u8, 9>, 8> clean{};
    for (unsigned w = 0; w < 8; ++w) {
        std::memcpy(clean[w].data(), data.data() + w * 8, 8);
        code.encode(clean[w]);
    }
    return [&code, clean](const std::vector<unsigned> &bits) {
        auto words = clean;
        for (const unsigned b : bits)
            flipBit(words[b / 72], b % 72);
        bool wrong = false, detected = false, corrected = false;
        for (unsigned w = 0; w < 8; ++w) {
            const EccResult r = code.decode(words[w]);
            corrected |= r.corrected();
            detected |= r.uncorrectable();
            wrong |= std::memcmp(words[w].data(), clean[w].data(), 9) != 0;
        }
        return judge(!wrong && !detected, corrected, detected);
    };
}

} // namespace

FaultInjector::FlipGen
FaultInjector::uniformGen(unsigned flips, unsigned bits)
{
    return [flips, bits](Rng &rng, std::vector<unsigned> &out) {
        drawDistinct(rng, bits, flips, out);
    };
}

InjectionOutcome
FaultInjector::run(const FlipGen &gen, unsigned limit, u64 trials,
                   const Classify &classify)
{
    InjectionOutcome outcome;
    outcome.trials = trials;
    std::vector<unsigned> bits;
    for (u64 t = 0; t < trials; ++t) {
        gen(rng_, bits);
        checkFlips(bits, limit);
        switch (classify(bits)) {
          case OutcomeKind::Benign: ++outcome.benign; break;
          case OutcomeKind::Corrected: ++outcome.corrected; break;
          case OutcomeKind::Detected: ++outcome.detected; break;
          case OutcomeKind::Silent: ++outcome.silent; break;
        }
    }
    return outcome;
}

InjectionOutcome
FaultInjector::runEncoded(const CopEncodeResult &enc, const FlipGen &gen,
                          u64 trials, const Classify &classify)
{
    if (enc.status == EncodeStatus::AliasRejected) {
        if (!skipAliasRejected_)
            COP_FATAL("cannot inject into an alias-rejected block");
        InjectionOutcome outcome;
        outcome.skipped = trials;
        return outcome;
    }
    return run(gen, kBlockBits, trials, classify);
}

InjectionOutcome
FaultInjector::injectCop(const CopCodec &codec, const CacheBlock &data,
                         unsigned flips, u64 trials)
{
    return injectCopPattern(codec, data, uniformGen(flips, kBlockBits),
                            trials);
}

InjectionOutcome
FaultInjector::injectCopPattern(const CopCodec &codec,
                                const CacheBlock &data,
                                const FlipGen &gen, u64 trials)
{
    const CopEncodeResult enc = codec.encode(data);
    return runEncoded(enc, gen, trials, [&](const auto &bits) {
        const CopDecodeResult dec = codec.decode(withFlips(enc.stored, bits));
        return judge(dec.data == data, dec.correctedWords > 0,
                     enc.isProtected() && dec.detectedUncorrectable);
    });
}

InjectionOutcome
FaultInjector::injectChipkillPattern(const ChipkillCodec &codec,
                                     const CacheBlock &data,
                                     const FlipGen &gen, u64 trials)
{
    const CopEncodeResult enc = codec.encode(data);
    return runEncoded(enc, gen, trials, [&](const auto &bits) {
        const ChipkillDecodeResult dec =
            codec.decode(withFlips(enc.stored, bits));
        return judge(dec.data == data, dec.correctedSymbols > 0,
                     enc.isProtected() && dec.detectedUncorrectable);
    });
}

InjectionOutcome
FaultInjector::injectCopEr(const CoperCodec &coper, const CacheBlock &data,
                           unsigned flips, u64 trials)
{
    return injectCopErPattern(coper, data, uniformGen(flips, kBlockBits),
                              trials);
}

InjectionOutcome
FaultInjector::injectCopErPattern(const CoperCodec &coper,
                                  const CacheBlock &data,
                                  const FlipGen &gen, u64 trials)
{
    const u32 index = 0x123456;
    const CoperEncodeResult enc =
        coper.encodeIncompressible(data, index);
    COP_ASSERT(enc.aliasFree);
    const EccEntry entry{true, enc.displaced, enc.check};

    return run(gen, kBlockBits, trials, [&](const auto &bits) {
        // Full read path: the COP decoder must still classify the block
        // as uncompressed, the pointer must decode, and the wide code
        // must correct.
        const CacheBlock stored = withFlips(enc.stored, bits);
        if (coper.base().decode(stored).compressed) {
            // Errors turned the raw block into a pseudo-compressed one:
            // the decoder hands back decompressed garbage.
            return OutcomeKind::Silent;
        }
        const PointerDecodeResult ptr = coper.extractPointer(stored);
        if (ptr.ecc.uncorrectable() || ptr.entryIndex != index)
            return OutcomeKind::Detected;
        const CoperDecodeResult rec = coper.reconstruct(stored, entry);
        return judge(rec.data == data,
                     rec.blockEcc.corrected() || ptr.ecc.corrected(),
                     rec.blockEcc.uncorrectable());
    });
}

InjectionOutcome
FaultInjector::injectEccDimm(const CacheBlock &data, unsigned flips,
                             u64 trials)
{
    return run(uniformGen(flips, kDimmBits), kDimmBits, trials,
               eccDimmClassifier(data));
}

InjectionOutcome
FaultInjector::injectEccDimmPattern(const CacheBlock &data,
                                    const FlipGen &gen, u64 trials)
{
    // Pattern positions address the 512 data bits: data bit b sits in
    // the data section of (72,64) word b / 64.
    const Classify dimm = eccDimmClassifier(data);
    std::vector<unsigned> stored;
    return run(gen, kBlockBits, trials, [&](const auto &bits) {
        stored.clear();
        for (const unsigned b : bits)
            stored.push_back(b / 64 * 72 + b % 64);
        return dimm(stored);
    });
}

InjectionOutcome
FaultInjector::injectUnprotected(const CacheBlock &data, unsigned flips,
                                 u64 trials)
{
    (void)data;
    InjectionOutcome outcome;
    outcome.trials = trials;
    // Every nonzero flip count silently corrupts an unprotected block.
    if (flips == 0)
        outcome.benign = trials;
    else
        outcome.silent = trials;
    return outcome;
}

} // namespace cop
