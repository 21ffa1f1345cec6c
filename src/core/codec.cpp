#include "core/codec.hpp"

#include <array>
#include <cstring>

namespace cop {

CopCodec::CopCodec(const CopConfig &cfg)
    : cfg_(cfg), compressor_(cfg.checkBytes)
{
    cfg_.validate();
}

void
CopCodec::applyHash(CacheBlock &block) const
{
    if (cfg_.useStaticHash)
        block ^= staticHashBlock();
}

CacheBlock
CopCodec::protectPayload(std::span<const u8> payload) const
{
    const HsiaoCode &code = cfg_.code();
    const unsigned seg_bytes = cfg_.segmentBytes();
    const unsigned dpw = cfg_.dataBitsPerWord();

    CacheBlock stored;
    std::array<u8, 16> segment{};
    for (unsigned s = 0; s < cfg_.codewords(); ++s) {
        std::memset(segment.data(), 0, seg_bytes);
        copyBits(payload, s * dpw, std::span<u8>(segment).first(seg_bytes),
                 0, dpw);
        code.encode(std::span<u8>(segment).first(seg_bytes));
        std::memcpy(stored.data() + s * seg_bytes, segment.data(),
                    seg_bytes);
    }
    applyHash(stored);
    return stored;
}

void
CopCodec::extractPayload(const CacheBlock &unhashed,
                         std::span<u8> payload) const
{
    const unsigned seg_bytes = cfg_.segmentBytes();
    const unsigned dpw = cfg_.dataBitsPerWord();
    for (unsigned s = 0; s < cfg_.codewords(); ++s) {
        copyBits(unhashed.bytes().subspan(s * seg_bytes, seg_bytes), 0,
                 payload, s * dpw, dpw);
    }
}

CopEncodeResult
CopCodec::encode(const CacheBlock &data) const
{
    CopEncodeResult result;

    std::array<u8, kBlockBytes> payload{};
    const auto scheme = compressor_.compress(
        data, std::span<u8>(payload).first(compressor_.payloadBytes()),
        &result.schemeTrials);
    if (!scheme) {
        result.status = rawStatus(data);
        result.stored = data;
        return result;
    }
    result.status = EncodeStatus::Protected;
    result.scheme = *scheme;
    result.stored = protectPayload(
        std::span<const u8>(payload).first(compressor_.payloadBytes()));
    return result;
}

CopEncodeResult
CopCodec::classify(const CacheBlock &data) const
{
    CopEncodeResult result;
    const auto scheme = compressor_.classify(data, &result.schemeTrials);
    if (!scheme) {
        result.status = rawStatus(data);
        return result;
    }
    result.status = EncodeStatus::Protected;
    result.scheme = *scheme;
    return result;
}

unsigned
CopCodec::countValidCodewords(const CacheBlock &stored) const
{
    CacheBlock unhashed = stored;
    applyHash(unhashed);

    const HsiaoCode &code = cfg_.code();
    const unsigned seg_bytes = cfg_.segmentBytes();
    unsigned valid = 0;
    for (unsigned s = 0; s < cfg_.codewords(); ++s) {
        if (code.isValidCodeword(
                unhashed.bytes().subspan(s * seg_bytes, seg_bytes)))
            ++valid;
    }
    return valid;
}

CopDecodeResult
CopCodec::decode(const CacheBlock &stored) const
{
    CopDecodeResult result;

    CacheBlock unhashed = stored;
    applyHash(unhashed);

    const HsiaoCode &code = cfg_.code();
    const unsigned seg_bytes = cfg_.segmentBytes();
    const unsigned words = cfg_.codewords();

    std::array<u32, 8> syndromes{};
    unsigned valid = 0;
    for (unsigned s = 0; s < words; ++s) {
        syndromes[s] = code.syndrome(
            unhashed.bytes().subspan(s * seg_bytes, seg_bytes));
        if (syndromes[s] == 0)
            ++valid;
    }
    result.validCodewords = valid;

    if (valid < cfg_.threshold) {
        // Treated as unprotected raw data: passed to the LLC unmodified
        // (and un-hashed — the hash is only ever applied to protected
        // blocks).
        result.compressed = false;
        result.data = stored;
        return result;
    }

    result.compressed = true;
    for (unsigned s = 0; s < words; ++s) {
        if (syndromes[s] == 0)
            continue;
        auto segment = unhashed.bytes().subspan(s * seg_bytes, seg_bytes);
        const EccResult ecc = code.decode(segment);
        if (ecc.corrected())
            ++result.correctedWords;
        else
            result.detectedUncorrectable = true;
    }

    std::array<u8, kBlockBytes> payload{};
    extractPayload(unhashed, payload);
    result.data = compressor_.decompress(
        std::span<const u8>(payload).first(compressor_.payloadBytes()));
    return result;
}

} // namespace cop
