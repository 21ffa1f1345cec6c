#include "compress/combined.hpp"

#include <cstring>

namespace cop {

CombinedCompressor::CombinedCompressor(unsigned check_bytes)
    : check_bytes_(check_bytes),
      payload_bits_(kBlockBits - 8 * check_bytes)
{
    if (check_bytes != 4 && check_bytes != 8)
        COP_FATAL("COP supports 4- or 8-byte ECC configurations");

    // 4-byte config: 5-bit shifted MSB compare; 8-byte: 10-bit compare
    // (Section 3.2.1: "to free more than 4 bytes per data block, we can
    // simply increase the number of MSBs compared").
    owned_.push_back(
        std::make_unique<MsbCompressor>(check_bytes == 4 ? 5 : 10, true));
    owned_.push_back(std::make_unique<RleCompressor>());
    if (check_bytes == 4)
        owned_.push_back(std::make_unique<TxtCompressor>());
    for (const auto &c : owned_)
        views_.push_back(c.get());
}

const BlockCompressor *
CombinedCompressor::schemeById(SchemeId id) const
{
    for (const auto *c : views_) {
        if (c->id() == id)
            return c;
    }
    return nullptr;
}

const BlockCompressor *
CombinedCompressor::pick(const CacheBlock &block, unsigned *trials) const
{
    // Each trial is an admission check on a digest computed once per
    // block, so losing schemes cost a mask test rather than a scan.
    const BlockDigest digest = computeDigest(block);
    for (const auto *scheme : views_) {
        if (trials != nullptr)
            ++*trials;
        if (scheme->canCompressDigest(digest, block, streamBudget()))
            return scheme;
    }
    return nullptr;
}

std::optional<SchemeId>
CombinedCompressor::compress(const CacheBlock &block,
                             std::span<u8> payload,
                             unsigned *trials) const
{
    COP_ASSERT(payload.size() >= payloadBytes());
    const BlockCompressor *scheme = pick(block, trials);
    if (scheme == nullptr)
        return std::nullopt;
    std::memset(payload.data(), 0, payloadBytes());
    BitWriter writer(payload.first(payloadBytes()));
    writer.write(static_cast<u64>(scheme->id()), kSchemeTagBits);
    const bool ok = scheme->compress(block, streamBudget(), writer);
    COP_ASSERT(ok);
    return scheme->id();
}

std::optional<SchemeId>
CombinedCompressor::classify(const CacheBlock &block, unsigned *trials) const
{
    if (const BlockCompressor *scheme = pick(block, trials))
        return scheme->id();
    return std::nullopt;
}

CacheBlock
CombinedCompressor::decompress(std::span<const u8> payload) const
{
    COP_ASSERT(payload.size() >= payloadBytes());
    BitReader reader(payload.first(payloadBytes()));
    const auto tag = static_cast<SchemeId>(reader.read(kSchemeTagBits));
    const BlockCompressor *scheme = schemeById(tag);
    CacheBlock out;
    if (scheme == nullptr) {
        // Unreachable for intact payloads (compress() only emits known
        // tags); reachable when the COP decoder decompresses a block it
        // already flagged as uncorrectably damaged. The data is lost
        // either way, so return a deterministic placeholder.
        return out;
    }
    scheme->decompress(reader, streamBudget(), out);
    return out;
}

} // namespace cop
