#include "mem/cop_controller.hpp"

namespace cop {

CopController::CopController(DramSystem &dram, ContentSource content,
                             const CopConfig &cfg, Cycle decode_latency,
                             EncodeCounter *encodes)
    : MemoryController(dram, std::move(content)), codec_(cfg),
      decodeLatency_(decode_latency), encodes_(encodes)
{
}

void
CopController::fill(Addr addr, Cycle now, MemReadResult &result)
{
    if (const CacheBlock *image = imageOf(addr)) {
        decodeFill(addr, now, *image, result);
        return;
    }
    // First touch: the block was written to DRAM before the trace window
    // through the same encoder.
    const CacheBlock &data = initialContent(addr);
    const CopEncodeResult enc = encodeBlock(data);
    if (enc.status == EncodeStatus::AliasRejected) {
        // Incompressible alias: it can never have reached DRAM; it
        // materialises pinned in the LLC (Section 3.1). Exceedingly
        // rare — correctness machinery only.
        result.aliasPinned = true;
        result.data = data;
        result.complete = dramRead(addr, now) + decodeLatency_;
        result.dramAccesses = 1;
        return;
    }
    noteTransferBits(addr, copTransferBits(enc, codec_.config()));
    // Through setImage: stuck bits apply.
    const CacheBlock &image = setImage(addr, enc.stored);
    if (!skipDecode(addr, now, data, enc, result))
        decodeFill(addr, now, image, result);
}

Cycle
CopController::decodeFill(Addr addr, Cycle now, const CacheBlock &image,
                          MemReadResult &result)
{
    const Cycle data_done = dramRead(addr, now);
    const CopDecodeResult dec = codec_.decode(image);
    result.complete = data_done + decodeLatency_;
    result.dramAccesses = 1;
    result.data = dec.data;
    result.wasUncompressed = !dec.compressed;
    result.detectedUncorrectable = dec.detectedUncorrectable;
    result.correctedError = dec.correctedWords > 0;
    if (dec.compressed)
        logVuln(protectedClass(), addr, now);
    return data_done;
}

bool
CopController::skipDecode(Addr addr, Cycle now, const CacheBlock &data,
                          const CopEncodeResult &enc, MemReadResult &result)
{
    if (faultInjectionEnabled())
        return false;
    result.complete = dramRead(addr, now) + decodeLatency_;
    result.dramAccesses = 1;
    result.data = data;
    result.wasUncompressed = enc.status != EncodeStatus::Protected;
    if (!result.wasUncompressed)
        logVuln(protectedClass(), addr, now);
    return true;
}

MemReadResult
CopController::readImpl(Addr addr, Cycle now)
{
    MemReadResult result;
    fill(addr, now, result);
    if (result.wasUncompressed)
        logVuln(VulnClass::Unprotected, addr, now); // raw: no code at all
    return result;
}

MemWriteResult
CopController::writeback(Addr addr, const CacheBlock &data, Cycle now,
                         bool was_uncompressed)
{
    (void)was_uncompressed;
    return storeEncoded(addr, encodeBlock(data), now);
}

MemWriteResult
CopController::storeEncoded(Addr addr, const CopEncodeResult &enc,
                            Cycle now)
{
    MemWriteResult result;
    if (enc.status == EncodeStatus::AliasRejected) {
        ++stats_.aliasRejects;
        result.aliasRejected = true;
        return result;
    }
    countWrite(enc);
    noteTransferBits(addr, copTransferBits(enc, codec_.config()));
    result.complete = dramWrite(addr, now);
    result.dramAccesses = 1;
    setImage(addr, enc.stored);
    noteWrite(addr, now);
    return result;
}

bool
CopController::wouldAliasReject(const CacheBlock &data) const
{
    return !codec_.compressor().compressible(data) && codec_.isAlias(data);
}

} // namespace cop
