#include "mem/cop_controller.hpp"

namespace cop {

CopController::CopController(DramSystem &dram, ContentSource content,
                             const CopConfig &cfg, Cycle decode_latency,
                             EncodeCounter *encodes)
    : MemoryController(dram, std::move(content)), codec_(cfg),
      decodeLatency_(decode_latency), encodes_(encodes)
{
}

MemReadResult
CopController::readImpl(Addr addr, Cycle now)
{
    MemReadResult result;

    // First touch: the block was written to DRAM before the trace window
    // through the same encoder.
    const CacheBlock *image = imageOf(addr);
    if (image == nullptr) {
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
            return result;
        }
        noteTransferBits(addr, copTransferBits(enc, codec_.config()));
        // Through setImage: stuck bits apply.
        image = &setImage(addr, enc.stored);
        if (!faultInjectionEnabled()) {
            // The image was created by the line above, so nothing can
            // have corrupted it before this fill: decoding it is the
            // codec roundtrip identity (decode(encode(x)) == (x, clean
            // flags), the invariant the codec tests pin down). Serve
            // the fill from the content directly and skip the decode.
            const bool compressed = enc.status == EncodeStatus::Protected;
            result.complete = dramRead(addr, now) + decodeLatency_;
            result.dramAccesses = 1;
            result.data = data;
            result.wasUncompressed = !compressed;
            logVuln(compressed ? protectedClass() : VulnClass::Unprotected,
                    addr, now);
            return result;
        }
    }

    const Cycle data_done = dramRead(addr, now);
    const CopDecodeResult dec = codec_.decode(*image);
    result.complete = data_done + decodeLatency_;
    result.dramAccesses = 1;
    result.data = dec.data;
    result.wasUncompressed = !dec.compressed;
    result.detectedUncorrectable = dec.detectedUncorrectable;
    result.correctedError = dec.correctedWords > 0;
    logVuln(dec.compressed ? protectedClass() : VulnClass::Unprotected,
            addr, now);
    return result;
}

MemWriteResult
CopController::writeback(Addr addr, const CacheBlock &data, Cycle now,
                         bool was_uncompressed)
{
    (void)was_uncompressed;
    MemWriteResult result;

    const CopEncodeResult enc = encodeBlock(data);
    switch (enc.status) {
      case EncodeStatus::AliasRejected:
        ++stats_.aliasRejects;
        result.aliasRejected = true;
        return result;
      case EncodeStatus::Protected:
        ++stats_.protectedWrites;
        ++stats_.schemeWrites[static_cast<unsigned>(enc.scheme)];
        break;
      case EncodeStatus::Unprotected:
        ++stats_.unprotectedWrites;
        break;
    }

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
