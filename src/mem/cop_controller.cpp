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
    if (storedAs(addr) != Stored::Nothing) {
        readStored(addr, now, result, nullptr);
        return;
    }
    // First touch: the block was written to DRAM before the trace
    // window through the same encoder.
    const CacheBlock &data = content(addr);
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
    // Through setImage under fault injection: stuck bits apply.
    keep(addr, enc);
    readStored(addr, now, result, &data);
}

Cycle
CopController::readStored(Addr addr, Cycle now, MemReadResult &result,
                          const CacheBlock *fresh)
{
    // The data read inserts no record, so `rec` stays valid.
    const BlockState &rec = *findRecord(addr);
    const Cycle data_done = dramRead(addr, now);
    result.complete = data_done + decodeLatency_;
    result.dramAccesses = 1;
    result.storedVersion = rec.storedVersion;
    if (rec.stored == Stored::Image) {
        const CopDecodeResult dec = codec_.decode(*imageOf(addr));
        result.data = dec.data;
        result.wasUncompressed = !dec.compressed;
        result.detectedUncorrectable = dec.detectedUncorrectable;
        result.correctedError = dec.correctedWords > 0;
    } else {
        result.data = fresh != nullptr ? *fresh : content(addr);
        result.wasUncompressed = rec.stored == Stored::Raw;
    }
    if (!result.wasUncompressed)
        logVuln(protectedClass(), addr, now);
    return data_done;
}

bool
CopController::storedRaw(Addr addr) const
{
    const BlockState *rec = findRecord(addr);
    if (rec == nullptr)
        return false;
    if (rec->stored == Stored::Image)
        return !codec_.decode(*imageOf(addr)).compressed;
    return rec->stored == Stored::Raw;
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
    result.complete = dramWrite(addr, now);
    result.dramAccesses = 1;
    keep(addr, enc);
    noteWrite(addr, now);
    return result;
}

bool
CopController::wouldAliasReject(const CacheBlock &data) const
{
    return !codec_.compressor().compressible(data) && codec_.isAlias(data);
}

} // namespace cop
