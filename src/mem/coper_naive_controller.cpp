#include "mem/coper_naive_controller.hpp"

#include <algorithm>

namespace cop {

CopErNaiveController::CopErNaiveController(DramSystem &dram,
                                           ContentSource content,
                                           Cycle decode_latency,
                                           u64 meta_cache_bytes,
                                           EncodeCounter *encodes)
    : CopController(dram, std::move(content), CopConfig::fourByte(),
                    decode_latency, encodes),
      meta_(meta_cache_bytes)
{
}

unsigned
CopErNaiveController::storedBits(Addr addr) const
{
    return storedRaw(addr) ? kBlockBits + 11 : kBlockBits;
}

MemReadResult
CopErNaiveController::readImpl(Addr addr, Cycle now)
{
    // No pointer displacement => no de-aliasing: like plain COP, aliases
    // stay pinned in the LLC.
    MemReadResult result;
    fill(addr, now, result);
    if (!result.wasUncompressed) {
        // Check bits travelled inline: no region access — the naive
        // variant's entire performance win over the baseline. (A raw
        // block whose faults make it look compressed also lands here:
        // the decoder hands over garbage, the SDC oracle counts it.)
        return result;
    }

    // Incompressible: the wide-code check bits sit at a fixed offset in
    // the full-size region; the lookup can overlap the data read.
    const Cycle meta_done =
        metaFetch(meta_, memlayout::eccRegionEntryAddr(addr), now, false);
    if (meta_done > now)
        ++result.dramAccesses;
    result.complete = std::max(result.complete, meta_done + decodeLatency_);
    // Raw blocks are stored as-is, so the fill holds the stored block:
    // run the wide code against the check bits the region holds for it.
    if (isFaulted(addr))
        check_.correct(addr, result);
    logVuln(VulnClass::CopErUncompressed, addr, now);
    return result;
}

MemWriteResult
CopErNaiveController::writeback(Addr addr, const CacheBlock &data,
                                Cycle now, bool was_uncompressed)
{
    (void)was_uncompressed;
    const CopEncodeResult enc = encodeBlock(data);
    // A raw block updates its entry in the always-reserved region.
    if (enc.status == EncodeStatus::Unprotected)
        metaFetch(meta_, memlayout::eccRegionEntryAddr(addr), now, true);
    return storeEncoded(addr, enc, now);
}

} // namespace cop
