#include "mem/coper_naive_controller.hpp"

#include <algorithm>

#include "core/coper_codec.hpp"
#include "mem/cop_controller.hpp"

namespace cop {

CopErNaiveController::CopErNaiveController(DramSystem &dram,
                                           ContentSource content,
                                           Cycle decode_latency,
                                           u64 meta_cache_bytes,
                                           EncodeMemo *memo)
    : MemoryController(dram, std::move(content)), memo_(memo),
      codec_(CopConfig::fourByte()), meta_(meta_cache_bytes),
      decodeLatency_(decode_latency)
{
}

Cycle
CopErNaiveController::metaAccess(Addr data_addr, Cycle now, bool dirty)
{
    const Addr meta_addr = memlayout::eccRegionEntryAddr(data_addr);
    const MetaCache::Access acc = meta_.access(meta_addr, dirty);
    if (acc.hit) {
        ++stats_.metaCacheHits;
        return now;
    }
    ++stats_.metaCacheMisses;
    if (acc.evictedDirty) {
        ++stats_.metaWrites;
        dramWrite(acc.evictedAddr, now);
    }
    ++stats_.metaReads;
    return dramRead(meta_addr, now);
}

unsigned
CopErNaiveController::storedBits(Addr addr) const
{
    const auto it = image_.find(addr);
    if (it == image_.end())
        return kBlockBits;
    return codec_.decode(it->second).compressed ? kBlockBits
                                                : kBlockBits + 11;
}

u16 &
CopErNaiveController::wideCheckOf(Addr addr)
{
    auto it = check_.find(addr);
    if (it == check_.end()) {
        // Materialised before the first flip lands, so this reflects
        // the clean image (raw blocks store application data as-is).
        const CacheBlock *img = imageOf(addr);
        COP_ASSERT(img != nullptr);
        it = check_.emplace(addr, CoperCodec::wideCheck(*img)).first;
    }
    return it->second;
}

void
CopErNaiveController::flipStoredBit(Addr addr, unsigned bit)
{
    u16 &check = wideCheckOf(addr);
    if (bit < kBlockBits) {
        MemoryController::flipStoredBit(addr, bit);
        return;
    }
    COP_ASSERT(bit < kBlockBits + 11);
    check = static_cast<u16>(check ^ (1u << (bit - kBlockBits)));
}

MemReadResult
CopErNaiveController::readImpl(Addr addr, Cycle now)
{
    MemReadResult result;

    const CacheBlock *image = imageOf(addr);
    if (image == nullptr) {
        const CacheBlock &data = initialContent(addr);
        const CopEncodeResult enc = encodeBlock(data);
        if (enc.status == EncodeStatus::AliasRejected) {
            // No pointer displacement => no de-aliasing: like plain
            // COP, aliases stay pinned in the LLC.
            result.aliasPinned = true;
            result.data = data;
            result.complete = dramRead(addr, now) + decodeLatency_;
            result.dramAccesses = 1;
            return result;
        }
        noteTransferBits(addr, copTransferBits(enc, codec_.config()));
        image = &setImage(addr, enc.stored);
        if (!faultInjectionEnabled()) {
            // The image was created by the line above, so nothing can
            // have corrupted it before this fill: decoding it is the
            // codec roundtrip identity (decode(encode(x)) == (x, clean
            // flags)). Serve the fill from the content directly and
            // skip the decode; the timing below mirrors the decode
            // paths exactly.
            const Cycle data_done = dramRead(addr, now);
            result.dramAccesses = 1;
            result.data = data;
            if (enc.status == EncodeStatus::Protected) {
                result.complete = data_done + decodeLatency_;
                logVuln(VulnClass::CopProtected4, addr, now);
                return result;
            }
            result.wasUncompressed = true;
            const Cycle meta_done = metaAccess(addr, now, false);
            if (meta_done > now)
                ++result.dramAccesses;
            result.complete =
                std::max(data_done, meta_done) + decodeLatency_;
            logVuln(VulnClass::CopErUncompressed, addr, now);
            return result;
        }
    }

    const CacheBlock &stored = *image;
    const Cycle data_done = dramRead(addr, now);
    result.dramAccesses = 1;

    const CopDecodeResult dec = codec_.decode(stored);
    result.data = dec.data;
    result.detectedUncorrectable = dec.detectedUncorrectable;
    result.correctedError = dec.correctedWords > 0;
    if (dec.compressed) {
        // Check bits travelled inline: no region access — the naive
        // variant's entire performance win over the baseline. (A raw
        // block whose faults make it look compressed also lands here:
        // the decoder hands over garbage, the SDC oracle counts it.)
        result.complete = data_done + decodeLatency_;
        logVuln(VulnClass::CopProtected4, addr, now);
        return result;
    }

    // Incompressible: the wide-code check bits sit at a fixed offset in
    // the full-size region; the lookup can overlap the data read.
    result.wasUncompressed = true;
    const Cycle meta_done = metaAccess(addr, now, false);
    if (meta_done > now)
        ++result.dramAccesses;
    result.complete = std::max(data_done, meta_done) + decodeLatency_;
    if (isFaulted(addr)) {
        // Raw blocks are stored as-is; run the wide code against the
        // sidecar check bits the region holds for them.
        CacheBlock data = stored;
        const EccResult ecc =
            CoperCodec::wideDecode(data, wideCheckOf(addr));
        result.data = data;
        result.correctedError = ecc.corrected();
        result.detectedUncorrectable = ecc.uncorrectable();
    }
    logVuln(VulnClass::CopErUncompressed, addr, now);
    return result;
}

MemWriteResult
CopErNaiveController::writeback(Addr addr, const CacheBlock &data,
                                Cycle now, bool was_uncompressed)
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
        // Update the block's entry in the always-reserved region.
        metaAccess(addr, now, true);
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
CopErNaiveController::wouldAliasReject(const CacheBlock &data) const
{
    // Same routing as CopController: a caching memo makes the full
    // encode the cheaper test (the eviction re-encode hits).
    if (memo_ != nullptr && memo_->capacity() > 0) {
        return memo_->encode(codec_, data).status ==
               EncodeStatus::AliasRejected;
    }
    return !codec_.compressor().compressible(data) && codec_.isAlias(data);
}

} // namespace cop
