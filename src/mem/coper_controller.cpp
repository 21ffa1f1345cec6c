#include "mem/coper_controller.hpp"

namespace cop {

CopErController::CopErController(DramSystem &dram, ContentSource content,
                                 Cycle decode_latency,
                                 u64 meta_cache_bytes, EncodeMemo *memo)
    : MemoryController(dram, std::move(content)), memo_(memo),
      codec_(CopConfig::fourByte()), coper_(codec_),
      meta_(meta_cache_bytes), decodeLatency_(decode_latency)
{
}

void
CopErController::registerStats(StatsRegistry &reg) const
{
    MemoryController::registerStats(reg);
    reg.gauge("coper.entry_allocs",
              [this] { return erStats_.entryAllocs; });
    reg.gauge("coper.entry_reuses",
              [this] { return erStats_.entryReuses; });
    reg.gauge("coper.entry_frees", [this] { return erStats_.entryFrees; });
    reg.gauge("coper.dealias_retries",
              [this] { return erStats_.deAliasRetries; });
    reg.gauge("coper.pointer_reads",
              [this] { return erStats_.pointerReads; });
}

void
CopErController::chargeTreeTouches(Cycle now)
{
    const EccRegion::TouchRecord &touches = region_.lastTouches();
    for (unsigned i = 0; i < touches.treeBlockReads; ++i) {
        ++stats_.metaReads;
        dramRead(memlayout::kTreeBase + (treeAddrSalt_++ % 64) *
                                            kBlockBytes,
                 now);
    }
    for (unsigned i = 0; i < touches.treeBlockWrites; ++i) {
        ++stats_.metaWrites;
        dramWrite(memlayout::kTreeBase + (treeAddrSalt_++ % 64) *
                                             kBlockBytes,
                  now);
    }
}

Cycle
CopErController::entryAccess(u32 entry_index, Cycle now, bool dirty)
{
    const Addr addr = entryBlockAddr(entry_index);
    const MetaCache::Access acc = meta_.access(addr, dirty);
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
    return dramRead(addr, now);
}

u32
CopErController::pointerOf(const CacheBlock &stored) const
{
    return coper_.extractPointer(stored).entryIndex;
}

void
CopErController::maybeReleaseEntryBlock(u32 index)
{
    if (!adaptiveMode_)
        return;
    const u64 block = index / EccRegion::kEntriesPerBlock;
    if (region_.validInBlock(block) == 0 &&
        releasedEntryBlocks_.insert(block))
        noteSlotReclaimed();
}

void
CopErController::maybeReclaimEntryBlock(u32 index, Cycle now)
{
    if (!adaptiveMode_)
        return;
    const u64 block = index / EccRegion::kEntriesPerBlock;
    if (releasedEntryBlocks_.erase(block) != 0) {
        // Demotion: the entry block must come back from the data
        // free-list, and the data victim living in the reclaimed slot
        // is evicted through the writeback machinery — one read out of
        // the slot, one write to its new home — before the entry lands.
        noteDemotion();
        dramRead(entryBlockAddr(index), now);
        dramWrite(entryBlockAddr(index), now);
    }
}

CacheBlock
CopErController::storeIncompressible(Addr addr, const CacheBlock &data,
                                     Cycle now, bool reuse_existing,
                                     u32 reuse_index)
{
    everIncompressible_.insert(addr);
    u32 index;
    if (reuse_existing) {
        ++erStats_.entryReuses;
        index = reuse_index;
    } else {
        ++erStats_.entryAllocs;
        index = region_.allocate();
        chargeTreeTouches(now);
        maybeReclaimEntryBlock(index, now);
    }

    CoperEncodeResult enc = coper_.encodeIncompressible(data, index);
    // De-aliasing by entry re-selection (Section 3.3): if the pointer
    // bits happen to make the stored image look compressed, pick a
    // different entry. The alias probability is ~2e-7 per attempt, so
    // this loop essentially never iterates.
    unsigned attempts = 0;
    while (!enc.aliasFree && attempts < 64) {
        ++attempts;
        ++erStats_.deAliasRetries;
        const u32 next = region_.allocate();
        chargeTreeTouches(now);
        maybeReclaimEntryBlock(next, now);
        region_.free(index);
        maybeReleaseEntryBlock(index);
        index = next;
        enc = coper_.encodeIncompressible(data, index);
    }
    if (!enc.aliasFree)
        COP_PANIC("COP-ER failed to de-alias a block after 64 entries");

    EccEntry &entry = region_.entryAt(index);
    entry.valid = true;
    entry.displaced = enc.displaced;
    entry.check = enc.check;
    entryAccess(index, now, true);
    return enc.stored;
}

unsigned
CopErController::storedBits(Addr addr) const
{
    const auto it = image_.find(addr);
    if (it == image_.end())
        return kBlockBits;
    // 512 in-place bits, plus the ECC-region entry for incompressible
    // blocks (34 displaced + 11 check + 1 valid = 46).
    return codec_.decode(it->second).compressed ? kBlockBits
                                                : kBlockBits + 46;
}

void
CopErController::flipStoredBit(Addr addr, unsigned bit)
{
    if (bit < kBlockBits) {
        MemoryController::flipStoredBit(addr, bit);
        return;
    }
    COP_ASSERT(bit < kBlockBits + 46);
    const CacheBlock *img = imageOf(addr);
    COP_ASSERT(img != nullptr);
    // Locate the entry through the (SEC-protected) embedded pointer.
    // If earlier faults already destroyed the pointer the entry is
    // unlocatable — the strike lands in unreferenced storage.
    const PointerDecodeResult ptr = coper_.extractPointer(*img);
    if (ptr.ecc.uncorrectable() || !region_.valid(ptr.entryIndex))
        return;
    const unsigned b = bit - kBlockBits;
    EccEntry &entry = region_.entryAt(ptr.entryIndex);
    if (b < 34)
        entry.displaced ^= (1ULL << b);
    else if (b < 45)
        entry.check = static_cast<u16>(entry.check ^ (1u << (b - 34)));
    else
        region_.corruptValid(ptr.entryIndex);
}

MemReadResult
CopErController::readImpl(Addr addr, Cycle now)
{
    // First touch: initial memory was stored through the same encoder.
    const CacheBlock *image = imageOf(addr);
    if (image == nullptr) {
        const CacheBlock &data = initialContent(addr);
        const CopEncodeResult enc = encodeBlock(data);
        // Incompressible blocks ship raw (pointer in place of check
        // bits): copTransferBits yields a full block and clears any
        // stale shortening for the address.
        noteTransferBits(addr, copTransferBits(enc, codec_.config()));
        if (enc.status == EncodeStatus::Protected) {
            image = &setImage(addr, enc.stored);
            if (!faultInjectionEnabled()) {
                // The image was created by the line above, so nothing
                // can have corrupted it before this fill: decoding it
                // is the codec roundtrip identity (decode(encode(x)) ==
                // (x, clean flags)). Serve the fill from the content
                // directly and skip the decode.
                MemReadResult result;
                result.complete = dramRead(addr, now) + decodeLatency_;
                result.dramAccesses = 1;
                result.data = data;
                logVuln(VulnClass::CopProtected4, addr, now);
                return result;
            }
        } else {
            image = &setImage(
                addr, storeIncompressible(addr, data, now, false, 0));
        }
    }

    MemReadResult result;
    const CacheBlock &stored = *image;
    const Cycle data_done = dramRead(addr, now);
    result.dramAccesses = 1;

    const CopDecodeResult &dec =
        warmOrDecode(warmDecode_, codec_, stored, decodeScratch_);
    if (dec.compressed) {
        result.complete = data_done + decodeLatency_;
        result.data = dec.data;
        result.detectedUncorrectable = dec.detectedUncorrectable;
        result.correctedError = dec.correctedWords > 0;
        logVuln(VulnClass::CopProtected4, addr, now);
        return result;
    }

    // Uncompressed: chase the embedded pointer to the ECC entry. The
    // entry fetch serialises behind the data (the pointer is in the
    // data), then the block is reconstructed and checked.
    result.wasUncompressed = true;
    const PointerDecodeResult ptr = coper_.extractPointer(stored);
    if (ptr.ecc.uncorrectable() || !region_.valid(ptr.entryIndex)) {
        // Pointer destroyed by a multi-bit error: detected, data lost.
        result.complete = data_done + decodeLatency_;
        result.data = dec.data;
        result.detectedUncorrectable = true;
        logVuln(VulnClass::CopErUncompressed, addr, now);
        return result;
    }
    const Cycle meta_done = entryAccess(ptr.entryIndex, data_done, false);
    ++result.dramAccesses;
    const CoperDecodeResult rec =
        coper_.reconstruct(stored, region_.entryAt(ptr.entryIndex));
    result.complete = std::max(data_done, meta_done) + decodeLatency_;
    result.data = rec.data;
    result.detectedUncorrectable = rec.blockEcc.uncorrectable();
    result.correctedError =
        rec.blockEcc.corrected() || ptr.ecc.corrected();
    logVuln(VulnClass::CopErUncompressed, addr, now);
    return result;
}

MemWriteResult
CopErController::writeback(Addr addr, const CacheBlock &data, Cycle now,
                           bool was_uncompressed)
{
    MemWriteResult result;

    // Locate any existing entry: the pointer is read back from the old
    // stored image in memory (Section 3.3: "the pointer to the ECC
    // entry is read from memory").
    u32 old_index = 0;
    bool have_old = false;
    if (was_uncompressed) {
        if (const CacheBlock *old = imageOf(addr)) {
            ++erStats_.pointerReads;
            dramRead(addr, now);
            old_index = pointerOf(*old);
            have_old = region_.valid(old_index);
        }
    }

    const CopEncodeResult enc = encodeBlock(data);
    const bool compressible = enc.status == EncodeStatus::Protected;
    // (EncodeStatus::AliasRejected also means incompressible; COP-ER
    // stores such blocks through the de-aliasing entry path.)

    // Record the new image's transfer size after the old-pointer read
    // above (which still ships at the old image's burst length) but
    // before the data write below.
    noteTransferBits(addr, copTransferBits(enc, codec_.config()));

    if (compressible) {
        ++stats_.protectedWrites;
        ++stats_.schemeWrites[static_cast<unsigned>(enc.scheme)];
        if (have_old) {
            // The block became compressible: invalidate its entry (a
            // read-modify-write of the entry block's valid bit).
            ++erStats_.entryFrees;
            region_.free(old_index);
            chargeTreeTouches(now);
            maybeReleaseEntryBlock(old_index);
            entryAccess(old_index, now, true);
        }
        setImage(addr, enc.stored);
    } else {
        ++stats_.unprotectedWrites;
        setImage(addr, storeIncompressible(addr, data, now, have_old,
                                           old_index));
    }

    result.complete = dramWrite(addr, now);
    result.dramAccesses = 1;
    noteWrite(addr, now);
    return result;
}

} // namespace cop
