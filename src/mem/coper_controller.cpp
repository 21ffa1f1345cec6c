#include "mem/coper_controller.hpp"

namespace cop {

CopErController::CopErController(DramSystem &dram, ContentSource content,
                                 Cycle decode_latency,
                                 u64 meta_cache_bytes, EncodeCounter *encodes)
    : CopController(dram, std::move(content), CopConfig::fourByte(),
                    decode_latency, encodes),
      coper_(codec_), meta_(meta_cache_bytes)
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

void
CopErController::storeIncompressible(Addr addr, const CacheBlock &data,
                                     Cycle now, bool reuse_existing,
                                     u32 reuse_index)
{
    // Region and DRAM traffic insert no record, so `rec` stays valid.
    BlockState &rec = record(addr);
    if (!rec.everIncompressible) {
        rec.everIncompressible = true;
        ++incompressibleBlocks_;
    }
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
    metaFetch(meta_, entryBlockAddr(index), now, true);
    // Through setImage under fault injection: stuck bits apply.
    store(addr, Stored::Raw, enc.stored);
    rec.entry = index;
}

unsigned
CopErController::storedBits(Addr addr) const
{
    // 512 in-place bits, plus the ECC-region entry for incompressible
    // blocks (34 displaced + 11 check + 1 valid = 46).
    return storedRaw(addr) ? kBlockBits + 46 : kBlockBits;
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
    MemReadResult result;
    const CacheBlock *fresh = nullptr;
    if (storedAs(addr) == Stored::Nothing) {
        // First touch: initial memory was stored through the same
        // encoder.
        const CacheBlock &data = content(addr);
        const CopEncodeResult enc = encodeBlock(data);
        if (enc.status == EncodeStatus::Protected)
            keep(addr, enc);
        else
            storeIncompressible(addr, data, now, false, 0);
        fresh = &data;
    }

    const Cycle data_done = readStored(addr, now, result, fresh);
    if (!result.wasUncompressed)
        return result;

    // Uncompressed: chase the embedded pointer to the ECC entry. The
    // entry fetch serialises behind the data (the pointer is in the
    // data), then the block is reconstructed and checked.
    if (!faultInjectionEnabled()) {
        // Fault-free: the pointer is the entry the record names, and
        // the reconstruction of a clean copy is the data already read.
        const u32 index = findRecord(addr)->entry;
        COP_ASSERT(region_.valid(index));
        const Cycle meta_done =
            metaFetch(meta_, entryBlockAddr(index), data_done, false);
        ++result.dramAccesses;
        result.complete = std::max(data_done, meta_done) + decodeLatency_;
        logVuln(VulnClass::CopErUncompressed, addr, now);
        return result;
    }
    const CacheBlock &stored = *imageOf(addr);
    const PointerDecodeResult ptr = coper_.extractPointer(stored);
    if (ptr.ecc.uncorrectable() || !region_.valid(ptr.entryIndex)) {
        // Pointer destroyed by a multi-bit error: detected, data lost.
        result.detectedUncorrectable = true;
        logVuln(VulnClass::CopErUncompressed, addr, now);
        return result;
    }
    const Cycle meta_done =
        metaFetch(meta_, entryBlockAddr(ptr.entryIndex), data_done, false);
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
    // stored copy in memory (Section 3.3: "the pointer to the ECC entry
    // is read from memory"). A clean copy's pointer is the entry its
    // record names; a faulted image's is what its bits decode to.
    u32 old_index = 0;
    bool have_old = false;
    if (was_uncompressed) {
        // The line was filled raw and this is its only writeback, so the
        // block is still stored raw.
        const Stored how = storedAs(addr);
        COP_ASSERT(how != Stored::Protected);
        if (how != Stored::Nothing) {
            ++erStats_.pointerReads;
            old_index = how == Stored::Raw ? findRecord(addr)->entry
                                           : pointerOf(*imageOf(addr));
            dramRead(addr, now);
            have_old = region_.valid(old_index);
        }
    }

    const CopEncodeResult enc = encodeBlock(data);
    const bool compressible = enc.status == EncodeStatus::Protected;
    // (EncodeStatus::AliasRejected also means incompressible; COP-ER
    // stores such blocks through the de-aliasing entry path.)

    countWrite(enc);
    if (compressible) {
        if (have_old) {
            // The block became compressible: invalidate its entry (a
            // read-modify-write of the entry block's valid bit).
            ++erStats_.entryFrees;
            region_.free(old_index);
            chargeTreeTouches(now);
            maybeReleaseEntryBlock(old_index);
            metaFetch(meta_, entryBlockAddr(old_index), now, true);
        }
        keep(addr, enc);
    } else {
        storeIncompressible(addr, data, now, have_old, old_index);
    }

    result.complete = dramWrite(addr, now);
    result.dramAccesses = 1;
    noteWrite(addr, now);
    return result;
}

} // namespace cop
