#include "mem/controller.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "ecc/secded.hpp"
#include "mem/meta_cache.hpp"

namespace cop {

const char *
vulnClassName(VulnClass c)
{
    switch (c) {
      case VulnClass::Unprotected: return "unprotected";
      case VulnClass::CopProtected4: return "cop4";
      case VulnClass::CopProtected8: return "cop8";
      case VulnClass::CopErUncompressed: return "coper-entry";
      case VulnClass::EccDimm: return "ecc-dimm";
      case VulnClass::WideCode: return "wide-code";
      case VulnClass::kCount: break;
    }
    COP_PANIC("bad vuln class");
}

MemoryController::MemoryController(DramSystem &dram, ContentSource content)
    : dram_(dram), content_(std::move(content))
{
    COP_ASSERT(content_ != nullptr);
}

Cycle
MemoryController::dramRead(Addr addr, Cycle now)
{
    switch (opMode_) {
      case OpMode::Demand:
        ++stats_.reads;
        break;
      case OpMode::Retry:
        ++fault_.log.retryDramReads;
        break;
      case OpMode::Scrub:
        ++fault_.log.scrubReads;
        break;
    }
    return dram_.access({addr, false, now}).complete;
}

Cycle
MemoryController::dramWrite(Addr addr, Cycle now)
{
    switch (opMode_) {
      case OpMode::Demand:
      case OpMode::Retry:
        ++stats_.writes;
        break;
      case OpMode::Scrub:
        ++fault_.log.scrubWrites;
        break;
    }
    return dram_.access({addr, true, now}).complete;
}

Cycle
MemoryController::metaFetch(MetaCache &meta, Addr meta_addr, Cycle now,
                            bool dirty)
{
    const MetaCache::Access acc = meta.access(meta_addr, dirty);
    if (acc.hit) {
        ++stats_.metaCacheHits;
        return now; // already on chip
    }
    ++stats_.metaCacheMisses;
    if (acc.evictedDirty) {
        ++stats_.metaWrites;
        dramWrite(acc.evictedAddr, now);
    }
    ++stats_.metaReads;
    return dramRead(meta_addr, now);
}

const CacheBlock &
MemoryController::storedImage(Addr addr, MemReadResult &result)
{
    // The content source only reads the table, so `rec` stays valid.
    BlockState &rec = record(addr);
    if (rec.stored == Stored::Nothing) {
        // First touch: store-verbatim controllers store the content.
        const CacheBlock &data = content(addr);
        result.storedVersion = rec.version;
        if (fault_.enabled)
            return setImage(addr, data);
        setStored(addr, Stored::Raw);
        return data;
    }
    result.storedVersion = rec.storedVersion;
    if (rec.stored == Stored::Image)
        return *imageOf(addr);
    return content(addr);
}

const CacheBlock &
MemoryController::setImage(Addr addr, const CacheBlock &stored)
{
    COP_ASSERT(fault_.enabled);
    markStored(record(addr), Stored::Image);
    CacheBlock &image = images_[addr];
    image = stored;
    imageWritten(addr);
    fault_.faulted.erase(addr);
    fault_.silentKnown.erase(addr);
    applyStuckBits(addr);
    return image;
}

void
MemoryController::setStored(Addr addr, Stored how)
{
    COP_ASSERT(!fault_.enabled);
    COP_ASSERT(how == Stored::Protected || how == Stored::Raw);
    markStored(record(addr), how);
}

void
MemoryController::logVuln(VulnClass cls, Addr addr, Cycle now)
{
    lastFillClass_ = cls;
    if (opMode_ != OpMode::Demand)
        return; // retries/scrub re-decode; not a new exposure
    Cycle since = 0;
    if (const auto it = blocks_->find(addr); it != blocks_->end())
        since = it->second.lastWrite;
    vuln_.record(cls, now >= since ? now - since : 0);
}

void
MemoryController::registerStats(StatsRegistry &reg) const
{
    reg.gauge("mem.fills",
              [this] { return stats_.reads - stats_.metaReads; });
    reg.gauge("mem.writebacks", [this] {
        return stats_.protectedWrites + stats_.unprotectedWrites;
    });
    reg.gauge("mem.protected_writes",
              [this] { return stats_.protectedWrites; });
    reg.gauge("mem.unprotected_writes",
              [this] { return stats_.unprotectedWrites; });
    reg.gauge("mem.alias_rejects", [this] { return stats_.aliasRejects; });
    reg.gauge("mem.meta_reads", [this] { return stats_.metaReads; });
    reg.gauge("mem.meta_writes", [this] { return stats_.metaWrites; });
    reg.gauge("mem.meta_cache_hits",
              [this] { return stats_.metaCacheHits; });
    reg.gauge("mem.meta_cache_misses",
              [this] { return stats_.metaCacheMisses; });
    reg.gauge("err.corrected", [this] { return fault_.log.corrected; });
    reg.gauge("err.detected", [this] { return fault_.log.detected; });
    reg.gauge("err.silent", [this] { return fault_.log.silent; });
    reg.gauge("err.benign", [this] { return fault_.log.benign; });
    reg.gauge("err.read_retries",
              [this] { return fault_.log.readRetries; });
    reg.gauge("err.recovery_rewrites",
              [this] { return fault_.log.recoveryRewrites; });
    reg.gauge("err.retired_pages",
              [this] { return fault_.log.retiredPages; });
    reg.gauge("err.scrubbed_blocks",
              [this] { return fault_.log.scrubbedBlocks; });
}

// ---------------------------------------------------------------------
// Fault injection and the recovery pipeline
// ---------------------------------------------------------------------

void
MemoryController::enableFaultInjection(const RecoveryConfig &cfg)
{
    if (!fault_.enabled && storedBlocks_ != 0)
        COP_FATAL("fault injection must be enabled before the first "
                  "store: blocks stored so far kept no image to strike");
    fault_.enabled = true;
    fault_.cfg = cfg;
    COP_ASSERT(fault_.cfg.pageBytes >= kBlockBytes);
}

Addr
MemoryController::pageBase(Addr addr) const
{
    return addr / fault_.cfg.pageBytes * fault_.cfg.pageBytes;
}

bool
MemoryController::pageRetired(Addr addr) const
{
    return fault_.enabled && fault_.retired.count(pageBase(addr)) != 0;
}

bool
MemoryController::injectFault(Addr addr, const std::vector<unsigned> &bits,
                              Cycle now, bool persistent)
{
    COP_ASSERT(fault_.enabled);
    (void)now;
    if (persistent) {
        auto &stuck = fault_.stuck[addr];
        stuck.insert(stuck.end(), bits.begin(), bits.end());
    }
    if (pageRetired(addr)) {
        ++fault_.log.faultsOnRetiredPages;
        return false;
    }
    if (imageOf(addr) == nullptr) {
        // The block has never been touched: its image does not exist,
        // so there is nothing to strike. (Stuck bits registered above
        // still take effect when the image materialises.)
        ++fault_.log.coldFaults;
        return false;
    }
    const unsigned limit = storedBits(addr);
    unsigned applied = 0;
    for (const unsigned b : bits) {
        if (b >= limit) {
            if (persistent)
                continue; // cell outside this image's stored geometry
            COP_PANIC("fault bit " + std::to_string(b) +
                      " out of range for a " + std::to_string(limit) +
                      "-bit stored image");
        }
        flipStoredBit(addr, b);
        ++applied;
    }
    if (applied == 0)
        return false;
    fault_.faulted.insert(addr);
    ++fault_.log.faultEvents;
    fault_.log.bitsFlipped += applied;
    return true;
}

void
MemoryController::applyStuckBits(Addr addr)
{
    const auto it = fault_.stuck.find(addr);
    if (it == fault_.stuck.end() || pageRetired(addr))
        return;
    const unsigned limit = storedBits(addr);
    unsigned applied = 0;
    for (const unsigned b : it->second) {
        if (b >= limit)
            continue;
        flipStoredBit(addr, b);
        ++applied;
    }
    if (applied > 0)
        fault_.faulted.insert(addr);
}

void
MemoryController::flipStoredBit(Addr addr, unsigned bit)
{
    COP_ASSERT(bit < kBlockBits);
    CacheBlock *img = imageOf(addr);
    COP_ASSERT(img != nullptr);
    img->flipBit(bit);
}

std::vector<Addr>
MemoryController::imageAddressesSorted() const
{
    std::vector<Addr> out;
    out.reserve(images_.size());
    for (const auto &kv : images_)
        out.push_back(kv.first);
    std::sort(out.begin(), out.end());
    return out;
}

MemReadResult
MemoryController::read(Addr addr, Cycle now)
{
    MemReadResult r = readImpl(addr, now);
    r.fillClass = lastFillClass_;
    if (!fault_.enabled)
        return r;
    r.faultedBlock = fault_.faulted.count(addr) != 0;

    // Bounded read-retry: a transient detection (e.g. a marginal bus
    // transfer) would clear on a re-read; injected storage faults do
    // not, so the retries cost latency and then surface the error.
    while (r.detectedUncorrectable && r.retries < fault_.cfg.maxReadRetries) {
        ++fault_.log.readRetries;
        opMode_ = OpMode::Retry;
        MemReadResult again = readImpl(addr, now);
        opMode_ = OpMode::Demand;
        again.fillClass = lastFillClass_;
        again.retries = r.retries + 1;
        again.complete = std::max(r.complete, again.complete);
        again.dramAccesses += r.dramAccesses;
        again.faultedBlock = fault_.faulted.count(addr) != 0;
        r = again;
    }

    settleDecodeError(addr, now, r);
    // After a DUE the page-level copy (functional truth) replaces the
    // fill, so execution continues past it; detectedUncorrectable stays
    // set for the caller's bookkeeping.
    if (r.detectedUncorrectable)
        r.data = content(addr);
    return r;
}

void
MemoryController::settleDecodeError(Addr addr, Cycle now,
                                    const MemReadResult &r)
{
    const bool scrub = opMode_ == OpMode::Scrub;
    if (r.detectedUncorrectable) {
        fault_.log.note(scrub ? ErrorEventKind::ScrubDetected
                              : ErrorEventKind::Detected,
                        r.fillClass, addr, now, r.retries);
        fault_.faulted.erase(addr);
        recoverDetected(addr, now, r.wasUncompressed);
    } else if (r.correctedError) {
        if (r.data == content(addr)) {
            // Restore the clean image so the same fault is not
            // corrected again (and cannot meet a second strike later);
            // on a demand read this is scrub-on-read.
            fault_.log.note(scrub ? ErrorEventKind::ScrubCorrected
                                  : ErrorEventKind::Corrected,
                            r.fillClass, addr, now, r.retries);
            fault_.faulted.erase(addr);
            if (!scrub)
                ++fault_.log.scrubOnReadWrites;
            recoveryWriteback(addr, r.data, now, r.wasUncompressed);
        } else {
            // Miscorrection: a multi-flip pattern aliased into some
            // single-bit syndrome and the decoder "fixed" it into
            // plausible-but-wrong data. The writeback commits the wrong
            // image as clean; keep the block marked faulted so the
            // demand SDC oracle books the fill as silent corruption.
            recoveryWriteback(addr, r.data, now, r.wasUncompressed);
            fault_.faulted.insert(addr);
        }
    }
}

void
MemoryController::recoverDetected(Addr addr, Cycle now,
                                  bool was_uncompressed)
{
    const Addr page = pageBase(addr);
    const unsigned dues = ++fault_.pageDue[page];
    if (fault_.retired.count(page) == 0 &&
        dues >= fault_.cfg.retirePageThreshold) {
        // Graceful degradation: remap the page out of the faulty
        // region. Modelled as dropping its stuck cells — the rewrite
        // below lands in the healthy replacement frame.
        fault_.retired.insert(page);
        fault_.log.note(ErrorEventKind::PageRetired, lastFillClass_, addr,
                        now);
    }
    ++fault_.log.recoveryRewrites;
    recoveryWriteback(addr, content(addr), now, was_uncompressed);
}

void
MemoryController::recoveryWriteback(Addr addr, const CacheBlock &data,
                                    Cycle now, bool was_uncompressed)
{
    const MemWriteResult wr = writeback(addr, data, now, was_uncompressed);
    if (wr.aliasRejected) {
        // The repaired content is an incompressible alias, which can
        // never live in DRAM; drop the stored image so the next miss
        // re-runs first-touch handling (and pins the line). The
        // version and write time are the block's history and stay.
        BlockState &rec = record(addr);
        if (rec.stored != Stored::Nothing) {
            rec.stored = Stored::Nothing;
            --storedBlocks_;
        }
        images_.erase(addr);
        fault_.faulted.erase(addr);
        fault_.silentKnown.erase(addr);
    }
}

void
MemoryController::patrolScrub(Addr addr, Cycle now)
{
    COP_ASSERT(fault_.enabled);
    if (imageOf(addr) == nullptr)
        return;
    ++fault_.log.scrubbedBlocks;
    opMode_ = OpMode::Scrub;
    MemReadResult r = readImpl(addr, now);
    r.fillClass = lastFillClass_;
    settleDecodeError(addr, now, r);
    // The visit resets the block's vulnerability clock only when a code
    // checked it, mirroring the analytic model: an unprotected block
    // (no ECC, or a raw COP block) cannot be verified.
    if (r.fillClass != VulnClass::Unprotected)
        noteWrite(addr, now);
    opMode_ = OpMode::Demand;
}

void
MemoryController::noteSilentFill(Addr addr, VulnClass cls, Cycle now)
{
    COP_ASSERT(fault_.enabled);
    if (fault_.faulted.erase(addr) != 0) {
        fault_.log.note(ErrorEventKind::Silent, cls, addr, now);
        fault_.silentKnown.insert(addr);
        return;
    }
    if (fault_.silentKnown.count(addr) != 0)
        return; // same corruption, already counted
    COP_PANIC("memory returned wrong data for block " +
              std::to_string(addr) + " with no fault injected there");
}

void
MemoryController::noteBenignFill(Addr addr, VulnClass cls, Cycle now)
{
    COP_ASSERT(fault_.enabled);
    if (fault_.faulted.erase(addr) != 0)
        fault_.log.note(ErrorEventKind::Benign, cls, addr, now);
}

// ---------------------------------------------------------------------
// UnprotectedController
// ---------------------------------------------------------------------

MemReadResult
UnprotectedController::readImpl(Addr addr, Cycle now)
{
    MemReadResult result;
    result.complete = dramRead(addr, now);
    result.dramAccesses = 1;
    result.data = storedImage(addr, result);
    logVuln(VulnClass::Unprotected, addr, now);
    return result;
}

MemWriteResult
UnprotectedController::writeback(Addr addr, const CacheBlock &data,
                                 Cycle now, bool was_uncompressed)
{
    (void)was_uncompressed;
    MemWriteResult result;
    result.complete = dramWrite(addr, now);
    result.dramAccesses = 1;
    store(addr, Stored::Raw, data);
    noteWrite(addr, now);
    return result;
}

// ---------------------------------------------------------------------
// EccDimmController
// ---------------------------------------------------------------------

std::array<u8, 8> &
EccDimmController::checkBytes(Addr addr)
{
    auto it = check_.find(addr);
    if (it == check_.end()) {
        // Materialise the (72,64) check bytes from the current image.
        // Always done before the first flip lands (flipStoredBit
        // materialises first), so the sidecar reflects clean data.
        const CacheBlock *img = imageOf(addr);
        COP_ASSERT(img != nullptr);
        std::array<u8, 8> check{};
        const HsiaoCode &code = codes::dimm72();
        for (unsigned w = 0; w < 8; ++w) {
            std::array<u8, 9> word{};
            std::memcpy(word.data(), img->data() + w * 8, 8);
            code.encode(word);
            check[w] = word[8];
        }
        it = check_.emplace(addr, check).first;
    }
    return it->second;
}

void
EccDimmController::flipStoredBit(Addr addr, unsigned bit)
{
    std::array<u8, 8> &check = checkBytes(addr);
    if (bit < kBlockBits) {
        MemoryController::flipStoredBit(addr, bit);
        return;
    }
    COP_ASSERT(bit < 576);
    const unsigned idx = bit - kBlockBits;
    check[idx / 8] ^= static_cast<u8>(1u << (idx % 8));
}

MemReadResult
EccDimmController::readImpl(Addr addr, Cycle now)
{
    MemReadResult result;
    result.complete = dramRead(addr, now);
    result.dramAccesses = 1;
    const CacheBlock &img = storedImage(addr, result);
    if (isFaulted(addr)) {
        // Run the real (72,64) decode against the faulted image plus
        // its check-byte sidecar.
        const std::array<u8, 8> &check = checkBytes(addr);
        const HsiaoCode &code = codes::dimm72();
        CacheBlock out;
        for (unsigned w = 0; w < 8; ++w) {
            std::array<u8, 9> word{};
            std::memcpy(word.data(), img.data() + w * 8, 8);
            word[8] = check[w];
            const EccResult ecc = code.decode(word);
            result.correctedError |= ecc.corrected();
            result.detectedUncorrectable |= ecc.uncorrectable();
            std::memcpy(out.data() + w * 8, word.data(), 8);
        }
        result.data = out;
    } else {
        result.data = img;
    }
    logVuln(VulnClass::EccDimm, addr, now);
    return result;
}

} // namespace cop
