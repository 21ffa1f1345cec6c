#include "traced.hpp"

#include <algorithm>

#include "core/coper_codec.hpp"
#include "mem/coper_controller.hpp"

namespace copbench {

using namespace cop;

TracedRun::TracedRun(const WorkloadProfile &profile, const SystemConfig &cfg,
                     size_t max_blocks)
    : profile_(profile), cfg_(cfg), maxBlocks_(max_blocks), dram_(cfg.dram),
      llc_(cfg.llc)
{
    if (cfg_.fastTiming || cfg_.simThreads != 1 || cfg_.fault.enabled ||
        cfg_.bandwidthCompression || cfg_.adaptiveEccCapacity ||
        cfg_.proactiveAliasCheck || cfg_.epochSource ||
        !cfg_.traceStatsPath.empty())
        COP_FATAL("the traced loop runs plain serial configurations only");

    cores_.resize(cfg_.cores);
    for (unsigned c = 0; c < cfg_.cores; ++c) {
        cores_[c].gen = std::make_unique<TraceGenerator>(
            profile_, c, cfg_.seedSalt, cfg_.contentCacheEntries);
        cores_[c].pool = &cores_[c].gen->pool();
    }
    memo_ = std::make_unique<EncodeMemo>(cfg_.encodeMemoEntries);
    controller_ = makeController(
        cfg_.kind, dram_,
        [this](Addr addr) -> const CacheBlock & { return blockFor(addr); },
        cfg_.decodeLatency, cfg_.metaCacheBytes, memo_.get());
    evictFilter_ = [this](Addr victim, const CacheLineState &) {
        probedData_ = blockFor(victim);
        probedAddr_ = victim;
        probed_ = true;
        const Span span(spans_, SpanId::AliasCheck);
        return !controller_->wouldAliasReject(probedData_);
    };

    // The same allocation hints System's constructor gives.
    const u64 poolRegions =
        (profile_.sharedFootprint || cfg_.cores == 1) ? 1 : cfg_.cores;
    const u64 expectedRefs =
        cfg_.epochsPerCore * cfg_.cores * (2 * profile_.mlp + 1) / 2;
    const u64 touchEstimate =
        std::min({poolRegions * profile_.footprintBlocks, expectedRefs,
                  u64{1} << 19});
    controller_->reserveFootprint(touchEstimate);
    const u64 writeEstimate = static_cast<u64>(
        static_cast<double>(touchEstimate / poolRegions) *
        profile_.writeFraction);
    for (unsigned c = 0; c < poolRegions; ++c)
        cores_[c].pool->reserveVersions(writeEstimate);
}

TracedRun::~TracedRun() = default;

BlockContentPool &
TracedRun::poolFor(Addr addr)
{
    if (profile_.sharedFootprint || cfg_.cores == 1)
        return *cores_[0].pool;
    const u64 core = addr / (profile_.footprintBlocks * kBlockBytes);
    if (core >= cores_.size())
        COP_PANIC("address outside the per-core footprint regions");
    return *cores_[core].pool;
}

const CacheBlock &
TracedRun::blockFor(Addr addr)
{
    const Span span(spans_, SpanId::BlockFor);
    return poolFor(addr).blockForRef(addr);
}

void
TracedRun::writeback(const CacheEviction &ev, Cycle now,
                     const CacheBlock *data)
{
    const CacheBlock &block = data != nullptr ? *data : blockFor(ev.addr);
    dramCalls_.push_back(DramCall{ev.addr, now, true});
    if (blocks_.size() < maxBlocks_)
        blocks_.push_back(block);
    MemWriteResult wr;
    {
        const Span span(spans_, SpanId::MemWriteback);
        wr = controller_->writeback(ev.addr, block, now,
                                    ev.state.wasUncompressed);
    }
    if (wr.aliasRejected)
        ++lateAliasRejects_;
    ++writebacks_;
}

Cycle
TracedRun::handleMiss(Addr addr, bool is_write, Cycle now)
{
    ++missCount_;
    if (controller_->imageOf(addr) != nullptr)
        ++imageFills_;
    dramCalls_.push_back(DramCall{addr, now, false});
    MemReadResult fill;
    {
        const Span span(spans_, SpanId::MemRead);
        fill = controller_->read(addr, now);
    }

    if (cfg_.verifyData) {
        const CacheBlock &expect = blockFor(addr);
        const bool match = fill.data == expect;
        if (!match && !fill.detectedUncorrectable)
            ++verifyMismatches_;
        else if (match && fill.faultedBlock && !fill.correctedError &&
                 !fill.detectedUncorrectable)
            controller_->noteBenignFill(addr, fill.fillClass, now);
    }
    if (fill.wasUncompressed)
        everUncompressed_.insert(addr / kBlockBytes * kBlockBytes);

    probed_ = false;
    CacheLineState *installed = nullptr;
    CacheEviction ev;
    {
        const Span span(spans_, SpanId::CacheInsert);
        ev = llc_.insert(addr, is_write, evictFilter_, &installed);
    }
    if (ev.valid && ev.state.dirty)
        writeback(ev, now,
                  probed_ && probedAddr_ == ev.addr ? &probedData_ : nullptr);

    if (installed != nullptr) {
        installed->wasUncompressed = fill.wasUncompressed;
        if (fill.aliasPinned) {
            installed->dirty = true;
            llc_.setAlias(*installed, true);
        }
    }
    return fill.complete;
}

void
TracedRun::runEpoch(Core &core, const Epoch &epoch)
{
    const auto compute = static_cast<Cycle>(
        static_cast<double>(epoch.instructions) / profile_.perfectIpc);
    const Cycle start = core.clock;
    Cycle memory_done = start;

    for (const TraceAccess &access : epoch.accesses) {
        bool hit;
        {
            const Span span(spans_, SpanId::CacheAccess);
            hit = llc_.access(access.addr, access.isWrite);
        }
        Cycle done = 0;
        if (!hit)
            done = handleMiss(access.addr, access.isWrite, start);
        if (access.isWrite) {
            const Span span(spans_, SpanId::BumpVersion);
            poolFor(access.addr).bumpVersion(access.addr);
        }
        if (!hit)
            memory_done = std::max(memory_done, done + cfg_.llc.latency);
    }

    core.clock = std::max(start + compute, memory_done);
    core.instructions += epoch.instructions;
    ++core.epochsDone;
}

SystemResults
TracedRun::run()
{
    {
        const Span root(spans_, SpanId::Loop);
        while (true) {
            Core *next = nullptr;
            for (Core &core : cores_) {
                if (core.epochsDone >= cfg_.epochsPerCore)
                    continue;
                if (next == nullptr || core.clock < next->clock)
                    next = &core;
            }
            if (next == nullptr)
                break;
            const Epoch *epoch;
            {
                const Span span(spans_, SpanId::EpochNext);
                epoch = &next->gen->next();
            }
            runEpoch(*next, *epoch);
        }
    }
    return collectResults();
}

SystemResults
TracedRun::collectResults()
{
    SystemResults r;
    for (const Core &core : cores_) {
        r.instructions += core.instructions;
        r.cycles = std::max(r.cycles, core.clock);
    }
    r.ipc = r.cycles ? static_cast<double>(r.instructions) /
                           static_cast<double>(r.cycles)
                     : 0.0;
    r.llcMisses = missCount_;
    r.writebacks = writebacks_;
    r.llc = llc_.stats();
    r.aliasPinEvents = llc_.stats().aliasPinned;
    r.dram = dram_.stats();
    r.mem = controller_->stats();
    r.mem.encodeCalls = memo_->lookups();
    r.mem.encodeMemoHits = memo_->hits();
    r.mem.schemeTrials = memo_->schemeTrials();
    r.vuln = controller_->vulnLog();
    r.errors = controller_->errorLog();
    r.adaptive = controller_->adaptiveStats();
    r.everUncompressedBlocks = everUncompressed_.size();
    r.touchedBlocks = controller_->imageBlockCount();
    for (const Core &core : cores_) {
        r.poolBlockForCalls += core.pool->blockForCalls();
        r.poolContentCacheHits += core.pool->contentCacheHits();
        r.poolContentCacheMisses += core.pool->contentCacheMisses();
    }
    if (auto *coper = dynamic_cast<CopErController *>(controller_.get())) {
        r.eccRegionBytes = coper->storageBytesHighWater();
        r.eccRegionBytesNoDealloc = coper->storageBytesNoDealloc();
        r.everUncompressedBlocks = coper->everIncompressibleBlocks();
    }
    return r;
}

namespace {

using Clock = std::chrono::steady_clock;

double
nsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
}

} // namespace

ReplayTiming
replayDram(const DramConfig &cfg, const std::vector<DramCall> &calls)
{
    DramSystem dram(cfg);
    const Clock::time_point start = Clock::now();
    for (const DramCall &c : calls) {
        DramRequest req;
        req.addr = c.addr;
        req.isWrite = c.isWrite;
        req.arrival = c.arrival;
        dram.access(req);
    }
    const double ns = nsSince(start);
    ReplayTiming t;
    t.calls = calls.size();
    t.nsPerCall = calls.empty() ? 0.0 : ns / static_cast<double>(t.calls);
    return t;
}

CodecReplay
replayCodec(ControllerKind kind, const std::vector<CacheBlock> &blocks)
{
    CodecReplay out;
    CopConfig codecCfg;
    switch (kind) {
      case ControllerKind::Cop4:
      case ControllerKind::CopEr:
      case ControllerKind::CopErNaive:
        codecCfg = CopConfig::fourByte();
        break;
      case ControllerKind::Cop8:
        codecCfg = CopConfig::eightByte();
        break;
      default:
        return out;
    }
    const bool coper = kind == ControllerKind::CopEr ||
                       kind == ControllerKind::CopErNaive;
    const CopCodec codec(codecCfg);
    const CoperCodec coperCodec(codec);

    // One stored image per block; a raw COP-ER block keeps the entry
    // its pointer names. Alias rejects never reach DRAM and are skipped.
    // A raw COP-ER image that aliases would be re-encoded under another
    // entry by the controller, so its round trip is not checked.
    struct Stored
    {
        CacheBlock image;
        EccEntry entry;
        size_t source;
        bool checked;
    };
    std::vector<Stored> stored;
    stored.reserve(blocks.size());

    Clock::time_point start = Clock::now();
    for (size_t i = 0; i < blocks.size(); ++i) {
        const CopEncodeResult enc = codec.encode(blocks[i]);
        if (enc.status == EncodeStatus::AliasRejected)
            continue;
        if (coper && enc.status == EncodeStatus::Unprotected) {
            const CoperEncodeResult raw = coperCodec.encodeIncompressible(
                blocks[i], static_cast<u32>(i & 0xffff));
            stored.push_back(
                Stored{raw.stored, EccEntry{true, raw.displaced, raw.check},
                       i, raw.aliasFree});
        } else {
            stored.push_back(Stored{enc.stored, EccEntry{}, i, true});
        }
    }
    out.encode.calls = blocks.size();
    out.encode.nsPerCall =
        blocks.empty() ? 0.0
                       : nsSince(start) / static_cast<double>(blocks.size());

    std::vector<CacheBlock> decoded(stored.size());
    start = Clock::now();
    for (size_t i = 0; i < stored.size(); ++i) {
        const CopDecodeResult dec = codec.decode(stored[i].image);
        if (coper && !dec.compressed && stored[i].entry.valid)
            decoded[i] =
                coperCodec.reconstruct(stored[i].image, stored[i].entry).data;
        else
            decoded[i] = dec.data;
    }
    out.decode.calls = stored.size();
    out.decode.nsPerCall =
        stored.empty() ? 0.0
                       : nsSince(start) / static_cast<double>(stored.size());

    for (size_t i = 0; i < stored.size(); ++i) {
        if (stored[i].checked && decoded[i] != blocks[stored[i].source])
            ++out.roundTripErrors;
    }
    return out;
}

} // namespace copbench
