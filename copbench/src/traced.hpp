/**
 * @file
 * The traced loop: the serial epoch loop of System::run() rebuilt
 * from the layers' public calls (EpochSource::next, SetAssocCache
 * access/insert, MemoryController read/writeback/wouldAliasReject and
 * BlockContentPool::blockForRef behind the controller's ContentSource),
 * with a span around every call. Its SystemResults must equal the
 * untraced System's exactly on the same configuration; main.cpp checks
 * that on every traced pass.
 *
 * The codec and the DRAM model are reached only from inside the
 * controller, so the loop records the controller call stream (every
 * read/writeback address and arrival, every written-back block) and
 * the replay functions below time CopCodec/CoperCodec and DramSystem
 * on it afterwards.
 */

#ifndef COPBENCH_TRACED_HPP
#define COPBENCH_TRACED_HPP

#include <array>
#include <chrono>
#include <memory>
#include <vector>

#include "sim/system.hpp"

namespace copbench {

using cop::Addr;
using cop::CacheBlock;
using cop::Cycle;
using cop::u64;

/** The layer boundaries the traced loop wraps. Loop is the root span. */
enum class SpanId : unsigned {
    Loop,
    EpochNext,
    BlockFor,
    BumpVersion,
    CacheAccess,
    CacheInsert,
    MemRead,
    MemWriteback,
    AliasCheck,
    Count,
};

inline constexpr unsigned kSpanCount = static_cast<unsigned>(SpanId::Count);

/** Metric-name prefix of each span (per_layer names in BENCHMARK.json). */
inline constexpr std::array<const char *, kSpanCount> kSpanNames = {
    "sim.loop",
    "workloads.epoch_next",
    "workloads.block_for",
    "workloads.bump_version",
    "cache.access",
    "cache.insert",
    "mem.read",
    "mem.writeback",
    "mem.alias_check",
};

/**
 * Nested span timer that aggregates in memory: per span id, the call
 * count and the summed self time (duration minus the time its child
 * spans cover). Spans must nest strictly (RAII Span below).
 */
class SpanTracer
{
  public:
    struct Totals
    {
        u64 calls = 0;
        double selfNs = 0;
    };

    void
    enter(SpanId id)
    {
        COP_ASSERT(depth_ < stack_.size());
        stack_[depth_++] = Frame{id, Clock::now(), 0.0};
    }

    void
    leave()
    {
        const Frame &f = stack_[--depth_];
        const double ns =
            std::chrono::duration<double, std::nano>(Clock::now() - f.start)
                .count();
        Totals &t = totals_[static_cast<unsigned>(f.id)];
        ++t.calls;
        t.selfNs += ns - f.childNs;
        if (depth_ > 0)
            stack_[depth_ - 1].childNs += ns;
    }

    const Totals &
    totals(SpanId id) const
    {
        return totals_[static_cast<unsigned>(id)];
    }

  private:
    using Clock = std::chrono::steady_clock;

    struct Frame
    {
        SpanId id;
        Clock::time_point start;
        double childNs;
    };

    /** Deepest nesting: loop > insert > alias check (or block fetch). */
    std::array<Frame, 8> stack_{};
    unsigned depth_ = 0;
    std::array<Totals, kSpanCount> totals_{};
};

/** Scoped span: enters on construction, leaves on destruction. */
class Span
{
  public:
    Span(SpanTracer &tracer, SpanId id) : tracer_(tracer)
    {
        tracer_.enter(id);
    }
    ~Span() { tracer_.leave(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanTracer &tracer_;
};

/** One controller call as the DRAM model would first see it. */
struct DramCall
{
    Addr addr = 0;
    Cycle arrival = 0;
    bool isWrite = false;
};

/** The serial System loop, rebuilt from public layer calls and traced. */
class TracedRun
{
  public:
    /**
     * @p cfg must be a plain serial configuration (no fast timing,
     * sharding, faults, bandwidth/adaptive modes, proactive alias
     * checks, trace replay or stats trace); fatal otherwise.
     * @p max_blocks caps the recorded written-back blocks.
     */
    TracedRun(const cop::WorkloadProfile &profile,
              const cop::SystemConfig &cfg, size_t max_blocks);
    ~TracedRun();

    TracedRun(const TracedRun &) = delete;
    TracedRun &operator=(const TracedRun &) = delete;

    /** Run every epoch and assemble the results as System does. */
    cop::SystemResults run();

    const SpanTracer &spans() const { return spans_; }
    const std::vector<DramCall> &dramCalls() const { return dramCalls_; }
    /** Written-back blocks in call order (first max_blocks only). */
    const std::vector<CacheBlock> &blocks() const { return blocks_; }
    /** Fills of blocks that already had a DRAM image (decoded fills). */
    u64 imageFills() const { return imageFills_; }
    /** Fills that disagreed with functional memory (must stay 0). */
    u64 verifyMismatches() const { return verifyMismatches_; }
    /** Writebacks the controller rejected after the filter passed. */
    u64 lateAliasRejects() const { return lateAliasRejects_; }

  private:
    struct Core
    {
        std::unique_ptr<cop::EpochSource> gen;
        cop::BlockContentPool *pool = nullptr;
        Cycle clock = 0;
        u64 instructions = 0;
        u64 epochsDone = 0;
    };

    cop::BlockContentPool &poolFor(Addr addr);
    const CacheBlock &blockFor(Addr addr);
    void runEpoch(Core &core, const cop::Epoch &epoch);
    Cycle handleMiss(Addr addr, bool is_write, Cycle now);
    void writeback(const cop::CacheEviction &ev, Cycle now,
                   const CacheBlock *data);
    cop::SystemResults collectResults();

    const cop::WorkloadProfile &profile_;
    cop::SystemConfig cfg_;
    size_t maxBlocks_;
    SpanTracer spans_;
    cop::DramSystem dram_;
    cop::SetAssocCache llc_;
    std::unique_ptr<cop::EncodeMemo> memo_;
    std::unique_ptr<cop::MemoryController> controller_;
    std::vector<Core> cores_;
    cop::FlatSet everUncompressed_;
    cop::SetAssocCache::EvictFilter evictFilter_;
    bool probed_ = false;
    Addr probedAddr_ = 0;
    CacheBlock probedData_;
    u64 missCount_ = 0;
    u64 writebacks_ = 0;
    u64 imageFills_ = 0;
    u64 verifyMismatches_ = 0;
    u64 lateAliasRejects_ = 0;
    std::vector<DramCall> dramCalls_;
    std::vector<CacheBlock> blocks_;
};

/** Calls replayed and their mean host time. */
struct ReplayTiming
{
    u64 calls = 0;
    double nsPerCall = 0;
};

/** DramSystem::access over the recorded call stream (fresh model). */
ReplayTiming replayDram(const cop::DramConfig &cfg,
                        const std::vector<DramCall> &calls);

/** Codec encode and decode over the recorded written-back blocks. */
struct CodecReplay
{
    ReplayTiming encode;
    ReplayTiming decode;
    /** Blocks whose decode(encode(x)) did not give back x. */
    u64 roundTripErrors = 0;
};

/**
 * Encode every block with the scheme's codec (CopCodec, plus
 * CoperCodec::encodeIncompressible for the COP-ER schemes' raw
 * blocks), then decode every stored image. All zero for schemes
 * without a codec.
 */
CodecReplay replayCodec(cop::ControllerKind kind,
                        const std::vector<CacheBlock> &blocks);

} // namespace copbench

#endif // COPBENCH_TRACED_HPP
