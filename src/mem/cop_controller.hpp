/**
 * @file
 * CopController: main memory protected by COP (paper Sections 3.1-3.2).
 * Writebacks are compressed and protected when possible; incompressible
 * blocks are stored raw; incompressible aliases are rejected and stay
 * pinned in the LLC. Reads run the Figure 2 decoder with the paper's
 * 4-cycle decode/decompress latency adder.
 */

#ifndef COP_MEM_COP_CONTROLLER_HPP
#define COP_MEM_COP_CONTROLLER_HPP

#include "core/codec.hpp"
#include "core/encode_memo.hpp"
#include "mem/controller.hpp"

namespace cop {

/**
 * Total bits a shortened bus transfer of this encode result must carry:
 * the 2-bit scheme tag, the block's minimal in-budget compressed stream,
 * and the inline SECDED check bits. Anything not Protected (or encoded
 * without transfer sizing) needs the full block.
 */
inline unsigned
copTransferBits(const CopEncodeResult &enc, const CopConfig &cfg)
{
    if (enc.status == EncodeStatus::Protected && enc.minCompressedBits >= 0)
        return kSchemeTagBits +
               static_cast<unsigned>(enc.minCompressedBits) +
               8 * cfg.checkBytes;
    return kBlockBits;
}

/** COP memory controller. */
class CopController : public MemoryController
{
  public:
    /**
     * @param memo optional encode memo / perf-counter sink, owned by the
     *        caller (the System). May be null (plain uncounted encodes).
     */
    CopController(DramSystem &dram, ContentSource content,
                  const CopConfig &cfg = CopConfig::fourByte(),
                  Cycle decode_latency = 4, EncodeMemo *memo = nullptr);

    const char *name() const override
    {
        return codec_.config().checkBytes == 4 ? "COP-4B" : "COP-8B";
    }

    MemWriteResult writeback(Addr addr, const CacheBlock &data, Cycle now,
                             bool was_uncompressed) override;
    bool wouldAliasReject(const CacheBlock &data) const override;

    void
    enableBandwidthMode(unsigned beat_floor) override
    {
        MemoryController::enableBandwidthMode(beat_floor);
        codec_.enableTransferSizing();
    }

    const CopCodec &codec() const { return codec_; }

  protected:
    MemReadResult readImpl(Addr addr, Cycle now) override;

    bool
    scrubResetsClock(const MemReadResult &r) const override
    {
        // Raw (incompressible) COP blocks carry no code: the scrubber
        // can read them but cannot verify or repair anything.
        return !r.wasUncompressed;
    }

    VulnClass
    protectedClass() const
    {
        return codec_.config().checkBytes == 4 ? VulnClass::CopProtected4
                                               : VulnClass::CopProtected8;
    }

    /** codec_.encode through the memo (when attached). */
    CopEncodeResult
    encodeBlock(const CacheBlock &data) const
    {
        if (memo_ != nullptr)
            return memo_->encode(codec_, data);
        return codec_.encode(data);
    }

    CopCodec codec_;
    Cycle decodeLatency_;
    EncodeMemo *memo_;
};

} // namespace cop

#endif // COP_MEM_COP_CONTROLLER_HPP
