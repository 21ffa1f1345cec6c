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
#include "core/encode_counter.hpp"
#include "mem/controller.hpp"

namespace cop {

/**
 * COP memory controller, and the base of the two COP-ER variants: it
 * owns the 4-byte (or 8-byte) codec, the encode counter, the decode
 * latency and the write counters, and implements the fill steps all
 * three share. Each variant adds only what it does with raw blocks.
 */
class CopController : public MemoryController
{
  public:
    /**
     * @param encodes optional encode counter, owned by the caller (the
     *        System). May be null (plain uncounted encodes).
     */
    CopController(DramSystem &dram, ContentSource content,
                  const CopConfig &cfg = CopConfig::fourByte(),
                  Cycle decode_latency = 4, EncodeCounter *encodes = nullptr);

    const char *name() const override
    {
        return codec_.config().checkBytes == 4 ? "COP-4B" : "COP-8B";
    }

    MemWriteResult writeback(Addr addr, const CacheBlock &data, Cycle now,
                             bool was_uncompressed) override;
    bool wouldAliasReject(const CacheBlock &data) const override;

    const CopCodec &codec() const { return codec_; }

  protected:
    MemReadResult readImpl(Addr addr, Cycle now) override;

    VulnClass
    protectedClass() const
    {
        return codec_.config().checkBytes == 4 ? VulnClass::CopProtected4
                                               : VulnClass::CopProtected8;
    }

    /**
     * The writeback encoder, counted when a counter is attached. With
     * fault injection on it is codec_.encode, whose image is stored,
     * struck and decoded. With it off it is codec_.classify: the same
     * status, scheme and transfer size without the image, which keep()
     * then stores as a status (DESIGN.md section 5).
     */
    CopEncodeResult
    encodeBlock(const CacheBlock &data) const
    {
        const bool image = faultInjectionEnabled();
        if (encodes_ != nullptr)
            return image ? encodes_->encode(codec_, data)
                         : encodes_->classify(codec_, data);
        return image ? codec_.encode(data) : codec_.classify(data);
    }

    /**
     * Store a block as encodeBlock encoded it into @p enc (not an
     * alias): its image under fault injection, else its status.
     */
    void
    keep(Addr addr, const CopEncodeResult &enc)
    {
        store(addr, enc.isProtected() ? Stored::Protected : Stored::Raw,
              enc.stored);
    }

    /**
     * The fill of @p addr as COP stores it: raw blocks hold their data
     * verbatim and incompressible aliases are pinned in the LLC. On
     * first touch the initial content is encoded and stored; then the
     * stored block is read (readStored). A raw fill
     * (result.wasUncompressed) returns unlogged, with result.complete
     * the data read plus the decode latency, for the variant to finish.
     */
    void fill(Addr addr, Cycle now, MemReadResult &result);

    /**
     * Read the stored block @p addr: complete (data read plus decode
     * latency) and logged for a compressed block, whose check bits
     * travel inline; unlogged for a raw one. A stored image is decoded.
     * A block stored as a status returns what that decode would: the
     * decoder's compressed-or-raw answer is the status the encoder
     * chose, and decode(encode(x)) is x with clean flags, where x is
     * functional memory's content (@p fresh when the caller has just
     * looked it up to store it, else a new lookup). Returns when the
     * data read completes.
     */
    Cycle readStored(Addr addr, Cycle now, MemReadResult &result,
                     const CacheBlock *fresh);

    /** Is @p addr stored raw (a fault-free decode says uncompressed)? */
    bool storedRaw(Addr addr) const;

    /** Count a stored writeback: protected (per scheme) or raw. */
    void
    countWrite(const CopEncodeResult &enc)
    {
        if (enc.status == EncodeStatus::Protected) {
            ++stats_.protectedWrites;
            ++stats_.schemeWrites[static_cast<unsigned>(enc.scheme)];
        } else {
            ++stats_.unprotectedWrites;
        }
    }

    /**
     * Write back a block encoded as @p enc, as COP stores it: an
     * incompressible alias is rejected (the LLC keeps the line,
     * Section 3.1); anything else is counted and written in place.
     */
    MemWriteResult storeEncoded(Addr addr, const CopEncodeResult &enc,
                                Cycle now);

    CopCodec codec_;
    Cycle decodeLatency_;
    EncodeCounter *encodes_;
};

} // namespace cop

#endif // COP_MEM_COP_CONTROLLER_HPP
