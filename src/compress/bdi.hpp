/**
 * @file
 * Base-Delta-Immediate compression (Pekhimenko et al. 2012). COP's MSB
 * scheme is a hardware-simplified derivative of BDI (paper Section 3.2.1);
 * the full algorithm is implemented here as a reference point for the
 * MSB-vs-BDI ablation bench and for tests. Two-base variant: one explicit
 * base plus an implicit zero base, selected per element by a mask bit.
 */

#ifndef COP_COMPRESS_BDI_HPP
#define COP_COMPRESS_BDI_HPP

#include "compress/compressor.hpp"

namespace cop {

/**
 * BDI encodings tried in order of increasing compressed size. The 4-bit
 * stream header selects the winning encoding.
 */
enum class BdiEncoding : u8 {
    Zeros = 0,        ///< All-zero block: header only.
    Repeated8 = 1,    ///< One 8-byte value repeated: 64-bit payload.
    Base8Delta1 = 2,
    Base8Delta2 = 3,
    Base8Delta4 = 4,
    Base4Delta1 = 5,
    Base4Delta2 = 6,
    Base2Delta1 = 7,
    Uncompressed = 8,
};

/** Two-base BDI compressor over 64-byte blocks. */
class BdiCompressor : public BlockCompressor
{
  public:
    BdiCompressor() = default;

    const char *name() const override { return "BDI"; }
    SchemeId id() const override { return SchemeId::Bdi; }
    int compressedBits(const CacheBlock &block) const override;
    bool compress(const CacheBlock &block, unsigned budget_bits,
                  BitWriter &out) const override;
    void decompress(BitReader &in, unsigned budget_bits,
                    CacheBlock &out) const override;
    bool canCompress(const CacheBlock &block,
                     unsigned budget_bits) const override;

    /** Smallest encoding that can represent @p block. */
    static BdiEncoding bestEncoding(const CacheBlock &block);
    /** Stream size in bits for an encoding (including 4-bit header). */
    static unsigned encodingBits(BdiEncoding e);

  private:
    struct Geometry
    {
        unsigned base_bytes = 0;
        unsigned delta_bytes = 0;
    };
    static bool geometryOf(BdiEncoding e, Geometry &g);
    static bool fitsBaseDelta(const CacheBlock &block, const Geometry &g,
                              u64 &base_out);
};

} // namespace cop

#endif // COP_COMPRESS_BDI_HPP
