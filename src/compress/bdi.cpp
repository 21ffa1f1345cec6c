#include "compress/bdi.hpp"

namespace cop {

namespace {

/** Read a little-endian value of @p bytes bytes at element @p i. */
u64
element(const CacheBlock &block, unsigned bytes, unsigned i)
{
    switch (bytes) {
      case 8: return block.word64(i);
      case 4: return block.word32(i);
      case 2: return block.word16(i);
      default: break;
    }
    u64 v = 0;
    for (unsigned b = 0; b < bytes; ++b)
        v |= static_cast<u64>(block.byte(i * bytes + b)) << (8 * b);
    return v;
}

void
setElement(CacheBlock &block, unsigned bytes, unsigned i, u64 v)
{
    switch (bytes) {
      case 8: block.setWord64(i, v); return;
      case 4: block.setWord32(i, static_cast<u32>(v)); return;
      case 2: block.setWord16(i, static_cast<u16>(v)); return;
      default: break;
    }
    for (unsigned b = 0; b < bytes; ++b)
        block.setByte(i * bytes + b, static_cast<u8>(v >> (8 * b)));
}

/** Does signed @p delta fit in @p bytes bytes? */
bool
deltaFits(i64 delta, unsigned bytes)
{
    const i64 lo = -(i64(1) << (8 * bytes - 1));
    const i64 hi = (i64(1) << (8 * bytes - 1)) - 1;
    return delta >= lo && delta <= hi;
}

/** Sign-extend a @p bytes-byte little-endian field. */
i64
signExtend(u64 v, unsigned bytes)
{
    const unsigned shift = 64 - 8 * bytes;
    return static_cast<i64>(v << shift) >> shift;
}

/**
 * @p v minus @p base, wrapping mod 2^64 as the hardware subtractor
 * does (a signed subtraction overflows on 8-byte elements).
 */
i64
wrapDelta(i64 v, u64 base)
{
    return static_cast<i64>(static_cast<u64>(v) - base);
}

} // namespace

bool
BdiCompressor::geometryOf(BdiEncoding e, Geometry &g)
{
    switch (e) {
      case BdiEncoding::Base8Delta1: g = {8, 1}; return true;
      case BdiEncoding::Base8Delta2: g = {8, 2}; return true;
      case BdiEncoding::Base8Delta4: g = {8, 4}; return true;
      case BdiEncoding::Base4Delta1: g = {4, 1}; return true;
      case BdiEncoding::Base4Delta2: g = {4, 2}; return true;
      case BdiEncoding::Base2Delta1: g = {2, 1}; return true;
      default: return false;
    }
}

unsigned
BdiCompressor::encodingBits(BdiEncoding e)
{
    constexpr unsigned header = 4;
    Geometry g;
    switch (e) {
      case BdiEncoding::Zeros: return header;
      case BdiEncoding::Repeated8: return header + 64;
      case BdiEncoding::Uncompressed: return header + kBlockBits;
      default: break;
    }
    BdiCompressor::geometryOf(e, g);
    const unsigned elems = kBlockBytes / g.base_bytes;
    // base + per-element zero-base mask bit + per-element delta.
    return header + 8 * g.base_bytes + elems + elems * 8 * g.delta_bytes;
}

bool
BdiCompressor::fitsBaseDelta(const CacheBlock &block, const Geometry &g,
                             u64 &base_out)
{
    const unsigned elems = kBlockBytes / g.base_bytes;
    // The explicit base is the first element whose value does not itself
    // fit in the delta field (otherwise it can ride the implicit zero
    // base and the explicit base remains free for a later element).
    // Single pass: elements that fit the zero base are skipped, the
    // first that does not becomes the base (its own delta is zero), and
    // every later non-fitting element must be within delta of it.
    u64 base = 0;
    bool have_base = false;
    for (unsigned i = 0; i < elems; ++i) {
        const i64 v = signExtend(element(block, g.base_bytes, i),
                                 g.base_bytes);
        if (deltaFits(v, g.delta_bytes))
            continue;
        if (!have_base) {
            base = static_cast<u64>(v);
            have_base = true;
        } else if (!deltaFits(wrapDelta(v, base), g.delta_bytes)) {
            return false;
        }
    }
    base_out = have_base ? base : 0;
    return true;
}

BdiEncoding
BdiCompressor::bestEncoding(const CacheBlock &block)
{
    if (block.isZero())
        return BdiEncoding::Zeros;

    bool repeated = true;
    const u64 first = block.word64(0);
    for (unsigned w = 1; w < 8; ++w) {
        if (block.word64(w) != first) {
            repeated = false;
            break;
        }
    }
    if (repeated)
        return BdiEncoding::Repeated8;

    // Candidates in order of increasing compressed size.
    static constexpr BdiEncoding order[] = {
        BdiEncoding::Base8Delta1, BdiEncoding::Base4Delta1,
        BdiEncoding::Base8Delta2, BdiEncoding::Base2Delta1,
        BdiEncoding::Base4Delta2, BdiEncoding::Base8Delta4,
    };
    for (BdiEncoding e : order) {
        Geometry g;
        geometryOf(e, g);
        u64 base;
        if (fitsBaseDelta(block, g, base))
            return e;
    }
    return BdiEncoding::Uncompressed;
}

int
BdiCompressor::compressedBits(const CacheBlock &block) const
{
    const BdiEncoding e = bestEncoding(block);
    if (e == BdiEncoding::Uncompressed)
        return -1;
    return static_cast<int>(encodingBits(e));
}

bool
BdiCompressor::canCompress(const CacheBlock &block,
                           unsigned budget_bits) const
{
    // Mirrors bestEncoding(), but with the budget threaded through: the
    // candidate ladder is ordered by non-decreasing encodingBits, so the
    // first candidate over budget means no later one can fit either —
    // no point running its base+delta trial.
    if (block.isZero())
        return encodingBits(BdiEncoding::Zeros) <= budget_bits;

    const u64 first = block.word64(0);
    bool repeated = true;
    for (unsigned w = 1; w < 8; ++w) {
        if (block.word64(w) != first) {
            repeated = false;
            break;
        }
    }
    if (repeated)
        return encodingBits(BdiEncoding::Repeated8) <= budget_bits;

    static constexpr BdiEncoding order[] = {
        BdiEncoding::Base8Delta1, BdiEncoding::Base4Delta1,
        BdiEncoding::Base8Delta2, BdiEncoding::Base2Delta1,
        BdiEncoding::Base4Delta2, BdiEncoding::Base8Delta4,
    };
    for (BdiEncoding e : order) {
        if (encodingBits(e) > budget_bits)
            return false;
        Geometry g;
        geometryOf(e, g);
        u64 base;
        if (fitsBaseDelta(block, g, base))
            return true;
    }
    return false;
}

bool
BdiCompressor::compress(const CacheBlock &block, unsigned budget_bits,
                        BitWriter &out) const
{
    if (!canCompress(block, budget_bits))
        return false;

    const BdiEncoding e = bestEncoding(block);
    out.write(static_cast<u64>(e), 4);
    switch (e) {
      case BdiEncoding::Zeros:
        return true;
      case BdiEncoding::Repeated8:
        out.write(block.word64(0), 64);
        return true;
      default:
        break;
    }

    Geometry g;
    geometryOf(e, g);
    u64 base = 0;
    COP_ASSERT(fitsBaseDelta(block, g, base));
    const unsigned elems = kBlockBytes / g.base_bytes;
    out.write(base, 8 * g.base_bytes);
    for (unsigned i = 0; i < elems; ++i) {
        const i64 v = signExtend(element(block, g.base_bytes, i),
                                 g.base_bytes);
        const bool zero_base = deltaFits(v, g.delta_bytes);
        const i64 delta = zero_base ? v : wrapDelta(v, base);
        out.write(zero_base ? 0 : 1, 1);
        out.write(static_cast<u64>(delta) &
                      ((g.delta_bytes == 8) ? ~0ULL
                                            : ((1ULL << (8 * g.delta_bytes)) - 1)),
                  8 * g.delta_bytes);
    }
    return true;
}

void
BdiCompressor::decompress(BitReader &in, unsigned budget_bits,
                          CacheBlock &out) const
{
    (void)budget_bits;
    const auto e = static_cast<BdiEncoding>(in.read(4));
    switch (e) {
      case BdiEncoding::Zeros:
        out = CacheBlock();
        return;
      case BdiEncoding::Repeated8: {
        const u64 v = in.read(64);
        for (unsigned w = 0; w < 8; ++w)
            out.setWord64(w, v);
        return;
      }
      default:
        break;
    }

    Geometry g;
    COP_ASSERT(geometryOf(e, g));
    const unsigned elems = kBlockBytes / g.base_bytes;
    // Unsigned (wrapping) arithmetic: base + delta is the modular sum.
    const u64 base = static_cast<u64>(
        signExtend(in.read(8 * g.base_bytes), g.base_bytes));
    for (unsigned i = 0; i < elems; ++i) {
        const bool use_base = in.read(1) != 0;
        const u64 delta = static_cast<u64>(
            signExtend(in.read(8 * g.delta_bytes), g.delta_bytes));
        setElement(out, g.base_bytes, i, use_base ? base + delta : delta);
    }
}

} // namespace cop
