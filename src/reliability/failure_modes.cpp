#include "reliability/failure_modes.hpp"

namespace cop {

const char *
failureModeName(FailureMode m)
{
    switch (m) {
      case FailureMode::SingleBit: return "single-bit";
      case FailureMode::SameWordMulti: return "same-word multi";
      case FailureMode::SingleColumn: return "single-column";
      case FailureMode::SameRow: return "same-row burst";
      case FailureMode::SingleChip: return "single-chip (x8)";
      case FailureMode::kCount: break;
    }
    COP_PANIC("bad failure mode");
}

double
failureModeFieldFraction(FailureMode m)
{
    switch (m) {
      case FailureMode::SingleBit: return 0.497;
      case FailureMode::SameWordMulti: return 0.025;
      case FailureMode::SingleColumn: return 0.105;
      case FailureMode::SameRow: return 0.127;
      case FailureMode::SingleChip: return 0.035;
      case FailureMode::kCount: break;
    }
    COP_PANIC("bad failure mode");
}

void
generateFailureFlips(FailureMode m, Rng &rng,
                     std::vector<unsigned> &bits)
{
    bits.clear();
    switch (m) {
      case FailureMode::SingleBit:
        bits.push_back(static_cast<unsigned>(rng.below(kBlockBits)));
        return;
      case FailureMode::SameWordMulti: {
        const unsigned word = rng.below(8);
        const unsigned flips = 2 + rng.below(3); // 2..4
        drawDistinct(rng, 64, flips, bits);
        for (unsigned &b : bits)
            b += word * 64;
        return;
      }
      case FailureMode::SingleColumn:
        // A failing column strikes the same bit position of the
        // affected blocks; per block that is one flip.
        bits.push_back(static_cast<unsigned>(rng.below(kBlockBits)));
        return;
      case FailureMode::SameRow: {
        // Peripheral/row failure: a dense burst across the block.
        const unsigned flips = 8 + rng.below(57); // 8..64
        drawDistinct(rng, kBlockBits, flips, bits);
        return;
      }
      case FailureMode::SingleChip: {
        // x8 rank: chip c supplies byte c of every 8-byte beat. Flip
        // 1..8 bits in each of that chip's bytes.
        const unsigned chip = rng.below(8);
        std::vector<unsigned> lane;
        for (unsigned beat = 0; beat < 8; ++beat) {
            const unsigned base = (beat * 8 + chip) * 8;
            const unsigned flips = 1 + rng.below(8);
            drawDistinct(rng, 8, flips, lane);
            for (const unsigned b : lane)
                bits.push_back(base + b);
        }
        return;
      }
      case FailureMode::kCount:
        break;
    }
    COP_PANIC("bad failure mode");
}

} // namespace cop
