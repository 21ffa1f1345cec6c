/**
 * @file
 * EncodeCounter: the codec perf counters (encode calls and scheme
 * trials) of one System's COP-family controller. A classify counts as
 * an encode: it makes the same scheme trials, and the counters measure
 * the encode requests a run makes, not the images it builds. The
 * counter only observes, so it cannot change a result.
 */

#ifndef COP_CORE_ENCODE_COUNTER_HPP
#define COP_CORE_ENCODE_COUNTER_HPP

#include "core/codec.hpp"

namespace cop {

/**
 * Counts CopCodec::encode and classify calls and the scheme trials they
 * make.
 */
class EncodeCounter
{
  public:
    CopEncodeResult
    encode(const CopCodec &codec, const CacheBlock &data)
    {
        return count(codec.encode(data));
    }

    CopEncodeResult
    classify(const CopCodec &codec, const CacheBlock &data)
    {
        return count(codec.classify(data));
    }

    u64 calls() const { return calls_; }
    u64 schemeTrials() const { return schemeTrials_; }

  private:
    CopEncodeResult
    count(CopEncodeResult result)
    {
        ++calls_;
        schemeTrials_ += result.schemeTrials;
        return result;
    }

    u64 calls_ = 0;
    u64 schemeTrials_ = 0;
};

// --- compatibility names (copbench) ----------------------------------
// copbench's traced driver still builds the counter under its old
// encode-memo name, passes it a size and reads its hit count. Names
// only: the size is ignored and nothing is cached. Delete once
// copbench stops using them.
struct EncodeMemo : EncodeCounter
{
    explicit EncodeMemo(unsigned /*entries*/) {}
    u64 lookups() const { return calls(); }
    u64 hits() const { return 0; }
};

} // namespace cop

#endif // COP_CORE_ENCODE_COUNTER_HPP
