/**
 * @file
 * Log-bucketed latency histogram for the observability layer. Values
 * below 16 land in exact unit buckets; above that each power-of-two
 * octave is split into 16 linear sub-buckets (HDR-histogram style), so
 * relative quantile error is bounded by 1/16 while the whole structure
 * stays a fixed-size array — no allocation on the record path, safe to
 * embed in hot structures like DramStats.
 *
 * Percentiles are deterministic functions of the recorded multiset
 * (bucket lower bounds at the requested rank), so any statistic derived
 * from a histogram serialises byte-identically between serial and
 * parallel runs of the same simulation.
 */

#ifndef COP_STATS_HISTOGRAM_HPP
#define COP_STATS_HISTOGRAM_HPP

#include <array>
#include <bit>

#include "common/types.hpp"

namespace cop {

/** Point-in-time summary of a Histogram (for JSON / reports). */
struct HistogramSummary
{
    u64 count = 0;
    u64 sum = 0;
    u64 max = 0;
    u64 p50 = 0;
    u64 p95 = 0;
    u64 p99 = 0;
};

/** Fixed-size log-bucketed histogram of non-negative integer samples. */
class Histogram
{
  public:
    /** Linear sub-buckets per octave (and the exact-value cutoff). */
    static constexpr unsigned kSubBuckets = 16;
    /** Bucket count covering the full u64 range. */
    static constexpr unsigned kBuckets = (64 - 4 + 1) * kSubBuckets;

    void
    record(u64 value)
    {
        ++count_;
        sum_ += value;
        if (value > max_)
            max_ = value;
        ++buckets_[indexOf(value)];
    }

    u64 count() const { return count_; }
    u64 sum() const { return sum_; }
    u64 maxValue() const { return max_; }

    /**
     * Value at percentile @p p (0..100]: the lower bound of the bucket
     * holding the sample of rank ceil(p/100 * count). Exact for values
     * below 16; within one sub-bucket (6.25%) above. Returns 0 when
     * empty.
     */
    u64
    percentile(double p) const
    {
        if (count_ == 0)
            return 0;
        u64 rank = static_cast<u64>(p / 100.0 * static_cast<double>(count_));
        if (static_cast<double>(rank) * 100.0 <
            p * static_cast<double>(count_))
            ++rank; // ceil
        if (rank < 1)
            rank = 1;
        if (rank > count_)
            rank = count_;
        u64 cumulative = 0;
        for (unsigned i = 0; i < kBuckets; ++i) {
            cumulative += buckets_[i];
            if (cumulative >= rank)
                return lowerBound(i);
        }
        return max_; // unreachable if counts are consistent
    }

    HistogramSummary
    summary() const
    {
        HistogramSummary s;
        s.count = count_;
        s.sum = sum_;
        s.max = max_;
        s.p50 = percentile(50);
        s.p95 = percentile(95);
        s.p99 = percentile(99);
        return s;
    }

    void reset() { *this = Histogram{}; }

    /**
     * Accumulate @p other into this histogram, bucket-wise — as if
     * every sample recorded into @p other had been recorded here. The
     * fast-timing result merge uses it to combine per-shard latency
     * distributions; deterministic like everything else here.
     */
    void
    merge(const Histogram &other)
    {
        count_ += other.count_;
        sum_ += other.sum_;
        if (other.max_ > max_)
            max_ = other.max_;
        for (unsigned i = 0; i < kBuckets; ++i)
            buckets_[i] += other.buckets_[i];
    }

    /** Bucket index of @p value (values < 16 map to themselves). */
    static unsigned
    indexOf(u64 value)
    {
        if (value < kSubBuckets)
            return static_cast<unsigned>(value);
        const unsigned msb =
            static_cast<unsigned>(std::bit_width(value)) - 1;
        const unsigned sub =
            static_cast<unsigned>((value >> (msb - 4)) & 0xF);
        return (msb - 3) * kSubBuckets + sub;
    }

    /** Smallest value mapping to bucket @p index. */
    static u64
    lowerBound(unsigned index)
    {
        if (index < kSubBuckets)
            return index;
        const unsigned msb = index / kSubBuckets + 3;
        const u64 sub = index % kSubBuckets;
        return (u64{1} << msb) | (sub << (msb - 4));
    }

  private:
    u64 count_ = 0;
    u64 sum_ = 0;
    u64 max_ = 0;
    std::array<u64, kBuckets> buckets_{};
};

} // namespace cop

#endif // COP_STATS_HISTOGRAM_HPP
