/**
 * @file
 * Tests for trace capture/replay: binary round trips, header
 * validation, summaries, and agreement between a replayed trace and
 * the generator that produced it.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/trace_io.hpp"
#include "trace/binary_source.hpp"

namespace cop {
namespace {

Epoch
epochOf(u64 instr, std::initializer_list<std::pair<Addr, bool>> accs)
{
    Epoch e;
    e.instructions = instr;
    for (const auto &[addr, w] : accs)
        e.accesses.push_back({addr, w});
    return e;
}

TEST(TraceIo, WriteReadRoundTrip)
{
    std::stringstream buf;
    {
        TraceWriter writer(buf);
        writer.write(epochOf(1000, {{0, false}, {64, true}}));
        writer.write(epochOf(500, {{128, false}}));
        writer.write(epochOf(42, {}));
        EXPECT_EQ(writer.epochsWritten(), 3u);
    }
    BinaryTraceSource reader(buf);
    Epoch e;
    ASSERT_TRUE(reader.next(e));
    EXPECT_EQ(e.instructions, 1000u);
    ASSERT_EQ(e.accesses.size(), 2u);
    EXPECT_EQ(e.accesses[0].addr, 0u);
    EXPECT_FALSE(e.accesses[0].isWrite);
    EXPECT_EQ(e.accesses[1].addr, 64u);
    EXPECT_TRUE(e.accesses[1].isWrite);
    ASSERT_TRUE(reader.next(e));
    EXPECT_EQ(e.accesses.size(), 1u);
    ASSERT_TRUE(reader.next(e));
    EXPECT_EQ(e.instructions, 42u);
    EXPECT_TRUE(e.accesses.empty());
    EXPECT_FALSE(reader.next(e));
    EXPECT_EQ(reader.epochsRead(), 3u);
}

TEST(TraceIo, BackPatchesDeclaredEpochCount)
{
    std::stringstream buf;
    {
        TraceWriter writer(buf);
        writer.write(epochOf(10, {{0, false}}));
        writer.write(epochOf(20, {{64, true}}));
        // finish() runs on destruction and patches the header.
    }
    BinaryTraceSource reader(buf);
    EXPECT_EQ(reader.declaredEpochs(), 2u);
    Epoch e;
    ASSERT_TRUE(reader.next(e));
    ASSERT_TRUE(reader.next(e));
    EXPECT_FALSE(reader.next(e));
}

TEST(TraceIo, ExplicitFinishIsIdempotent)
{
    std::stringstream buf;
    TraceWriter writer(buf);
    writer.write(epochOf(10, {}));
    writer.finish();
    writer.finish();
    BinaryTraceSource reader(buf);
    EXPECT_EQ(reader.declaredEpochs(), 1u);
}

TEST(TraceIo, DetectsTruncationAtEpochBoundary)
{
    // Truncating a complete file at an epoch boundary used to be
    // indistinguishable from a shorter complete file; the back-patched
    // header count now catches it.
    std::stringstream buf;
    {
        TraceWriter writer(buf);
        writer.write(epochOf(10, {{0, false}}));
        writer.write(epochOf(20, {{64, true}}));
        writer.write(epochOf(30, {{128, false}}));
    }
    const std::string full = buf.str();
    // Header (16: magic + u64 count) + two epochs of (8 + 4 + 8) bytes.
    const std::string truncated = full.substr(0, 16 + 2 * 20);

    std::stringstream cut(truncated);
    BinaryTraceSource reader(cut);
    Epoch e;
    ASSERT_TRUE(reader.next(e));
    ASSERT_TRUE(reader.next(e));
    EXPECT_DEATH({ reader.next(e); },
                 "declares 3 epochs but the stream ended after 2");
}

TEST(TraceIo, ZeroDeclaredCountStillReadsToEof)
{
    // A 0 count (unseekable sink) keeps the read-until-EOF contract.
    std::stringstream buf;
    {
        TraceWriter writer(buf);
        writer.write(epochOf(10, {{0, false}}));
    }
    std::string bytes = buf.str();
    for (int i = 8; i < 16; ++i) // u64 count field of the v2 header
        bytes[i] = 0;
    std::stringstream zeroed(bytes);
    BinaryTraceSource reader(zeroed);
    EXPECT_EQ(reader.declaredEpochs(), 0u);
    Epoch e;
    ASSERT_TRUE(reader.next(e));
    EXPECT_FALSE(reader.next(e));
}

TEST(TraceIo, RejectsBadMagic)
{
    std::stringstream buf;
    buf << "NOTATRACE-------";
    EXPECT_DEATH({ BinaryTraceSource reader(buf); }, "bad magic");
}

TEST(TraceIo, LargeAddressesSurvive)
{
    std::stringstream buf;
    const Addr big = (1ULL << 45) + 7 * kBlockBytes;
    {
        TraceWriter writer(buf);
        writer.write(epochOf(1, {{big, true}}));
    }
    BinaryTraceSource reader(buf);
    Epoch e;
    ASSERT_TRUE(reader.next(e));
    EXPECT_EQ(e.accesses[0].addr, big);
    EXPECT_TRUE(e.accesses[0].isWrite);
}

TEST(TraceIo, CaptureMatchesGenerator)
{
    const auto &profile = WorkloadRegistry::byName("gcc");
    std::stringstream buf;
    EXPECT_EQ(captureTrace(profile, 0, 100, buf), 100u);

    // Replaying must reproduce the generator stream exactly.
    TraceGenerator reference(profile, 0);
    BinaryTraceSource reader(buf);
    Epoch replayed;
    for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE(reader.next(replayed));
        const Epoch expected = reference.next();
        ASSERT_EQ(replayed.instructions, expected.instructions);
        ASSERT_EQ(replayed.accesses.size(), expected.accesses.size());
        for (size_t k = 0; k < expected.accesses.size(); ++k) {
            ASSERT_EQ(replayed.accesses[k].addr,
                      expected.accesses[k].addr);
            ASSERT_EQ(replayed.accesses[k].isWrite,
                      expected.accesses[k].isWrite);
        }
    }
    EXPECT_FALSE(reader.next(replayed));
}

TEST(TraceIo, SummaryStatistics)
{
    std::stringstream buf;
    {
        TraceWriter writer(buf);
        writer.write(epochOf(1000, {{0, false}, {64, true}, {128, false}}));
        writer.write(epochOf(1000, {{128, true}}));
    }
    BinaryTraceSource src(buf);
    const TraceSummary s = summarizeTrace(src);
    EXPECT_EQ(s.epochs, 2u);
    EXPECT_EQ(s.instructions, 2000u);
    EXPECT_EQ(s.accesses, 4u);
    EXPECT_EQ(s.writes, 2u);
    EXPECT_EQ(s.distinctBlocks, 3u);
    EXPECT_EQ(s.sequentialPairs, 2u); // 0->64, 64->128
    EXPECT_DOUBLE_EQ(s.writeFraction(), 0.5);
    EXPECT_DOUBLE_EQ(s.accessesPerKiloInstruction(), 2.0);
}

TEST(TraceIo, SummaryOfCapturedWorkloadMatchesProfile)
{
    const auto &profile = WorkloadRegistry::byName("lbm");
    std::stringstream buf;
    captureTrace(profile, 0, 3000, buf);
    BinaryTraceSource src(buf);
    const TraceSummary s = summarizeTrace(src);
    EXPECT_EQ(s.epochs, 3000u);
    EXPECT_NEAR(s.writeFraction(), profile.writeFraction, 0.03);
    EXPECT_NEAR(s.accessesPerKiloInstruction(), profile.l3Apki,
                profile.l3Apki * 0.25);
}

} // namespace
} // namespace cop
