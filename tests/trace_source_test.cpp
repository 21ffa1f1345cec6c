/**
 * @file
 * Tests for the trace ingestion subsystem (src/trace/): the corrupt
 * trace corpus (bad magic, truncations, hostile declared counts), v1
 * compatibility, the little-endian on-disk pin, text / gzip parity
 * with the binary reader, records cut by the binary reader's window,
 * format auto-detection on files and FIFOs, and profile fitting.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <thread>

#include "sim/trace_io.hpp"
#include "trace/binary_source.hpp"
#include "trace/fit.hpp"
#include "trace/format.hpp"
#include "trace/gzip_source.hpp"
#include "trace/text_source.hpp"
#include "trace/trace_source.hpp"

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

/** A small complete v2 trace as raw bytes. */
std::string
sampleTraceBytes()
{
    std::stringstream buf;
    TraceWriter writer(buf);
    writer.write(epochOf(1000, {{0, false}, {64, true}}));
    writer.write(epochOf(500, {{128, false}, {192, false}, {256, true}}));
    writer.write(epochOf(42, {}));
    writer.finish();
    return buf.str();
}

/** Read-side streambuf with no seek support (models a pipe). */
class UnseekableBuf : public std::streambuf
{
  public:
    explicit UnseekableBuf(std::string bytes) : bytes_(std::move(bytes))
    {
        setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
    }

  private:
    std::string bytes_;
};

/** Write-side streambuf with no seek support. */
class UnseekableSink : public std::streambuf
{
  public:
    std::string bytes;

  protected:
    int_type
    overflow(int_type ch) override
    {
        if (!traits_type::eq_int_type(ch, traits_type::eof()))
            bytes += traits_type::to_char_type(ch);
        return traits_type::not_eof(ch);
    }
};

void
expectEpochsEqual(const Epoch &a, const Epoch &b)
{
    ASSERT_EQ(a.instructions, b.instructions);
    ASSERT_EQ(a.accesses.size(), b.accesses.size());
    for (size_t i = 0; i < a.accesses.size(); ++i) {
        ASSERT_EQ(a.accesses[i].addr, b.accesses[i].addr);
        ASSERT_EQ(a.accesses[i].isWrite, b.accesses[i].isWrite);
    }
}

/** Assert that two sources deliver identical epoch streams. */
void
expectSameStream(TraceSource &a, TraceSource &b)
{
    Epoch ea;
    Epoch eb;
    for (;;) {
        const bool more_a = a.next(ea);
        const bool more_b = b.next(eb);
        ASSERT_EQ(more_a, more_b);
        if (!more_a)
            break;
        expectEpochsEqual(ea, eb);
    }
    EXPECT_EQ(a.epochsRead(), b.epochsRead());
    EXPECT_EQ(a.accessesRead(), b.accessesRead());
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

/** Gzip-compress @p bytes and return the complete member. */
std::string
gzipBytes(const std::string &bytes, const std::string &name)
{
    const std::string path = tempPath(name);
    {
        auto sink =
            std::make_unique<std::ofstream>(path, std::ios::binary);
        // Inner scope: the GzipOstream's destructor writes the gzip
        // trailer before the file closes.
        const auto gz = makeGzipOstream(std::move(sink));
        *gz << bytes;
    }
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.is_open());
    out << bytes;
}

// ------------------------------------------------------ corrupt corpus

TEST(TraceSourceCorpus, RejectsBadMagic)
{
    auto in = std::make_unique<std::stringstream>("XXXXXXXX????????");
    EXPECT_DEATH({ BinaryTraceSource src(std::move(in)); }, "bad magic");
}

TEST(TraceSourceCorpus, RejectsShortMagic)
{
    auto in = std::make_unique<std::stringstream>("COP");
    EXPECT_DEATH({ BinaryTraceSource src(std::move(in)); },
                 "short magic");
}

TEST(TraceSourceCorpus, RejectsTruncatedHeader)
{
    // v2 magic but only half the u64 count field.
    const std::string bytes = sampleTraceBytes().substr(0, 12);
    auto in = std::make_unique<std::stringstream>(bytes);
    EXPECT_DEATH({ BinaryTraceSource src(std::move(in)); },
                 "truncated trace header");
}

TEST(TraceSourceCorpus, RejectsTruncatedEpochHeader)
{
    // Header plus a full instruction count but only 2 of the 4
    // access-count bytes. (Cutting inside the instruction field dies
    // too, via the declared-epoch-count check.)
    const std::string bytes = sampleTraceBytes().substr(0, 16 + 8 + 2);
    auto in = std::make_unique<std::stringstream>(bytes);
    BinaryTraceSource src(std::move(in));
    Epoch e;
    EXPECT_DEATH({ src.next(e); }, "truncated trace epoch header");
}

TEST(TraceSourceCorpus, RejectsPartialEpochHeaderWithoutDeclaredCount)
{
    // A count-less trace (header count 0) cut three bytes into the
    // next instruction count: no declared count can explain the short
    // stream, so the partial header is fatal rather than dropped.
    std::stringstream buf;
    buf.write(trace::kMagicV2, trace::kMagicBytes);
    trace::writeScalarLe<u64>(buf, 0);
    trace::writeScalarLe<u64>(buf, 1000);
    trace::writeScalarLe<u32>(buf, 0);
    buf.write("\x01\x02\x03", 3);
    UnseekableBuf pipe(buf.str());
    std::istream in(&pipe);
    BinaryTraceSource src(in);
    Epoch e;
    ASSERT_TRUE(src.next(e));
    EXPECT_DEATH({ src.next(e); }, "truncated trace epoch header");
}

TEST(TraceSourceCorpus, RejectsTruncatedAccessRecord)
{
    // First epoch declares 2 accesses; keep only 1 of them. On an
    // unseekable stream the byte-budget check cannot run, so the
    // truncation surfaces at the failed access read.
    const std::string bytes =
        sampleTraceBytes().substr(0, 16 + 12 + 8);
    UnseekableBuf pipe(bytes);
    std::istream in(&pipe);
    BinaryTraceSource src(in);
    Epoch e;
    EXPECT_DEATH({ src.next(e); }, "truncated trace access record");
}

TEST(TraceSourceCorpus, GiantDeclaredCountRejectedBeforeAllocation)
{
    // An epoch header claiming 0xFFFFFFFF accesses (a ~32 GB reserve
    // if trusted) against a stream holding none: the seekable reader
    // checks the byte budget before any allocation.
    std::stringstream buf;
    buf.write(trace::kMagicV2, trace::kMagicBytes);
    trace::writeScalarLe<u64>(buf, 0);
    trace::writeScalarLe<u64>(buf, 1000); // instructions
    trace::writeScalarLe<u32>(buf, 0xFFFFFFFFu);
    BinaryTraceSource src(buf);
    Epoch e;
    EXPECT_DEATH(
        { src.next(e); },
        "declares 4294967295 accesses but only 0 more fit");
}

TEST(TraceSourceCorpus, GiantDeclaredCountCappedOnUnseekableStream)
{
    // Same hostile header through a pipe: the reserve is capped, and
    // the first missing record is the fatal, not a 32 GB allocation.
    std::stringstream buf;
    buf.write(trace::kMagicV2, trace::kMagicBytes);
    trace::writeScalarLe<u64>(buf, 0);
    trace::writeScalarLe<u64>(buf, 1000);
    trace::writeScalarLe<u32>(buf, 0xFFFFFFFFu);
    UnseekableBuf pipe(buf.str());
    std::istream in(&pipe);
    BinaryTraceSource src(in);
    Epoch e;
    EXPECT_DEATH({ src.next(e); }, "truncated trace access record");
}

TEST(TraceSourceCorpus, UnseekableStreamStillReadsCompleteTrace)
{
    // The capped-reserve path must not change what a valid trace
    // parses to.
    const std::string bytes = sampleTraceBytes();
    UnseekableBuf pipe(bytes);
    std::istream in(&pipe);
    BinaryTraceSource piped(in);
    std::istringstream seekable(bytes);
    BinaryTraceSource reference(seekable);
    expectSameStream(piped, reference);
    EXPECT_EQ(piped.epochsRead(), 3u);
}

// ------------------------------------------------- format version / LE

TEST(TraceSourceFormat, ReadsVersion1Traces)
{
    // Hand-built v1 stream: old magic, u32 count, same epoch layout.
    std::stringstream buf;
    buf.write(trace::kMagicV1, trace::kMagicBytes);
    trace::writeScalarLe<u32>(buf, 2);
    trace::writeScalarLe<u64>(buf, 1000);
    trace::writeScalarLe<u32>(buf, 1);
    trace::writeScalarLe<u64>(buf, 0x1000 | 1); // write to 0x1000
    trace::writeScalarLe<u64>(buf, 500);
    trace::writeScalarLe<u32>(buf, 0);
    BinaryTraceSource src(buf);
    EXPECT_EQ(src.formatVersion(), 1u);
    EXPECT_EQ(src.declaredEpochs(), 2u);
    Epoch e;
    ASSERT_TRUE(src.next(e));
    ASSERT_EQ(e.accesses.size(), 1u);
    EXPECT_EQ(e.accesses[0].addr, 0x1000u);
    EXPECT_TRUE(e.accesses[0].isWrite);
    ASSERT_TRUE(src.next(e));
    EXPECT_FALSE(src.next(e));
}

TEST(TraceSourceFormat, Version1CountOverrunStillFatal)
{
    std::stringstream buf;
    buf.write(trace::kMagicV1, trace::kMagicBytes);
    trace::writeScalarLe<u32>(buf, 3); // declares 3, carries 1
    trace::writeScalarLe<u64>(buf, 1000);
    trace::writeScalarLe<u32>(buf, 0);
    BinaryTraceSource src(buf);
    Epoch e;
    ASSERT_TRUE(src.next(e));
    EXPECT_DEATH({ src.next(e); },
                 "declares 3 epochs but the stream ended after 1");
}

TEST(TraceSourceFormat, OnDiskLayoutIsLittleEndian)
{
    // The format is pinned little-endian regardless of host order:
    // this is the byte-for-byte layout every platform must produce.
    std::stringstream buf;
    {
        TraceWriter writer(buf);
        writer.write(
            epochOf(0x0102030405060708ULL, {{0x1000, true}}));
    }
    const std::string bytes = buf.str();
    const unsigned char expected[] = {
        'C', 'O', 'P', 'T', 'R', 'C', '2', '\0',       // magic
        1,    0,   0,   0,   0,   0,   0,   0,         // count u64 LE
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // instructions
        1,    0,   0,   0,                             // access count
        0x01, 0x10, 0,   0,   0,   0,   0,   0,        // 0x1000 | W
    };
    ASSERT_EQ(bytes.size(), sizeof(expected));
    for (size_t i = 0; i < sizeof(expected); ++i)
        EXPECT_EQ(static_cast<unsigned char>(bytes[i]), expected[i])
            << "byte " << i;
}

// ------------------------------------------------------ writer bugfixes

TEST(TraceWriterDeath, UnseekableSinkWithWrongDeclaredCountDies)
{
    // On a pipe the writer cannot back-patch; a wrong up-front count
    // must be fatal rather than silently persisting a lie.
    UnseekableSink sink;
    std::ostream out(&sink);
    EXPECT_DEATH(
        {
            TraceWriter writer(out, 3);
            writer.write(epochOf(10, {}));
            writer.write(epochOf(20, {}));
            writer.finish();
        },
        "declared 3 epochs up front but wrote 2");
}

TEST(TraceWriterDeath, FailedSinkIsFatalAtFinish)
{
    std::stringstream buf;
    EXPECT_DEATH(
        {
            TraceWriter writer(buf);
            writer.write(epochOf(10, {{0, false}}));
            buf.setstate(std::ios::badbit); // the disk "fills up"
            writer.finish();
        },
        "trace write failed");
}

TEST(TraceWriterDeath, UnseekableDeclaredCountRoundTrips)
{
    // The happy path of the same fix: a correct up-front count on an
    // unseekable sink survives into the header.
    UnseekableSink sink;
    std::ostream out(&sink);
    {
        TraceWriter writer(out, 2);
        writer.write(epochOf(10, {{0, false}}));
        writer.write(epochOf(20, {{64, true}}));
        writer.finish();
    }
    std::istringstream in(sink.bytes);
    BinaryTraceSource src(in);
    EXPECT_EQ(src.declaredEpochs(), 2u);
}

// -------------------------------------------------------- summary seam

TEST(TraceSummarySeam, SequentialPairsDoNotSpanEpochBoundaries)
{
    // Epoch 1 ends at 64, epoch 2 starts at 128: consecutive blocks
    // across the seam, but an epoch boundary is a scheduling
    // discontinuity — it must not mint a phantom sequential pair.
    std::stringstream buf;
    {
        TraceWriter writer(buf);
        writer.write(epochOf(100, {{0, false}, {64, false}}));
        writer.write(epochOf(100, {{128, false}, {192, false}}));
    }
    BinaryTraceSource src(buf);
    const TraceSummary s = summarizeTrace(src);
    EXPECT_EQ(s.sequentialPairs, 2u); // 0->64 and 128->192 only
}

// -------------------------------------------------------- text format

TEST(TextTrace, RoundTripsThroughTextAndBack)
{
    const std::string bytes = sampleTraceBytes();
    std::istringstream bin_in(bytes);
    BinaryTraceSource bin(bin_in);
    std::stringstream text;
    EXPECT_EQ(writeTextTrace(bin, text), 3u);

    TextTraceSource parsed(text);
    std::istringstream ref_in(bytes);
    BinaryTraceSource reference(ref_in);
    expectSameStream(parsed, reference);
}

TEST(TextTrace, ToleratesCommentsBlankLinesAndCrlf)
{
    std::stringstream text;
    text << "# a comment\r\n"
         << "\r\n"
         << "#epoch 1000\r\n"
         << "  0x40 R\r\n"
         << "128 W\r\n" // decimal addresses are fine too
         << "# mid-epoch comment\n"
         << "#epoch 500\n";
    TextTraceSource src(text);
    Epoch e;
    ASSERT_TRUE(src.next(e));
    EXPECT_EQ(e.instructions, 1000u);
    ASSERT_EQ(e.accesses.size(), 2u);
    EXPECT_EQ(e.accesses[0].addr, 0x40u);
    EXPECT_FALSE(e.accesses[0].isWrite);
    EXPECT_EQ(e.accesses[1].addr, 128u);
    EXPECT_TRUE(e.accesses[1].isWrite);
    ASSERT_TRUE(src.next(e));
    EXPECT_EQ(e.instructions, 500u);
    EXPECT_TRUE(e.accesses.empty());
    EXPECT_FALSE(src.next(e));
}

TEST(TextTraceDeath, RejectsBadDirection)
{
    std::stringstream text("#epoch 10\n0x40 X\n");
    TextTraceSource src(text);
    Epoch e;
    EXPECT_DEATH({ src.next(e); }, "direction must be R or W");
}

TEST(TextTraceDeath, RejectsMisalignedAddress)
{
    std::stringstream text("#epoch 10\n0x41 R\n");
    TextTraceSource src(text);
    Epoch e;
    EXPECT_DEATH({ src.next(e); }, "block aligned");
}

TEST(TextTraceDeath, RejectsAccessBeforeFirstEpochMarker)
{
    std::stringstream text("0x40 R\n");
    TextTraceSource src(text);
    Epoch e;
    EXPECT_DEATH({ src.next(e); },
                 "access before the first #epoch marker");
}

TEST(TextTraceDeath, RejectsMalformedInstructionCount)
{
    std::stringstream text("#epoch banana\n");
    TextTraceSource src(text);
    Epoch e;
    EXPECT_DEATH({ src.next(e); }, "malformed instruction count");
}

// -------------------------------------------------------------- gzip

TEST(GzipTrace, RoundTripsThroughGzip)
{
    if (!gzipSupported())
        GTEST_SKIP() << "built without zlib";
    const std::string bytes = sampleTraceBytes();
    const std::string gz_bytes = gzipBytes(bytes, "roundtrip.coptrc.gz");
    ASSERT_GT(gz_bytes.size(), 2u);
    EXPECT_EQ(static_cast<unsigned char>(gz_bytes[0]), 0x1fu);
    EXPECT_EQ(static_cast<unsigned char>(gz_bytes[1]), 0x8bu);

    GzipTraceSource src(std::make_unique<std::istringstream>(gz_bytes));
    std::istringstream ref_in(bytes);
    BinaryTraceSource reference(ref_in);
    expectSameStream(src, reference);
}

TEST(GzipTraceDeath, RejectsTruncatedMember)
{
    if (!gzipSupported())
        GTEST_SKIP() << "built without zlib";
    const std::string gz_bytes =
        gzipBytes(sampleTraceBytes(), "truncated.coptrc.gz");
    // Drop the CRC trailer and then some.
    const std::string cut = gz_bytes.substr(0, gz_bytes.size() - 12);
    EXPECT_DEATH(
        {
            GzipTraceSource src(
                std::make_unique<std::istringstream>(cut));
            Epoch e;
            while (src.next(e)) {
            }
        },
        "truncated|inflate failed|trace");
}

// ----------------------------------------------- files / auto-detect

TEST(TraceOpen, AutoDetectsAllThreeEncodings)
{
    const std::string bytes = sampleTraceBytes();
    const std::string bin_path = tempPath("auto_detect.coptrc");
    writeFile(bin_path, bytes);

    const std::string text_path = tempPath("auto_detect.txt");
    {
        std::istringstream in(bytes);
        BinaryTraceSource src(in);
        std::ofstream out(text_path);
        writeTextTrace(src, out);
    }

    std::vector<std::string> paths = {bin_path, text_path};
    if (gzipSupported()) {
        const std::string gz_path = tempPath("auto_detect.coptrc.gz");
        auto sink =
            std::make_unique<std::ofstream>(gz_path, std::ios::binary);
        {
            const auto gz = makeGzipOstream(std::move(sink));
            *gz << bytes;
        }
        paths.push_back(gz_path);
    }

    for (const std::string &path : paths) {
        const auto src = openTraceSource(path);
        std::istringstream ref_in(bytes);
        BinaryTraceSource reference(ref_in);
        expectSameStream(*src, reference);
    }
}

TEST(TraceOpenDeath, FileRejectsGiantDeclaredAccessCount)
{
    // The seekable-file path measures the file and checks the count
    // against it before any allocation.
    std::stringstream buf;
    buf.write(trace::kMagicV2, trace::kMagicBytes);
    trace::writeScalarLe<u64>(buf, 0);
    trace::writeScalarLe<u64>(buf, 1000);
    trace::writeScalarLe<u32>(buf, 0xFFFFFFFFu);
    const std::string path = tempPath("file_giant.coptrc");
    writeFile(path, buf.str());
    const auto src = openTraceSource(path);
    Epoch e;
    EXPECT_DEATH(
        { src->next(e); },
        "declares 4294967295 accesses but only 0 more fit");
}

TEST(TraceOpen, AutoDetectsEveryEncodingThroughFifo)
{
    // A FIFO cannot be rewound: the sniff must leave the stream where
    // the chosen reader expects it.
    const std::string bytes = sampleTraceBytes();
    std::stringstream text;
    {
        std::istringstream in(bytes);
        BinaryTraceSource src(in);
        writeTextTrace(src, text);
    }
    std::vector<std::string> encodings = {bytes, text.str()};
    if (gzipSupported())
        encodings.push_back(gzipBytes(bytes, "fifo.coptrc.gz"));

    const std::string path = tempPath("auto_detect.fifo");
    for (const std::string &encoded : encodings) {
        ::unlink(path.c_str());
        ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
        // Opening a FIFO blocks until both ends are open, so the writer
        // needs its own thread.
        std::thread writer([&] {
            std::ofstream out(path, std::ios::binary);
            out << encoded;
        });
        {
            const auto src = openTraceSource(path);
            std::istringstream ref_in(bytes);
            BinaryTraceSource reference(ref_in);
            expectSameStream(*src, reference);
        }
        writer.join();
    }
    ::unlink(path.c_str());
}

// ---------------------------------------------------- window edges

/** Epochs captured for the window-edge tests: over two windows. */
constexpr u64 kEdgeEpochs = 40000;

std::string
capturedBytes()
{
    std::stringstream buf;
    captureTrace(WorkloadRegistry::byName("mcf"), 0, kEdgeEpochs, buf);
    return buf.str();
}

/** Assert that @p src delivers exactly the generator's epochs. */
void
expectGeneratorStream(TraceSource &src)
{
    TraceGenerator reference(WorkloadRegistry::byName("mcf"), 0);
    Epoch replayed;
    for (u64 i = 0; i < kEdgeEpochs; ++i) {
        ASSERT_TRUE(src.next(replayed)) << "epoch " << i;
        expectEpochsEqual(replayed, reference.next());
    }
    EXPECT_FALSE(src.next(replayed));
}

TEST(TraceWindow, FileReadsAcrossWindowEdges)
{
    const std::string bytes = capturedBytes();
    // The premise of these tests: several refills, most cutting a record.
    ASSERT_GT(bytes.size(), 2 * BinaryTraceSource::kWindowBytes);
    const std::string path = tempPath("window_edges.coptrc");
    writeFile(path, bytes);
    expectGeneratorStream(*openTraceSource(path));
}

TEST(TraceWindow, UnseekableStreamReadsAcrossWindowEdges)
{
    UnseekableBuf pipe(capturedBytes());
    std::istream in(&pipe);
    BinaryTraceSource src(in);
    expectGeneratorStream(src);
}

TEST(TraceWindow, GzipReadsAcrossWindowEdges)
{
    if (!gzipSupported())
        GTEST_SKIP() << "built without zlib";
    GzipTraceSource src(std::make_unique<std::istringstream>(
        gzipBytes(capturedBytes(), "window_edges.coptrc.gz")));
    expectGeneratorStream(src);
}

TEST(TraceWindow, EpochLongerThanWindowReadsInPieces)
{
    // One epoch of 2.5 windows of records, then two short ones, through
    // a pipe (capped reserve) and a file (measured reserve). Its records
    // start 28 bytes in, so the window edges cut them in half.
    const u64 records = 5 * BinaryTraceSource::kWindowBytes / 16;
    Epoch big;
    big.instructions = 7;
    for (u64 i = 0; i < records; ++i)
        big.accesses.push_back({i * 64, i % 3 == 0});
    std::stringstream buf;
    {
        TraceWriter writer(buf);
        writer.write(big);
        writer.write(epochOf(1, {{64, true}}));
        writer.write(epochOf(2, {}));
    }
    const std::string path = tempPath("long_epoch.coptrc");
    writeFile(path, buf.str());
    UnseekableBuf pipe(buf.str());
    std::istream piped(&pipe);
    BinaryTraceSource streamed(piped);
    const auto filed = openTraceSource(path);
    for (TraceSource *src : {static_cast<TraceSource *>(&streamed),
                             filed.get()}) {
        Epoch e;
        ASSERT_TRUE(src->next(e));
        expectEpochsEqual(e, big);
        ASSERT_TRUE(src->next(e));
        ASSERT_TRUE(src->next(e));
        EXPECT_EQ(e.instructions, 2u);
        EXPECT_FALSE(src->next(e));
        EXPECT_EQ(src->accessesRead(), records + 1);
    }
}

// --------------------------------------------------------------- fit

TEST(TraceFit, RecoversGeneratorParametersFromCapture)
{
    const auto &profile = WorkloadRegistry::byName("mcf");
    std::stringstream buf;
    captureTrace(profile, 0, 3000, buf);
    const std::string bytes = buf.str();

    std::istringstream fit_in(bytes);
    BinaryTraceSource src(fit_in);
    TraceFitOptions opts;
    opts.contentTemplate = &profile;
    TraceFitReport report;
    const WorkloadProfile fitted =
        fitProfileFromTrace(src, "fitted(mcf)", opts, &report);
    EXPECT_EQ(report.epochsScanned, 3000u);

    // The fit measures the trace exactly — its APKI and write fraction
    // must agree with summarizeTrace on the same bytes...
    std::istringstream sum_in(bytes);
    BinaryTraceSource sum_src(sum_in);
    const TraceSummary s = summarizeTrace(sum_src);
    EXPECT_DOUBLE_EQ(fitted.l3Apki, s.accessesPerKiloInstruction());
    EXPECT_DOUBLE_EQ(fitted.writeFraction, s.writeFraction());
    // ...and land near the generating profile's parameters (the
    // generator's integer access-count draw biases APKI upward by
    // roughly (mlp+0.5)/mlp, so the bound is loose).
    EXPECT_NEAR(fitted.l3Apki, profile.l3Apki, profile.l3Apki * 0.5);
    EXPECT_NEAR(fitted.writeFraction, profile.writeFraction, 0.03);
    EXPECT_NEAR(static_cast<double>(fitted.mlp),
                static_cast<double>(profile.mlp), 1.0);
    // The span estimate is bounded by the true footprint and should
    // cover most of it after 3000 epochs of uniform draws.
    EXPECT_LE(fitted.footprintBlocks, profile.footprintBlocks);
    EXPECT_GT(fitted.footprintBlocks, profile.footprintBlocks / 2);
    // Content knobs come from the template, not the trace.
    EXPECT_DOUBLE_EQ(fitted.perfectIpc, profile.perfectIpc);
    EXPECT_FALSE(fitted.sharedFootprint);
}

TEST(TraceFit, BoundedPrefixStopsEarly)
{
    const auto &profile = WorkloadRegistry::byName("gcc");
    std::stringstream buf;
    captureTrace(profile, 0, 500, buf);
    BinaryTraceSource src(buf);
    TraceFitOptions opts;
    opts.maxEpochs = 100;
    TraceFitReport report;
    (void)fitProfileFromTrace(src, "fitted", opts, &report);
    EXPECT_EQ(report.epochsScanned, 100u);
    EXPECT_EQ(src.epochsRead(), 100u); // the rest was never read
}

TEST(TraceFitDeath, EmptyTraceIsFatal)
{
    std::stringstream buf;
    {
        TraceWriter writer(buf);
    }
    BinaryTraceSource src(buf);
    EXPECT_DEATH(
        { fitProfileFromTrace(src, "fitted"); },
        "cannot fit a profile to an empty trace");
}

} // namespace
} // namespace cop
