/** @file Tests for binary trace capture and replay. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/stateio.hh"
#include "core/system.hh"
#include "harness/factory.hh"
#include "harness/statsjson.hh"
#include "trace/suite.hh"
#include "trace/trace_io.hh"
#include "trace/workloads.hh"

namespace bouquet
{
namespace
{

/** RAII temp file path. */
struct TempFile
{
    TempFile()
    {
        char buf[] = "/tmp/bouquet_trace_XXXXXX";
        const int fd = mkstemp(buf);
        if (fd >= 0)
            close(fd);
        path = buf;
    }

    ~TempFile() { std::remove(path.c_str()); }

    std::string path;
};

TEST(TraceIo, RoundTripPreservesRecords)
{
    TempFile tmp;
    ConstantStrideParams p;
    ConstantStrideGen gen("w", 7, p);
    ASSERT_TRUE(writeTrace(tmp.path, gen, 1000).ok());

    gen.reset();
    auto loaded = TraceFileGenerator::load(tmp.path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    TraceFileGenerator &replay = *loaded.value();
    EXPECT_EQ(replay.size(), 1000u);
    for (int i = 0; i < 1000; ++i) {
        TraceRecord a, b;
        gen.next(a);
        replay.next(b);
        EXPECT_EQ(a.ip, b.ip);
        EXPECT_EQ(a.vaddr, b.vaddr);
        EXPECT_EQ(a.type, b.type);
        EXPECT_EQ(a.bubble, b.bubble);
        EXPECT_EQ(a.serialize, b.serialize);
    }
}

TEST(TraceIo, ReplayWrapsAtEnd)
{
    TempFile tmp;
    ConstantStrideParams p;
    ConstantStrideGen gen("w", 7, p);
    ASSERT_TRUE(writeTrace(tmp.path, gen, 10).ok());

    auto loaded = TraceFileGenerator::load(tmp.path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    TraceFileGenerator &replay = *loaded.value();
    TraceRecord first;
    replay.next(first);
    TraceRecord r;
    for (int i = 0; i < 9; ++i)
        replay.next(r);
    replay.next(r);  // wrapped
    EXPECT_EQ(r.vaddr, first.vaddr);
}

TEST(TraceIo, ResetRewinds)
{
    TempFile tmp;
    PointerChaseParams p;
    PointerChaseGen gen("w", 3, p);
    ASSERT_TRUE(writeTrace(tmp.path, gen, 50).ok());

    auto loaded = TraceFileGenerator::load(tmp.path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    TraceFileGenerator &replay = *loaded.value();
    TraceRecord a;
    replay.next(a);
    for (int i = 0; i < 20; ++i) {
        TraceRecord scratch;
        replay.next(scratch);
    }
    replay.reset();
    TraceRecord b;
    replay.next(b);
    EXPECT_EQ(a.vaddr, b.vaddr);
}

TEST(TraceIo, SerializeFlagSurvives)
{
    TempFile tmp;
    PointerChaseParams p;
    p.regularFraction = 0.0;
    p.nodeAccesses = 1;
    PointerChaseGen gen("w", 3, p);
    ASSERT_TRUE(writeTrace(tmp.path, gen, 20).ok());

    auto loaded = TraceFileGenerator::load(tmp.path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    TraceFileGenerator &replay = *loaded.value();
    for (int i = 0; i < 20; ++i) {
        TraceRecord r;
        replay.next(r);
        EXPECT_TRUE(r.serialize);
    }
}

TEST(TraceIo, RejectsGarbageFile)
{
    TempFile tmp;
    std::FILE *f = std::fopen(tmp.path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a trace", f);
    std::fclose(f);
    EXPECT_FALSE(TraceFileGenerator::load(tmp.path).ok());
}

TEST(TraceIo, MissingFileThrows)
{
    EXPECT_FALSE(TraceFileGenerator::load("/nonexistent/path.trace").ok());
}

TEST(TraceIo, TruncatedFileThrows)
{
    TempFile tmp;
    ConstantStrideParams p;
    ConstantStrideGen gen("w", 7, p);
    ASSERT_TRUE(writeTrace(tmp.path, gen, 100).ok());
    // Chop the file mid-record.
    ASSERT_EQ(truncate(tmp.path.c_str(), 16 + 55 * 20 + 7), 0);
    EXPECT_FALSE(TraceFileGenerator::load(tmp.path).ok());
}

// ---- corrupted-trace matrix: every header/size violation maps to a
// precise error code through load() ----

/** Write a small valid trace and return its path. */
void
writeValidTrace(const std::string &path, std::uint64_t records = 10)
{
    ConstantStrideParams p;
    ConstantStrideGen gen("w", 7, p);
    ASSERT_TRUE(writeTrace(path, gen, records).ok());
}

TEST(TraceIo, LoadRoundTrip)
{
    TempFile tmp;
    writeValidTrace(tmp.path, 10);
    auto gen = TraceFileGenerator::load(tmp.path);
    ASSERT_TRUE(gen.ok()) << gen.error().message;
    EXPECT_EQ(gen.value()->size(), 10u);
}

TEST(TraceIo, LoadReportsMissingFileAsIo)
{
    auto gen = TraceFileGenerator::load("/nonexistent/path.trace");
    ASSERT_FALSE(gen.ok());
    EXPECT_EQ(gen.error().code, Errc::io);
}

TEST(TraceIo, LoadReportsBadMagic)
{
    TempFile tmp;
    std::FILE *f = std::fopen(tmp.path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    // 16+ bytes so the header parses, but the magic is garbage.
    std::fputs("xxxxxxxxyyyyyyyyzzzz", f);
    std::fclose(f);
    auto gen = TraceFileGenerator::load(tmp.path);
    ASSERT_FALSE(gen.ok());
    EXPECT_EQ(gen.error().code, Errc::bad_magic);
}

TEST(TraceIo, LoadReportsBadVersion)
{
    TempFile tmp;
    writeValidTrace(tmp.path);
    // Byte 0 of the little-endian magic is the version digit '1';
    // bump it to a future version the reader must refuse.
    std::FILE *f = std::fopen(tmp.path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fputc('2', f);
    std::fclose(f);
    auto gen = TraceFileGenerator::load(tmp.path);
    ASSERT_FALSE(gen.ok());
    EXPECT_EQ(gen.error().code, Errc::bad_version);
}

TEST(TraceIo, LoadReportsShortHeaderAsTruncated)
{
    TempFile tmp;
    writeValidTrace(tmp.path);
    ASSERT_EQ(truncate(tmp.path.c_str(), 9), 0);
    auto gen = TraceFileGenerator::load(tmp.path);
    ASSERT_FALSE(gen.ok());
    EXPECT_EQ(gen.error().code, Errc::truncated);
}

TEST(TraceIo, LoadReportsTruncationMidRecord)
{
    TempFile tmp;
    writeValidTrace(tmp.path, 10);
    ASSERT_EQ(truncate(tmp.path.c_str(), 16 + 5 * 20 + 7), 0);
    auto gen = TraceFileGenerator::load(tmp.path);
    ASSERT_FALSE(gen.ok());
    EXPECT_EQ(gen.error().code, Errc::truncated);
}

TEST(TraceIo, LoadReportsOversizedFile)
{
    TempFile tmp;
    writeValidTrace(tmp.path, 10);
    std::FILE *f = std::fopen(tmp.path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("trailing junk", f);
    std::fclose(f);
    auto gen = TraceFileGenerator::load(tmp.path);
    ASSERT_FALSE(gen.ok());
    EXPECT_EQ(gen.error().code, Errc::oversized);
}

TEST(TraceIo, LoadReportsZeroRecordsAsEmpty)
{
    TempFile tmp;
    writeValidTrace(tmp.path, 0);
    auto gen = TraceFileGenerator::load(tmp.path);
    ASSERT_FALSE(gen.ok());
    EXPECT_EQ(gen.error().code, Errc::empty);
}

// ---- shared decoding: one decoded vector under several cursors ----

TEST(TraceIo, SharedRecordsKeepSeparateCursors)
{
    TempFile tmp;
    writeValidTrace(tmp.path, 50);
    Result<std::vector<TraceRecord>> decoded = readTraceRecords(tmp.path);
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    const SharedTraceRecords shared =
        std::make_shared<const std::vector<TraceRecord>>(decoded.take());
    TraceFileGenerator a(tmp.path, shared);
    TraceFileGenerator b(tmp.path, shared);
    auto own_a = TraceFileGenerator::load(tmp.path);
    auto own_b = TraceFileGenerator::load(tmp.path);
    ASSERT_TRUE(own_a.ok() && own_b.ok());

    // Put `a` ahead of `b`, then step both past the wrap at record 50:
    // each must replay what its separately loaded twin replays.
    TraceRecord x, y;
    for (int i = 0; i < 17; ++i) {
        a.next(x);
        own_a.value()->next(y);
        ASSERT_TRUE(x == y) << "a, record " << i;
    }
    for (int i = 0; i < 120; ++i) {
        a.next(x);
        own_a.value()->next(y);
        ASSERT_TRUE(x == y) << "a, record " << 17 + i;
        b.next(x);
        own_b.value()->next(y);
        ASSERT_TRUE(x == y) << "b, record " << i;
    }
}

/** Run a two-core mix over `workloads` and return its stats JSON. */
std::string
twoCoreStatsJson(std::vector<GeneratorPtr> workloads)
{
    SystemConfig cfg;
    cfg.dram.channels = 2;
    System sys(cfg, std::move(workloads));
    applyCombo(sys, "ipcp");
    sys.run(2'000, 10'000);
    TempFile out;
    EXPECT_TRUE(
        publishFile(out.path, formatSystemStatsJson(sys, "shared")).ok());
    std::ifstream in(out.path, std::ios::binary);
    std::ostringstream body;
    body << in.rdbuf();
    return body.str();
}

TEST(TraceIo, SharedRecordsSystemMatchesSeparateLoads)
{
    TempFile tmp;
    {
        GeneratorPtr gen = makeWorkload(findTrace("605.mcf_s-472B"));
        ASSERT_TRUE(writeTrace(tmp.path, *gen, 3'000).ok());
    }

    Result<std::vector<TraceRecord>> decoded = readTraceRecords(tmp.path);
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    const SharedTraceRecords shared =
        std::make_shared<const std::vector<TraceRecord>>(decoded.take());
    std::vector<GeneratorPtr> one_decode;
    std::vector<GeneratorPtr> two_decodes;
    for (int c = 0; c < 2; ++c) {
        one_decode.push_back(
            std::make_unique<TraceFileGenerator>(tmp.path, shared));
        auto own = TraceFileGenerator::load(tmp.path);
        ASSERT_TRUE(own.ok()) << own.error().message;
        two_decodes.push_back(own.take());
    }

    const std::string json_shared = twoCoreStatsJson(std::move(one_decode));
    const std::string json_own = twoCoreStatsJson(std::move(two_decodes));
    EXPECT_FALSE(json_shared.empty());
    EXPECT_TRUE(json_shared == json_own) << "stats JSON differs";
}

} // namespace
} // namespace bouquet
