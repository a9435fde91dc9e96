/** @file Behavioural tests for every baseline prefetcher. */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "prefetch/bingo.hh"
#include "prefetch/bop.hh"
#include "prefetch/composite.hh"
#include "prefetch/dol.hh"
#include "prefetch/dspatch.hh"
#include "prefetch/mlop.hh"
#include "prefetch/ppf.hh"
#include "prefetch/simple.hh"
#include "prefetch/spp.hh"
#include "prefetch/tskid.hh"
#include "tests/test_support.hh"

namespace bouquet
{
namespace
{

using test::FakeHost;

constexpr Addr kBase = 0x10000000;
constexpr Ip kIp = 0x401000;

/** Feed a strided load sequence to a prefetcher. */
void
feedStride(Prefetcher &p, Addr base, int stride_lines, int count,
           Ip ip = kIp, bool hit = false)
{
    for (int i = 0; i < count; ++i) {
        const Addr a =
            base + static_cast<Addr>(i) *
                       static_cast<Addr>(stride_lines) * kLineSize;
        p.operate(a, ip, hit, AccessType::Load, 0);
    }
}

// ---- NextLine -----------------------------------------------------------

TEST(NextLine, IssuesDegreeLines)
{
    FakeHost host;
    NextLineParams np;
    np.degree = 3;
    NextLinePrefetcher p(np);
    p.setHost(&host);
    p.operate(kBase, kIp, false, AccessType::Load, 0);
    ASSERT_EQ(host.issued.size(), 3u);
    for (unsigned k = 0; k < 3; ++k)
        EXPECT_EQ(host.issued[k].addr, kBase + (k + 1) * kLineSize);
}

TEST(NextLine, StaysInPage)
{
    FakeHost host;
    NextLineParams np;
    np.degree = 4;
    NextLinePrefetcher p(np);
    p.setHost(&host);
    // Last line of a page: nothing to prefetch.
    p.operate(kBase + kPageSize - kLineSize, kIp, false,
              AccessType::Load, 0);
    EXPECT_TRUE(host.issued.empty());
}

TEST(NextLine, OnlyOnMissRespectsHits)
{
    FakeHost host;
    NextLineParams np;
    np.onlyOnMiss = true;
    NextLinePrefetcher p(np);
    p.setHost(&host);
    p.operate(kBase, kIp, true, AccessType::Load, 0);
    EXPECT_TRUE(host.issued.empty());
    p.operate(kBase, kIp, false, AccessType::Load, 0);
    EXPECT_EQ(host.issued.size(), 1u);
}

TEST(ThrottledNextLine, DisablesOnLowAccuracy)
{
    FakeHost host;
    ThrottledNextLine p;
    p.setHost(&host);
    // 256 prefetch fills, none useful: must disable.
    for (int i = 0; i < 256; ++i)
        p.onFill(kBase, true, 0);
    host.clear();
    p.operate(kBase, kIp, false, AccessType::Load, 0);
    EXPECT_TRUE(host.issued.empty());
}

TEST(ThrottledNextLine, StaysOnWhenAccurate)
{
    FakeHost host;
    ThrottledNextLine p;
    p.setHost(&host);
    for (int i = 0; i < 256; ++i) {
        p.onFill(kBase, true, 0);
        p.onPrefetchUseful(kBase, 0);
    }
    host.clear();
    p.operate(kBase, kIp, false, AccessType::Load, 0);
    EXPECT_EQ(host.issued.size(), 1u);
}

// ---- IP-stride ------------------------------------------------------------

TEST(IpStride, LearnsConstantStride)
{
    FakeHost host;
    IpStridePrefetcher p;
    p.setHost(&host);
    feedStride(p, kBase, 2, 6);
    ASSERT_FALSE(host.issued.empty());
    // The last training access is at +10 lines; prefetches at +12...
    const Addr last = kBase + 10 * kLineSize;
    EXPECT_EQ(host.issued.back().addr % kLineSize, last % kLineSize);
    EXPECT_TRUE(host.issuedLine(lineAddr(last) + 2));
}

TEST(IpStride, NoPrefetchBeforeConfidence)
{
    FakeHost host;
    IpStridePrefetcher p;
    p.setHost(&host);
    feedStride(p, kBase, 3, 2);  // only one stride observed
    EXPECT_TRUE(host.issued.empty());
}

TEST(IpStride, DistinctIpsTrackSeparately)
{
    FakeHost host;
    IpStridePrefetcher p;
    p.setHost(&host);
    // Interleave two IPs with different strides; both should train.
    for (int i = 0; i < 8; ++i) {
        p.operate(kBase + static_cast<Addr>(i) * 2 * kLineSize, kIp,
                  false, AccessType::Load, 0);
        p.operate(kBase + 0x100000 + static_cast<Addr>(i) * 3 * kLineSize,
                  kIp + 64, false, AccessType::Load, 0);
    }
    EXPECT_GT(host.issued.size(), 4u);
}

TEST(IpStride, ZeroStrideNeverPrefetches)
{
    FakeHost host;
    IpStridePrefetcher p;
    p.setHost(&host);
    for (int i = 0; i < 10; ++i)
        p.operate(kBase, kIp, true, AccessType::Load, 0);
    EXPECT_TRUE(host.issued.empty());
}

// ---- Stream -----------------------------------------------------------

TEST(Stream, DetectsAscendingStream)
{
    FakeHost host;
    StreamPrefetcher p;
    p.setHost(&host);
    feedStride(p, kBase, 1, 8);
    EXPECT_FALSE(host.issued.empty());
    // Prefetches run ahead of the demand stream.
    EXPECT_GT(host.issued.back().addr, kBase + 8 * kLineSize);
}

TEST(Stream, DetectsDescendingStream)
{
    FakeHost host;
    StreamPrefetcher p;
    p.setHost(&host);
    const Addr top = kBase + 32 * kLineSize;
    for (int i = 0; i < 8; ++i)
        p.operate(top - static_cast<Addr>(i) * kLineSize, kIp, false,
                  AccessType::Load, 0);
    ASSERT_FALSE(host.issued.empty());
    EXPECT_LT(host.issued.back().addr, top - 8 * kLineSize);
}

// ---- BOP ----------------------------------------------------------------

TEST(Bop, FindsPlantedOffset)
{
    FakeHost host;
    BopPrefetcher p;
    p.setHost(&host);
    // Stream with stride 5 (in the offset list); fills echo accesses.
    Addr a = kBase;
    for (int i = 0; i < 3000; ++i) {
        p.operate(a, kIp, false, AccessType::Load, 0);
        p.onFill(a, false, 0);
        a += 5 * kLineSize;
        if (lineOffsetInPage(a) < 5)
            a += kPageSize;  // stay mid-page so probes stay in page
    }
    EXPECT_EQ(p.bestOffset() % 5, 0);
    EXPECT_FALSE(host.issued.empty());
}

TEST(Bop, TurnsOffOnRandomTraffic)
{
    FakeHost host;
    BopPrefetcher p;
    p.setHost(&host);
    Rng rng(3);
    for (int i = 0; i < 20000; ++i) {
        const Addr a = kBase + rng.below(1 << 30);
        p.operate(a, kIp, false, AccessType::Load, 0);
    }
    host.clear();
    p.operate(kBase, kIp, false, AccessType::Load, 0);
    EXPECT_TRUE(host.issued.empty());
}

// ---- MLOP -------------------------------------------------------------

TEST(Mlop, SelectsDominantOffset)
{
    FakeHost host;
    MlopParams mp;
    mp.epochEvents = 128;
    MlopPrefetcher p(mp);
    p.setHost(&host);
    Addr a = kBase;
    for (int i = 0; i < 600; ++i) {
        p.operate(a, kIp, false, AccessType::Load, 0);
        a += 2 * kLineSize;
    }
    bool has2 = false;
    for (int d : p.selectedOffsets())
        has2 = has2 || d == 2 || d == 4;  // multiples of the stride
    EXPECT_TRUE(has2);
    EXPECT_FALSE(host.issued.empty());
}

// ---- Bingo ---------------------------------------------------------------

TEST(Bingo, ReplaysLearnedFootprint)
{
    FakeHost host;
    SpatialParams sp;
    sp.accumEntries = 2;  // force fast retirement into the history
    BingoPrefetcher p(sp);
    p.setHost(&host);
    // Region A: touch offsets 0,2,4 under one trigger IP.
    const Addr region_a = kBase;
    for (unsigned off : {0u, 2u, 4u})
        p.operate(region_a + off * kLineSize, kIp, false,
                  AccessType::Load, 0);
    // Two more regions evict region A into the PHT.
    p.operate(kBase + 0x100000, kIp + 8, false, AccessType::Load, 0);
    p.operate(kBase + 0x200000, kIp + 16, false, AccessType::Load, 0);
    host.clear();
    // Same IP triggers a new region at the same in-region offset.
    const Addr region_b = kBase + 0x300000;
    p.operate(region_b, kIp, false, AccessType::Load, 0);
    EXPECT_TRUE(host.issuedLine(lineAddr(region_b) + 2));
    EXPECT_TRUE(host.issuedLine(lineAddr(region_b) + 4));
}

TEST(Bingo, ShortEventFallbackPredicts)
{
    FakeHost host;
    SpatialParams sp;
    sp.accumEntries = 2;
    BingoPrefetcher p(sp);
    p.setHost(&host);
    const Addr region_a = kBase;
    for (unsigned off : {0u, 1u, 3u})
        p.operate(region_a + off * kLineSize, kIp, false,
                  AccessType::Load, 0);
    p.operate(kBase + 0x100000, kIp + 8, false, AccessType::Load, 0);
    p.operate(kBase + 0x200000, kIp + 16, false, AccessType::Load, 0);
    host.clear();
    const Addr region_b = kBase + 0x300000;  // never-seen region
    p.operate(region_b, kIp, false, AccessType::Load, 0);
    EXPECT_TRUE(host.issuedLine(lineAddr(region_b) + 1));
    EXPECT_TRUE(host.issuedLine(lineAddr(region_b) + 3));
}

TEST(Bingo, PendingSurvivesFullQueue)
{
    FakeHost host;
    SpatialParams sp;
    sp.accumEntries = 2;
    BingoPrefetcher p(sp);
    p.setHost(&host);
    const Addr region_a = kBase;
    for (unsigned off = 0; off < 12; ++off)
        p.operate(region_a + off * kLineSize, kIp, false,
                  AccessType::Load, 0);
    p.operate(kBase + 0x100000, kIp + 8, false, AccessType::Load, 0);
    p.operate(kBase + 0x200000, kIp + 16, false, AccessType::Load, 0);
    host.clear();
    host.capacity = 2;  // tiny PQ
    const Addr region_b = kBase + 0x300000;
    p.operate(region_b, kIp, false, AccessType::Load, 0);
    EXPECT_EQ(host.issued.size(), 2u);
    host.capacity = 1'000'000;
    // Subsequent accesses to the region drain what was pending.
    p.operate(region_b + kLineSize, kIp, false, AccessType::Load, 0);
    p.operate(region_b + 2 * kLineSize, kIp, false, AccessType::Load, 0);
    EXPECT_GT(host.issued.size(), 4u);
}

// ---- SPP --------------------------------------------------------------

TEST(Spp, LookaheadFollowsDeltaPath)
{
    FakeHost host(CacheLevel::L2);
    SppPrefetcher p;
    p.setHost(&host);
    // Uniform stride 1 within pages: the signature path saturates.
    for (int page = 0; page < 4; ++page) {
        const Addr base = kBase + static_cast<Addr>(page) * kPageSize;
        for (unsigned off = 0; off < 48; ++off)
            p.operate(base + off * kLineSize, kIp, false,
                      AccessType::Load, 0);
    }
    EXPECT_GT(host.issued.size(), 20u);
    // High-confidence prefetches fill at the host level.
    bool some_l2_fill = false;
    for (const auto &i : host.issued)
        some_l2_fill = some_l2_fill || i.fillLevel == CacheLevel::L2;
    EXPECT_TRUE(some_l2_fill);
}

TEST(Spp, NoPrefetchOnRandomDeltas)
{
    FakeHost host(CacheLevel::L2);
    SppPrefetcher p;
    p.setHost(&host);
    Rng rng(5);
    for (int i = 0; i < 4000; ++i)
        p.operate(kBase + rng.below(1 << 28), kIp, false,
                  AccessType::Load, 0);
    // Some noise is inevitable, but it must be a trickle.
    EXPECT_LT(host.issued.size(), 200u);
}

// ---- PPF -----------------------------------------------------------

TEST(Ppf, UntrainedCandidatesDemoteToLlc)
{
    FakeHost host(CacheLevel::L2);
    PpfPrefetcher p;
    p.setHost(&host);
    for (int page = 0; page < 2; ++page) {
        const Addr base = kBase + static_cast<Addr>(page) * kPageSize;
        for (unsigned off = 0; off < 32; ++off)
            p.operate(base + off * kLineSize, kIp, false,
                      AccessType::Load, 0);
    }
    ASSERT_FALSE(host.issued.empty());
    // With zero-initialised weights (sum 0 < tauHigh), the first
    // candidates are demoted to the LLC; training may promote later
    // ones once the stream proves useful.
    EXPECT_EQ(host.issued.front().fillLevel, CacheLevel::LLC);
}

TEST(Ppf, TrainingPromotesToL2)
{
    FakeHost host(CacheLevel::L2);
    PpfPrefetcher p;
    p.setHost(&host);
    // Long useful streak: demands touch exactly what SPP proposes.
    for (int page = 0; page < 24; ++page) {
        const Addr base = kBase + static_cast<Addr>(page) * kPageSize;
        for (unsigned off = 0; off < 60; ++off)
            p.operate(base + off * kLineSize, kIp, false,
                      AccessType::Load, 0);
    }
    bool some_l2 = false;
    for (const auto &i : host.issued)
        some_l2 = some_l2 || i.fillLevel == CacheLevel::L2;
    EXPECT_TRUE(some_l2);
}

// ---- DSPatch ---------------------------------------------------------

TEST(Dspatch, ReplaysPerPcPagePattern)
{
    FakeHost host(CacheLevel::L2);
    DspatchPrefetcher p;
    p.setHost(&host);
    // Same PC touches the same offsets in many pages. A single fixed
    // filler PC flushes the page buffer between pages without
    // cluttering the pattern table.
    const Ip filler_ip = kIp + 8192;
    for (int page = 0; page < 6; ++page) {
        const Addr base = kBase + static_cast<Addr>(page) * kPageSize;
        for (unsigned off : {0u, 4u, 8u, 12u})
            p.operate(base + off * kLineSize, kIp, false,
                      AccessType::Load, 0);
        // Touch 33 other pages to evict it from the page buffer.
        for (int e = 0; e < 33; ++e)
            p.operate(kBase + 0x4000000 +
                          static_cast<Addr>(page * 33 + e) * kPageSize,
                      filler_ip, false, AccessType::Load, 0);
    }
    host.clear();
    const Addr fresh = kBase + 0x8000000;
    p.operate(fresh, kIp, false, AccessType::Load, 0);
    EXPECT_TRUE(host.issuedLine(lineAddr(fresh) + 4));
    EXPECT_TRUE(host.issuedLine(lineAddr(fresh) + 8));
}

TEST(Dspatch, UsefulHitAfterWindowRolloverAudits)
{
    // The accuracy window zeroes fills_ and useful_ every 256
    // prefetch fills. A demand hit on a line prefetched in the
    // *previous* window then arrives with zero fills in the current
    // one — a legitimate state the auditor used to reject as "more
    // useful prefetches than fills", which made end-of-warmup
    // checkpoint publishes fail for spp-ppf-dspatch jobs.
    FakeHost host(CacheLevel::L2);
    DspatchPrefetcher p;
    p.setHost(&host);
    for (int i = 0; i < 256; ++i)
        p.onFill(kBase + static_cast<Addr>(i) * kLineSize, true, 0);
    p.onPrefetchUseful(kBase, 0);
    EXPECT_NO_THROW(p.audit());
}

// ---- T-SKID -------------------------------------------------------------

TEST(Tskid, PrefetchesAtLookahead)
{
    FakeHost host;
    TskidPrefetcher p;
    p.setHost(&host);
    feedStride(p, kBase, 1, 8);
    ASSERT_FALSE(host.issued.empty());
    // Targets are beyond the immediate next line (lookahead >= 1 with
    // degree 2 means at least +1 and +2 but defaults start at 4).
    EXPECT_GT(host.issued.front().addr, kBase + 4 * kLineSize);
}

TEST(Tskid, ManyIpsSupported)
{
    FakeHost host;
    TskidPrefetcher p;
    p.setHost(&host);
    // 512 concurrent IPs: the large table must track enough of them.
    for (int round = 0; round < 4; ++round) {
        for (int i = 0; i < 512; ++i) {
            p.operate(kBase + static_cast<Addr>(i) * 0x100000 +
                          static_cast<Addr>(round) * kLineSize,
                      kIp + static_cast<Ip>(i) * 4, false,
                      AccessType::Load, 0);
        }
    }
    EXPECT_GT(host.issued.size(), 100u);
}

// ---- DOL -----------------------------------------------------------------

TEST(Dol, UnboundedDegreeRunsToPageEnd)
{
    FakeHost host;
    DolPrefetcher p;
    p.setHost(&host);
    feedStride(p, kBase, 1, 4);
    // After confidence, DOL pushes prefetches until the page ends.
    EXPECT_GT(host.issued.size(), 30u);
}

TEST(Dol, StreamComponentFillsL2)
{
    FakeHost host(CacheLevel::L1D);
    DolParams dp;
    dp.denseThreshold = 4;
    DolPrefetcher p(dp);
    p.setHost(&host);
    // Touch 4 scattered lines of one 2KB region with distinct IPs so
    // the stride component stays silent.
    for (unsigned i = 0; i < 4; ++i)
        p.operate(kBase + i * 5 * kLineSize, kIp + i * 4, false,
                  AccessType::Load, 0);
    bool l2_fill = false;
    for (const auto &i : host.issued)
        l2_fill = l2_fill || i.fillLevel == CacheLevel::L2;
    EXPECT_TRUE(l2_fill);
}

// ---- Composite -----------------------------------------------------------

TEST(Composite, FansOutAndSumsStorage)
{
    std::vector<std::unique_ptr<Prefetcher>> kids;
    kids.push_back(std::make_unique<IpStridePrefetcher>());
    kids.push_back(std::make_unique<NextLinePrefetcher>());
    CompositePrefetcher combo(std::move(kids));
    FakeHost host;
    combo.setHost(&host);
    EXPECT_EQ(combo.name(), "ip-stride+next-line");
    EXPECT_EQ(combo.storageBits(),
              IpStridePrefetcher().storageBits() +
                  NextLinePrefetcher().storageBits());
    combo.operate(kBase, kIp, false, AccessType::Load, 0);
    // The NL child fires immediately even though IP-stride is untrained.
    EXPECT_FALSE(host.issued.empty());
}

} // namespace
} // namespace bouquet
