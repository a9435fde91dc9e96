/** @file Tests for the IPCP L1 classifier, bouquet logic, and L2 IPCP. */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "ipcp/ipcp_l1.hh"
#include "ipcp/ipcp_l2.hh"
#include "ipcp/metadata.hh"
#include "tests/test_support.hh"

namespace bouquet
{
namespace
{

using test::FakeHost;

constexpr Addr kBase = 0x10000000;
constexpr Ip kIp = 0x401000;

void
feed(Prefetcher &p, Addr addr, Ip ip = kIp)
{
    p.operate(addr, ip, false, AccessType::Load, 0);
}

/** Walk an IP with a constant line stride. */
void
feedStride(Prefetcher &p, Addr base, int stride, int count, Ip ip = kIp)
{
    for (int i = 0; i < count; ++i)
        feed(p, base + static_cast<Addr>(i) *
                           static_cast<Addr>(stride) * kLineSize, ip);
}

// ---- metadata -------------------------------------------------------------

TEST(Metadata, RoundTripsClassAndStride)
{
    for (const MetaClass mc : {MetaClass::None, MetaClass::CS,
                               MetaClass::GS, MetaClass::NL}) {
        for (const std::int64_t s : {-64l, -3l, -1l, 0l, 1l, 5l, 63l}) {
            const std::uint32_t m = encodeMetadata(mc, s);
            EXPECT_EQ(metadataClass(m), mc);
            EXPECT_EQ(metadataStride(m), s);
            EXPECT_LT(m, 1u << 9) << "metadata must fit in 9 bits";
        }
    }
}

TEST(Metadata, ClassNames)
{
    EXPECT_STREQ(ipcpClassName(IpcpClass::CS), "cs");
    EXPECT_STREQ(ipcpClassName(IpcpClass::GS), "gs");
    EXPECT_STREQ(ipcpClassName(IpcpClass::CPLX), "cplx");
    EXPECT_STREQ(ipcpClassName(IpcpClass::NL), "nl");
}

// ---- CS class -------------------------------------------------------------

TEST(IpcpCs, LearnsConstantStrideAndPrefetches)
{
    FakeHost host;
    IpcpL1 p;
    p.setHost(&host);
    feedStride(p, kBase, 3, 5);
    ASSERT_FALSE(host.issued.empty());
    // All issues attributed to the CS class, stride 3 from the trigger.
    const Addr last = kBase + 4 * 3 * kLineSize;
    EXPECT_EQ(host.issued.back().pfClass,
              static_cast<std::uint8_t>(IpcpClass::CS));
    EXPECT_TRUE(host.issuedLine(lineAddr(last) + 3));
}

TEST(IpcpCs, DegreeThreeBurstOnFirstTrainedAccess)
{
    FakeHost host;
    IpcpL1 p;
    p.setHost(&host);
    // After three observations confidence is 1; the fourth access
    // reaches 2 and bursts the full default degree of 3.
    feedStride(p, kBase, 2, 3);
    host.clear();
    const Addr trigger = kBase + 3 * 2 * kLineSize;
    feed(p, trigger);
    ASSERT_EQ(host.issued.size(), 3u);
    for (unsigned k = 1; k <= 3; ++k)
        EXPECT_TRUE(host.issuedLine(lineAddr(trigger) + 2 * k));

    // Steady state: the RR filter suppresses re-requests of the
    // previous burst, so the next access adds only the new frontier.
    host.clear();
    feed(p, trigger + 2 * kLineSize);
    ASSERT_EQ(host.issued.size(), 1u);
    EXPECT_EQ(lineAddr(host.issued[0].addr),
              lineAddr(trigger) + 2 + 6);
}

TEST(IpcpCs, NeedsConfidence)
{
    FakeHost host;
    IpcpL1 p;
    p.setHost(&host);
    feedStride(p, kBase, 3, 2);  // one observed stride: conf 0
    // The tentative-NL fallback may fire, but the CS class must not.
    for (const auto &i : host.issued)
        EXPECT_NE(i.pfClass, static_cast<std::uint8_t>(IpcpClass::CS));
}

TEST(IpcpCs, StrideAcrossPageBoundaryViaVpageBits)
{
    FakeHost host;
    IpcpL1 p;
    p.setHost(&host);
    // Stride 1 crossing from offset 62 of page 0 into page 1: the
    // last-vpage low bits let training continue across the boundary.
    const Addr start = kBase + 61 * kLineSize;
    feedStride(p, start, 1, 8);  // runs into the next page
    ASSERT_FALSE(host.issued.empty());
    EXPECT_EQ(host.issued.back().pfClass,
              static_cast<std::uint8_t>(IpcpClass::CS));
}

TEST(IpcpCs, NeverCrossesPageWhenPrefetching)
{
    FakeHost host;
    IpcpL1 p;
    p.setHost(&host);
    feedStride(p, kBase, 3, 8);
    for (const auto &i : host.issued) {
        // Every prefetch target shares the page of some trigger in the
        // stream: no target may leave the page of its own base access.
        // (The generator walked three pages at most; just assert no
        // target is beyond the walked range + one stride.)
        EXPECT_LT(i.addr, kBase + 2 * kPageSize);
    }
}

TEST(IpcpCs, MetadataCarriesClassAndStride)
{
    FakeHost host;
    IpcpL1 p;  // default accuracy 1.0 > 0.75, so metadata flows
    p.setHost(&host);
    feedStride(p, kBase, 4, 5);
    ASSERT_FALSE(host.issued.empty());
    const std::uint32_t meta = host.issued.back().metadata;
    EXPECT_EQ(metadataClass(meta), MetaClass::CS);
    EXPECT_EQ(metadataStride(meta), 4);
}

TEST(IpcpCs, MetadataSuppressedWithoutFlag)
{
    FakeHost host;
    IpcpL1Params params;
    params.sendMetadata = false;
    IpcpL1 p(params);
    p.setHost(&host);
    feedStride(p, kBase, 4, 5);
    ASSERT_FALSE(host.issued.empty());
    EXPECT_EQ(host.issued.back().metadata, 0u);
}

// ---- CPLX class -----------------------------------------------------------

TEST(IpcpCplx, LearnsRepeatingPattern334)
{
    FakeHost host;
    IpcpL1Params params;
    params.enableCS = true;  // CS cannot lock onto 3,3,4
    IpcpL1 p(params);
    p.setHost(&host);
    // Pattern 3,3,4 repeated: signatures recur, CSPT gains confidence.
    Addr a = kBase;
    const int pattern[] = {3, 3, 4};
    for (int i = 0; i < 40; ++i) {
        feed(p, a);
        a += static_cast<Addr>(pattern[i % 3]) * kLineSize;
    }
    bool cplx_issued = false;
    for (const auto &i : host.issued)
        cplx_issued = cplx_issued ||
                      i.pfClass ==
                          static_cast<std::uint8_t>(IpcpClass::CPLX);
    EXPECT_TRUE(cplx_issued);
}

TEST(IpcpCplx, Pattern12GetsCoverage)
{
    // The paper's motivating case: strides 1,2,1,2 defeat CS but not
    // CPLX (Section IV-B).
    FakeHost host;
    IpcpL1 p;
    p.setHost(&host);
    Addr a = kBase;
    for (int i = 0; i < 60; ++i) {
        feed(p, a);
        a += static_cast<Addr>(i % 2 == 0 ? 1 : 2) * kLineSize;
    }
    unsigned cplx = 0, cs = 0;
    for (const auto &i : host.issued) {
        if (i.pfClass == static_cast<std::uint8_t>(IpcpClass::CPLX))
            ++cplx;
        if (i.pfClass == static_cast<std::uint8_t>(IpcpClass::CS))
            ++cs;
    }
    EXPECT_GT(cplx, 0u);
}

TEST(IpcpCplx, DistanceSkipsShallowPredictions)
{
    // With cplxDistance = 1 the first confident CSPT prediction is
    // skipped and prefetching starts one step deeper (Section V's
    // critical-path escape hatch).
    FakeHost near_host, far_host;
    IpcpL1Params near_params;
    near_params.enableGS = false;
    near_params.enableNL = false;
    near_params.enableCS = false;
    IpcpL1Params far_params = near_params;
    far_params.cplxDistance = 1;
    IpcpL1 near_pf(near_params), far_pf(far_params);
    near_pf.setHost(&near_host);
    far_pf.setHost(&far_host);

    Addr a = kBase;
    const int pattern[] = {3, 3, 4};
    for (int i = 0; i < 60; ++i) {
        near_pf.operate(a, kIp, false, AccessType::Load, 0);
        far_pf.operate(a, kIp, false, AccessType::Load, 0);
        a += static_cast<Addr>(pattern[i % 3]) * kLineSize;
    }
    ASSERT_FALSE(near_host.issued.empty());
    ASSERT_FALSE(far_host.issued.empty());
    // The distant variant's nearest prefetch is farther from its
    // trigger than the near variant's nearest.
    auto min_delta = [](const FakeHost &h) {
        Addr best = ~Addr{0};
        for (std::size_t i = 0; i + 2 < h.issued.size(); i += 1) {
            // deltas within one burst are increasing; just take min
            best = std::min(best, h.issued[i].addr);
        }
        return best;
    };
    (void)min_delta;
    // Compare the first issued target of the very first burst.
    EXPECT_GT(far_host.issued.front().addr,
              near_host.issued.front().addr);
}

// ---- GS class -------------------------------------------------------------

/** Touch every line of the 2 KB region containing `base`, in order. */
void
touchRegion(Prefetcher &p, Addr region_base, const std::vector<Ip> &ips,
            bool negative = false)
{
    for (int i = 0; i < 32; ++i) {
        const int off = negative ? 31 - i : i;
        p.operate(region_base + static_cast<Addr>(off) * kLineSize,
                  ips[static_cast<std::size_t>(i) % ips.size()], false,
                  AccessType::Load, 0);
    }
}

TEST(IpcpGs, DenseRegionTrainsStream)
{
    FakeHost host;
    IpcpL1 p;
    p.setHost(&host);
    const std::vector<Ip> ips{kIp, kIp + 4, kIp + 8};
    touchRegion(p, kBase, ips);
    touchRegion(p, kBase + 2048, ips);
    bool gs = false;
    for (const auto &i : host.issued)
        gs = gs || i.pfClass == static_cast<std::uint8_t>(IpcpClass::GS);
    EXPECT_TRUE(gs);
}

TEST(IpcpGs, DirectionFollowsStream)
{
    FakeHost host;
    IpcpL1 p;
    p.setHost(&host);
    const std::vector<Ip> ips{kIp};
    // Descending stream across two regions; the third (fresh) region
    // is classified tentatively from the trained previous one.
    touchRegion(p, kBase + 4096, ips, true);
    touchRegion(p, kBase + 2048, ips, true);
    host.clear();
    const Addr next_region_entry = kBase + 31 * kLineSize;
    p.operate(next_region_entry, kIp, false, AccessType::Load, 0);
    bool gs_below = false;
    for (const auto &i : host.issued) {
        if (i.pfClass == static_cast<std::uint8_t>(IpcpClass::GS))
            gs_below = gs_below || i.addr < next_region_entry;
    }
    EXPECT_TRUE(gs_below);
}

TEST(IpcpGs, GsWinsOverCsByDefaultPriority)
{
    FakeHost host;
    IpcpL1 p;
    p.setHost(&host);
    // A stride-1 IP is both CS-trainable and (dense region) GS.
    feedStride(p, kBase, 1, 64);
    unsigned gs = 0, cs = 0;
    for (const auto &i : host.issued) {
        if (i.pfClass == static_cast<std::uint8_t>(IpcpClass::GS))
            ++gs;
        if (i.pfClass == static_cast<std::uint8_t>(IpcpClass::CS))
            ++cs;
    }
    EXPECT_GT(gs, 0u);
    // Once GS-classified, GS takes priority (some early CS is fine).
    EXPECT_GT(gs, cs);
}

TEST(IpcpGs, PriorityPermutationFlipsWinner)
{
    FakeHost host;
    IpcpL1Params params;
    params.priority = {IpcpClass::CS, IpcpClass::GS, IpcpClass::CPLX,
                       IpcpClass::NL};
    IpcpL1 p(params);
    p.setHost(&host);
    feedStride(p, kBase, 1, 64);
    unsigned gs = 0, cs = 0;
    for (const auto &i : host.issued) {
        if (i.pfClass == static_cast<std::uint8_t>(IpcpClass::GS))
            ++gs;
        if (i.pfClass == static_cast<std::uint8_t>(IpcpClass::CS))
            ++cs;
    }
    EXPECT_GT(cs, gs);
}

TEST(IpcpGs, DisabledClassNeverIssues)
{
    FakeHost host;
    IpcpL1Params params;
    params.enableGS = false;
    IpcpL1 p(params);
    p.setHost(&host);
    feedStride(p, kBase, 1, 64);
    for (const auto &i : host.issued)
        EXPECT_NE(i.pfClass, static_cast<std::uint8_t>(IpcpClass::GS));
}

// ---- NL fallback -----------------------------------------------------------

TEST(IpcpNl, FiresForUnclassifiedWhenMpkiLow)
{
    FakeHost host;
    host.instrs = 0;
    host.misses = 0;
    IpcpL1 p;
    p.setHost(&host);
    // Irregular accesses from one IP; MPKI low (no misses reported).
    Rng rng(1);
    for (int i = 0; i < 50; ++i) {
        host.instrs += 100;
        feed(p, kBase + rng.below(1 << 26) * kLineSize);
    }
    bool nl = false;
    for (const auto &i : host.issued)
        nl = nl || i.pfClass == static_cast<std::uint8_t>(IpcpClass::NL);
    EXPECT_TRUE(nl);
}

TEST(IpcpNl, GatedOffAtHighMpki)
{
    FakeHost host;
    IpcpL1 p;
    p.setHost(&host);
    Rng rng(2);
    for (int i = 0; i < 200; ++i) {
        host.instrs += 20;
        host.misses += 2;  // MPKI 100 > threshold 50
        feed(p, kBase + rng.below(1 << 26) * kLineSize);
    }
    EXPECT_FALSE(p.nlEnabled());
    // With the gate closed, further unclassified accesses issue no NL.
    host.clear();
    for (int i = 0; i < 50; ++i) {
        host.instrs += 20;
        host.misses += 2;
        feed(p, kBase + rng.below(1 << 26) * kLineSize);
    }
    for (const auto &i : host.issued)
        EXPECT_NE(i.pfClass, static_cast<std::uint8_t>(IpcpClass::NL));
}

// ---- throttling -----------------------------------------------------------

TEST(IpcpThrottle, DegreeDropsOnLowAccuracy)
{
    FakeHost host;
    IpcpL1 p;
    p.setHost(&host);
    EXPECT_EQ(p.degreeOf(IpcpClass::GS), 6u);
    // 256 GS fills, none useful.
    for (int i = 0; i < 256; ++i)
        p.onFill(kBase, true, static_cast<std::uint8_t>(IpcpClass::GS));
    EXPECT_EQ(p.degreeOf(IpcpClass::GS), 5u);
    EXPECT_LT(p.accuracyOf(IpcpClass::GS), 0.40);
}

TEST(IpcpThrottle, DegreeRecoversOnHighAccuracy)
{
    FakeHost host;
    IpcpL1 p;
    p.setHost(&host);
    // Drive degree down twice...
    for (int i = 0; i < 512; ++i)
        p.onFill(kBase, true, static_cast<std::uint8_t>(IpcpClass::CS));
    EXPECT_EQ(p.degreeOf(IpcpClass::CS), 1u);
    // ...then a perfectly accurate epoch brings it back up one step.
    for (int i = 0; i < 256; ++i) {
        p.onFill(kBase, true, static_cast<std::uint8_t>(IpcpClass::CS));
        p.onPrefetchUseful(kBase,
                           static_cast<std::uint8_t>(IpcpClass::CS));
    }
    EXPECT_EQ(p.degreeOf(IpcpClass::CS), 2u);
}

TEST(IpcpThrottle, DegreeNeverExceedsDefault)
{
    FakeHost host;
    IpcpL1 p;
    p.setHost(&host);
    for (int round = 0; round < 4; ++round) {
        for (int i = 0; i < 256; ++i) {
            p.onFill(kBase, true,
                     static_cast<std::uint8_t>(IpcpClass::CS));
            p.onPrefetchUseful(kBase,
                               static_cast<std::uint8_t>(IpcpClass::CS));
        }
    }
    EXPECT_EQ(p.degreeOf(IpcpClass::CS), 3u);
}

TEST(IpcpThrottle, MidBandHoldsDegree)
{
    FakeHost host;
    IpcpL1 p;
    p.setHost(&host);
    // Accuracy 0.5 sits between the watermarks: no movement.
    for (int i = 0; i < 256; ++i) {
        p.onFill(kBase, true, static_cast<std::uint8_t>(IpcpClass::GS));
        if (i % 2 == 0)
            p.onPrefetchUseful(kBase,
                               static_cast<std::uint8_t>(IpcpClass::GS));
    }
    EXPECT_EQ(p.degreeOf(IpcpClass::GS), 6u);
}

// ---- RR filter -------------------------------------------------------------

TEST(IpcpRr, SuppressesDuplicatePrefetches)
{
    FakeHost host;
    IpcpL1 p;
    p.setHost(&host);
    feedStride(p, kBase, 2, 5);
    const std::size_t first = host.issued.size();
    ASSERT_GT(first, 0u);
    // Re-present the same trigger: targets were just requested, so the
    // RR filter drops them all.
    feed(p, kBase + 4 * 2 * kLineSize);
    EXPECT_EQ(host.issued.size(), first);
}

// ---- IP table hysteresis ----------------------------------------------------

TEST(IpcpHysteresis, IncumbentSurvivesOneChallenger)
{
    FakeHost host;
    IpcpL1 p;
    p.setHost(&host);
    // Two IPs mapping to the same direct-mapped slot (64 entries,
    // index = (ip>>2) & 63): ip and ip + 64*4.
    const Ip incumbent = kIp;
    const Ip challenger = kIp + 64 * 4;
    feedStride(p, kBase, 2, 5, incumbent);
    const std::size_t trained = host.issued.size();
    ASSERT_GT(trained, 0u);
    // One challenger access clears the valid bit but keeps the entry.
    feed(p, kBase + 0x100000, challenger);
    // The incumbent returns and must still be trained (prefetches
    // resume immediately).
    host.clear();
    feed(p, kBase + 5 * 2 * kLineSize, incumbent);
    EXPECT_FALSE(host.issued.empty());
}

// ---- storage accounting ------------------------------------------------------

TEST(IpcpStorage, MatchesTableI)
{
    IpcpL1 l1;
    // Table I: 5800 bits for IPCP at L1 + 113 bits of "Others"
    // (the paper's published totals).
    EXPECT_EQ(l1.storageBits(), 5913u);
    IpcpL2 l2;
    EXPECT_EQ(l2.storageBits(), 1237u);
    // Total: 740 bytes at L1 + 155 bytes at L2 = 895 bytes (paper).
    EXPECT_EQ((l1.storageBits() + 7) / 8 + (l2.storageBits() + 7) / 8,
              740u + 155u);
}

TEST(IpcpStorage, TagWidthKnobsMoveStorageByEntriesTimesDelta)
{
    const IpcpL1Params l1;
    const std::size_t l1_bits = IpcpL1(l1).storageBits();
    IpcpL1Params ip = l1;
    ip.ipTagBits += 2;
    EXPECT_EQ(IpcpL1(ip).storageBits(), l1_bits + 2 * l1.ipEntries);
    IpcpL1Params rst = l1;
    rst.rstTagBits += 1;
    EXPECT_EQ(IpcpL1(rst).storageBits(), l1_bits + 1 * l1.rstEntries);
    IpcpL1Params rr = l1;
    rr.rrTagBits += 3;
    EXPECT_EQ(IpcpL1(rr).storageBits(), l1_bits + 3 * l1.rrEntries);

    const IpcpL2Params l2;
    IpcpL2Params l2_ip = l2;
    l2_ip.ipTagBits += 2;
    EXPECT_EQ(IpcpL2(l2_ip).storageBits(),
              IpcpL2(l2).storageBits() + 2 * l2.ipEntries);
}

TEST(IpcpStorage, AuditAcceptsRegionIdsAsWideAsRstTagBits)
{
    FakeHost host;
    IpcpL1Params params;
    params.rstTagBits = 4;
    IpcpL1 p(params);
    p.setHost(&host);
    // Region ids 8 and 9 need the fourth bit.
    touchRegion(p, kBase + 8 * 2048, {kIp});
    touchRegion(p, kBase + 9 * 2048, {kIp});
    EXPECT_NO_THROW(p.audit());
}

// ---- L2 IPCP ------------------------------------------------------------------

TEST(IpcpL2Test, DecodesMetadataAndKickStartsCs)
{
    FakeHost host(CacheLevel::L2);
    IpcpL2 p;
    p.setHost(&host);
    const std::uint32_t meta = encodeMetadata(MetaClass::CS, 2);
    p.operate(kBase, kIp, false, AccessType::Prefetch, meta);
    // Kick-start: degree-4 stride-2 prefetches from the L1 frontier.
    EXPECT_EQ(host.issued.size(), 4u);
    EXPECT_TRUE(host.issuedLine(lineAddr(kBase) + 2));
    EXPECT_TRUE(host.issuedLine(lineAddr(kBase) + 8));
    for (const auto &i : host.issued)
        EXPECT_EQ(i.fillLevel, CacheLevel::L2);
}

TEST(IpcpL2Test, DemandUsesRecordedClass)
{
    FakeHost host(CacheLevel::L2);
    IpcpL2 p;
    p.setHost(&host);
    p.operate(kBase, kIp, false, AccessType::Prefetch,
              encodeMetadata(MetaClass::CS, 3));
    host.clear();
    p.operate(kBase + 0x100000, kIp, false, AccessType::Load, 0);
    EXPECT_EQ(host.issued.size(), 4u);
    EXPECT_TRUE(host.issuedLine(lineAddr(kBase + 0x100000) + 3));
}

TEST(IpcpL2Test, GsDirectionNegative)
{
    FakeHost host(CacheLevel::L2);
    IpcpL2 p;
    p.setHost(&host);
    p.operate(kBase + 16 * kLineSize, kIp, false, AccessType::Prefetch,
              encodeMetadata(MetaClass::GS, -1));
    ASSERT_FALSE(host.issued.empty());
    for (const auto &i : host.issued)
        EXPECT_LT(i.addr, kBase + 16 * kLineSize);
}

TEST(IpcpL2Test, NlClassPrefetchesNextLine)
{
    FakeHost host(CacheLevel::L2);
    IpcpL2 p;
    p.setHost(&host);
    p.operate(kBase, kIp, false, AccessType::Prefetch,
              encodeMetadata(MetaClass::NL, 1));
    ASSERT_EQ(host.issued.size(), 1u);
    EXPECT_EQ(host.issued[0].addr, kBase + kLineSize);
}

TEST(IpcpL2Test, NoneClassErasesState)
{
    FakeHost host(CacheLevel::L2);
    IpcpL2 p;
    p.setHost(&host);
    p.operate(kBase, kIp, false, AccessType::Prefetch,
              encodeMetadata(MetaClass::CS, 2));
    // The L1's class accuracy collapsed: metadata arrives as None.
    p.operate(kBase, kIp, false, AccessType::Prefetch,
              encodeMetadata(MetaClass::None, 0));
    host.clear();
    p.operate(kBase + 0x100000, kIp, false, AccessType::Load, 0);
    EXPECT_TRUE(host.issued.empty());
}

TEST(IpcpL2Test, UnknownIpIsIgnored)
{
    FakeHost host(CacheLevel::L2);
    IpcpL2 p;
    p.setHost(&host);
    p.operate(kBase, kIp, false, AccessType::Load, 0);
    EXPECT_TRUE(host.issued.empty());
}

TEST(IpcpL2Test, StaysInPage)
{
    FakeHost host(CacheLevel::L2);
    IpcpL2 p;
    p.setHost(&host);
    // Trigger near the page end: stride-2 degree-4 would cross.
    p.operate(kBase + (kLinesPerPage - 2) * kLineSize, kIp, false,
              AccessType::Prefetch, encodeMetadata(MetaClass::CS, 2));
    for (const auto &i : host.issued)
        EXPECT_EQ(pageNumber(i.addr),
                  pageNumber(kBase + (kLinesPerPage - 2) * kLineSize));
}

} // namespace
} // namespace bouquet
