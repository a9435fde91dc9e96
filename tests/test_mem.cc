/** @file Tests for virtual memory and the DRAM model. */

#include <gtest/gtest.h>

#include <set>

#include "mem/dram.hh"
#include "mem/vmem.hh"
#include "tests/test_support.hh"

namespace bouquet
{
namespace
{

using test::CaptureTarget;

// ---- VirtualMemory ------------------------------------------------------

TEST(VirtualMemory, TranslationIsStable)
{
    VirtualMemory vm(20, 1);
    const Addr pa1 = vm.translate(0, 0x12345678);
    const Addr pa2 = vm.translate(0, 0x12345678);
    EXPECT_EQ(pa1, pa2);
}

TEST(VirtualMemory, PageOffsetPreserved)
{
    VirtualMemory vm(20, 1);
    const Addr pa = vm.translate(0, 0x12345678);
    EXPECT_EQ(pa & (kPageSize - 1), 0x12345678u & (kPageSize - 1));
}

TEST(VirtualMemory, DistinctPagesGetDistinctFrames)
{
    VirtualMemory vm(20, 1);
    std::set<Addr> frames;
    for (Addr p = 0; p < 4096; ++p) {
        const Addr pa = vm.translate(0, p << kPageBits);
        EXPECT_TRUE(frames.insert(pageNumber(pa)).second)
            << "frame reused for page " << p;
    }
}

TEST(VirtualMemory, ProcessesAreIsolated)
{
    VirtualMemory vm(20, 1);
    const Addr a = vm.translate(0, 0x1000);
    const Addr b = vm.translate(1, 0x1000);
    EXPECT_NE(pageNumber(a), pageNumber(b));
}

TEST(VirtualMemory, ContiguousVirtualIsScatteredPhysical)
{
    VirtualMemory vm(20, 1);
    int adjacent = 0;
    Addr prev = vm.translate(0, 0);
    for (Addr p = 1; p < 256; ++p) {
        const Addr pa = vm.translate(0, p << kPageBits);
        if (pageNumber(pa) == pageNumber(prev) + 1)
            ++adjacent;
        prev = pa;
    }
    EXPECT_LT(adjacent, 8);  // randomized allocation
}

TEST(VirtualMemory, IsMappedReflectsAllocation)
{
    VirtualMemory vm(20, 1);
    EXPECT_FALSE(vm.isMapped(0, 0x9000));
    vm.translate(0, 0x9000);
    EXPECT_TRUE(vm.isMapped(0, 0x9000));
}

TEST(VirtualMemory, DeterministicAcrossInstances)
{
    VirtualMemory a(20, 5);
    VirtualMemory b(20, 5);
    for (Addr p = 0; p < 64; ++p)
        EXPECT_EQ(a.translate(0, p << kPageBits),
                  b.translate(0, p << kPageBits));
}

// ---- Dram ---------------------------------------------------------------

/** Run the DRAM for `cycles` ticks. */
void
spin(Dram &d, Cycle &clock, Cycle cycles)
{
    for (Cycle i = 0; i < cycles; ++i)
        d.tick(clock++);
}

/**
 * Run the DRAM until `t` holds `count` responses; false if 100k ticks
 * pass first, so a stranded request fails fast instead of hanging.
 */
bool
spinUntil(Dram &d, Cycle &clock, const CaptureTarget &t,
          std::size_t count)
{
    for (Cycle i = 0; i < 100'000 && t.responses.size() < count; ++i)
        d.tick(clock++);
    return t.responses.size() >= count;
}

MemRequest
readReq(LineAddr line, RespTarget *t)
{
    MemRequest r;
    r.line = line;
    r.type = AccessType::Load;
    r.requester = t;
    return r;
}

TEST(Dram, ReadCompletes)
{
    Dram d{DramConfig{}};
    CaptureTarget t;
    Cycle clock = 0;
    ASSERT_TRUE(d.acceptRequest(readReq(100, &t)));
    spin(d, clock, 1000);
    EXPECT_EQ(t.responses.size(), 1u);
    EXPECT_EQ(d.stats().reads, 1u);
}

TEST(Dram, LatencyWithinExpectedBounds)
{
    DramConfig cfg;
    Dram d{cfg};
    CaptureTarget t;
    Cycle clock = 0;
    d.acceptRequest(readReq(100, &t));
    Cycle done = 0;
    for (Cycle i = 0; i < 2000 && t.responses.empty(); ++i) {
        d.tick(clock++);
        done = clock;
    }
    ASSERT_FALSE(t.responses.empty());
    const Cycle min_lat = cfg.rowHitLatency + cfg.busCyclesPerLine +
                          cfg.controllerLatency;
    const Cycle max_lat = cfg.rowMissLatency + cfg.busCyclesPerLine +
                          cfg.controllerLatency + 8;
    EXPECT_GE(done, min_lat);
    EXPECT_LE(done, max_lat);
}

TEST(Dram, RowHitFasterThanRowMiss)
{
    DramConfig cfg;
    Dram d{cfg};
    CaptureTarget t;
    Cycle clock = 0;
    // Prime the row with one access.
    d.acceptRequest(readReq(0, &t));
    spin(d, clock, 1000);
    t.responses.clear();

    // Same row: hit.
    const Cycle start_hit = clock;
    d.acceptRequest(readReq(1, &t));
    ASSERT_TRUE(spinUntil(d, clock, t, 1)) << "row-hit read stranded";
    const Cycle hit_lat = clock - start_hit;
    t.responses.clear();

    // Far line: different row of the same bank layout -> miss.
    const Cycle start_miss = clock;
    d.acceptRequest(readReq(1 << 20, &t));
    ASSERT_TRUE(spinUntil(d, clock, t, 1)) << "row-miss read stranded";
    const Cycle miss_lat = clock - start_miss;

    EXPECT_LT(hit_lat, miss_lat);
    EXPECT_GE(d.stats().rowHits, 1u);
    EXPECT_GE(d.stats().rowMisses, 1u);
}

TEST(Dram, BandwidthBoundStreaming)
{
    DramConfig cfg;
    Dram d{cfg};
    CaptureTarget t;
    Cycle clock = 0;
    // Issue 32 sequential reads; they should complete at roughly one
    // per busCyclesPerLine once the pipe fills.
    unsigned accepted = 0;
    for (Cycle i = 0; i < 100'000 && accepted < 32; ++i) {
        if (d.acceptRequest(readReq(accepted, &t)))
            ++accepted;
        d.tick(clock++);
    }
    ASSERT_EQ(accepted, 32u) << "the queue stopped draining";
    ASSERT_TRUE(spinUntil(d, clock, t, 32))
        << t.responses.size() << " of 32 reads served";
    // 32 lines cannot finish faster than 32 transfers.
    EXPECT_GE(clock, 32 * cfg.busCyclesPerLine);
    // ... and the pipeline should make it far faster than serial
    // (serial would be 32 * (rowHit + transfer + controller)).
    EXPECT_LT(clock, 32 * (cfg.rowHitLatency + cfg.busCyclesPerLine));
}

TEST(Dram, WritesConsumeBandwidthSilently)
{
    Dram d{DramConfig{}};
    Cycle clock = 0;
    MemRequest w;
    w.line = 5;
    w.type = AccessType::Writeback;
    ASSERT_TRUE(d.acceptRequest(w));
    spin(d, clock, 500);
    EXPECT_EQ(d.stats().writes, 1u);
    EXPECT_EQ(d.stats().reads, 0u);
}

TEST(Dram, QueueFullRejects)
{
    DramConfig cfg;
    cfg.queueSize = 4;
    Dram d{cfg};
    CaptureTarget t;
    unsigned accepted = 0;
    for (unsigned i = 0; i < 10; ++i) {
        if (d.acceptRequest(readReq(i * 1000, &t)))
            ++accepted;
    }
    EXPECT_EQ(accepted, 4u);
    EXPECT_GT(d.stats().busyRejects, 0u);
}

TEST(Dram, ChannelsShareLoad)
{
    DramConfig cfg;
    cfg.channels = 2;
    Dram d{cfg};
    CaptureTarget t;
    Cycle clock = 0;
    for (unsigned i = 0; i < 16; ++i)
        ASSERT_TRUE(d.acceptRequest(readReq(i, &t)));
    ASSERT_TRUE(spinUntil(d, clock, t, 16))
        << t.responses.size() << " of 16 reads served";
    // Two channels should be roughly twice as fast as the bus of one.
    EXPECT_LT(clock, 16 * cfg.busCyclesPerLine + 400);
    EXPECT_EQ(d.stats().reads, 16u);
}

TEST(Dram, BytesTransferredCountsBoth)
{
    Dram d{DramConfig{}};
    CaptureTarget t;
    Cycle clock = 0;
    d.acceptRequest(readReq(1, &t));
    MemRequest w;
    w.line = 2;
    w.type = AccessType::Writeback;
    d.acceptRequest(w);
    spin(d, clock, 1000);
    EXPECT_EQ(d.bytesTransferred(), 2 * kLineSize);
}

} // namespace
} // namespace bouquet
