/**
 * @file
 * Self-tests of the benchmark driver's arithmetic (arith.hh) and of
 * the result digest it uses as its correctness check (simjob.hh).
 * Built and run by `python3 perfbench/run.py --self-test`.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "arith.hh"
#include "hostspeed.hh"
#include "simjob.hh"

namespace perfbench
{
namespace
{

TEST(PrefetchSplit, DifferencesOverMeasuredKinstr)
{
    // 2M instructions: L1 adds 300 + 100 us, L2 adds 50 - 10 us.
    const std::vector<ComboTimes> groups = {
        {1'000'000.0, 1'300'000.0, 1'350'000.0, 1'000'000},
        {2'000'000.0, 2'100'000.0, 2'090'000.0, 1'000'000},
    };
    const PrefetchSplit s = prefetchSplit(groups);
    EXPECT_EQ(s.groups, 2u);
    EXPECT_DOUBLE_EQ(s.l1NsPerKinstr, 400'000.0 / 2000.0);
    EXPECT_DOUBLE_EQ(s.l2NsPerKinstr, 40'000.0 / 2000.0);
}

TEST(PrefetchSplit, IncompleteGroupsAreSkipped)
{
    ComboTimes missing_l1{1000.0, -1.0, 1500.0, 1000};
    ComboTimes no_instrs{1000.0, 1200.0, 1500.0, 0};
    ComboTimes full{1000.0, 900.0, 1500.0, 1000};  // noise: L1 < none
    const PrefetchSplit s = prefetchSplit({missing_l1, no_instrs, full});
    EXPECT_EQ(s.groups, 1u);
    EXPECT_DOUBLE_EQ(s.l1NsPerKinstr, -100.0);
    EXPECT_DOUBLE_EQ(s.l2NsPerKinstr, 600.0);
    EXPECT_EQ(prefetchSplit({missing_l1}).groups, 0u);
    EXPECT_DOUBLE_EQ(prefetchSplit({}).l1NsPerKinstr, 0.0);
}

TEST(KinstrTally, SumsBeforeDividing)
{
    KinstrTally t;
    t.add(10, 1'000);      // 10 per kinstr
    t.add(10, 1'000'000);  // 0.01 per kinstr
    // Weighted by instructions, not the mean of the two rates (5.005).
    EXPECT_DOUBLE_EQ(t.perKinstr(), 20.0 * 1000.0 / 1'001'000.0);
    EXPECT_DOUBLE_EQ(KinstrTally{}.perKinstr(), 0.0);
}

TEST(KinstrTally, RepeatingTheJobListLeavesTheRateBitIdentical)
{
    KinstrTally once;
    KinstrTally thrice;
    const std::uint64_t events[] = {12345, 678, 91011};
    const std::uint64_t instrs[] = {1'000'003, 1'000'001, 999'999};
    for (int pass = 0; pass < 3; ++pass)
        for (int j = 0; j < 3; ++j) {
            if (pass == 0)
                once.add(events[j], instrs[j]);
            thrice.add(events[j], instrs[j]);
        }
    EXPECT_EQ(once.perKinstr(), thrice.perKinstr());
}

TEST(Percentiles, TailNeedsTenSamplesBeyond)
{
    EXPECT_EQ(tailPermille(0), 0u);
    EXPECT_EQ(tailPermille(19), 0u);
    EXPECT_EQ(tailPermille(20), 500u);
    EXPECT_EQ(tailPermille(99), 500u);
    EXPECT_EQ(tailPermille(100), 900u);  // exactly ten above p90
    EXPECT_EQ(tailPermille(999), 900u);
    EXPECT_EQ(tailPermille(1000), 990u);
    EXPECT_EQ(tailPermille(9999), 990u);
    EXPECT_EQ(tailPermille(10000), 999u);
}

TEST(Percentiles, NearestRankAndMedian)
{
    const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(percentile(v, 500), 2.0);
    EXPECT_DOUBLE_EQ(percentile(v, 900), 4.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile({}, 500), 0.0);
    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i)
        hundred.push_back(i);
    EXPECT_DOUBLE_EQ(percentile(hundred, 900), 90.0);  // 10 beyond it
    EXPECT_DOUBLE_EQ(median(v), 2.5);
    EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(ReferenceSeconds, ScalesByKernelTime)
{
    EXPECT_DOUBLE_EQ(referenceSeconds(2.0, kReferenceMs), 2.0);
    EXPECT_DOUBLE_EQ(referenceSeconds(2.0, 2 * kReferenceMs), 1.0);
    // A host twice as slow stretches both times: no change.
    EXPECT_DOUBLE_EQ(referenceSeconds(3.0, 12.0),
                     referenceSeconds(6.0, 24.0));
}

TEST(ReferenceSeconds, KernelTakesMeasurableTime)
{
    HostSpeed host;
    const double a = host.sampleMs();
    const double b = host.sampleMs();
    EXPECT_GT(a, 0.0);
    EXPECT_GT(b, 0.0);
}

/** A job list small enough to simulate in milliseconds. */
std::vector<SimJob>
tinyJobs()
{
    const bouquet::TraceSpec &mcf = bouquet::findTrace("605.mcf_s-472B");
    const bouquet::TraceSpec &lbm = bouquet::findTrace("619.lbm_s-2676B");
    return {
        {{mcf}, "none", 2'000, 10'000},
        {{mcf}, "ipcp", 2'000, 10'000},
        {{lbm, mcf}, "ipcp", 1'000, 5'000},
    };
}

TEST(Digest, StableAcrossRepeatsAndRoutes)
{
    std::vector<std::uint64_t> seen;
    for (const SimJob &job : tinyJobs()) {
        const SimResult a = runUntraced(job);
        const SimResult b = runUntraced(job);
        const TracedRun t = runTraced(job, true);
        EXPECT_EQ(digest(a), digest(b)) << job.label();
        EXPECT_EQ(digest(a), digest(t.result)) << job.label();
        EXPECT_FALSE(t.warmState.empty()) << job.label();
        EXPECT_GT(t.measureNs, 0.0);
        seen.push_back(digest(a));
    }
    // Different combos and core counts are different results.
    EXPECT_NE(seen[0], seen[1]);
    EXPECT_NE(seen[1], seen[2]);
}

TEST(Digest, CoversSimulatedFieldsButNotHostCounters)
{
    const SimResult base = runUntraced(tinyJobs()[0]);
    SimResult r = base;
    r.ticks += 1;
    r.skipped += 7;
    EXPECT_EQ(digest(r), digest(base));
    r = base;
    r.llc.pfClassLate[3] += 1;  // the last field CacheStats serializes
    EXPECT_NE(digest(r), digest(base));
    r = base;
    r.dram.dataCycles += 1;
    EXPECT_NE(digest(r), digest(base));
    r = base;
    r.cores[0].ipc = std::nextafter(r.cores[0].ipc, 10.0);
    EXPECT_NE(digest(r), digest(base));
}

TEST(Accumulate, AddsEveryCounter)
{
    bouquet::CacheStats a;
    bouquet::CacheStats b;
    a.pfIssued = 3;
    a.pfClassIssued[1] = 2;
    b.pfIssued = 4;
    b.pfClassIssued[1] = 5;
    b.misses[0] = 9;
    accumulate(a, b);
    EXPECT_EQ(a.pfIssued, 7u);
    EXPECT_EQ(a.pfClassIssued[1], 7u);
    EXPECT_EQ(a.misses[0], 9u);
}

} // namespace
} // namespace perfbench
