/** @file Tests for the bench plumbing: disk cache and fingerprints. */

#include <gtest/gtest.h>

#include <cstdlib>

#include "bench/bench_util.hh"
#include "tests/test_support.hh"

namespace bouquet
{
namespace
{

using namespace bouquet::bench;

TEST(BenchUtil, FingerprintSeparatesConfigs)
{
    SystemConfig a;
    SystemConfig b;
    EXPECT_EQ(systemFingerprint(a), systemFingerprint(b));
    b.dram.busCyclesPerLine = 80;
    EXPECT_NE(systemFingerprint(a), systemFingerprint(b));
    SystemConfig c;
    c.l1d.mshrs = 4;
    EXPECT_NE(systemFingerprint(a), systemFingerprint(c));
    SystemConfig d;
    d.llcPerCore.repl = ReplPolicy::SHiP;
    EXPECT_NE(systemFingerprint(a), systemFingerprint(d));
}

TEST(BenchUtil, NamedComboLabelsMatch)
{
    const Combo c = namedCombo("ipcp");
    EXPECT_EQ(c.label, "ipcp");
    EXPECT_TRUE(static_cast<bool>(c.attach));
}

TEST(BenchUtil, TableIIISetEndsWithIpcp)
{
    const auto combos = tableIIIComboSet();
    ASSERT_EQ(combos.size(), 5u);
    EXPECT_EQ(combos.back().label, "ipcp");
}

TEST(BenchUtil, RunIsDiskCachedAndStable)
{
    // Point the cache at a scratch file so this test is hermetic. The
    // directory lives as long as the process: the bench's store keeps
    // the path it first saw.
    static const test::TempDir dir;
    setenv("IPCP_CACHE_FILE", dir.file("bench_cache.bin").c_str(), 1);

    ExperimentConfig cfg;
    cfg.simInstrs = 30'000;
    cfg.warmupInstrs = 5'000;
    const std::vector<TraceSpec> traces{findTrace("641.leela_s-149B"),
                                        findTrace("619.lbm_s-2676B")};
    const std::vector<Combo> combos{namedCombo("none"),
                                    namedCombo("ipcp")};

    const auto first = runBatch(traces, combos, cfg);
    const auto second = runBatch(traces, combos, cfg);
    EXPECT_EQ(runner().lastBatch().cached, 4u);
    EXPECT_EQ(runner().lastBatch().executed, 0u);
    ASSERT_EQ(second.size(), combos.size());
    for (std::size_t c = 0; c < combos.size(); ++c) {
        ASSERT_EQ(second[c].size(), traces.size());
        for (std::size_t t = 0; t < traces.size(); ++t) {
            ASSERT_TRUE(first[c][t].ok) << first[c][t].error;
            ASSERT_TRUE(second[c][t].ok) << second[c][t].error;
            const Outcome &a = first[c][t].outcome;
            const Outcome &b = second[c][t].outcome;
            EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
            EXPECT_EQ(a.instructions, b.instructions);
            EXPECT_EQ(a.cycles, b.cycles);
            EXPECT_EQ(a.l1d.demandMisses(), b.l1d.demandMisses());
            EXPECT_EQ(a.l1d.pfUseful, b.l1d.pfUseful);
            EXPECT_EQ(a.dramBytes, b.dramBytes);
        }
    }
}

TEST(BenchUtil, SensitivitySubsetIsValid)
{
    const auto subset = sensitivitySubset();
    EXPECT_EQ(subset.size(), 12u);
    for (const TraceSpec &t : subset)
        EXPECT_NO_THROW(findTrace(t.name));
}

} // namespace
} // namespace bouquet
