/**
 * @file
 * Sparse ticking tests (DESIGN.md §5c). At every core count the skip
 * loop leaves a core's private cluster (L2, L1D, L1I, core) unticked
 * while none of its members has work due, and thaws it at its own
 * wakeup, when the LLC responds into its L2, and before the whole
 * machine is read or written. A cluster whose L2 holds a prefetch
 * head refused by the LLC is never frozen. These tests run one-core
 * machines and mixes that drive each of those paths against the
 * tick-every-cycle loop and compare per-core instructions and cycles
 * and the full stats JSON; the resume tests restore a checkpoint
 * taken while a cluster was frozen.
 */

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
#include "harness/experiment.hh"
#include "harness/factory.hh"
#include "harness/statsjson.hh"
#include "trace/suite.hh"

namespace bouquet
{
namespace
{

/** A machine and its workload mix to run both ways. */
struct Mix
{
    std::vector<std::string> traces;
    std::string combo = "ipcp";
    Cycle busCyclesPerLine = DramConfig{}.busCyclesPerLine;
    std::uint32_t llcQueue = 0;  //!< per-core LLC rq/pq size; 0 = default
};

/** One compute-bound core next to pointer-chase cores. */
std::vector<std::string>
computeNextToChase(unsigned cores)
{
    const std::vector<std::string> chase = {
        "605.mcf_s-472B", "620.omnetpp_s-141B", "605.mcf_s-1536B",
        "605.mcf_s-994B", "620.omnetpp_s-874B", "605.mcf_s-665B",
        "605.mcf_s-782B"};
    std::vector<std::string> t = {"641.leela_s-149B"};
    t.insert(t.end(), chase.begin(), chase.begin() + (cores - 1));
    return t;
}

std::unique_ptr<System>
build(const Mix &mix, bool tick_every_cycle)
{
    SystemConfig cfg = tableIISystem({}, mix.traces.size());
    cfg.tickEveryCycle = tick_every_cycle;
    cfg.dram.busCyclesPerLine = mix.busCyclesPerLine;
    if (mix.llcQueue != 0) {
        // Scaled by the core count, as every LLC queue is.
        cfg.llcPerCore.rqSize = mix.llcQueue;
        cfg.llcPerCore.pqSize = mix.llcQueue;
    }
    std::vector<GeneratorPtr> workloads;
    for (const std::string &t : mix.traces)
        workloads.push_back(makeWorkload(findTrace(t)));
    auto sys = std::make_unique<System>(cfg, std::move(workloads));
    applyCombo(*sys, mix.combo);
    return sys;
}

/** The simulated observables of one run. */
struct Capture
{
    RunResult run;
    std::string statsJson;  //!< complete stats document
};

Capture
finish(System &sys, std::uint64_t warmup, std::uint64_t sim)
{
    Capture cap;
    cap.run = sys.run(warmup, sim);
    // ctest runs tests as concurrent processes: a per-test file name.
    const std::string path =
        ::testing::TempDir() + "/sparse_stats_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".json";
    EXPECT_TRUE(publishFile(path, formatSystemStatsJson(sys, "sparse")).ok());
    std::ifstream in(path, std::ios::binary);
    std::ostringstream body;
    body << in.rdbuf();
    cap.statsJson = body.str();
    std::remove(path.c_str());
    return cap;
}

void
expectSame(const Capture &a, const Capture &b, const std::string &what)
{
    ASSERT_EQ(a.run.cores.size(), b.run.cores.size()) << what;
    for (std::size_t c = 0; c < a.run.cores.size(); ++c) {
        EXPECT_EQ(a.run.cores[c].instructions,
                  b.run.cores[c].instructions)
            << what << " core " << c;
        EXPECT_EQ(a.run.cores[c].cycles, b.run.cores[c].cycles)
            << what << " core " << c;
    }
    EXPECT_EQ(a.run.measuredCycles, b.run.measuredCycles) << what;
    EXPECT_TRUE(a.statsJson == b.statsJson)
        << what << ": stats JSON differs";
}

/**
 * The sparse loop against tick-every-cycle. Also checks that the
 * sparse run froze clusters (unless skipping is off for the whole
 * process) and that ticked plus frozen cluster slots cover every
 * executed tick.
 */
void
expectMatchesTickEveryCycle(const Mix &mix, const std::string &what,
                            std::uint64_t warmup = 3'000,
                            std::uint64_t sim = 12'000)
{
    std::unique_ptr<System> sparse = build(mix, false);
    const Capture a = finish(*sparse, warmup, sim);
    const Capture b = finish(*build(mix, true), warmup, sim);
    expectSame(a, b, what);

    const PerfCounters &perf = sparse->perf();
    if (sparse->tickEveryCycle())
        return;  // IPCP_NO_SKIP: nothing can freeze
    EXPECT_GT(perf.clustersFrozen, 0u) << what;
    EXPECT_EQ(perf.clusterTicks + perf.clustersFrozen,
              perf.ticksExecuted * mix.traces.size())
        << what;
}

TEST(SparseClusters, PointerChaseAndComputeMatchOnOneCore)
{
    Mix mix;
    for (const char *trace : {"605.mcf_s-472B", "641.leela_s-149B"}) {
        mix.traces = {trace};
        expectMatchesTickEveryCycle(mix, std::string("1c ipcp ") + trace);
    }
}

TEST(SparseClusters, SmallLlcQueuesMatchOnOneCore)
{
    // Two-entry LLC queues behind a slow bus: the L2's prefetch heads
    // block on LLC queue space, which pins its cluster unfrozen.
    Mix mix;
    mix.traces = {"605.mcf_s-472B"};
    mix.combo = "spp-ppf-dspatch";
    mix.llcQueue = 2;
    mix.busCyclesPerLine = 80;
    expectMatchesTickEveryCycle(mix, "1c spp-ppf-dspatch llc queues 2");
}

TEST(SparseClusters, ComputeNextToChaseMatchesOnTwoCores)
{
    Mix mix;
    mix.traces = computeNextToChase(2);
    expectMatchesTickEveryCycle(mix, "2c ipcp");
    mix.combo = "spp-ppf-dspatch";
    mix.busCyclesPerLine = 80;
    expectMatchesTickEveryCycle(mix, "2c spp-ppf-dspatch bus 80");
}

TEST(SparseClusters, ComputeNextToChaseMatchesOnFourCores)
{
    Mix mix;
    mix.traces = computeNextToChase(4);
    expectMatchesTickEveryCycle(mix, "4c ipcp");
    mix.busCyclesPerLine = 80;
    expectMatchesTickEveryCycle(mix, "4c ipcp bus 80");
}

TEST(SparseClusters, SmallLlcQueuesMatchOnFourCores)
{
    // Two-entry LLC queues per core: L2 prefetch heads block on LLC
    // queue space, the wait a frozen cluster could not see end.
    Mix mix;
    mix.traces = {"605.mcf_s-472B", "619.lbm_s-2676B",
                  "603.bwaves_s-891B", "641.leela_s-149B"};
    mix.llcQueue = 2;
    expectMatchesTickEveryCycle(mix, "4c ipcp llc queues 2");
    mix.combo = "spp-ppf-dspatch";
    expectMatchesTickEveryCycle(mix, "4c spp-ppf-dspatch llc queues 2");
}

TEST(SparseClusters, MixedMatchesOnEightCores)
{
    Mix mix;
    mix.traces = computeNextToChase(4);
    for (const char *t : {"619.lbm_s-2676B", "603.bwaves_s-891B",
                          "602.gcc_s-734B", "621.wrf_s-575B"})
        mix.traces.push_back(t);
    mix.llcQueue = 4;
    expectMatchesTickEveryCycle(mix, "8c ipcp llc queues 4", 2'000,
                                8'000);
    mix.combo = "spp-ppf-dspatch";
    mix.busCyclesPerLine = 80;
    expectMatchesTickEveryCycle(mix, "8c spp-ppf-dspatch bus 80", 2'000,
                                8'000);
}

/**
 * A checkpoint taken mid-measurement while a cluster is frozen
 * restores into a fresh System that finishes exactly like the run
 * that saved it, and like one that never saved.
 */
void
expectResumeFromFrozenCheckpoint(const Mix &mix)
{
    constexpr std::uint64_t kWarmup = 3'000;
    constexpr std::uint64_t kSim = 12'000;
    const std::string path =
        ::testing::TempDir() + "/sparse_resume_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".ckpt";
    std::remove(path.c_str());

    std::unique_ptr<System> saver = build(mix, false);
    saver->setCheckpointEvery(50'000, path);
    const Capture whole = finish(*saver, kWarmup, kSim);
    expectSame(whole, finish(*build(mix, false), kWarmup, kSim),
               "periodic saves");

    std::unique_ptr<System> resumed = build(mix, false);
    ASSERT_TRUE(resumed->loadCheckpoint(path).ok());
    std::remove(path.c_str());
    // Saved mid-measurement: the warmup boundary's stats reset has
    // happened and the saving run went on past the save.
    EXPECT_LT(resumed->core(0).retiredSinceReset(),
              resumed->core(0).retired());
    EXPECT_LT(resumed->cycle(), saver->cycle());
    if (!resumed->tickEveryCycle()) {
        EXPECT_GT(resumed->frozenClusters(), 0u)
            << "no cluster was frozen at the save";
    }
    expectSame(whole, finish(*resumed, kWarmup, kSim), "resumed");
}

TEST(SparseClusters, ResumeFromFrozenCheckpointMatchesUninterrupted)
{
    Mix mix;
    mix.traces = computeNextToChase(4);
    expectResumeFromFrozenCheckpoint(mix);
}

TEST(SparseClusters, ResumeFromFrozenOneCoreCheckpointMatches)
{
    Mix mix;
    mix.traces = {"605.mcf_s-472B"};
    expectResumeFromFrozenCheckpoint(mix);
}

} // namespace
} // namespace bouquet
