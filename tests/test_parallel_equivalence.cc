/**
 * @file
 * Multi-core tick equivalence tests (DESIGN.md §5f). With more than
 * one core, System::tickAll parks every L2→LLC request and flushes
 * them in core order at the end of the cycle (deferred egress), so
 * per-core clusters never touch shared state mid-tick. These tests
 * check that the event-skipping loop reproduces the tick-every-cycle
 * loop on that path (and on the single-core direct path), and that
 * the structure-of-arrays cache state round-trips through a
 * checkpoint. The skip tests compare per-core instructions and
 * cycles and the complete stats-JSON document; the round trip compares
 * the full serialized machine state.
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
#include "harness/factory.hh"
#include "harness/statsjson.hh"
#include "trace/suite.hh"

namespace bouquet
{
namespace
{

std::vector<std::string>
tracesFor(unsigned cores)
{
    const std::vector<std::string> pool = {
        "605.mcf_s-472B",    "619.lbm_s-2676B", "603.bwaves_s-891B",
        "602.gcc_s-734B",    "621.wrf_s-575B",  "649.fotonik3d_s-7084B",
        "654.roms_s-842B",   "657.xz_s-2302B"};
    return {pool.begin(), pool.begin() + cores};
}

std::unique_ptr<System>
buildSystem(unsigned cores, bool tick_every_cycle)
{
    SystemConfig cfg;
    cfg.tickEveryCycle = tick_every_cycle;
    cfg.dram.channels = cores > 1 ? 2 : 1;

    std::vector<GeneratorPtr> workloads;
    for (const std::string &t : tracesFor(cores))
        workloads.push_back(makeWorkload(findTrace(t)));

    auto sys = std::make_unique<System>(cfg, std::move(workloads));
    applyCombo(*sys, "ipcp");
    return sys;
}

/** Run a small workload and capture its simulated observables. */
struct Capture
{
    RunResult run;
    std::string statsJson;  //!< complete stats document
};

Capture
simulate(unsigned cores, bool tick_every_cycle)
{
    std::unique_ptr<System> sys = buildSystem(cores, tick_every_cycle);

    Capture cap;
    cap.run = sys->run(2'000, 10'000);

    const std::string path =
        ::testing::TempDir() + "/par_eq_stats_" +
        std::to_string(cores) + "_" + (tick_every_cycle ? "ns" : "sk") +
        ".json";
    const Status st = publishFile(path, formatSystemStatsJson(*sys, "par-eq"));
    EXPECT_TRUE(st.ok());
    std::ifstream in(path, std::ios::binary);
    std::ostringstream body;
    body << in.rdbuf();
    cap.statsJson = body.str();
    std::remove(path.c_str());
    return cap;
}

void
expectSameResults(const Capture &a, const Capture &b, const char *what)
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
 * Skip and no-skip agree at both ends of the core-count range: the
 * single-core direct path and eight clusters sharing the LLC through
 * deferred egress. Only simulated observables are compared (see
 * SkipModesAgreeUnderDeferredEgress).
 */
TEST(ParallelEquivalence, ThreadCountMatrixBitIdentical)
{
    for (const unsigned cores : {1u, 8u}) {
        const std::string what =
            std::to_string(cores) + "c skip-vs-noskip";
        expectSameResults(simulate(cores, false), simulate(cores, true),
                          what.c_str());
    }
}

/**
 * Skip and no-skip agree under the deferred-egress multi-core path.
 * Only simulated observables are compared: the serialized payload also
 * carries host-side perf counters and watchdog bookkeeping, which
 * differ between the two loop modes by design.
 */
TEST(ParallelEquivalence, SkipModesAgreeUnderDeferredEgress)
{
    expectSameResults(simulate(4, false), simulate(4, true),
                      "4c skip-vs-noskip");
}

/**
 * StateIO round-trip over the structure-of-arrays cache state: a
 * checkpoint taken mid-run restores into a fresh System whose
 * re-serialization is byte-identical, and both finish the run with
 * identical results.
 */
TEST(ParallelEquivalence, SoaStateRoundTripsThroughCheckpoint)
{
    std::unique_ptr<System> a = buildSystem(4, false);
    a->run(2'000, 4'000);

    StateIO w = StateIO::writer();
    a->serialize(w);
    const std::vector<std::uint8_t> saved = w.takeBuffer();

    std::unique_ptr<System> b = buildSystem(4, false);
    StateIO r = StateIO::reader(saved);
    b->serialize(r);
    r.expectEnd();
    b->audit(true);

    StateIO w2 = StateIO::writer();
    b->serialize(w2);
    EXPECT_TRUE(w2.takeBuffer() == saved)
        << "restored machine re-serializes differently";
}

} // namespace
} // namespace bouquet
