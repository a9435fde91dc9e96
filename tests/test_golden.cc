/**
 * @file
 * Golden-model property tests: the Cache's tag-array behaviour is
 * cross-checked against a trivially correct reference (a map-backed
 * set-associative LRU model) under randomized traffic, and whole-system
 * invariants (request conservation, determinism across every workload
 * archetype) are asserted.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "cache/cache.hh"
#include "common/rng.hh"
#include "core/system.hh"
#include "harness/factory.hh"
#include "tests/test_support.hh"
#include "trace/suite.hh"

namespace bouquet
{
namespace
{

using test::CaptureTarget;
using test::StubMemory;

/** Reference set-associative LRU cache over line addresses. */
class GoldenCache
{
  public:
    GoldenCache(std::uint32_t sets, std::uint32_t ways)
        : sets_(sets), ways_(ways), sets_data_(sets)
    {}

    /** Access a line; returns true on hit. Fills on miss. */
    bool
    access(LineAddr line)
    {
        auto &set = sets_data_[line % sets_];
        for (std::size_t i = 0; i < set.size(); ++i) {
            if (set[i] == line) {
                // Move to MRU position.
                set.erase(set.begin() + static_cast<std::ptrdiff_t>(i));
                set.push_back(line);
                return true;
            }
        }
        if (set.size() >= ways_)
            set.erase(set.begin());
        set.push_back(line);
        return false;
    }

  private:
    std::uint32_t sets_;
    std::uint32_t ways_;
    std::vector<std::vector<LineAddr>> sets_data_;
};

TEST(GoldenModel, CacheMatchesLruReferenceUnderRandomTraffic)
{
    CacheConfig cfg;
    cfg.level = CacheLevel::L2;
    cfg.sets = 16;
    cfg.ways = 4;
    cfg.latency = 1;
    cfg.mshrs = 1;   // serialize misses so ordering matches the model
    cfg.rqSize = 1;
    cfg.repl = ReplPolicy::LRU;

    Cache cache(cfg);
    StubMemory memory(3);
    CaptureTarget core;
    cache.setLower(&memory);
    GoldenCache golden(cfg.sets, cfg.ways);

    Rng rng(99);
    Cycle clock = 0;
    std::uint64_t hits = 0, misses = 0, ghits = 0, gmisses = 0;

    for (int i = 0; i < 5000; ++i) {
        const LineAddr line = rng.below(128);  // hot enough to hit
        // Drive the cache to completion for each access so the golden
        // model's sequential semantics apply.
        MemRequest req;
        req.line = line;
        req.type = AccessType::Load;
        req.requester = &core;
        req.id = static_cast<std::uint64_t>(i);
        while (!cache.acceptRequest(req)) {
            memory.tick(clock);
            cache.tick(clock);
            ++clock;
        }
        const std::size_t before = core.responses.size();
        while (core.responses.size() == before) {
            memory.tick(clock);
            cache.tick(clock);
            ++clock;
        }
        golden.access(line) ? ++ghits : ++gmisses;
    }
    hits = cache.stats().demandHits();
    misses = cache.stats().demandMisses();

    EXPECT_EQ(hits, ghits);
    EXPECT_EQ(misses, gmisses);
}

TEST(GoldenModel, EveryFetchGetsExactlyOneResponse)
{
    CacheConfig cfg;
    cfg.level = CacheLevel::L2;
    cfg.sets = 8;
    cfg.ways = 2;
    cfg.mshrs = 4;
    Cache cache(cfg);
    StubMemory memory(20);
    CaptureTarget core;
    cache.setLower(&memory);

    Rng rng(123);
    Cycle clock = 0;
    std::uint64_t accepted = 0;
    for (int i = 0; i < 2000; ++i) {
        MemRequest req;
        req.line = rng.below(64);
        req.type = AccessType::Load;
        req.requester = &core;
        req.id = static_cast<std::uint64_t>(i);
        if (cache.acceptRequest(req))
            ++accepted;
        memory.tick(clock);
        cache.tick(clock);
        ++clock;
    }
    for (int i = 0; i < 500; ++i) {
        memory.tick(clock);
        cache.tick(clock);
        ++clock;
    }
    // Conservation: every accepted load answered exactly once.
    EXPECT_EQ(core.responses.size(), accepted);
}

/** Determinism sweep: same (workload, combo) => bit-identical IPC. */
class ArchetypeDeterminism
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ArchetypeDeterminism, RunTwiceSameIpc)
{
    auto once = [&] {
        SystemConfig cfg;
        std::vector<GeneratorPtr> w;
        w.push_back(makeWorkload(findTrace(GetParam())));
        System sys(cfg, std::move(w));
        applyCombo(sys, "ipcp");
        return sys.run(10'000, 60'000).cores[0].ipc;
    };
    EXPECT_DOUBLE_EQ(once(), once());
}

INSTANTIATE_TEST_SUITE_P(
    Archetypes, ArchetypeDeterminism,
    ::testing::Values("603.bwaves_s-891B", "627.cam4_s-490B",
                      "619.lbm_s-2676B", "605.mcf_s-1536B",
                      "607.cactuBSSN_s-2421B", "641.leela_s-149B",
                      "cassandra", "vgg-19", "654.roms_s-842B",
                      "657.xz_s-2302B"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string n = info.param;
        for (char &c : n) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return n;
    });

/** Prefetching must never break correctness-ish invariants. */
class ComboInvariants : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ComboInvariants, StatsAreConsistent)
{
    SystemConfig cfg;
    std::vector<GeneratorPtr> w;
    w.push_back(makeWorkload(findTrace("619.lbm_s-2676B")));
    System sys(cfg, std::move(w));
    applyCombo(sys, GetParam());
    const RunResult r = sys.run(10'000, 80'000);

    EXPECT_GT(r.cores[0].ipc, 0.0);
    for (Cache *c : {&sys.l1d(0), &sys.l2(0), &sys.llc()}) {
        const CacheStats &s = c->stats();
        EXPECT_EQ(s.demandAccesses(),
                  s.demandHits() + s.demandMisses() + s.mshrMerges)
            << c->config().name;
        EXPECT_LE(s.pfUseful, s.pfFills + s.pfIssued)
            << c->config().name;
        EXPECT_LE(s.pfIssued, s.pfRequested + s.accesses[static_cast<int>(
                                  AccessType::Prefetch)])
            << c->config().name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Combos, ComboInvariants,
    ::testing::Values("none", "ipcp", "ipcp-l1", "spp-ppf-dspatch",
                      "mlop", "bingo", "tskid"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string n = info.param;
        for (char &c : n) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return n;
    });

} // namespace
} // namespace bouquet
