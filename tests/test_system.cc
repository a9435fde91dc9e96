/** @file Integration tests: core, system, harness, end-to-end IPCP. */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "harness/experiment.hh"
#include "harness/factory.hh"
#include "harness/table.hh"
#include "trace/suite.hh"
#include "trace/workloads.hh"

#include <memory>
#include <sstream>

namespace bouquet
{
namespace
{

ExperimentConfig
quickConfig()
{
    ExperimentConfig cfg;
    cfg.warmupInstrs = 20'000;
    cfg.simInstrs = 80'000;
    return cfg;
}

TEST(System, SingleCoreRunsAndRetires)
{
    SystemConfig cfg;
    std::vector<GeneratorPtr> w;
    w.push_back(makeWorkload(findTrace("603.bwaves_s-891B")));
    System sys(cfg, std::move(w));
    applyCombo(sys, "none");
    const RunResult r = sys.run(5'000, 20'000);
    EXPECT_GE(r.cores[0].instructions, 20'000u);
    EXPECT_GT(r.cores[0].ipc, 0.0);
    EXPECT_LE(r.cores[0].ipc, 4.0);  // 4-wide core
}

TEST(System, TlbStatsAttributedToCorrectSide)
{
    // Instruction fetches must warm the I-side TLB and data accesses
    // the D-side TLB — a regression guard for the L1I translator
    // wiring, which must route through the instruction-side
    // translation path rather than the data path.
    {
        SystemConfig cfg;
        cfg.core.modelInstructionFetch = true;
        std::vector<GeneratorPtr> w;
        w.push_back(makeWorkload(findTrace("603.bwaves_s-891B")));
        System sys(cfg, std::move(w));
        applyCombo(sys, "none");
        sys.run(2'000, 20'000);
        const TlbStack &tlbs = sys.core(0).tlbs();
        EXPECT_GT(tlbs.itlb().stats().accesses, 0u);
        EXPECT_GT(tlbs.dtlb().stats().accesses, 0u);
    }
    // With instruction fetch off, nothing may be attributed to the
    // ITLB — even with an L1-D prefetcher exercising the D-side
    // translator on every prefetch.
    {
        SystemConfig cfg;
        cfg.core.modelInstructionFetch = false;
        std::vector<GeneratorPtr> w;
        w.push_back(makeWorkload(findTrace("603.bwaves_s-891B")));
        System sys(cfg, std::move(w));
        applyCombo(sys, "l1:nl");
        sys.run(2'000, 20'000);
        const TlbStack &tlbs = sys.core(0).tlbs();
        EXPECT_EQ(tlbs.itlb().stats().accesses, 0u);
        EXPECT_GT(tlbs.dtlb().stats().accesses, 0u);
        EXPECT_GT(sys.l1d(0).stats().pfIssued, 0u);
    }
}

TEST(System, DeterministicRepeat)
{
    auto run_once = [] {
        SystemConfig cfg;
        std::vector<GeneratorPtr> w;
        w.push_back(makeWorkload(findTrace("619.lbm_s-2676B")));
        System sys(cfg, std::move(w));
        applyCombo(sys, "ipcp");
        return sys.run(5'000, 40'000).cores[0].ipc;
    };
    EXPECT_DOUBLE_EQ(run_once(), run_once());
}

/**
 * ipcp_sim --perf times one executed tick in 64, part by part; a
 * timed tick must simulate exactly what an untimed one does, on
 * `traces.size()` cores.
 */
void
expectTickTimingLeavesSimulationUnchanged(
    const std::vector<std::string> &traces)
{
    const std::size_t n = traces.size();
    auto run = [&](TickTimes *split) {
        const SystemConfig cfg = tableIISystem({}, n);
        std::vector<GeneratorPtr> w;
        for (const std::string &t : traces)
            w.push_back(makeWorkload(findTrace(t)));
        auto sys = std::make_unique<System>(cfg, std::move(w));
        applyCombo(*sys, "ipcp");
        sys->timeTicks(split);
        sys->run(5'000, 30'000);
        return sys;
    };
    TickTimes split;
    const std::unique_ptr<System> timed = run(&split);
    const std::unique_ptr<System> plain = run(nullptr);

    const auto a = timed->statRegistry().snapshot();
    const auto b = plain->statRegistry().snapshot();
    ASSERT_EQ(a.size(), b.size());
    for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
        ASSERT_EQ(ia->first, ib->first);
        EXPECT_EQ(ia->second.u, ib->second.u) << ia->first;
        EXPECT_EQ(ia->second.d, ib->second.d) << ia->first;
        EXPECT_EQ(ia->second.buckets, ib->second.buckets) << ia->first;
    }

    const std::uint64_t ticks = timed->perf().ticksExecuted;
    EXPECT_EQ(ticks, plain->perf().ticksExecuted);
    EXPECT_EQ(split.samples, ticks / 64);
    EXPECT_EQ(split.laps[TickTimes::Dram], split.samples);
    // Each sampled tick either ticks or freezes each core's cluster.
    EXPECT_EQ(split.laps[TickTimes::Core] + split.frozen,
              n * split.samples);
    EXPECT_EQ(split.laps[TickTimes::L2], split.laps[TickTimes::Core]);
    EXPECT_EQ(split.clusterTicks, timed->perf().clusterTicks);
    EXPECT_EQ(split.clustersFrozen, timed->perf().clustersFrozen);
    // One core sends L2 misses to the LLC directly: no egress flush.
    EXPECT_EQ(split.laps[TickTimes::Egress], n > 1 ? split.samples : 0u);
    if (!timed->tickEveryCycle()) {  // IPCP_NO_SKIP never scans
        EXPECT_GT(split.laps[TickTimes::Wakeup], 0u);
        EXPECT_GT(split.frozen, 0u);
    }
    double total = 0.0;
    for (unsigned p = 0; p < TickTimes::kParts; ++p)
        total += split.share(static_cast<TickTimes::Part>(p));
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(System, TickTimingLeavesSimulationUnchanged)
{
    {
        SCOPED_TRACE("one core");
        expectTickTimingLeavesSimulationUnchanged({"605.mcf_s-472B"});
    }
    SCOPED_TRACE("two cores");
    expectTickTimingLeavesSimulationUnchanged(
        {"605.mcf_s-472B", "619.lbm_s-2676B"});
}

TEST(System, MultiCoreSharesLlcAndDram)
{
    SystemConfig cfg;
    std::vector<GeneratorPtr> w;
    w.push_back(makeWorkload(findTrace("619.lbm_s-2676B")));
    w.push_back(makeWorkload(findTrace("603.bwaves_s-891B")));
    System sys(cfg, std::move(w));
    applyCombo(sys, "none");
    const RunResult r = sys.run(5'000, 20'000);
    EXPECT_EQ(r.cores.size(), 2u);
    EXPECT_GT(r.cores[0].ipc, 0.0);
    EXPECT_GT(r.cores[1].ipc, 0.0);
    // LLC scaled 2x: 4096 sets.
    EXPECT_EQ(sys.llc().config().sets, 4096u);
}

TEST(System, ContentionSlowsCoresDown)
{
    auto ipc_of = [](unsigned copies) {
        SystemConfig cfg;
        std::vector<GeneratorPtr> w;
        for (unsigned i = 0; i < copies; ++i)
            w.push_back(makeWorkload(findTrace("619.lbm_s-2676B")));
        System sys(cfg, std::move(w));
        applyCombo(sys, "none");
        return sys.run(5'000, 30'000).cores[0].ipc;
    };
    // Four copies share 2 DRAM channels... the single-copy system has
    // one; per-core bandwidth halves, IPC must drop.
    EXPECT_LT(ipc_of(4), ipc_of(1));
}

TEST(System, SerializedLoadsHurtIpc)
{
    auto run_with = [](bool serialize) {
        PointerChaseParams p;
        p.regularFraction = 0.0;
        p.nodeAccesses = 1;
        p.bubble = 6;
        auto gen = std::make_unique<PointerChaseGen>("chase", 3, p);
        // Strip the serialize flag through a wrapper when requested.
        class Unserial : public WorkloadGenerator
        {
          public:
            explicit Unserial(GeneratorPtr inner)
                : inner_(std::move(inner))
            {}
            void
            next(TraceRecord &r) override
            {
                inner_->next(r);
                r.serialize = false;
            }
            void reset() override { inner_->reset(); }
            std::string name() const override { return inner_->name(); }

          private:
            GeneratorPtr inner_;
        };
        std::vector<GeneratorPtr> w;
        if (serialize)
            w.push_back(std::move(gen));
        else
            w.push_back(std::make_unique<Unserial>(std::move(gen)));
        SystemConfig cfg;
        System sys(cfg, std::move(w));
        applyCombo(sys, "none");
        return sys.run(2'000, 20'000).cores[0].ipc;
    };
    EXPECT_LT(run_with(true), run_with(false) * 0.8);
}

TEST(Harness, EnvConfigDefaults)
{
    const ExperimentConfig cfg = ExperimentConfig::fromEnv();
    EXPECT_GT(cfg.simInstrs, 0u);
    EXPECT_GT(cfg.warmupInstrs, 0u);
}

TEST(Harness, UnknownComboThrows)
{
    SystemConfig cfg;
    std::vector<GeneratorPtr> w;
    w.push_back(makeWorkload(findTrace("603.bwaves_s-891B")));
    System sys(cfg, std::move(w));
    EXPECT_THROW(applyCombo(sys, "bogus"), std::invalid_argument);
    EXPECT_THROW(makePrefetcher("bogus", CacheLevel::L1D),
                 std::invalid_argument);
}

TEST(Harness, AllCombosApply)
{
    for (const std::string combo :
         {"none", "ipcp", "ipcp-l1", "spp-ppf-dspatch", "mlop", "bingo",
          "bingo-119k", "tskid", "l1:ip-stride", "l2:spp"}) {
        SystemConfig cfg;
        std::vector<GeneratorPtr> w;
        w.push_back(makeWorkload(findTrace("603.bwaves_s-891B")));
        System sys(cfg, std::move(w));
        EXPECT_NO_THROW(applyCombo(sys, combo)) << combo;
    }
}

TEST(Harness, SampleMixesDeterministic)
{
    const auto a = sampleMixes(memIntensiveTraces(), 4, 5, 42);
    const auto b = sampleMixes(memIntensiveTraces(), 4, 5, 42);
    ASSERT_EQ(a.size(), 5u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].size(), 4u);
        for (std::size_t c = 0; c < 4; ++c)
            EXPECT_EQ(a[i][c].name, b[i][c].name);
    }
}

TEST(Harness, WeightedSpeedupTracksWarmupLength)
{
    // Each alone-IPC is simulated under the caller's config: a second
    // call at another warmup length must not reuse the first call's.
    const TraceSpec &spec = findTrace("603.bwaves_s-891B");
    const AttachFn attach = [](System &s) { applyCombo(s, "none"); };
    MixOutcome mix;
    mix.traces = {spec.name};
    mix.ipc = {1.0};
    ExperimentConfig short_warm = quickConfig();
    short_warm.warmupInstrs = 1'000;
    ExperimentConfig long_warm = short_warm;
    long_warm.warmupInstrs = 20'000;
    const double alone_short = runSingleCore(spec, attach, short_warm).ipc;
    const double alone_long = runSingleCore(spec, attach, long_warm).ipc;
    ASSERT_NE(alone_short, alone_long);
    EXPECT_DOUBLE_EQ(weightedSpeedup(mix, attach, short_warm),
                     1.0 / alone_short);
    EXPECT_DOUBLE_EQ(weightedSpeedup(mix, attach, long_warm),
                     1.0 / alone_long);
}

TEST(Harness, TablePrinterAlignsColumns)
{
    TablePrinter t({"name", "value"});
    t.addRow({"alpha", "1.0"});
    t.addRow({"b", "22.5"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22.5"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Harness, TableNumberFormatting)
{
    EXPECT_EQ(TablePrinter::num(1.23456, 2), "1.23");
    EXPECT_EQ(TablePrinter::pct(1.451), "+45.1%");
    EXPECT_EQ(TablePrinter::pct(0.98), "-2.0%");
}

// ---- end-to-end IPCP behaviour ------------------------------------------

TEST(EndToEnd, IpcpSpeedsUpConstantStride)
{
    const ExperimentConfig cfg = quickConfig();
    const TraceSpec &spec = findTrace("603.bwaves_s-891B");
    const Outcome base = runSingleCore(
        spec, [](System &s) { applyCombo(s, "none"); }, cfg);
    const Outcome ipcp = runSingleCore(
        spec, [](System &s) { applyCombo(s, "ipcp"); }, cfg);
    EXPECT_GT(ipcp.ipc, base.ipc * 1.2);
    EXPECT_LT(ipcp.mpkiL1(), base.mpkiL1() * 0.5);
}

TEST(EndToEnd, IpcpCoversGlobalStreams)
{
    const ExperimentConfig cfg = quickConfig();
    const TraceSpec &spec = findTrace("619.lbm_s-2676B");
    const Outcome ipcp = runSingleCore(
        spec, [](System &s) { applyCombo(s, "ipcp"); }, cfg);
    // GS must dominate the class mix on a streaming workload.
    const auto &fills = ipcp.l1d.pfClassFills;
    EXPECT_GT(fills[static_cast<int>(IpcpClass::GS)],
              fills[static_cast<int>(IpcpClass::CS)]);
    EXPECT_GT(ipcp.l1d.pfUseful, ipcp.l1d.pfFills / 2);
}

TEST(EndToEnd, IpcpHarmlessOnComputeBound)
{
    const ExperimentConfig cfg = quickConfig();
    const TraceSpec &spec = findTrace("641.leela_s-149B");
    const Outcome base = runSingleCore(
        spec, [](System &s) { applyCombo(s, "none"); }, cfg);
    const Outcome ipcp = runSingleCore(
        spec, [](System &s) { applyCombo(s, "ipcp"); }, cfg);
    EXPECT_GT(ipcp.ipc, base.ipc * 0.95);
}

TEST(EndToEnd, MetadataAblationDoesNotWinOverFullIpcp)
{
    const ExperimentConfig cfg = quickConfig();
    const TraceSpec &spec = findTrace("603.bwaves_s-891B");
    IpcpL1Params no_meta;
    no_meta.sendMetadata = false;
    const Outcome full = runSingleCore(
        spec, [](System &s) { applyIpcp(s, IpcpL1Params{}, IpcpL2Params{}); },
        cfg);
    const Outcome ablated = runSingleCore(
        spec,
        [&](System &s) { applyIpcp(s, no_meta, IpcpL2Params{}); },
        cfg);
    EXPECT_GE(full.ipc, ablated.ipc * 0.98);
}

TEST(EndToEnd, WeightedSpeedupIsPerCoreNormalized)
{
    ExperimentConfig cfg = quickConfig();
    const std::vector<TraceSpec> mix{findTrace("603.bwaves_s-891B"),
                                     findTrace("619.lbm_s-2676B")};
    const AttachFn attach = [](System &s) { applyCombo(s, "none"); };
    const MixOutcome out = runMix(mix, attach, cfg);
    const double ws = weightedSpeedup(out, attach, cfg);
    // Each core runs at most as fast as it does alone.
    EXPECT_LE(ws, 2.05);
    EXPECT_GT(ws, 0.5);
}

} // namespace
} // namespace bouquet
