/**
 * The parameterized ipcp-combo grammar (harness/factory.hh) and the
 * design-space-exploration engine (src/dse): grammar round-trips and
 * rejections, deterministic grid enumeration, and a tiny end-to-end
 * successive-halving search — resumable campaign rungs, warm-state
 * reuse across rungs, byte-identical reports under a fixed seed, and
 * the headline-number gate.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dse/dse.hh"
#include "dse/space.hh"
#include "harness/factory.hh"
#include "harness/runner.hh"
#include "trace/suite.hh"
#include "tests/test_support.hh"

namespace bouquet
{
namespace
{

using test::TempDir;

/** Scoped environment override, restored on destruction. */
struct EnvGuard
{
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        had_ = old != nullptr;
        old_ = had_ ? old : "";
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~EnvGuard()
    {
        if (had_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

    const char *name_;
    bool had_ = false;
    std::string old_;
};

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

// ---- combo grammar ----

TEST(IpcpCombo, DefaultsRoundTrip)
{
    Result<IpcpComboParams> p = parseIpcpCombo("ipcp");
    ASSERT_TRUE(p.ok());
    const IpcpComboParams defaults;
    EXPECT_EQ(p.value().l1.ipEntries, defaults.l1.ipEntries);
    EXPECT_TRUE(p.value().useL2);
    EXPECT_EQ(formatIpcpCombo(p.value()), "ipcp");
}

TEST(IpcpCombo, OverridesParseAndFormatCanonically)
{
    Result<IpcpComboParams> p =
        parseIpcpCombo("ipcp:ipEntries=128,gsDefaultDegree=4");
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p.value().l1.ipEntries, 128u);
    EXPECT_EQ(p.value().l1.gsDefaultDegree, 4u);
    EXPECT_EQ(formatIpcpCombo(p.value()),
              "ipcp:ipEntries=128,gsDefaultDegree=4");

    // Key order canonicalizes to registry order.
    Result<IpcpComboParams> swapped =
        parseIpcpCombo("ipcp:gsDefaultDegree=4,ipEntries=128");
    ASSERT_TRUE(swapped.ok());
    EXPECT_EQ(formatIpcpCombo(swapped.value()),
              "ipcp:ipEntries=128,gsDefaultDegree=4");

    // Explicit defaults format away.
    Result<IpcpComboParams> noop = parseIpcpCombo("ipcp:ipEntries=64");
    ASSERT_TRUE(noop.ok());
    EXPECT_EQ(formatIpcpCombo(noop.value()), "ipcp");
}

TEST(IpcpCombo, CoversDoublesBoolsAndL2Keys)
{
    Result<IpcpComboParams> p = parseIpcpCombo(
        "ipcp:highWatermark=0.8,throttling=0,l2CsDegree=2,useL2=1");
    ASSERT_TRUE(p.ok());
    EXPECT_DOUBLE_EQ(p.value().l1.highWatermark, 0.8);
    EXPECT_FALSE(p.value().l1.throttling);
    EXPECT_EQ(p.value().l2.csDegree, 2u);
    const std::string canonical = formatIpcpCombo(p.value());
    Result<IpcpComboParams> again = parseIpcpCombo(canonical);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(formatIpcpCombo(again.value()), canonical);

    Result<IpcpComboParams> no_l2 = parseIpcpCombo("ipcp:useL2=0");
    ASSERT_TRUE(no_l2.ok());
    EXPECT_FALSE(no_l2.value().useL2);
    EXPECT_EQ(formatIpcpCombo(no_l2.value()), "ipcp:useL2=0");
}

TEST(IpcpCombo, UnknownKeysAreUnknownName)
{
    Result<IpcpComboParams> p = parseIpcpCombo("ipcp:ipEntrees=64");
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.error().code, Errc::unknown_name);

    Result<IpcpComboParams> not_ipcp = parseIpcpCombo("mlop");
    ASSERT_FALSE(not_ipcp.ok());
    EXPECT_EQ(not_ipcp.error().code, Errc::unknown_name);
}

TEST(IpcpCombo, MalformedAndOutOfRangeAreCorrupt)
{
    const std::vector<std::string> bad = {
        "ipcp:",                                  // empty list
        "ipcp:ipEntries",                         // no value
        "ipcp:ipEntries=",                        // empty value
        "ipcp:=64",                               // empty key
        "ipcp:ipEntries=abc",                     // junk value
        "ipcp:ipEntries=64,ipEntries=128",        // duplicate key
        "ipcp:ipEntries=100",                     // not a power of two
        "ipcp:csptEntries=0",                     // zero table
        "ipcp:l2IpEntries=48",                    // L2 pow2 too
        "ipcp:highWatermark=1.5",                 // outside [0,1]
        "ipcp:lowWatermark=0.9",                  // crosses the high
        "ipcp:epochFills=0",                      // degenerate epoch
        "ipcp:throttling=2",                      // not a bool
        "ipcp:ipEntries=4294967296",              // past unsigned
        "ipcp:ipTagBits=0",                       // zero-width tag
        "ipcp:ipTagBits=17",                      // past 16-bit field
        "ipcp:rrTagBits=0",
        "ipcp:rrTagBits=17",
        "ipcp:l2IpTagBits=0",
        "ipcp:l2IpTagBits=17",
        "ipcp:rstTagBits=0",
        "ipcp:rstTagBits=4",                      // past 3 region bits
        "ipcp:rstTagBits=32",                     // 1u << 32
    };
    for (const std::string &combo : bad) {
        Result<IpcpComboParams> p = parseIpcpCombo(combo);
        ASSERT_FALSE(p.ok()) << combo;
        EXPECT_EQ(p.error().code, Errc::corrupt) << combo;
        // A width rejection names the offending knob.
        if (combo.find("TagBits=") != std::string::npos) {
            const std::string knob = combo.substr(5, combo.find('=') - 5);
            EXPECT_NE(p.error().message.find(knob + "="),
                      std::string::npos)
                << p.error().message;
        }
    }
}

TEST(IpcpCombo, ParameterizedCombosApplyToASystem)
{
    SystemConfig cfg;
    std::vector<GeneratorPtr> workloads;
    workloads.push_back(
        makeWorkload(memIntensiveTraces().front().name));
    System sys(cfg, std::move(workloads));
    EXPECT_NO_THROW(
        applyCombo(sys, "ipcp:ipEntries=128,gsDefaultDegree=4"));
    // 100 is not a power of two: parseIpcpCombo's Errc::corrupt.
    EXPECT_THROW(applyCombo(sys, "ipcp:ipEntries=100"),
                 std::invalid_argument);
}

TEST(IpcpCombo, SplitComboListKeepsParameterizedCombosWhole)
{
    using V = std::vector<std::string>;
    EXPECT_EQ(splitComboList("none,ipcp,mlop"),
              (V{"none", "ipcp", "mlop"}));
    // The --combo separator is also the parameter separator: a bare
    // k=v segment continues the preceding parameterized combo.
    EXPECT_EQ(
        splitComboList("none,ipcp:ipEntries=128,gsDefaultDegree=6,mlop"),
        (V{"none", "ipcp:ipEntries=128,gsDefaultDegree=6", "mlop"}));
    // Without a parameterized combo before it, k=v stands alone (and
    // fails later with the ordinary unknown-combo error).
    EXPECT_EQ(splitComboList("gsDefaultDegree=6"),
              (V{"gsDefaultDegree=6"}));
    EXPECT_EQ(splitComboList("none,gsDefaultDegree=6"),
              (V{"none", "gsDefaultDegree=6"}));
    EXPECT_EQ(splitComboList(",,ipcp,"), (V{"ipcp"}));
    EXPECT_EQ(splitComboList(""), V{});
}

// ---- search space ----

TEST(SearchSpace, ParsesKnobLists)
{
    Result<dse::SearchSpace> space =
        dse::parseSpace("ipEntries=32|64,gsDefaultDegree=2|4|6");
    ASSERT_TRUE(space.ok());
    ASSERT_EQ(space.value().knobs.size(), 2u);
    EXPECT_EQ(space.value().knobs[0].name, "ipEntries");
    EXPECT_EQ(space.value().knobs[0].values.size(), 2u);
    EXPECT_EQ(space.value().gridSize(), 6u);

    EXPECT_FALSE(dse::parseSpace("").ok());
    EXPECT_FALSE(dse::parseSpace("ipEntries=").ok());
    EXPECT_FALSE(dse::parseSpace("ipEntries=32||64").ok());
    EXPECT_FALSE(dse::parseSpace("ipEntries=32,ipEntries=64").ok());
    Result<dse::SearchSpace> unknown = dse::parseSpace("bogus=1|2");
    ASSERT_FALSE(unknown.ok());
    EXPECT_EQ(unknown.error().code, Errc::unknown_name);
    EXPECT_FALSE(dse::parseSpace("ipEntries=32|abc").ok());
}

TEST(SearchSpace, GridIsDeterministicAndAnchorsTheDefault)
{
    Result<dse::SearchSpace> space =
        dse::parseSpace("ipEntries=32|64|128,gsDefaultDegree=2|6");
    ASSERT_TRUE(space.ok());

    const std::vector<std::string> full =
        dse::enumerateGrid(space.value(), 0, 7);
    // 6 grid points; ipEntries=64,gsDefaultDegree=6 canonicalizes to
    // "ipcp" itself, which is anchored first, so 6 distinct combos.
    EXPECT_EQ(full.size(), 6u);
    EXPECT_EQ(full.front(), "ipcp");
    EXPECT_EQ(full, dse::enumerateGrid(space.value(), 0, 7));

    const std::vector<std::string> sampled =
        dse::enumerateGrid(space.value(), 3, 7);
    EXPECT_LE(sampled.size(), 4u);  // 3 sampled + anchored default
    EXPECT_EQ(sampled.front(), "ipcp");
    EXPECT_EQ(sampled, dse::enumerateGrid(space.value(), 3, 7));
}

// ---- end-to-end search ----

class DseSearchTest : public ::testing::Test
{
  protected:
    void SetUp() override { clearShutdownRequest(); }

    dse::DseOptions
    tinySearch(const std::string &root) const
    {
        dse::DseOptions opts;
        opts.root = root;
        opts.traces = {memIntensiveTraces()[0].name,
                       memIntensiveTraces()[1].name};
        dse::SearchSpace space;
        space.knobs.push_back({"ipEntries", {"32", "128"}});
        space.knobs.push_back({"gsDefaultDegree", {"2", "6"}});
        opts.space = space;
        opts.rungInstrs = {15'000, 40'000};
        opts.warmupInstrs = 5'000;
        opts.seed = 7;
        opts.progress = false;
        return opts;
    }

    // The search manages its own warm dir; keep ambient overrides out.
    EnvGuard warm_dir_{"IPCP_WARM_DIR", nullptr};
    EnvGuard warm_{"IPCP_WARM", nullptr};
};

TEST_F(DseSearchTest, HalvesReusesWarmStateAndReproduces)
{
    TempDir a;
    dse::DseOptions opts = tinySearch(a.file("search"));
    opts.gateOutPath = a.file("gate.txt");
    Result<dse::DseReport> run = dse::runSearch(opts);
    if (!run.ok())
        FAIL() << run.error().message;
    const dse::DseReport report = run.take();

    ASSERT_EQ(report.rungs.size(), 2u);
    // Rung 1 sees the full grid (4 points + anchored default = 5);
    // rung 2 only the survivors.
    EXPECT_EQ(report.rungs[0].candidates.size(), 5u);
    EXPECT_EQ(report.rungs[0].survivors.size(),
              report.rungs[1].candidates.size());
    EXPECT_LT(report.rungs[1].candidates.size(),
              report.rungs[0].candidates.size());
    // Every rung-2 candidate warmed up on rung 1's published states.
    EXPECT_GT(report.rungs[1].totals.warmHits, 0u);
    EXPECT_FALSE(report.bestCombo.empty());
    EXPECT_GT(report.bestScore, 0.0);
    ASSERT_FALSE(report.pareto.empty());
    for (std::size_t i = 1; i < report.pareto.size(); ++i) {
        EXPECT_GT(report.pareto[i].storageBits,
                  report.pareto[i - 1].storageBits);
        EXPECT_GT(report.pareto[i].score,
                  report.pareto[i - 1].score);
    }
    EXPECT_EQ(report.bestPerTrace.size(), opts.traces.size());

    // Same seed, fresh directory: byte-identical report, and the
    // gate the first run pinned passes.
    TempDir b;
    dse::DseOptions again = tinySearch(b.file("search"));
    again.gatePath = a.file("gate.txt");
    Result<dse::DseReport> rerun = dse::runSearch(again);
    ASSERT_TRUE(rerun.ok());
    const std::string report_a =
        readAll(a.file("search") + "/report.json");
    const std::string report_b =
        readAll(b.file("search") + "/report.json");
    ASSERT_FALSE(report_a.empty());
    EXPECT_EQ(report_a, report_b);

    // A tampered gate is a hard failure.
    std::string gate = readAll(a.file("gate.txt"));
    const std::size_t digit = gate.find("geomean=") + 10;
    gate[digit] = gate[digit] == '9' ? '8' : '9';
    {
        std::ofstream f(a.file("tampered.txt"));
        f << gate;
    }
    Status tampered =
        dse::checkGate(a.file("tampered.txt"), report, opts);
    ASSERT_FALSE(tampered.ok());
    EXPECT_EQ(tampered.error().code, Errc::failed);

    // ... unless the drift is within an explicit tolerance.
    dse::DseOptions tolerant = opts;
    tolerant.gateTolerance = 0.5;
    EXPECT_TRUE(
        dse::checkGate(a.file("tampered.txt"), report, tolerant)
            .ok());
}

TEST_F(DseSearchTest, RejectsUnusableOptions)
{
    TempDir dir;
    dse::DseOptions opts = tinySearch(dir.file("search"));
    opts.traces.clear();
    EXPECT_FALSE(dse::runSearch(opts).ok());

    opts = tinySearch(dir.file("search2"));
    opts.rungInstrs = {40'000, 15'000};  // must increase
    EXPECT_FALSE(dse::runSearch(opts).ok());

    opts = tinySearch(dir.file("search3"));
    opts.survivorFraction = 0.0;
    EXPECT_FALSE(dse::runSearch(opts).ok());
}

} // namespace
} // namespace bouquet
