/**
 * @file
 * Property tests over the workload suite: every memory-intensive
 * stand-in must actually exhibit the statistical signature its
 * archetype claims (intensity band, spatial-locality class, store
 * fraction, IP population) — measured directly on the generated
 * stream, no simulation involved.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <set>

#include "trace/suite.hh"
#include "trace/trace.hh"

namespace bouquet
{

/**
 * gtest names each parameterized case's ctest entry after its
 * parameter. Without this, a TraceSpec prints as raw bytes that begin
 * with a heap address, so the names would change from build to build.
 */
void
PrintTo(const TraceSpec &spec, std::ostream *os)
{
    *os << ::testing::PrintToString(spec.name);
}

namespace
{

struct StreamStats
{
    double meanBubble = 0;
    double storeFraction = 0;
    double uniqueLineRate = 0;  //!< distinct lines / accesses
    double samePageNextRate = 0;  //!< successor within same 4K page
    std::size_t distinctIps = 0;
    std::size_t serializedCount = 0;
};

StreamStats
measure(WorkloadGenerator &gen, int n = 20'000)
{
    StreamStats st;
    std::set<LineAddr> lines;
    std::set<Ip> ips;
    double bubbles = 0;
    int stores = 0;
    int same_page = 0;
    Addr prev = 0;
    TraceRecord r;
    for (int i = 0; i < n; ++i) {
        gen.next(r);
        bubbles += r.bubble;
        stores += r.type == AccessType::Store ? 1 : 0;
        st.serializedCount += r.serialize ? 1 : 0;
        lines.insert(lineAddr(r.vaddr));
        ips.insert(r.ip);
        if (i > 0 && pageNumber(r.vaddr) == pageNumber(prev))
            ++same_page;
        prev = r.vaddr;
    }
    st.meanBubble = bubbles / n;
    st.storeFraction = static_cast<double>(stores) / n;
    st.uniqueLineRate = static_cast<double>(lines.size()) / n;
    st.samePageNextRate = static_cast<double>(same_page) / (n - 1);
    st.distinctIps = ips.size();
    return st;
}

class MemIntensiveProps : public ::testing::TestWithParam<TraceSpec>
{
};

TEST_P(MemIntensiveProps, MatchesArchetypeSignature)
{
    GeneratorPtr gen = makeWorkload(GetParam());
    const StreamStats st = measure(*gen);

    // Memory-intensive: at most ~30 non-memory instructions per access.
    EXPECT_LT(st.meanBubble, 30.0) << "not memory-intensive";
    // Some stores, never store-dominated.
    EXPECT_GT(st.storeFraction, 0.005);
    EXPECT_LT(st.storeFraction, 0.5);

    switch (GetParam().archetype) {
      case Archetype::ConstantStride:
      case Archetype::GlobalStream:
      case Archetype::ComplexStride:
      case Archetype::MixedRegular:
        // Spatially regular: successors overwhelmingly stay in-page.
        EXPECT_GT(st.samePageNextRate, 0.35)
            << "regular archetype lost its locality";
        EXPECT_EQ(st.serializedCount, 0u);
        break;
      case Archetype::PointerChase:
        // Scattered and dependent.
        EXPECT_LT(st.samePageNextRate, 0.6);
        EXPECT_GT(st.serializedCount, 1000u);
        break;
      case Archetype::ManyIp:
        EXPECT_GT(st.distinctIps, 1024u)
            << "cactuBSSN stand-in must thrash a 64-entry IP table";
        break;
      default:
        break;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, MemIntensiveProps,
    ::testing::ValuesIn(memIntensiveTraces()),
    [](const ::testing::TestParamInfo<TraceSpec> &info) {
        std::string n = info.param.name;
        for (char &c : n) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return n;
    });

TEST(WorkloadProps, ComputeBoundStandInsAreCacheResident)
{
    for (const TraceSpec &spec : fullSuiteTraces()) {
        if (spec.archetype != Archetype::ComputeBound)
            continue;
        GeneratorPtr gen = makeWorkload(spec);
        const StreamStats st = measure(*gen, 30'000);
        // Low intensity and a footprint far below the L1 line count *
        // a few: distinct lines bounded by footprint/64 <= 704.
        EXPECT_GT(st.meanBubble, 30.0) << spec.name;
        EXPECT_LT(st.uniqueLineRate * 30'000, 1000) << spec.name;
    }
}

TEST(WorkloadProps, ServerStandInsHaveHugeCodeFootprints)
{
    for (const TraceSpec &spec : cloudSuiteTraces()) {
        GeneratorPtr gen = makeWorkload(spec);
        const StreamStats st = measure(*gen, 30'000);
        EXPECT_GT(st.distinctIps, 5000u) << spec.name;
    }
}

TEST(WorkloadProps, NeuralNetStandInsStream)
{
    for (const TraceSpec &spec : neuralNetTraces()) {
        GeneratorPtr gen = makeWorkload(spec);
        const StreamStats st = measure(*gen, 30'000);
        EXPECT_GT(st.samePageNextRate, 0.4) << spec.name;
        EXPECT_LT(st.distinctIps, 32u) << spec.name;
    }
}

} // namespace
} // namespace bouquet
