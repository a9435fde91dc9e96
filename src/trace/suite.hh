/**
 * @file
 * Named synthetic stand-ins for the benchmark traces used in the paper:
 * the 46 memory-intensive SPEC CPU 2017 DPC-3 traces (LLC MPKI >= 1),
 * the full 98-trace suite, the CloudSuite four-benchmark set and the
 * CNN/RNN set of Fig. 14.
 *
 * Each stand-in is named after the DPC-3 trace it substitutes (e.g.
 * "605.mcf_s-1536B") and is built from the archetype whose access
 * pattern the paper attributes to that benchmark. See DESIGN.md §4.
 */

#ifndef BOUQUET_TRACE_SUITE_HH
#define BOUQUET_TRACE_SUITE_HH

#include <string>
#include <vector>

#include "common/errors.hh"
#include "trace/trace.hh"

namespace bouquet
{

/** Access-pattern archetype implementing a trace stand-in. */
enum class Archetype
{
    ConstantStride,  //!< bwaves/pop2/fotonik-like
    ComplexStride,   //!< nab/cam4-like (3,3,4 and 1,2 patterns)
    GlobalStream,    //!< lbm/gcc-like bursty dense regions
    PointerChase,    //!< mcf/omnetpp-like dependent irregular
    ManyIp,          //!< cactuBSSN-like (IP-table thrash)
    ComputeBound,    //!< cache-resident, low MPKI
    Server,          //!< CloudSuite-like
    TiledStream,     //!< CNN/RNN-like
    MixedRegular,    //!< phased CS + GS (wrf/roms-like)
    IrregularLight,  //!< xalancbmk/xz-like moderate irregularity
    File,            //!< captured trace file ("file:<path>")
};

/** Specification of one named workload stand-in. */
struct TraceSpec
{
    std::string name;      //!< DPC-3-style trace name
    Archetype archetype;
    std::uint64_t seed;    //!< deterministic variation between traces
    /**
     * Memory intensity knob in (0, 1]: scales the non-memory bubble so
     * that stand-ins for high-MPKI traces issue memory operations more
     * densely. 1.0 is the densest.
     */
    double intensity = 1.0;
};

/** The 46 memory-intensive trace stand-ins (paper's main set). */
const std::vector<TraceSpec> &memIntensiveTraces();

/** The full 98-trace suite (memory-intensive set included). */
const std::vector<TraceSpec> &fullSuiteTraces();

/** CloudSuite stand-ins (Fig. 14a). */
const std::vector<TraceSpec> &cloudSuiteTraces();

/** CNN/RNN stand-ins (Fig. 14b). */
const std::vector<TraceSpec> &neuralNetTraces();

/**
 * True when `name` designates a captured trace file rather than a
 * suite stand-in: "file:<path>". Each instantiation decodes the file
 * into its own TraceFileGenerator. File traces work anywhere a suite
 * name does (runner jobs, campaign manifests, ipcp_sim --trace).
 */
bool isFileTrace(const std::string &name);

/** The spec for a trace file: name "file:<path>", Archetype::File. */
TraceSpec fileTraceSpec(const std::string &path);

/** Instantiate the generator for a spec. */
GeneratorPtr makeWorkload(const TraceSpec &spec);

/**
 * Instantiate one generator per spec. Specs naming the same trace
 * file decode it once and replay the shared records, each through
 * its own cursor.
 */
std::vector<GeneratorPtr> makeWorkloads(const std::vector<TraceSpec> &specs);

/**
 * Instantiate a workload by name, searching all suites.
 * Throws std::out_of_range for an unknown name.
 */
GeneratorPtr makeWorkload(const std::string &name);

/** Look up a spec by name across all suites (throws if unknown). */
const TraceSpec &findTrace(const std::string &name);

/**
 * Non-throwing lookup across all suites; nullptr for an unknown
 * name. Runner job bodies use this so an unknown trace fails one
 * job, not the process.
 */
const TraceSpec *findTraceOrNull(const std::string &name) noexcept;

} // namespace bouquet

#endif // BOUQUET_TRACE_SUITE_HH
