/**
 * @file
 * One simulation job as the benchmark runs it, by two routes:
 *
 *  - untraced: through the harness entry points a user's run takes
 *    (runSingleCore for one core, runMix for several);
 *  - traced: through the public functions those entry points are built
 *    from (makeWorkload, the System constructor, applyCombo,
 *    System::setWarmupHook, System::run), with a span around each so
 *    build, warmup and measurement time are separated from outside
 *    the program.
 *
 * Both routes must produce the same simulated results; digest() is
 * what the benchmark compares.
 */

#ifndef PERFBENCH_SIMJOB_HH
#define PERFBENCH_SIMJOB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "core/system.hh"
#include "harness/experiment.hh"
#include "mem/dram.hh"
#include "trace/suite.hh"

namespace perfbench
{

/** A job: one trace per core, a prefetch combo and run lengths. */
struct SimJob
{
    std::vector<bouquet::TraceSpec> specs;
    std::string combo;
    std::uint64_t warmupInstrs = 0;
    std::uint64_t simInstrs = 0;

    /** "trace[+trace...]/combo@warmup+sim", for messages and keys. */
    std::string label() const;
};

/**
 * The simulated results both routes can report: per-core retired
 * instructions, cycles and IPC, core 0's private caches, the shared
 * LLC and DRAM. `ticks`/`skipped` are host-side loop counters; they
 * are deterministic but excluded from the digest, as the harness
 * excludes them from simulated-result comparisons.
 */
struct SimResult
{
    std::vector<bouquet::CoreResult> cores;
    bouquet::CacheStats l1i;
    bouquet::CacheStats l1d;
    bouquet::CacheStats l2;
    bouquet::CacheStats llc;
    bouquet::Dram::Stats dram;
    std::uint64_t dramBytes = 0;
    std::uint64_t ticks = 0;
    std::uint64_t skipped = 0;

    /** Measured instructions summed over cores. */
    std::uint64_t instructions() const;

    /** IPC summed over cores (throughput of the mix). */
    double ipcSum() const;

    /** The harness Outcome view (core 0), for OutcomeStore records. */
    bouquet::Outcome toOutcome() const;
};

/** FNV-1a over every simulated field of `r` (not ticks/skipped). */
std::uint64_t digest(const SimResult &r);

/** Run `job` through runSingleCore / runMix. Throws on failure. */
SimResult runUntraced(const SimJob &job);

/** Spans and by-products of one traced run. */
struct TracedRun
{
    SimResult result;
    double buildNs = 0.0;    //!< makeWorkload + System() + applyCombo
    double warmupNs = 0.0;   //!< run() start -> warmup hook
    double measureNs = 0.0;  //!< warmup hook return -> run() return
    double captureNs = 0.0;  //!< System::captureState in the hook
    std::uint64_t configHash = 0;
    std::vector<std::uint8_t> warmState;  //!< captured end of warmup
    bouquet::CacheStats l1dAll;  //!< L1D stats summed over cores
    bouquet::CacheStats l2All;   //!< L2 stats summed over cores
};

/**
 * Run `job` through the public functions, timing each phase. With
 * `capture` the end-of-warmup state is captured in the warmup hook
 * (timed separately and excluded from both phase spans).
 */
TracedRun runTraced(const SimJob &job, bool capture);

/**
 * Build `job`'s system and attach its prefetchers exactly as the
 * traced route does; returns the system ready for run() or for
 * loadWarmState().
 */
std::unique_ptr<bouquet::System> buildSystem(const SimJob &job);

/** The system configuration both routes simulate `job` on. */
bouquet::SystemConfig systemConfigFor(const SimJob &job);

/** Add every counter of `s` into `acc`. */
void accumulate(bouquet::CacheStats &acc, const bouquet::CacheStats &s);

} // namespace perfbench

#endif // PERFBENCH_SIMJOB_HH
