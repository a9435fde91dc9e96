/**
 * @file
 * The experiment runner: builds a system for a workload (or mix),
 * applies a prefetching configuration, simulates warmup + measurement,
 * and returns the metrics the paper's figures are built from (IPC,
 * per-level cache stats, DRAM traffic).
 *
 * Run length is controlled by environment variables so the shipped
 * defaults stay laptop-scale while a paper-scale run is one knob away:
 *   IPCP_SIM_INSTRS    (default 1,000,000)
 *   IPCP_WARMUP_INSTRS (default   100,000)
 *   IPCP_MIXES         (default 12 mixes per multi-core experiment)
 */

#ifndef BOUQUET_HARNESS_EXPERIMENT_HH
#define BOUQUET_HARNESS_EXPERIMENT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/system.hh"
#include "mem/dram.hh"
#include "trace/suite.hh"

namespace bouquet
{

/** Experiment-wide settings. */
struct ExperimentConfig
{
    std::uint64_t warmupInstrs = 100'000;
    std::uint64_t simInstrs = 1'000'000;
    unsigned mixes = 12;
    SystemConfig system;  //!< base system (see tableIISystem)

    /**
     * Crash-safe checkpointing (see DESIGN.md §5d). When ckptEvery is
     * non-zero every run saves a checkpoint that often (in cycles) —
     * to `ckptPath` when set, else to a key-derived file under
     * `ckptDir` when the caller supplies a checkpoint key. A
     * key-derived checkpoint left behind by a crashed attempt is
     * resumed from opportunistically (an unusable file just means a
     * fresh start) and deleted once the run succeeds. `resumePath`
     * restores an explicitly named checkpoint instead; there a
     * missing or invalid file fails the run.
     *   IPCP_CKPT_EVERY  checkpoint interval in cycles (0 = off)
     *   IPCP_CKPT_DIR    directory for key-derived checkpoints
     * `ckptDir` must exist; fromEnv() makes IPCP_CKPT_DIR.
     */
    Cycle ckptEvery = 0;
    std::string ckptDir;
    std::string ckptPath;
    std::string resumePath;

    /**
     * Minimum wall-clock milliseconds between periodic checkpoint
     * saves (0 = save at every ckptEvery boundary). Campaigns default
     * this to 500 so a fast job is not dominated by fsync traffic;
     * crash-recovery tests that need eager cycle-cadence saves leave
     * it at 0.
     *   IPCP_CKPT_MIN_MS  wall-clock save rate limit (default 0)
     */
    std::uint64_t ckptMinMs = 0;

    /**
     * Warm-state memoization (DESIGN.md §5h). When `warmDir` and
     * `warmLabel` are both set and warmupInstrs > 0, a run probes the
     * WarmStore under warmDir for its warmupKey() before simulating
     * warmup: a hit fast-forwards to the published end-of-warmup
     * state (byte-identical to simulating it), a miss publishes for
     * the next run. `warmLabel` names the attach configuration and is
     * part of the key — prefetchers train during warmup, so warm
     * state is per-combo; the Runner defaults it to the job label,
     * direct callers must set it themselves (an empty label disables
     * sharing rather than risking cross-combo aliasing).
     *   IPCP_WARM_DIR  shared warm-state directory
     *   IPCP_WARM      =0 disables warm sharing (ignores IPCP_WARM_DIR)
     */
    std::string warmDir;
    std::string warmLabel;

    /**
     * Observability artifacts (DESIGN.md §5e). `statsJsonPath` makes
     * the run write its full stat tree there as JSON when it finishes;
     * `statsDir` makes the parallel runner derive one such file per
     * job (next to its cached results). `traceEventsPath` switches on
     * event tracing and writes the ring there in Chrome trace_event
     * format; `traceCapacity` bounds the in-memory ring (oldest events
     * are overwritten). Export failures warn, they never fail a run;
     * `statsDir` must exist, and fromEnv() makes IPCP_STATS_DIR.
     *   IPCP_STATS_DIR     runner per-job stats JSON directory
     *   IPCP_TRACE_EVENTS  trace output path (enables tracing)
     *   IPCP_TRACE_CAP     trace ring capacity (default 65536)
     */
    std::string statsJsonPath;
    std::string statsDir;
    std::string traceEventsPath;
    std::size_t traceCapacity = 1 << 16;

    /** Read IPCP_* environment overrides into a config. */
    static ExperimentConfig fromEnv();
};

/** Hook that attaches prefetchers to a freshly built system. */
using AttachFn = std::function<void(System &)>;

/** Metrics of one single-core run. */
struct Outcome
{
    double ipc = 0.0;
    std::uint64_t instructions = 0;
    Cycle cycles = 0;
    CacheStats l1i;
    CacheStats l1d;
    CacheStats l2;
    CacheStats llc;
    Dram::Stats dram;
    std::uint64_t dramBytes = 0;

    /**
     * Host-side throughput counters (System::perf). Excluded from
     * simulated-result comparisons: skip and tick-every-cycle modes
     * produce identical simulated stats but different tick counts.
     */
    std::uint64_t ticksExecuted = 0;
    std::uint64_t skippedCycles = 0;

    /**
     * Provenance: whether this run continued from a checkpoint and,
     * if so, the cycle the checkpoint was taken at. Like the perf
     * counters these are excluded from simulated-result comparisons —
     * a resumed run is byte-identical to an uninterrupted one in
     * every simulated stat.
     */
    bool resumed = false;
    Cycle ckptCycle = 0;

    /**
     * Provenance: whether this run fast-forwarded past warmup from a
     * WarmStore hit instead of simulating it. Host-side like the
     * fields above — a warm-started run is byte-identical to a cold
     * one in every simulated stat (the §5h contract).
     */
    bool warmStart = false;

    /** Every field, in a fixed order (campaign done files). */
    template <typename IO>
    void
    serialize(IO &io)
    {
        io.io(ipc);
        io.io(instructions);
        io.io(cycles);
        io.io(l1i);
        io.io(l1d);
        io.io(l2);
        io.io(llc);
        io.io(dram);
        io.io(dramBytes);
        io.io(ticksExecuted);
        io.io(skippedCycles);
        io.io(resumed);
        io.io(ckptCycle);
        io.io(warmStart);
    }

    /** Demand MPKI at a level. */
    double mpkiL1() const;
    double mpkiL2() const;
    double mpkiLlc() const;
};

/**
 * Run one workload on a single-core Table II system: the one-core
 * view of runMix. `ckpt_key` (typically the runner's job key) names
 * the run for key-derived checkpointing; empty disables the derived
 * path (explicit ckptPath/resumePath still apply).
 */
Outcome runSingleCore(const TraceSpec &spec, const AttachFn &attach,
                      const ExperimentConfig &cfg,
                      const std::string &ckpt_key = {});

/** The key-derived checkpoint file for `key` under cfg.ckptDir. */
std::string checkpointPathFor(const ExperimentConfig &cfg,
                              const std::string &key);

/**
 * Fingerprint the non-default parts of a system config so memoized
 * outcomes are keyed by what was actually simulated.
 */
std::string systemFingerprint(const SystemConfig &cfg);

/**
 * The machine a run on `cores` cores simulates: `base` with Table
 * II's DRAM channel count, 1 for a single core and 2 for more.
 */
SystemConfig tableIISystem(SystemConfig base, std::size_t cores);

/** Metrics of one multi-core mix run. */
struct MixOutcome
{
    std::vector<double> ipc;          //!< per core, together
    std::vector<std::string> traces;  //!< per core
    std::vector<std::uint64_t> instructions;  //!< per core, measured
    std::vector<Cycle> cycles;        //!< per core, measured
    /** Core-0 private caches plus the shared LLC/DRAM stats. */
    Outcome system;
};

/** The trace names of a mix joined by '+' (one core: its name). */
std::string mixName(const std::vector<TraceSpec> &specs);

/**
 * Run a mix (one workload per core) on the tableIISystem of
 * cfg.system for its core count. Cores replaying one trace
 * file share its decoded records. The stats JSON names the run
 * `ckpt_key`, or mixName(specs) when that is empty.
 */
MixOutcome runMix(const std::vector<TraceSpec> &specs,
                  const AttachFn &attach, const ExperimentConfig &cfg,
                  const std::string &ckpt_key = {});

/**
 * Weighted speedup of a mix result against per-trace alone-IPCs,
 * each simulated under the same attach configuration and `cfg`.
 */
double weightedSpeedup(const MixOutcome &mix, const AttachFn &attach,
                       const ExperimentConfig &cfg);

/**
 * Draw `count` mixes of `coresPerMix` traces from `pool`,
 * deterministically from `seed`.
 */
std::vector<std::vector<TraceSpec>>
sampleMixes(const std::vector<TraceSpec> &pool, unsigned cores_per_mix,
            unsigned count, std::uint64_t seed);

} // namespace bouquet

#endif // BOUQUET_HARNESS_EXPERIMENT_HH
