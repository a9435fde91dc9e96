/**
 * @file
 * Shared bench plumbing: environment-scaled run lengths, the parallel
 * batch front-end to the harness Runner, a versioned disk-backed
 * outcome cache so the per-figure binaries don't re-simulate shared
 * configurations (baselines, the Table III combos), and the standard
 * per-trace speedup table printer.
 *
 * Environment knobs:
 *   IPCP_SIM_INSTRS    measured instructions per trace (default 1e6)
 *   IPCP_WARMUP_INSTRS warmup instructions           (default 1e5)
 *   IPCP_MIXES         multi-core mixes per experiment (default 12)
 *   IPCP_JOBS          worker threads for simulation batches
 *                      (default: hardware concurrency; 1 = serial)
 *   IPCP_PROGRESS      when set, print a stderr line per finished job
 *   IPCP_CACHE_FILE    outcome cache path (default bench_cache.bin in
 *                      the working directory; set empty to disable)
 *   IPCP_REPORT_CSV    when set, every speedupTable() call also appends
 *                      its raw outcomes to this CSV file for plotting
 *   IPCP_STRICT        when set, any failed job makes exitCode()
 *                      nonzero (default: only an all-failed batch)
 *   IPCP_FAULTS        fault-injection spec (common/faultinject.hh)
 *
 * Tables are printed to stdout and are byte-identical no matter how
 * many worker threads ran the batch; all throughput/progress
 * reporting goes to stderr. A failed job is skipped and reported:
 * its table cells read "n/a", its error lands on stderr, and every
 * surviving row is byte-identical to a fault-free run.
 */

#ifndef BOUQUET_BENCH_BENCH_UTIL_HH
#define BOUQUET_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/errors.hh"
#include "harness/experiment.hh"
#include "harness/factory.hh"
#include "harness/outcomestore.hh"
#include "harness/runner.hh"
#include "harness/table.hh"
#include "trace/suite.hh"

namespace bouquet::bench
{

/** A labelled prefetching configuration. */
struct Combo
{
    std::string label;   //!< display + cache key
    AttachFn attach;
};

/** Make a Combo from a factory combo name. */
Combo namedCombo(const std::string &name);

/** The Table III competitor set, paper order, IPCP last. */
std::vector<Combo> tableIIIComboSet();

/** Experiment config from the environment. */
ExperimentConfig defaultConfig();

/**
 * The versioned, flock-safe disk cache of Outcome records. Promoted
 * to `src/harness/outcomestore.hh` (the campaign work-queue shares
 * it); aliased here so bench code keeps saying `bench::OutcomeStore`.
 */
using bouquet::OutcomeStore;

/** Process-wide store at $IPCP_CACHE_FILE (default bench_cache.bin). */
OutcomeStore &globalStore();

/** The process-wide Runner every bench batches through. */
Runner &runner();

/**
 * Batch-submit labelled jobs through the runner, backed by the global
 * disk cache and deduplicated by key before dispatch. Returns the
 * per-job outcomes in submission order — a failed job fails only its
 * own slot — and prints the batch's wall-time / throughput / failure
 * summary to stderr. Failures and successes are accumulated for
 * exitCode().
 */
std::vector<JobOutcome> submitJobs(const std::vector<Job> &jobs);

/**
 * Fan every (trace x combo) simulation of an experiment across the
 * worker pool in one submitJobs() batch. Returns the outcomes indexed
 * [combo][trace]; a failed cell fails only its own slot. Benches call
 * this once with every combo (baselines included) they read, and
 * build their tables from what it returns.
 */
std::vector<std::vector<JobOutcome>>
runBatch(const std::vector<TraceSpec> &traces,
         const std::vector<Combo> &combos, const ExperimentConfig &cfg);

/** Batch-submit multi-core mix jobs; outcomes in submission order. */
std::vector<MixJobOutcome> runMixBatch(const std::vector<MixJob> &jobs);

/**
 * Print the standard paper-style table: one row per trace with the
 * speedup of every combo over no prefetching, then the geomean row.
 * The whole experiment is batch-submitted through the runner first.
 * A failed (trace, combo) cell prints "n/a" and is excluded from the
 * geomean; a trace whose baseline failed is skipped entirely (and
 * reported on stderr). Returns the geomean speedup per combo.
 */
std::vector<double>
speedupTable(std::ostream &os, const std::vector<TraceSpec> &traces,
             const std::vector<Combo> &combos,
             const ExperimentConfig &cfg, bool per_trace_rows = true);

/** 12 representative memory-intensive traces for sensitivity sweeps. */
std::vector<TraceSpec> sensitivitySubset();

/** Jobs failed / succeeded across every batch so far (this process). */
std::size_t batchFailures();
std::size_t batchSuccesses();

/**
 * The bench exit-code contract: 0 when every job succeeded, or when
 * failures were contained and at least one job delivered a result
 * (skip-and-report); 1 when all jobs failed, or when any job failed
 * and IPCP_STRICT is set. Bench mains return this.
 */
int exitCode();

} // namespace bouquet::bench

#endif // BOUQUET_BENCH_BENCH_UTIL_HH
