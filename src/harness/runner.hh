/**
 * @file
 * Parallel experiment execution: a worker pool that fans complete,
 * self-contained simulations (each builds its own System) across
 * hardware threads and returns their outcomes in deterministic
 * submission order, so any table or figure built from a batch is
 * bit-identical to a serial run.
 *
 * Thread count comes from the IPCP_JOBS environment variable and
 * defaults to the hardware concurrency; IPCP_JOBS=1 degenerates to a
 * serial run on the calling thread.
 *
 * Jobs carry a cache key (trace, combo label, sim parameters, system
 * fingerprint). Before dispatch the batch is deduplicated by key —
 * e.g. the "none" baseline requested by several figures is simulated
 * once — and an optional fetch/store hook pair lets the caller back
 * the batch with an external (disk) cache. The store hook is invoked
 * from worker threads and must be thread-safe.
 *
 * Failure containment: a fault in one job — an exception from the
 * job body or an injected fault (see common/faultinject.hh) — fails
 * that job only. Every other job completes, is stored in the external
 * cache, and returns its outcome in submission order; the failed
 * job's slot carries the error instead. Transient failures are
 * retried up to the attempt budget (two attempts, or setMaxAttempts);
 * retry k first waits k × 10 ms. A hung simulation is caught by
 * System's retire watchdog, and in a campaign fleet by the
 * supervisor's stall watchdog, not here.
 */

#ifndef BOUQUET_HARNESS_RUNNER_HH
#define BOUQUET_HARNESS_RUNNER_HH

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace bouquet
{

/** One labelled single-core simulation. */
struct Job
{
    TraceSpec spec;
    std::string label;  //!< attach-configuration identity (cache key)
    AttachFn attach;
    ExperimentConfig cfg;
};

/** One labelled multi-core mix simulation. */
struct MixJob
{
    std::vector<TraceSpec> specs;  //!< one workload per core
    std::string label;
    AttachFn attach;
    ExperimentConfig cfg;
};

/**
 * The memoization key of a run: trace, combo label, run lengths and
 * the fingerprint of the tableIISystem it simulates on `cores` cores.
 * The one definition behind the runner's in-batch dedup, the bench
 * disk cache and campaign cells, so they never disagree. A mix's
 * trace is its mixName().
 */
std::string jobKey(const std::string &trace, const std::string &label,
                   const ExperimentConfig &cfg, std::size_t cores = 1);

/** The jobKey of a single-core job. */
std::string jobKey(const Job &job);

// --- graceful shutdown --------------------------------------------------
//
// A shutdown request (SIGINT/SIGTERM via installSignalHandlers, or
// requestShutdown from a test) stops every live batch from
// dispatching further jobs: running simulations finish normally —
// writing their pending periodic checkpoints on the way — and the
// batch returns with its partial summary; jobs that never started are
// failed with an "interrupted" error so the PR 2 exit contract (any
// failed job => nonzero exit) reports the truncation.

/** Flip the process-wide shutdown flag (async-signal-safe). */
void requestShutdown();

/** True once a shutdown was requested. */
bool shutdownRequested();

/** Reset the flag (tests; a fresh batch after a handled interrupt). */
void clearShutdownRequest();

/** Route SIGINT/SIGTERM to requestShutdown(); a second signal of the
 *  same kind falls through to the default (immediate) disposition. */
void installSignalHandlers();

/** Final state of one submitted job. */
template <typename T>
struct JobResult
{
    T outcome;               //!< valid only when ok
    bool ok = false;
    std::string error;       //!< why the job failed (empty when ok)
    unsigned attempts = 0;   //!< simulation attempts (0 = cache/dedup)
    bool resumed = false;    //!< continued from a checkpoint
    Cycle ckptCycle = 0;     //!< cycle of the resumed checkpoint
};

using JobOutcome = JobResult<Outcome>;
using MixJobOutcome = JobResult<MixOutcome>;

/** One failed job, for the batch summary. */
struct JobFailure
{
    std::size_t index = 0;   //!< submission index
    std::string key;
    std::string error;
    unsigned attempts = 0;
};

/** Per-job execution record of a batch. */
struct JobTiming
{
    std::string key;
    double seconds = 0.0;        //!< wall time of this simulation
    std::uint64_t instrs = 0;    //!< simulated (measured) instructions
    bool cached = false;         //!< satisfied by the fetch hook
    bool deduped = false;        //!< satisfied by an identical job
};

/** Aggregate throughput + failure accounting for one batch. */
struct BatchStats
{
    unsigned threads = 1;
    std::size_t jobs = 0;      //!< submitted
    std::size_t executed = 0;  //!< actually simulated
    std::size_t cached = 0;    //!< satisfied by the fetch hook
    std::size_t deduped = 0;   //!< duplicates of an executed/cached key
    std::size_t failed = 0;    //!< jobs whose final state is not ok
    std::size_t retried = 0;   //!< jobs that needed more than 1 attempt
    std::size_t storeFailures = 0;  //!< store-hook errors (job still ok)
    std::size_t resumed = 0;   //!< jobs that continued from a checkpoint
    std::size_t warmStarts = 0;  //!< executed jobs that fast-forwarded
                                 //!< past warmup via the WarmStore
    std::size_t interrupted = 0;  //!< jobs skipped by a shutdown request
    std::vector<JobFailure> failures;  //!< one per failed unique job
    double wallSeconds = 0.0;  //!< batch wall-clock
    double busySeconds = 0.0;  //!< sum of per-job wall times
    std::uint64_t simInstrs = 0;  //!< instructions simulated (executed)
    std::vector<JobTiming> perJob;

    /** Estimated speedup over running the same batch serially. */
    double speedupOverSerial() const;

    /** Aggregate simulated instructions per wall-clock second. */
    double instrsPerSecond() const;

    /** Summary plus one line per failed job (benches -> stderr). */
    void print(std::ostream &os) const;
};

/**
 * The worker pool. Construction is cheap: threads are spawned per
 * batch and joined before the batch returns, so a Runner may live as
 * a function-local or a global without holding OS resources.
 */
class Runner
{
  public:
    /** @param threads worker count; 0 = IPCP_JOBS / hw_concurrency */
    explicit Runner(unsigned threads = 0);

    /** IPCP_JOBS if set (min 1), else std::thread::hardware_concurrency. */
    static unsigned defaultThreads();

    unsigned threads() const { return threads_; }

    /** Simulation attempts per job (1 = no retry). */
    unsigned maxAttempts() const { return maxAttempts_; }
    void setMaxAttempts(unsigned n) { maxAttempts_ = n > 0 ? n : 1; }

    /** External-cache probe: return true and fill the outcome on hit. */
    using FetchFn = std::function<bool(const Job &, Outcome &)>;
    /** External-cache insert; called from worker threads. */
    using StoreFn = std::function<void(const Job &, const Outcome &)>;

    /**
     * Execute a batch of single-core jobs. Outcomes are returned in
     * submission order regardless of completion order; a batch run
     * with 1 thread and with N threads produces identical vectors.
     * A failed job fails only its own slot (ok=false, error set);
     * every other job's outcome and stdout-visible bytes are
     * identical to a fault-free run.
     */
    std::vector<JobOutcome> run(const std::vector<Job> &jobs,
                                const FetchFn &fetch = {},
                                const StoreFn &store = {});

    /** Execute a batch of mix jobs, each keyed by jobKey() over its
     *  mixName() (no dedup/caching: mixes are one-shot in every
     *  bench). Deterministic order and per-job failure containment
     *  as above. */
    std::vector<MixJobOutcome> runMixes(const std::vector<MixJob> &jobs);

    /** Accounting for the most recent run()/runMixes() batch. */
    const BatchStats &lastBatch() const { return last_; }

  private:
    /** Reset lastBatch() for a batch of `jobs` submissions. */
    void beginBatch(std::size_t jobs);

    /** Called on a worker thread with each successful job's index. */
    using OnOkFn = std::function<void(std::size_t, const MixOutcome &)>;

    /**
     * The one execution loop under run() and runMixes(): simulate
     * jobs[e] through runMix as batch slot slots[e], keyed by
     * lastBatch().perJob[slots[e]].key, with the stats path,
     * progress lines, shutdown handling and failure accounting.
     * Returns the outcomes in `jobs` order.
     */
    std::vector<MixJobOutcome> execute(const std::vector<MixJob> &jobs,
                                       const std::vector<std::size_t> &slots,
                                       const OnOkFn &on_ok);

    template <typename Task>
    void dispatch(std::size_t count, const Task &task);

    template <typename Body, typename JobOut>
    void executeWithPolicy(const std::string &key, const Body &body,
                           JobOut &out);

    unsigned threads_;
    bool progress_;  //!< IPCP_PROGRESS: per-job stderr lines
    unsigned maxAttempts_;
    BatchStats last_;
};

} // namespace bouquet

#endif // BOUQUET_HARNESS_RUNNER_HH
