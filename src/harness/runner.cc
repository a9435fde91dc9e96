#include "harness/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "common/env.hh"
#include "common/faultinject.hh"
#include "common/stateio.hh"

namespace bouquet
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Simulation attempts per job unless setMaxAttempts: one retry. */
constexpr unsigned kDefaultAttempts = 2;

/** Retry k of a transiently failed job first waits k times this. */
constexpr std::chrono::milliseconds kRetryBackoff{10};

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string
humanRate(double per_second)
{
    char buf[32];
    if (per_second >= 1e6)
        std::snprintf(buf, sizeof(buf), "%.1fM", per_second / 1e6);
    else if (per_second >= 1e3)
        std::snprintf(buf, sizeof(buf), "%.1fk", per_second / 1e3);
    else
        std::snprintf(buf, sizeof(buf), "%.0f", per_second);
    return buf;
}

std::mutex progressMutex;

std::atomic<bool> shutdownFlag{false};

void
onTerminateSignal(int sig)
{
    shutdownFlag.store(true, std::memory_order_relaxed);
    // Restore the default disposition so a second signal kills the
    // process immediately instead of being swallowed.
    std::signal(sig, SIG_DFL);
}

} // namespace

void
requestShutdown()
{
    shutdownFlag.store(true, std::memory_order_relaxed);
}

bool
shutdownRequested()
{
    return shutdownFlag.load(std::memory_order_relaxed);
}

void
clearShutdownRequest()
{
    shutdownFlag.store(false, std::memory_order_relaxed);
}

void
installSignalHandlers()
{
    std::signal(SIGINT, onTerminateSignal);
    std::signal(SIGTERM, onTerminateSignal);
}

std::string
jobKey(const std::string &trace, const std::string &label,
       const ExperimentConfig &cfg, std::size_t cores)
{
    return trace + "|" + label + "|" + std::to_string(cfg.simInstrs) +
           "|" + std::to_string(cfg.warmupInstrs) + "|" +
           systemFingerprint(tableIISystem(cfg.system, cores));
}

std::string
jobKey(const Job &job)
{
    return jobKey(job.spec.name, job.label, job.cfg);
}

/**
 * Derive the per-job stats JSON artifact path when cfg.statsDir is
 * set: stats-<keyHash(key)>.json, named like the key-derived
 * checkpoint. An explicit statsJsonPath on the job wins.
 */
ExperimentConfig
withJobStatsPath(const ExperimentConfig &cfg, const std::string &key)
{
    if (cfg.statsDir.empty() || !cfg.statsJsonPath.empty())
        return cfg;
    ExperimentConfig out = cfg;
    out.statsJsonPath = cfg.statsDir + "/stats-" + keyHash(key) + ".json";
    return out;
}

/**
 * Once a job's result is durably in the external cache, any
 * key-derived checkpoint for it is stale — left by an interrupted
 * earlier attempt (this process's or, under the campaign queue,
 * another worker's). Remove it so a later identical submission
 * doesn't resume a job that already finished. Only the derived path
 * is touched: an explicit cfg.ckptPath is user-owned.
 */
void
removeStaleDerivedCheckpoint(const ExperimentConfig &cfg,
                             const std::string &key)
{
    if (cfg.ckptEvery == 0 || cfg.ckptDir.empty() ||
        !cfg.ckptPath.empty())
        return;
    std::remove(checkpointPathFor(cfg, key).c_str());
}

double
BatchStats::speedupOverSerial() const
{
    return wallSeconds > 0.0 ? busySeconds / wallSeconds : 1.0;
}

double
BatchStats::instrsPerSecond() const
{
    return wallSeconds > 0.0
        ? static_cast<double>(simInstrs) / wallSeconds
        : 0.0;
}

void
BatchStats::print(std::ostream &os) const
{
    char buf[224];
    std::snprintf(buf, sizeof(buf),
                  "[runner] jobs=%zu executed=%zu cached=%zu "
                  "deduped=%zu failed=%zu threads=%u | wall %.2fs "
                  "busy %.2fs speedup %.2fx | %s sim-instrs/s",
                  jobs, executed, cached, deduped, failed, threads,
                  wallSeconds, busySeconds, speedupOverSerial(),
                  humanRate(instrsPerSecond()).c_str());
    os << buf << "\n";
    if (retried > 0 || storeFailures > 0) {
        os << "[runner] retried=" << retried << " store-failures="
           << storeFailures << "\n";
    }
    if (resumed > 0 || warmStarts > 0 || interrupted > 0) {
        os << "[runner] resumed=" << resumed << " warm-starts="
           << warmStarts << " interrupted=" << interrupted << "\n";
    }
    for (const JobFailure &f : failures) {
        os << "[runner] FAILED job " << f.index << " " << f.key
           << " after " << f.attempts << " attempt"
           << (f.attempts == 1 ? "" : "s") << ": " << f.error << "\n";
    }
}

Runner::Runner(unsigned threads)
    : threads_(threads > 0 ? threads : defaultThreads()),
      progress_(std::getenv("IPCP_PROGRESS") != nullptr),
      maxAttempts_(kDefaultAttempts)
{
}

unsigned
Runner::defaultThreads()
{
    // Checked parse (shared with every other env knob): `IPCP_JOBS=4x`
    // used to silently read 4 and `IPCP_JOBS=abc` read 0; both now
    // warn once and fall through to the hardware default.
    const unsigned n = envUnsigned("IPCP_JOBS", 0);
    if (n >= 1)
        return n;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

template <typename Task>
void
Runner::dispatch(std::size_t count, const Task &task)
{
    if (count == 0)
        return;
    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(threads_, count));
    if (workers <= 1) {
        for (std::size_t i = 0; i < count; ++i) {
            if (shutdownRequested())
                return;
            task(i);
        }
        return;
    }

    // Per-job faults are captured inside the task; an exception
    // reaching here is an infrastructure bug and is rethrown after
    // the pool drains.
    std::atomic<std::size_t> next{0};
    std::exception_ptr error;
    std::mutex errorMutex;
    auto worker = [&] {
        for (;;) {
            // Stop claiming work once a shutdown is requested; the
            // job in flight on each worker runs to completion.
            if (shutdownRequested())
                return;
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            try {
                task(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errorMutex);
                if (!error)
                    error = std::current_exception();
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

/**
 * Run one job body under the containment policy: capture every
 * exception into the job outcome and retry transient failures with
 * linear backoff.
 */
template <typename Body, typename JobOut>
void
Runner::executeWithPolicy(const std::string &key, const Body &body,
                          JobOut &out)
{
    for (unsigned attempt = 1; attempt <= maxAttempts_; ++attempt) {
        out.attempts = attempt;
        bool transient = false;
        try {
            faultPoint(faults::kJobBody, key);
            out.outcome = body();
            out.ok = true;
            out.error.clear();
        } catch (const ErrorException &e) {
            out.ok = false;
            out.error = e.what();
            transient = e.error().transient;
        } catch (const std::exception &e) {
            out.ok = false;
            out.error = e.what();
        } catch (...) {
            out.ok = false;
            out.error = "unknown exception";
        }
        if (out.ok || !transient)
            return;
        if (attempt < maxAttempts_)
            std::this_thread::sleep_for(kRetryBackoff * attempt);
    }
}

void
Runner::beginBatch(std::size_t jobs)
{
    last_ = BatchStats{};
    last_.threads = threads_;
    last_.jobs = jobs;
    last_.perJob.resize(jobs);
}

std::vector<MixJobOutcome>
Runner::execute(const std::vector<MixJob> &jobs,
                const std::vector<std::size_t> &slots,
                const OnOkFn &on_ok)
{
    const std::size_t n = jobs.size();
    last_.executed = n;
    std::vector<MixJobOutcome> results(n);
    std::atomic<std::size_t> completed{0};
    dispatch(n, [&](std::size_t e) {
        const MixJob &job = jobs[e];
        MixJobOutcome &out = results[e];
        JobTiming &t = last_.perJob[slots[e]];
        const auto start = Clock::now();
        ExperimentConfig job_cfg = withJobStatsPath(job.cfg, t.key);
        if (job_cfg.warmLabel.empty())
            job_cfg.warmLabel = job.label;
        executeWithPolicy(
            t.key, [&] { return runMix(job.specs, job.attach, job_cfg,
                                       t.key); },
            out);
        t.seconds = secondsSince(start);
        if (out.ok) {
            out.resumed = out.outcome.system.resumed;
            out.ckptCycle = out.outcome.system.ckptCycle;
            for (const std::uint64_t instrs : out.outcome.instructions)
                t.instrs += instrs;
            if (on_ok)
                on_ok(e, out.outcome);
        }
        if (progress_) {
            const std::size_t done = completed.fetch_add(1) + 1;
            char head[64];
            std::snprintf(head, sizeof(head), "[runner] %zu/%zu ", done,
                          n);
            char tail[32];
            std::snprintf(tail, sizeof(tail), " %.2fs", t.seconds);
            const std::string line =
                head + mixName(job.specs) + "|" + job.label + tail +
                (out.ok && out.outcome.system.warmStart ? " warm" : "") +
                (out.ok ? "" : " FAILED");
            std::lock_guard<std::mutex> lock(progressMutex);
            std::cerr << line << "\n";
        }
    });

    // A shutdown request leaves the tail of the batch untouched: those
    // outcomes are still default-constructed (attempts == 0). Fail
    // them explicitly so the batch summary and exit code report the
    // truncation.
    if (shutdownRequested()) {
        for (MixJobOutcome &out : results) {
            if (out.attempts == 0 && !out.ok) {
                out.error =
                    "interrupted: shutdown requested before this job "
                    "ran";
                ++last_.interrupted;
            }
        }
    }

    for (std::size_t e = 0; e < n; ++e) {
        const MixJobOutcome &out = results[e];
        const JobTiming &t = last_.perJob[slots[e]];
        last_.busySeconds += t.seconds;
        last_.simInstrs += t.instrs;
        if (!out.ok) {
            ++last_.failed;
            last_.failures.push_back(
                JobFailure{slots[e], t.key, out.error, out.attempts});
        } else {
            if (out.attempts > 1)
                ++last_.retried;
            if (out.resumed)
                ++last_.resumed;
            if (out.outcome.system.warmStart)
                ++last_.warmStarts;
        }
    }
    return results;
}

std::vector<JobOutcome>
Runner::run(const std::vector<Job> &jobs, const FetchFn &fetch,
            const StoreFn &store)
{
    const auto batch_start = Clock::now();
    const std::size_t n = jobs.size();
    beginBatch(n);
    std::vector<JobOutcome> results(n);

    // Resolve the external cache and deduplicate by key up front so
    // every simulation is dispatched at most once per batch; the
    // rest run as one-core mixes.
    std::map<std::string, std::size_t> canonical;  // key -> index
    std::vector<std::size_t> exec;
    std::vector<MixJob> mixes;
    std::vector<std::pair<std::size_t, std::size_t>> copies;
    for (std::size_t i = 0; i < n; ++i) {
        JobTiming &t = last_.perJob[i];
        t.key = jobKey(jobs[i]);
        const auto [it, inserted] = canonical.emplace(t.key, i);
        if (!inserted) {
            copies.emplace_back(i, it->second);
            t.deduped = true;
            ++last_.deduped;
            continue;
        }
        // A fetch-hook failure is a miss, never a batch failure.
        bool hit = false;
        try {
            hit = fetch && fetch(jobs[i], results[i].outcome);
        } catch (const std::exception &e) {
            std::lock_guard<std::mutex> lock(progressMutex);
            std::cerr << "[runner] cache fetch failed for " << t.key
                      << ": " << e.what() << "\n";
        }
        if (hit) {
            results[i].ok = true;
            t.cached = true;
            t.instrs = results[i].outcome.instructions;
            ++last_.cached;
            removeStaleDerivedCheckpoint(jobs[i].cfg, t.key);
            continue;
        }
        exec.push_back(i);
        mixes.push_back(MixJob{{jobs[i].spec}, jobs[i].label,
                               jobs[i].attach, jobs[i].cfg});
    }

    std::atomic<std::size_t> store_failures{0};
    OnOkFn on_ok;
    if (store) {
        on_ok = [&](std::size_t e, const MixOutcome &out) {
            const Job &job = jobs[exec[e]];
            const std::string &key = last_.perJob[exec[e]].key;
            // A store-hook failure loses a cache entry, not a
            // computed result.
            try {
                store(job, out.system);
                // Belt and braces: runMix removed its own derived
                // checkpoint, but a parallel attempt of the same key
                // (another campaign worker) may have left one since.
                removeStaleDerivedCheckpoint(job.cfg, key);
            } catch (const std::exception &e) {
                store_failures.fetch_add(1);
                std::lock_guard<std::mutex> lock(progressMutex);
                std::cerr << "[runner] cache store failed for " << key
                          << ": " << e.what() << "\n";
            }
        };
    }
    std::vector<MixJobOutcome> ran = execute(mixes, exec, on_ok);
    for (std::size_t e = 0; e < exec.size(); ++e) {
        MixJobOutcome &m = ran[e];
        results[exec[e]] = JobOutcome{
            std::move(m.outcome.system), m.ok, std::move(m.error),
            m.attempts, m.resumed, m.ckptCycle};
    }

    // Fan results out to deduplicated submissions: a copy of a failed
    // job fails identically. Sources are always earlier canonical
    // indices, so they are resolved.
    for (const auto &[dst, src] : copies) {
        results[dst] = results[src];
        if (!results[dst].ok)
            ++last_.failed;
    }
    last_.storeFailures = store_failures.load();
    last_.wallSeconds = secondsSince(batch_start);
    return results;
}

std::vector<MixJobOutcome>
Runner::runMixes(const std::vector<MixJob> &jobs)
{
    const auto batch_start = Clock::now();
    beginBatch(jobs.size());
    std::vector<std::size_t> slots(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        slots[i] = i;
        last_.perJob[i].key = jobKey(mixName(jobs[i].specs), jobs[i].label,
                                     jobs[i].cfg, jobs[i].specs.size());
    }
    std::vector<MixJobOutcome> results = execute(jobs, slots, {});
    last_.wallSeconds = secondsSince(batch_start);
    return results;
}

} // namespace bouquet
