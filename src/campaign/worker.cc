#include "campaign/worker.hh"

#include <chrono>
#include <condition_variable>
#include <iostream>
#include <mutex>
#include <thread>
#include <vector>

#include <unistd.h>

#include "campaign/campaign.hh"
#include "campaign/queue.hh"
#include "common/degrade.hh"
#include "common/faultinject.hh"
#include "common/stateio.hh"
#include "common/statsink.hh"
#include "harness/diskbudget.hh"
#include "harness/runner.hh"
#include "harness/warmstore.hh"

namespace bouquet::campaign
{

namespace
{

/**
 * The worker's one heartbeat thread, alive as long as the worker.
 * Every TTL/3 it rewrites the progress beacon (epoch plus the current
 * job, or "idle") and renews the current job's lease. It stops
 * renewing a lease once that lease is lost and lets it expire for
 * reclaim; publishDone re-verifies ownership anyway.
 */
class Heartbeat
{
  public:
    explicit Heartbeat(const WorkQueue &queue) : queue_(queue)
    {
        // The first pulse comes from the caller's thread: a worker
        // whose jobs all finish within one period then never
        // allocates on the beat thread, which would cost it a malloc
        // arena of its own.
        queue_.writePulse(progressEpoch(), "idle");
        thread_ = std::thread([this] { loop(); });
    }

    ~Heartbeat()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

    Heartbeat(const Heartbeat &) = delete;
    Heartbeat &operator=(const Heartbeat &) = delete;

    /** Beat for this job's lease until idle(). */
    void
    work(const std::string &hash, const std::string &nonce)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        hash_ = hash;
        nonce_ = nonce;
    }

    /**
     * Stop renewing. Once this returns no beat touches the old lease,
     * so the caller may publish or release it.
     */
    void
    idle()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        hash_.clear();
        nonce_.clear();
    }

  private:
    void
    loop()
    {
        const auto period = std::chrono::duration<double>(
            queue_.config().leaseTtl / 3.0);
        std::unique_lock<std::mutex> lock(mutex_);
        while (!cv_.wait_for(lock, period, [this] { return stop_; })) {
            // The lease mtime says "alive", the pulse epoch says
            // "advancing": the supervisor's stall watchdog kills a
            // worker whose lease stays fresh while its epoch stays
            // frozen on one job.
            queue_.writePulse(progressEpoch(),
                              hash_.empty() ? "idle" : hash_);
            if (nonce_.empty())
                continue;
            if (Status s = queue_.heartbeat(hash_, nonce_); !s.ok()) {
                std::cerr << "[worker " << queue_.owner()
                          << "] heartbeat for " << hash_
                          << " failed: " << s.error().message << "\n";
                nonce_.clear();
            }
        }
    }

    const WorkQueue &queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::string hash_;   //!< job being worked; empty when idle
    std::string nonce_;  //!< its lease; empty once lost or idle
    std::thread thread_;
};

struct WorkItem
{
    CampaignJob job;
    std::string key;
    std::string hash;
};

/**
 * Execute one claimed job and publish its done file. An attempt that
 * ends any other way is charged here (chargeAttempt) before its lease
 * is given back, unless a reclaimer took the lease mid-run and
 * charged it already.
 */
void
processItem(WorkQueue &queue, Runner &runner, Heartbeat &heartbeat,
            const ExperimentConfig &cfg, const WorkItem &item,
            const Claim &claim)
{
    Result<Job> job = materialize(item.job, cfg);
    if (!job.ok()) {
        // A job that cannot even be constructed never gets better:
        // park it immediately with the reason.
        queue.recordFailure(item.hash, job.error().message);
        queue.quarantine(item.hash, job.error().message);
        queue.release(item.hash, claim.nonce);
        return;
    }

    // Degraded-publish and GC deltas around the run attribute them
    // to this attempt (the worker runs one job at a time) in the
    // per-job history.
    std::uint64_t degraded_before[kDegradeKinds];
    for (std::size_t k = 0; k < kDegradeKinds; ++k)
        degraded_before[k] =
            degradedCount(static_cast<DegradeKind>(k));
    const std::uint64_t evicted_before = gcEvictedTotal();

    heartbeat.work(item.hash, claim.nonce);
    if (faultCheck(faults::kWorkerWedge, item.hash)) {
        // Injected wedge: heartbeat keeps the lease fresh while the
        // epoch never advances — exactly what a deadlocked simulation
        // looks like to the stall watchdog, which is expected to
        // SIGKILL this process.
        for (;;)
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    const std::vector<JobOutcome> outs = runner.run({job.take()});
    heartbeat.idle();

    std::uint64_t degraded_delta[kDegradeKinds];
    bool any_degraded = false;
    for (std::size_t k = 0; k < kDegradeKinds; ++k) {
        degraded_delta[k] =
            degradedCount(static_cast<DegradeKind>(k)) -
            degraded_before[k];
        any_degraded = any_degraded || degraded_delta[k] != 0;
    }
    const std::uint64_t evicted_delta =
        gcEvictedTotal() - evicted_before;
    if (any_degraded || evicted_delta != 0)
        queue.recordDegraded(
            item.hash,
            degraded_delta[static_cast<std::size_t>(
                DegradeKind::store)],
            degraded_delta[static_cast<std::size_t>(
                DegradeKind::warm)],
            degraded_delta[static_cast<std::size_t>(
                DegradeKind::ckpt)],
            degraded_delta[static_cast<std::size_t>(
                DegradeKind::stats)],
            evicted_delta);

    const JobOutcome &out = outs.at(0);
    if (out.ok) {
        if (out.resumed)
            queue.recordResume(item.hash, out.ckptCycle);
        // The done file is the outcome (warm start included): once it
        // lands the result is durable and the attempt needs no other
        // record. If it cannot land, give the lease back for a later
        // attempt, charging this one.
        if (Status s = queue.publishDone(item.hash, item.key,
                                         claim.nonce, out.outcome);
            !s.ok()) {
            queue.chargeAttempt(item.hash, claim.nonce);
            queue.recordFailure(item.hash, "outcome publish failed: " +
                                               s.error().message);
            queue.release(item.hash, claim.nonce);
        }
        return;
    }

    // A worker that stalled past the TTL may have lost the lease to a
    // reclaimer, which charged this attempt and now runs the job.
    const bool charged = queue.chargeAttempt(item.hash, claim.nonce);
    if (shutdownRequested()) {
        // Drain: the runner skipped or truncated this attempt. It is
        // charged like any started attempt, but not as a failure.
        queue.release(item.hash, claim.nonce);
        return;
    }
    queue.recordFailure(item.hash, out.error);
    if (charged)
        queue.quarantineIfSpent(item.hash);
    queue.release(item.hash, claim.nonce);
}

} // namespace

int
runWorker(const std::string &root)
{
    const CampaignPaths paths(root);
    Result<CampaignSpec> manifest = readManifest(paths);
    if (!manifest.ok()) {
        std::cerr << "[worker] " << manifest.error().message << "\n";
        return 1;
    }
    const CampaignSpec spec = manifest.take();
    // A hand-built campaign dir may carry only the manifest; the
    // queue protocol needs its directories to exist to make progress.
    if (Status s = initCampaignDirs(paths); !s.ok()) {
        std::cerr << "[worker] " << s.error().message << "\n";
        return 1;
    }
    const ExperimentConfig cfg = campaignConfig(paths, spec);
    const std::string owner = "w" + std::to_string(::getpid());
    WorkQueue queue(QueueConfig::fromEnv(paths.queueDir()), owner);
    // A worker killed during a checkpoint save leaves its publish temp
    // in ckpts/; queue scans never look there.
    removeStaleFiles(paths.ckptDir(), 2.0 * queue.config().leaseTtl);
    Runner runner(1);
    Heartbeat heartbeat(queue);

    std::vector<WorkItem> items;
    std::vector<std::string> hashes;
    items.reserve(spec.jobs.size());
    for (const CampaignJob &job : spec.jobs) {
        const std::string key = keyOf(job, cfg);
        items.push_back(WorkItem{job, key, keyHash(key)});
        hashes.push_back(items.back().hash);
    }
    const std::size_t n = items.size();
    // Rotate each worker's claim order so a fleet starting together
    // fans out across the queue instead of contending on job 0.
    const std::size_t start = fnv1a(owner) % n;

    while (!shutdownRequested()) {
        if (queue.scan(hashes).terminal() >= n)
            break;
        bool claimed_any = false;
        for (std::size_t i = 0; i < n && !shutdownRequested(); ++i) {
            const WorkItem &item = items[(start + i) % n];
            if (queue.isTerminal(item.hash))
                continue;
            Result<Claim> claim = queue.tryClaim(item.hash);
            if (!claim.ok()) {
                std::cerr << "[worker " << owner << "] claim "
                          << item.hash << ": "
                          << claim.error().message << "\n";
                continue;
            }
            if (!claim.value().claimed)
                continue;
            claimed_any = true;
            processItem(queue, runner, heartbeat, cfg, item,
                        claim.value());
        }
        if (!claimed_any && !shutdownRequested()) {
            // Everything left is leased to live owners (or racing):
            // wait a fraction of the TTL for completions or expiry.
            const double ttl = queue.config().leaseTtl;
            const auto nap = std::chrono::duration<double>(
                std::min(0.2, ttl / 4.0));
            std::this_thread::sleep_for(nap);
        }
    }
    // One cache-effectiveness line per worker lifetime, from the
    // harness-level registry (kept out of the per-job stats JSON).
    const auto cache = harnessCacheStats().snapshot();
    const auto stat = [&cache](const char *path) {
        auto it = cache.find(path);
        return it == cache.end() ? std::uint64_t{0} : it->second.u;
    };
    std::cerr << "[worker " << owner << "] cache: warm hit="
              << stat("campaign.warm.hit")
              << " miss=" << stat("campaign.warm.miss")
              << " publish=" << stat("campaign.warm.publish")
              << " heal=" << stat("campaign.warm.heal")
              << " | degraded store="
              << stat("ipcp.degraded.store.writes")
              << " warm=" << stat("ipcp.degraded.warm.writes")
              << " ckpt=" << stat("ipcp.degraded.ckpt.writes")
              << " stats=" << stat("ipcp.degraded.stats.writes")
              << " | gc evicted="
              << (stat("ipcp.gc.store.evicted") +
                  stat("ipcp.gc.warm.evicted"))
              << "\n";
    return 0;
}

} // namespace bouquet::campaign
