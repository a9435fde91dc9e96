#include "campaign/worker.hh"

#include <algorithm>
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
#include "common/publisher.hh"
#include "common/stateio.hh"
#include "common/statsink.hh"
#include "harness/runner.hh"
#include "harness/warmstore.hh"

namespace bouquet::campaign
{

Heartbeat::Heartbeat(const WorkQueue &queue) : queue_(queue)
{
    // The first pulse comes from the caller's thread: a worker whose
    // jobs all finish within one period then never allocates on the
    // beat thread, which would cost it a malloc arena of its own.
    queue_.writePulse(progressEpoch(), "idle");
    thread_ = std::thread([this] { loop(); });
}

Heartbeat::~Heartbeat()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
}

void
Heartbeat::work(const std::string &hash, const std::string &nonce)
{
    std::lock_guard<std::mutex> lock(mutex_);
    unlanded_.push_back(hash);
    leases_[hash] = nonce;
}

void
Heartbeat::drop(const std::string &hash)
{
    std::lock_guard<std::mutex> lock(mutex_);
    leases_.erase(hash);
}

void
Heartbeat::landed(const std::string &hash)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = std::find(unlanded_.begin(), unlanded_.end(), hash);
    if (it != unlanded_.end())
        unlanded_.erase(it);
}

void
Heartbeat::loop()
{
    const auto period =
        std::chrono::duration<double>(queue_.config().leaseTtl / 3.0);
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(lock, period, [this] { return stop_; })) {
        // The lease mtime says "alive", the pulse epoch says
        // "advancing": the supervisor's stall watchdog kills a worker
        // whose lease stays fresh while its epoch stays frozen on one
        // job. While the worker thread simulates, the epoch advances
        // whichever job is named; once it waits on the publisher, the
        // job named is the one whose files are landing.
        queue_.writePulse(progressEpoch(),
                          unlanded_.empty() ? "idle" : unlanded_.front());
        for (auto it = leases_.begin(); it != leases_.end();) {
            if (Status s = queue_.heartbeat(it->first, it->second);
                !s.ok()) {
                std::cerr << "[worker " << queue_.owner()
                          << "] heartbeat for " << it->first
                          << " failed: " << s.error().message << "\n";
                it = leases_.erase(it);
            } else {
                ++it;
            }
        }
    }
}

WriteTally
WriteTally::ofThisThread()
{
    WriteTally t;
    for (std::size_t k = 0; k < kDegradeKinds; ++k)
        t.degraded[k] =
            degradedCountOnThread(static_cast<DegradeKind>(k));
    return t;
}

WriteTally
WriteTally::operator-(const WriteTally &since) const
{
    WriteTally d;
    for (std::size_t k = 0; k < kDegradeKinds; ++k)
        d.degraded[k] = degraded[k] - since.degraded[k];
    return d;
}

WriteTally
WriteTally::operator+(const WriteTally &other) const
{
    WriteTally sum;
    for (std::size_t k = 0; k < kDegradeKinds; ++k)
        sum.degraded[k] = degraded[k] + other.degraded[k];
    return sum;
}

bool
WriteTally::any() const
{
    for (const std::uint64_t n : degraded) {
        if (n != 0)
            return true;
    }
    return false;
}

void
finishAttempt(const WorkQueue &queue, Heartbeat &heartbeat,
              const AttemptEnd &end)
{
    heartbeat.drop(end.hash);
    // The beacon names this job until it returns, or throws.
    struct Landed
    {
        Heartbeat &heartbeat;
        const std::string &hash;
        ~Landed() { heartbeat.landed(hash); }
    } const landed{heartbeat, end.hash};

    // This thread lands one job's files after another, and this job's
    // come last before its finishAttempt: what it wrote since the
    // previous finishAttempt was this job's.
    thread_local WriteTally mark;
    const WriteTally now = WriteTally::ofThisThread();
    const WriteTally tally = end.tally + (now - mark);
    mark = now;
    if (tally.any()) {
        const auto kind = [&tally](DegradeKind k) {
            return tally.degraded[static_cast<std::size_t>(k)];
        };
        queue.recordDegraded(end.hash, kind(DegradeKind::store),
                             kind(DegradeKind::warm),
                             kind(DegradeKind::ckpt),
                             kind(DegradeKind::stats));
    }

    if (end.ok) {
        if (end.resumed)
            queue.recordResume(end.hash, end.ckptCycle);
        // The done file is the outcome (warm start included): once it
        // lands the result is durable and the attempt needs no other
        // record. If it cannot land, give the lease back for a later
        // attempt, charging this one.
        if (Status s = queue.publishDone(end.hash, end.key, end.nonce,
                                         end.record);
            !s.ok()) {
            queue.chargeAttempt(end.hash, end.nonce);
            queue.recordFailure(end.hash, "outcome publish failed: " +
                                              s.error().message);
            queue.release(end.hash, end.nonce);
        }
        return;
    }

    // A worker that stalled past the TTL may have lost the lease to a
    // reclaimer, which charged this attempt and now runs the job.
    const bool charged = queue.chargeAttempt(end.hash, end.nonce);
    if (end.drained) {
        // Drain: the runner skipped or truncated this attempt. It is
        // charged like any started attempt, but not as a failure.
        queue.release(end.hash, end.nonce);
        return;
    }
    queue.recordFailure(end.hash, end.error);
    if (charged)
        queue.quarantineIfSpent(end.hash);
    queue.release(end.hash, end.nonce);
}

namespace
{

struct WorkItem
{
    CampaignJob job;
    std::string key;
    std::string hash;
};

/**
 * Simulate one claimed job and post its end to the publisher, which
 * lands it behind the job's warm-state and stats files.
 */
void
processItem(WorkQueue &queue, Runner &runner, Heartbeat &heartbeat,
            Publisher &publisher, const ExperimentConfig &cfg,
            const WorkItem &item, const Claim &claim)
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

    const WriteTally before = WriteTally::ofThisThread();
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

    // Serialize here: the publisher thread should do little more
    // than syscalls.
    const JobOutcome &out = outs.at(0);
    AttemptEnd end;
    end.hash = item.hash;
    end.key = item.key;
    end.nonce = claim.nonce;
    end.ok = out.ok;
    end.tally = WriteTally::ofThisThread() - before;
    if (out.ok) {
        end.record = WorkQueue::doneRecord(item.key, out.outcome);
        end.resumed = out.resumed;
        end.ckptCycle = out.ckptCycle;
    } else {
        end.error = out.error;
        end.drained = shutdownRequested();
    }
    publisher.post([&queue, &heartbeat, end = std::move(end)] {
        finishAttempt(queue, heartbeat, end);
    });
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
    ExperimentConfig cfg = campaignConfig(paths, spec);
    const std::string owner = "w" + std::to_string(::getpid());
    WorkQueue queue(QueueConfig::fromEnv(paths.queueDir()), owner);
    // A worker killed during a checkpoint save, a stats publish or a
    // warm publish leaves its publish temp in ckpts/, stats/ or the
    // warm dir; queue scans never look there.
    const double stale = 2.0 * queue.config().leaseTtl;
    removeStaleFiles(paths.ckptDir(), stale);
    removeStaleFiles(paths.statsDir(), stale);
    if (!cfg.warmDir.empty())
        removeStaleFiles(cfg.warmDir, stale);
    Runner runner(1);
    Heartbeat heartbeat(queue);
    // Declared after what its tasks use, so it drains before they go.
    Publisher publisher;
    cfg.publisher = &publisher;

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
        // Every done file this worker finished is on disk before it
        // counts the queue, so a pass that claims nothing (and naps)
        // waits on other owners only.
        publisher.drain();
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
            processItem(queue, runner, heartbeat, publisher, cfg, item,
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
    // A drained or finished worker returns with its files on disk.
    publisher.drain();
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
              << "\n";
    return 0;
}

} // namespace bouquet::campaign
