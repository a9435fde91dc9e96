#include "campaign/supervisor.hh"

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "campaign/aggregate.hh"
#include "campaign/campaign.hh"
#include "campaign/queue.hh"
#include "common/env.hh"
#include "harness/runner.hh"

namespace bouquet::campaign
{

namespace
{

/** Fork/exec one worker; -1 on fork failure. */
pid_t
spawnWorker(const std::string &bin, const std::string &root)
{
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    ::execl(bin.c_str(), bin.c_str(), "--worker", root.c_str(),
            static_cast<char *>(nullptr));
    // exec failed: exit without running any parent atexit handlers.
    std::cerr << "[campaign] cannot exec " << bin << "\n";
    ::_exit(127);
}

void
printProgress(const QueueCounts &counts, std::size_t workers_alive)
{
    std::cerr << "[campaign] done=" << counts.done
              << " running=" << counts.leased
              << " pending=" << counts.pending
              << " orphaned=" << counts.orphaned
              << " quarantined=" << counts.quarantined
              << " workers=" << workers_alive << "\n";
}

double
monotonicNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
envStallTimeout()
{
    const double v = envDouble("IPCP_STALL_TIMEOUT", 0.0);
    return v > 0.0 ? v : 0.0;
}

} // namespace

bool
StallTracker::observe(pid_t pid, std::uint64_t epoch,
                      const std::string &job_hash, double now)
{
    if (timeout_ <= 0.0)
        return false;
    if (job_hash.empty() || job_hash == "idle") {
        seen_.erase(pid);  // between jobs: a frozen epoch is healthy
        return false;
    }
    auto it = seen_.find(pid);
    if (it == seen_.end() || it->second.epoch != epoch ||
        it->second.hash != job_hash) {
        seen_[pid] = Seen{epoch, job_hash, now};
        return false;
    }
    return now - it->second.since > timeout_;
}

void
StallTracker::forget(pid_t pid)
{
    seen_.erase(pid);
}

void
quarantineStalled(const WorkQueue &queue, const std::string &job_hash,
                  const std::string &owner)
{
    queue.recordAttempt(job_hash, true, owner);
    queue.recordFailure(job_hash, "stalled: progress epoch frozen "
                                  "past the stall timeout");
    queue.quarantine(job_hash,
                     "stalled worker killed by supervisor watchdog");
    ::unlink(queue.pulsePath(owner).c_str());
}

int
runSupervisor(const std::string &root, const SupervisorOptions &opts)
{
    const CampaignPaths paths(root);
    Result<CampaignSpec> manifest = readManifest(paths);
    if (!manifest.ok()) {
        std::cerr << "[campaign] " << manifest.error().message << "\n";
        return 1;
    }
    const CampaignSpec spec = manifest.take();
    if (Status s = initCampaignDirs(paths); !s.ok()) {
        std::cerr << "[campaign] " << s.error().message << "\n";
        return 1;
    }
    const ExperimentConfig cfg = campaignConfig(paths, spec);
    WorkQueue queue(QueueConfig::fromEnv(paths.queueDir()),
                    "supervisor");
    std::vector<std::string> hashes;
    hashes.reserve(spec.jobs.size());
    for (const CampaignJob &job : spec.jobs)
        hashes.push_back(keyHash(keyOf(job, cfg)));

    std::vector<pid_t> children;
    for (unsigned w = 0; w < opts.workers; ++w) {
        const pid_t pid = spawnWorker(opts.workerBin, root);
        if (pid > 0)
            children.push_back(pid);
    }
    if (children.empty()) {
        std::cerr << "[campaign] no workers could be started\n";
        return 1;
    }

    unsigned respawns_left = opts.respawnBudget;
    bool drain_signalled = false;
    QueueCounts last_printed;
    bool printed_once = false;
    StallTracker stall(opts.stallTimeout > 0.0 ? opts.stallTimeout
                                               : envStallTimeout());

    while (true) {
        const QueueCounts counts = queue.scan(hashes);

        // Stall watchdog: a worker whose lease heartbeat is fresh but
        // whose simulation epoch froze on one job is wedged. Kill it
        // and quarantine the job — epoch-based detection never trips
        // on a slow-but-advancing run, so a frozen epoch past the
        // timeout is a genuine wedge, and respawning into the same
        // job would only wedge again.
        if (!drain_signalled) {
            for (pid_t &pid : children) {
                if (pid <= 0)
                    continue;
                std::uint64_t epoch = 0;
                std::string job;
                if (!queue.readPulse("w" + std::to_string(pid),
                                     epoch, job))
                    continue;
                if (!stall.observe(pid, epoch, job, monotonicNow()))
                    continue;
                std::cerr << "[campaign] worker w" << pid
                          << " stalled on " << job
                          << " (epoch frozen); killing and "
                             "quarantining the job\n";
                ::kill(pid, SIGKILL);
                stall.forget(pid);
                quarantineStalled(queue, job,
                                  "w" + std::to_string(pid));
            }
        }

        // A shutdown request (Ctrl-C on the supervisor) becomes a
        // graceful fleet drain: forward SIGTERM once, stop
        // respawning, and let in-flight jobs finish.
        if (shutdownRequested() && !drain_signalled) {
            drain_signalled = true;
            std::cerr << "[campaign] draining (signal received)\n";
            for (const pid_t pid : children)
                ::kill(pid, SIGTERM);
        }

        // Reap exited workers; replace unexpected deaths while work
        // remains and the budget allows.
        for (pid_t &pid : children) {
            if (pid <= 0)
                continue;
            int wstatus = 0;
            const pid_t reaped = ::waitpid(pid, &wstatus, WNOHANG);
            if (reaped != pid)
                continue;
            stall.forget(pid);
            pid = -1;
            const bool incomplete =
                counts.terminal() < hashes.size();
            if (incomplete && !drain_signalled &&
                respawns_left > 0) {
                --respawns_left;
                std::cerr << "[campaign] worker died ("
                          << (WIFSIGNALED(wstatus)
                                  ? "signal " +
                                        std::to_string(
                                            WTERMSIG(wstatus))
                                  : "exit " +
                                        std::to_string(
                                            WEXITSTATUS(wstatus)))
                          << "); respawning (" << respawns_left
                          << " respawns left)\n";
                const pid_t fresh =
                    spawnWorker(opts.workerBin, root);
                if (fresh > 0)
                    pid = fresh;
            }
        }
        std::size_t alive = 0;
        for (const pid_t pid : children)
            alive += pid > 0 ? 1 : 0;

        if (opts.progress &&
            (!printed_once ||
             counts.done != last_printed.done ||
             counts.leased != last_printed.leased ||
             counts.orphaned != last_printed.orphaned ||
             counts.quarantined != last_printed.quarantined)) {
            printProgress(counts, alive);
            last_printed = counts;
            printed_once = true;
        }

        if (counts.terminal() >= hashes.size())
            break;
        if (alive == 0) {
            if (drain_signalled) {
                std::cerr << "[campaign] drained with "
                          << hashes.size() - counts.terminal()
                          << " job(s) unfinished\n";
                break;
            }
            std::cerr << "[campaign] all workers dead and respawn "
                         "budget exhausted\n";
            break;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(200));
    }

    // Drain the fleet: completion makes workers exit on their own;
    // reap them so no zombies outlive the campaign.
    for (const pid_t pid : children) {
        if (pid > 0)
            ::waitpid(pid, nullptr, 0);
    }

    if (Status s = writeReport(paths, spec); !s.ok())
        std::cerr << "[campaign] report: " << s.error().message
                  << "\n";
    Result<CampaignTotals> totals = writeSummary(paths, spec);
    if (!totals.ok()) {
        std::cerr << "[campaign] summary: "
                  << totals.error().message << "\n";
        return 1;
    }
    std::cerr << "[campaign] finished: " << totals.value().done << "/"
              << totals.value().jobs << " done, " << totals.value().quarantined
              << " quarantined, " << totals.value().incomplete
              << " incomplete | attempts=" << totals.value().attempts
              << " reclaims=" << totals.value().reclaims
              << " resumes=" << totals.value().resumed
              << " warm-hits=" << totals.value().warmHits
              << " degraded-writes=" << totals.value().degradedTotal()
              << " gc-evicted=" << totals.value().gcEvicted << "\n";

    // Exit contract, mirroring the bench/sim rules: full or contained
    // success is 0; strict makes any parked job fail the campaign.
    if (totals.value().incomplete > 0 || totals.value().done == 0)
        return 1;
    if (opts.strict && totals.value().quarantined > 0)
        return 1;
    return 0;
}

} // namespace bouquet::campaign
