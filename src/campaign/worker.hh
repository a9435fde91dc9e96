/**
 * @file
 * The stateless campaign worker: `ipcp_sim --worker <dir>` calls
 * runWorker(), which loops claiming jobs from the campaign's work
 * queue, simulating them through the harness Runner (periodic
 * checkpoints on, one retry) and publishing each outcome as the
 * job's done file — until every job is terminal or a
 * SIGINT/SIGTERM drain is requested. A reclaimed job auto-resumes the
 * dead owner's key-derived checkpoint through the ordinary
 * prepare-system path. On start a worker removes stale publish temps
 * from the campaign's ckpts/ and stats/ and from its warm dir
 * (removeStaleFiles).
 *
 * A job's files land on the worker's one Publisher thread while the
 * worker claims and simulates the next job (DESIGN.md §5g): its warm
 * state at the end of warmup, then its stats JSON, then its done file
 * (finishAttempt). The Heartbeat keeps renewing a lease until that
 * job's finishAttempt starts, and the worker drains the publisher
 * before every queue scan and before it returns.
 */

#ifndef BOUQUET_CAMPAIGN_WORKER_HH
#define BOUQUET_CAMPAIGN_WORKER_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/degrade.hh"
#include "common/types.hh"

namespace bouquet::campaign
{

class WorkQueue;

/**
 * The worker's one heartbeat thread, alive as long as the worker.
 * Every TTL/3 it rewrites the progress beacon and renews every lease
 * the worker holds: the job being simulated and the finished ones
 * whose done files still wait on the publisher. It stops renewing a
 * lease once that lease is lost and lets it expire for reclaim;
 * publishDone re-verifies ownership anyway.
 *
 * The beacon names the oldest job whose done task has not ended, or
 * "idle": the job whose files the publisher is landing, else the one
 * being simulated. A publisher task that blocks therefore freezes the
 * epoch on its own job, whether the worker thread waits for it in
 * drain() or in post() during a later job, and the stall watchdog
 * (DESIGN.md §5i) kills the worker and quarantines that job.
 */
class Heartbeat
{
  public:
    explicit Heartbeat(const WorkQueue &queue);
    ~Heartbeat();

    Heartbeat(const Heartbeat &) = delete;
    Heartbeat &operator=(const Heartbeat &) = delete;

    /** Renew this lease until drop(hash); the beacon may name the job
     *  until landed(hash). */
    void work(const std::string &hash, const std::string &nonce);

    /**
     * Stop renewing `hash`'s lease. Once this returns no beat touches
     * it, so the caller may publish or release it.
     */
    void drop(const std::string &hash);

    /** `hash`'s done task ended: the beacon stops naming it. */
    void landed(const std::string &hash);

  private:
    void loop();

    const WorkQueue &queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::deque<std::string> unlanded_;  //!< work() order, until landed()
    std::map<std::string, std::string> leases_;  //!< hash -> nonce
    std::thread thread_;
};

/** Degraded writes made on one thread, per kind. */
struct WriteTally
{
    std::uint64_t degraded[kDegradeKinds] = {};

    /** The calling thread's totals so far. */
    static WriteTally ofThisThread();

    WriteTally operator-(const WriteTally &since) const;
    WriteTally operator+(const WriteTally &other) const;
    bool any() const;
};

/** How one claimed attempt ended, handed to finishAttempt. */
struct AttemptEnd
{
    std::string hash;
    std::string key;
    std::string nonce;
    bool ok = false;
    std::vector<std::uint8_t> record;  //!< WorkQueue::doneRecord, if ok
    bool resumed = false;              //!< continued from a checkpoint
    Cycle ckptCycle = 0;
    std::string error;     //!< why it failed, if not ok
    bool drained = false;  //!< a shutdown request cut it short
    WriteTally tally;      //!< made on the worker's thread during it
};

/**
 * Land one attempt's end; the worker runs it on its publisher thread
 * after the job's warm-state and stats tasks. Stops renewing the
 * lease first, then writes the history lines — the degraded writes of
 * `end.tally` plus those made on this thread since the previous
 * finishAttempt, which were the job's own files — and then publishes
 * the done file, or charges, records and releases a failed,
 * unpublishable or drained attempt. A lease reclaimed in the meantime
 * is neither published nor charged again. Last, even when a step
 * throws, the heartbeat is told the job landed.
 */
void finishAttempt(const WorkQueue &queue, Heartbeat &heartbeat,
                   const AttemptEnd &end);

/**
 * Process jobs from the campaign at `root` until all are done or
 * quarantined (returns 0), the worker is asked to drain (returns 0
 * after finishing the in-flight job and landing its files), or the
 * campaign cannot be loaded (returns 1).
 */
int runWorker(const std::string &root);

} // namespace bouquet::campaign

#endif // BOUQUET_CAMPAIGN_WORKER_HH
