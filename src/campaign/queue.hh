/**
 * @file
 * The filesystem work-queue protocol (DESIGN.md §5g). Each job —
 * identified by the 16-hex-digit hash of its key — is tracked by up
 * to four files in the queue directory:
 *
 *   lease-<hash>        exclusive claim: created O_CREAT|O_EXCL by
 *                       exactly one worker; content names the owner
 *                       and a per-claim nonce; mtime is the heartbeat
 *   attempts-<hash>     append-only history: one line per started
 *                       attempt, failure, reclaim and resume
 *   done-<hash>         terminal success: the job's key and Outcome
 *                       in a CRC container (publishFile)
 *   quarantine-<hash>   terminal failure: the attempts log renamed,
 *                       with the quarantine reason appended
 *
 * Beside the per-job files, each worker maintains one progress beacon,
 * pulse-<owner>: an atomically-replaced snapshot of its simulation
 * progress epoch and current job. The supervisor's stall watchdog
 * reads it to tell a worker that is alive-but-wedged (heartbeat fresh,
 * epoch frozen) from one that is merely slow (epoch advancing).
 *
 * Job states and transitions:
 *
 *   pending ──claim──▶ leased ──publishDone──▶ done
 *      ▲                  │ (owner dies; mtime ages past TTL)
 *      │                  ▼
 *      └──reclaim──── orphaned ──attempt budget──▶ quarantined
 *
 * Claim is atomic via O_EXCL, and re-checks for a done file after
 * creating the lease: a finishing owner publishes done before it
 * drops its lease, so a claim that wins the lease of a just-finished
 * job sees its done file and backs off. Reclaim of an expired lease
 * renames it to a reclaimer-unique corpse — exactly one racer's
 * rename succeeds — then verifies the corpse still carries the nonce
 * it read before renaming (a lease recreated in the race window is
 * restored, not stolen) and re-creates the lease O_EXCL. Heartbeat
 * and publishDone verify the caller's nonce first, so a worker whose
 * lease was reclaimed while it was stalled can neither renew nor
 * publish.
 * Quarantine renames the attempts log, preserving the full error
 * history atomically. Declares the `queue.claim`, `queue.heartbeat`
 * and `queue.reclaim` fault-injection points.
 */

#ifndef BOUQUET_CAMPAIGN_QUEUE_HH
#define BOUQUET_CAMPAIGN_QUEUE_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/errors.hh"
#include "harness/experiment.hh"

namespace bouquet::campaign
{

/** Queue tuning, from the environment. */
struct QueueConfig
{
    std::string dir;
    double leaseTtl = 30.0;        //!< seconds before a lease orphans
    unsigned quarantineAfter = 3;  //!< started attempts before parking

    /** IPCP_LEASE_TTL / IPCP_QUARANTINE_AFTER overrides. */
    static QueueConfig fromEnv(std::string dir);
};

/** Lifecycle of one queued job. */
enum class JobState
{
    Pending,      //!< no lease, no terminal marker
    Leased,       //!< live lease (heartbeat within TTL)
    Orphaned,     //!< lease exists but its heartbeat expired
    Done,         //!< success marker published
    Quarantined,  //!< parked with its error history
};

/** What tryClaim() decided. */
struct Claim
{
    bool claimed = false;
    bool reclaimed = false;    //!< won an expired lease
    std::string priorOwner;    //!< when reclaimed
    std::string nonce;         //!< pass to heartbeat/publishDone/release
};

/** One scan() of the whole queue. */
struct QueueCounts
{
    std::size_t pending = 0;
    std::size_t leased = 0;
    std::size_t orphaned = 0;
    std::size_t done = 0;
    std::size_t quarantined = 0;

    std::size_t terminal() const { return done + quarantined; }
};

/**
 * One worker's (or the supervisor's) view of a campaign queue. All
 * state lives in the filesystem; instances are cheap and stateless
 * apart from configuration, so any process can host one. Thread-safe:
 * the heartbeat thread and the worker loop may share an instance.
 */
class WorkQueue
{
  public:
    WorkQueue(QueueConfig cfg, std::string owner);

    const QueueConfig &config() const { return cfg_; }
    const std::string &owner() const { return owner_; }

    std::string leasePath(const std::string &hash) const;
    std::string attemptsPath(const std::string &hash) const;
    std::string donePath(const std::string &hash) const;
    std::string quarantinePath(const std::string &hash) const;

    /** Current state of one job. */
    JobState state(const std::string &hash) const;

    /** True when the job can never be claimed again. */
    bool isTerminal(const std::string &hash) const;

    /**
     * Try to take the lease. Returns claimed=false when the job is
     * terminal (checked again after the lease is created, so a job
     * finished in the window is never claimed), freshly leased by a
     * live owner, or lost to a racing claimant; quarantines (and
     * reports claimed=false) when the attempt budget is already
     * exhausted. An injected `queue.claim`
     * or `queue.reclaim` fault surfaces as an error Result.
     */
    Result<Claim> tryClaim(const std::string &hash);

    /**
     * Renew the lease mtime. Fails when the lease is gone or carries
     * a different nonce (it was reclaimed: stop working on the job).
     */
    Status heartbeat(const std::string &hash,
                     const std::string &nonce) const;

    /**
     * Record the start of an execution attempt (append-only). Written
     * before the simulation starts so a SIGKILLed attempt still
     * counts toward the quarantine budget.
     */
    void recordAttempt(const std::string &hash, bool reclaimed,
                       const std::string &prior_owner) const;

    /** Append a failure line (the attempt's error) to the history. */
    void recordFailure(const std::string &hash,
                       const std::string &error) const;

    /** Append a checkpoint-resume note to the history. */
    void recordResume(const std::string &hash,
                      std::uint64_t ckpt_cycle) const;

    /**
     * Append a cache-provenance note for an executed attempt:
     * whether it fast-forwarded from the WarmStore. Counted into
     * summary.json's warm totals.
     */
    void recordCache(const std::string &hash, bool warm_hit) const;

    /**
     * Append an attempt's degraded-publish counts (per-kind deltas
     * from the process-wide ledger, §5i) plus disk-budget evictions.
     * Only written when at least one count is nonzero; summed into
     * summary.json's degradation totals.
     */
    void recordDegraded(const std::string &hash, std::uint64_t store,
                        std::uint64_t warm, std::uint64_t ckpt,
                        std::uint64_t stats,
                        std::uint64_t evicted) const;

    /** Started attempts so far (lines in the attempts log). */
    unsigned attemptCount(const std::string &hash) const;

    /**
     * Publish the done file — `key` and `outcome` inside a CRC
     * container hashed by fnv1a(key), written through publishFile —
     * then drop the lease. Fails without publishing when the lease
     * nonce no longer matches (the job was reclaimed from us), or
     * with the write error when the file cannot land; either way the
     * job is not done. Done therefore implies the outcome is durable.
     */
    Status publishDone(const std::string &hash, const std::string &key,
                       const std::string &nonce,
                       const Outcome &outcome = Outcome{}) const;

    /**
     * The outcome a done file carries. Fails (never throws) when the
     * file is missing, truncated, corrupt, or holds another key.
     */
    Result<Outcome> readDone(const std::string &hash,
                             const std::string &key) const;

    /**
     * Park the job: append the reason to its history and atomically
     * rename the attempts log to the quarantine marker.
     */
    void quarantine(const std::string &hash,
                    const std::string &reason) const;

    /** Drop the lease iff we still own it (nonce matches). */
    void release(const std::string &hash,
                 const std::string &nonce) const;

    /**
     * Count every job's state; also reaps litter (a lease left beside
     * a done marker by a crash; reclaim corpses, stale pulses and
     * publish temp files past 2×TTL).
     */
    QueueCounts scan(const std::vector<std::string> &hashes) const;

    /** Full history of a job (attempts or quarantine log lines). */
    std::vector<std::string> history(const std::string &hash) const;

    /** The progress beacon `owner` maintains (pulse-<owner>). */
    std::string pulsePath(const std::string &owner) const;

    /**
     * Atomically replace this owner's progress beacon with the given
     * simulation progress epoch and the job it is working ("idle"
     * between claims). Best effort: a lost pulse costs the watchdog
     * one beat of slack, never a worker.
     */
    void writePulse(std::uint64_t epoch,
                    const std::string &job_hash) const;

    /**
     * Read `owner`'s beacon. False when absent or torn (a worker that
     * never pulsed yet is not observable, hence not stalled).
     */
    bool readPulse(const std::string &owner, std::uint64_t &epoch,
                   std::string &job_hash) const;

  private:
    std::string freshNonce() const;
    void appendHistory(const std::string &hash,
                       const std::string &line) const;

    QueueConfig cfg_;
    std::string owner_;
};

} // namespace bouquet::campaign

#endif // BOUQUET_CAMPAIGN_QUEUE_HH
