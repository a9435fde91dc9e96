/**
 * @file
 * The filesystem work-queue protocol (DESIGN.md §5g). Each job —
 * identified by the 16-hex-digit hash of its key — is tracked by up
 * to four files in the queue directory:
 *
 *   lease-<hash>        exclusive claim: created O_CREAT|O_EXCL by
 *                       exactly one worker; content names the owner
 *                       and a per-claim nonce; mtime is the heartbeat
 *   attempts-<hash>     append-only history of what did not go
 *                       cleanly: one `attempt` line per attempt that
 *                       ended other than by success, plus failures,
 *                       reclaims, resumes and degraded writes. A job
 *                       whose only attempt succeeded has none.
 *   done-<hash>         terminal success: the job's key and Outcome
 *                       in a CRC container (publishFile); it also
 *                       stands for the successful attempt
 *   quarantine-<hash>   terminal failure: the attempts log renamed,
 *                       with the quarantine reason appended
 *
 * Whoever ends a lease other than by success charges that attempt:
 * its worker when the attempt fails, drains or cannot publish; the
 * reclaimer of an orphaned lease; the supervisor when its stall
 * watchdog kills the worker. So the `attempt` lines plus the done
 * file count every started attempt once, and a SIGKILLed attempt
 * still counts toward the quarantine budget.
 *
 * Beside the per-job files, each worker maintains one progress beacon,
 * pulse-<owner>: an atomically-replaced snapshot of its simulation
 * progress epoch and current job, rewritten by its heartbeat thread.
 * The supervisor's stall watchdog reads it to tell a worker that is
 * alive-but-wedged (heartbeat fresh, epoch frozen) from one that is
 * merely slow (epoch advancing).
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
 * restored, not stolen), charges the orphaned attempt, and re-creates
 * the lease O_EXCL unless that charge used up the budget. Heartbeat,
 * publishDone and chargeAttempt verify the caller's nonce first, so a
 * worker whose lease was reclaimed while it was stalled can neither
 * renew, publish, nor charge the attempt its reclaimer charged.
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
    std::string nonce;  //!< pass to heartbeat/publishDone/release
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
     * Charge one attempt that ended other than by success (append
     * only). `reclaimed == false` charges this owner's own attempt
     * (`kind=claim`); `reclaimed == true` charges `prior_owner`'s,
     * which this owner reclaimed as an orphan or, as the supervisor,
     * killed as stalled (`kind=reclaim prior=<prior_owner>`). A
     * successful attempt is never charged: its done file counts it.
     */
    void recordAttempt(const std::string &hash, bool reclaimed,
                       const std::string &prior_owner) const;

    /**
     * Charge this owner's attempt on lease `nonce` (`kind=claim`) iff
     * the lease is still its own. False, charging nothing, when the
     * lease was reclaimed: the reclaimer charged the attempt already
     * and now runs the job, so it must not be charged twice or
     * quarantined on this owner's account.
     */
    bool chargeAttempt(const std::string &hash,
                       const std::string &nonce) const;

    /** Append a failure line (the attempt's error) to the history. */
    void recordFailure(const std::string &hash,
                       const std::string &error) const;

    /** Append a checkpoint-resume note to the history. */
    void recordResume(const std::string &hash,
                      std::uint64_t ckpt_cycle) const;

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

    /** Charged attempts so far (`attempt` lines in the log). */
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

    /**
     * Quarantine the job once its charged attempts reach the budget
     * (`quarantineAfter`). True when it is now parked.
     */
    bool quarantineIfSpent(const std::string &hash) const;

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
     * between jobs). Best effort: a lost pulse costs the watchdog
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
    /** True while `nonce` names the job's current lease. */
    bool holds(const std::string &hash, const std::string &nonce) const;
    std::string freshNonce() const;
    void appendHistory(const std::string &hash,
                       const std::string &line) const;

    QueueConfig cfg_;
    std::string owner_;
};

} // namespace bouquet::campaign

#endif // BOUQUET_CAMPAIGN_QUEUE_HH
