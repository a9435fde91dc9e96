/**
 * @file
 * The campaign supervisor: forks a fleet of `ipcp_sim --worker`
 * processes over one campaign directory, streams live progress
 * (done/running/orphaned/quarantined counts), respawns dead workers
 * within a bounded budget, forwards SIGINT/SIGTERM as a graceful
 * drain, and aggregates the final report when every job is terminal.
 *
 * The stall watchdog (stallTimeout, ipcp_campaign --stall-timeout)
 * adds a second liveness axis: a worker's lease heartbeat proves the
 * process is alive, its pulse-<owner> beacon proves the simulation is
 * advancing. A worker whose pulse epoch stays frozen on one job for
 * longer than the timeout is wedged, not slow — the supervisor
 * SIGKILLs it, quarantines the stuck job (so a respawn does not walk
 * straight back into the same wedge), and lets the normal
 * reap/respawn path replace the process.
 */

#ifndef BOUQUET_CAMPAIGN_SUPERVISOR_HH
#define BOUQUET_CAMPAIGN_SUPERVISOR_HH

#include <cstdint>
#include <map>
#include <string>

#include <sys/types.h>

namespace bouquet::campaign
{

/** Fleet shape and behaviour knobs. */
struct SupervisorOptions
{
    unsigned workers = 4;     //!< worker processes to keep alive
    unsigned respawnBudget = 8;  //!< replacement forks allowed in total
    std::string workerBin;    //!< ipcp_sim path (required)
    bool progress = true;     //!< stream counts to stderr
    bool strict = false;      //!< quarantined jobs fail the exit code
    /** Seconds a worker's progress epoch may stay frozen on one job
     *  before it is killed; 0 = off. */
    double stallTimeout = 0.0;
};

/**
 * Pure stall-detection state machine, one entry per observed worker,
 * factored out of the supervisor loop so tests can drive it with a
 * synthetic clock. A worker is stalled when it reports the same
 * (job, epoch) pair for longer than the timeout; any epoch advance,
 * job change, or idle report resets its clock. With timeout <= 0 the
 * tracker never fires.
 */
class StallTracker
{
  public:
    explicit StallTracker(double timeout_secs)
        : timeout_(timeout_secs)
    {
    }

    /**
     * Record one pulse observation at wall-time `now` (seconds, any
     * monotonic origin). Returns true when this worker has been
     * frozen on `job_hash` beyond the timeout.
     */
    bool observe(pid_t pid, std::uint64_t epoch,
                 const std::string &job_hash, double now);

    /** Drop a worker's state (killed or exited). */
    void forget(pid_t pid);

  private:
    struct Seen
    {
        std::uint64_t epoch = 0;
        std::string hash;
        double since = 0.0;
    };

    double timeout_;
    std::map<pid_t, Seen> seen_;
};

class WorkQueue;

/**
 * The stall watchdog's bookkeeping once it has SIGKILLed worker
 * `owner` wedged on `job_hash`: charge the killed attempt (its worker
 * never will), record why, quarantine the job, and drop the worker's
 * pulse.
 */
void quarantineStalled(const WorkQueue &queue,
                       const std::string &job_hash,
                       const std::string &owner);

/**
 * Drive the campaign at `root` to completion. Returns the campaign
 * exit code: 0 when every job is terminal and at least one is done
 * (strict additionally requires zero quarantined jobs); 1 otherwise.
 */
int runSupervisor(const std::string &root,
                  const SupervisorOptions &opts);

} // namespace bouquet::campaign

#endif // BOUQUET_CAMPAIGN_SUPERVISOR_HH
