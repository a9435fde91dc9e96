/**
 * @file
 * The stateless campaign worker: `ipcp_sim --worker <dir>` calls
 * runWorker(), which loops claiming jobs from the campaign's work
 * queue, simulating them through the harness Runner (periodic
 * checkpoints on, retries per IPCP_RETRIES) and publishing each
 * outcome as the job's done file — until every job is terminal or a
 * SIGINT/SIGTERM drain is requested. A reclaimed job auto-resumes the
 * dead owner's key-derived checkpoint through the ordinary
 * prepare-system path. On start a worker removes stale publish temps
 * from the campaign's ckpts/ (removeStaleFiles).
 */

#ifndef BOUQUET_CAMPAIGN_WORKER_HH
#define BOUQUET_CAMPAIGN_WORKER_HH

#include <string>

namespace bouquet::campaign
{

/**
 * Process jobs from the campaign at `root` until all are done or
 * quarantined (returns 0), the worker is asked to drain (returns 0
 * after finishing the in-flight job), or the campaign cannot be
 * loaded (returns 1).
 */
int runWorker(const std::string &root);

} // namespace bouquet::campaign

#endif // BOUQUET_CAMPAIGN_WORKER_HH
