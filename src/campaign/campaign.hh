/**
 * @file
 * Campaign descriptions: what a sharded sweep runs and where it keeps
 * its state. A campaign is a directory —
 *
 *   <root>/manifest.txt   the job list (trace x combo) + run lengths
 *   <root>/queue/         lease / attempts / done / quarantine files;
 *                         a done file carries the job's Outcome
 *   <root>/stats/         per-job stats JSON (stats-<keyhash>.json)
 *   <root>/ckpts/         key-derived periodic checkpoints
 *   <root>/warm/          shared end-of-warmup states (§5h)
 *   <root>/report.json    deterministic aggregate (simulated stats)
 *   <root>/summary.json   provenance (attempts, reclaims, resumes)
 *
 * submitted once and then processed by any number of stateless
 * `ipcp_sim --worker <root>` processes (see queue.hh for the claim
 * protocol). Everything a worker needs is derived from the manifest,
 * so the sweep's identity — and with it every job key, artifact name
 * and checkpoint path — is pinned at submit time, not by each
 * worker's environment.
 */

#ifndef BOUQUET_CAMPAIGN_CAMPAIGN_HH
#define BOUQUET_CAMPAIGN_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/errors.hh"
#include "common/stateio.hh"  // keyHash names every per-job file
#include "harness/runner.hh"

namespace bouquet::campaign
{

/** One sweep cell: a named workload under a named combo. */
struct CampaignJob
{
    std::string trace;
    std::string combo;
};

/** The whole sweep plus the run lengths it was submitted with. */
struct CampaignSpec
{
    std::uint64_t simInstrs = 1'000'000;
    std::uint64_t warmupInstrs = 100'000;
    std::vector<CampaignJob> jobs;
};

/** Well-known locations inside a campaign directory. */
struct CampaignPaths
{
    explicit CampaignPaths(std::string root_dir)
        : root(std::move(root_dir))
    {
    }

    std::string root;

    std::string manifestFile() const { return root + "/manifest.txt"; }
    std::string queueDir() const { return root + "/queue"; }
    std::string statsDir() const { return root + "/stats"; }
    std::string ckptDir() const { return root + "/ckpts"; }
    /** Shared warm-state checkpoints (warm-<hash>.ckpt, §5h). */
    std::string warmDir() const { return root + "/warm"; }
    std::string reportFile() const { return root + "/report.json"; }
    std::string summaryFile() const { return root + "/summary.json"; }
};

/**
 * The DESIGN.md §5 figure sweep: every memory-intensive trace under
 * the no-prefetch baseline plus the Table III competitor combos.
 * `max_traces` trims the trace list (0 = all 46); a non-empty
 * `combos` replaces the default combo set.
 */
CampaignSpec defaultSweep(std::size_t max_traces = 0,
                          const std::vector<std::string> &combos = {});

/** Create the campaign directory tree (idempotent). */
Status initCampaignDirs(const CampaignPaths &paths);

/** Persist the manifest (publishFile; submit-once). */
Status writeManifest(const CampaignPaths &paths,
                     const CampaignSpec &spec);

/** Load and validate the manifest. */
Result<CampaignSpec> readManifest(const CampaignPaths &paths);

/**
 * The experiment configuration every worker runs jobs under: run
 * lengths from the manifest, stats/checkpoint artifacts inside the
 * campaign directory, and periodic checkpointing forced on (default
 * 250k cycles) so a SIGKILLed worker's successor can resume.
 */
ExperimentConfig campaignConfig(const CampaignPaths &paths,
                                const CampaignSpec &spec);

/**
 * The memoization key of a campaign job: the runner's jobKey() of its
 * trace name and combo, computable for jobs that cannot be
 * materialized (unknown trace), so queue artifacts exist for poison
 * jobs too.
 */
std::string keyOf(const CampaignJob &job, const ExperimentConfig &cfg);

/**
 * Turn a campaign job into a runnable harness Job. Fails with
 * Errc::unknown_name for an unknown trace (the caller quarantines);
 * an unknown combo surfaces later, when the attach hook runs.
 */
Result<Job> materialize(const CampaignJob &job,
                        const ExperimentConfig &cfg);

} // namespace bouquet::campaign

#endif // BOUQUET_CAMPAIGN_CAMPAIGN_HH
