/**
 * @file
 * Campaign aggregation: folds the queue's done files (each carrying
 * its job's Outcome) and terminal markers into two JSON artifacts.
 *
 *   report.json   deterministic: manifest order, simulated stats only
 *                 (IPC, instruction/cycle counts, demand misses, DRAM
 *                 traffic). Byte-identical no matter how many workers
 *                 ran, died, or resumed from checkpoints.
 *   summary.json  provenance: per-job attempts, reclaims, resumes and
 *                 quarantine histories, plus fleet totals. Owner ids
 *                 and counts vary run to run by design. A done job's
 *                 successful attempt and its warm hit or miss come
 *                 from its done file; everything else from its
 *                 history, which a clean job does not have.
 */

#ifndef BOUQUET_CAMPAIGN_AGGREGATE_HH
#define BOUQUET_CAMPAIGN_AGGREGATE_HH

#include <cstdint>
#include <functional>
#include <string>

#include "campaign/campaign.hh"
#include "common/errors.hh"
#include "common/json.hh"

namespace bouquet::campaign
{

/** Fleet-level provenance totals extracted while summarizing. */
struct CampaignTotals
{
    std::size_t jobs = 0;
    std::size_t done = 0;
    std::size_t quarantined = 0;
    std::size_t incomplete = 0;    //!< neither done nor quarantined
    std::uint64_t attempts = 0;    //!< started executions
    std::uint64_t reclaims = 0;    //!< orphaned-lease takeovers
    std::uint64_t resumed = 0;     //!< runs continued from checkpoint
    std::uint64_t warmHits = 0;    //!< done jobs that skipped warmup
    std::uint64_t warmMisses = 0;  //!< done jobs that simulated it
    // Degraded publishes (writes downgraded to pass-through, §5i),
    // summed from per-job history lines.
    std::uint64_t degradedStore = 0;
    std::uint64_t degradedWarm = 0;
    std::uint64_t degradedCkpt = 0;
    std::uint64_t degradedStats = 0;

    std::uint64_t degradedTotal() const
    {
        return degradedStore + degradedWarm + degradedCkpt +
               degradedStats;
    }
};

/** Write the JSON document `body` emits (pretty, with a trailing
 *  newline) to `path` through publishFile. */
Status publishJson(const std::string &path,
                   const std::function<void(JsonWriter &)> &body);

/** Write report.json (deterministic aggregate). */
Status writeReport(const CampaignPaths &paths,
                   const CampaignSpec &spec);

/** Write summary.json; returns the totals for progress/exit logic. */
Result<CampaignTotals> writeSummary(const CampaignPaths &paths,
                                    const CampaignSpec &spec);

} // namespace bouquet::campaign

#endif // BOUQUET_CAMPAIGN_AGGREGATE_HH
