/**
 * @file
 * Campaign-scale design-space exploration over the IPCP parameter
 * space (DESIGN.md §5j).
 *
 * The driver runs successive halving on top of the campaign
 * substrate: rung 1 simulates every grid point for a short run
 * length, scores each candidate by its geomean speedup over the
 * no-prefetch baseline, keeps the best `survivorFraction`, and
 * promotes the survivors to the next (longer) rung. Every rung is an
 * ordinary campaign directory under the search root —
 *
 *   <root>/rung-1/        campaign for rungInstrs[0]
 *   <root>/rung-2/        campaign for rungInstrs[1] (survivors)
 *   <root>/warm/          warm states shared by ALL rungs
 *   <root>/report.json    deterministic search result
 *   <root>/summary.json   provenance (attempts, warm hits, ...)
 *
 * — so a killed search resumes where it stopped (manifests are
 * submit-once; a finished job's done file carries its outcome), and
 * rung N+1 fast-forwards through warmup using the states rung N
 * published: warmupKey() excludes the measurement length by design,
 * which is exactly what makes halving cheap.
 *
 * Determinism contract: with the same options and seed, report.json
 * is byte-identical across runs — it contains only simulated data
 * (scores, IPCs, storage bits) and deterministically ordered
 * candidate lists. Provenance that legitimately varies (attempt
 * counts, warm hit/miss splits) lives in summary.json.
 */

#ifndef BOUQUET_DSE_DSE_HH
#define BOUQUET_DSE_DSE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "campaign/aggregate.hh"
#include "common/errors.hh"
#include "dse/space.hh"

namespace bouquet::dse
{

/** What to search, where, and how hard. */
struct DseOptions
{
    std::string root;                 //!< search directory (created)
    std::vector<std::string> traces;  //!< workload names (required)
    SearchSpace space;                //!< knobs; default = defaultSpace()

    /** Measurement lengths per rung, shortest first. */
    std::vector<std::uint64_t> rungInstrs = {15'000, 40'000};
    std::uint64_t warmupInstrs = 5'000;

    /** Fraction of candidates promoted per rung (ceil, min 1). */
    double survivorFraction = 0.5;

    std::size_t sample = 0;    //!< 0 = full grid, else seeded subset
    std::uint64_t seed = 1;    //!< grid-sampling seed

    /** 0/1 = run jobs in-process; >1 = fork a worker fleet. */
    unsigned workers = 1;
    std::string workerBin;     //!< ipcp_sim path (fleet mode only)

    std::string gatePath;      //!< verify headline numbers against
    std::string gateOutPath;   //!< write this run's gate file
    double gateTolerance = 0.0;  //!< relative; 0 = exact

    bool progress = true;      //!< narrate rungs on stderr
};

/** One configuration's showing at one rung. */
struct DseCandidate
{
    std::string combo;
    double score = 0.0;             //!< geomean speedup vs "none"
    std::uint64_t storageBits = 0;  //!< L1 + (optional) L2 hardware
    /** Per-trace results in DseOptions::traces order. */
    std::vector<std::pair<std::string, double>> ipc;
    std::vector<std::pair<std::string, double>> speedup;
};

/** One completed rung. */
struct DseRung
{
    std::uint64_t simInstrs = 0;
    /** Sorted: score descending, combo ascending on ties. */
    std::vector<DseCandidate> candidates;
    std::vector<std::string> survivors;
    /** Provenance (summary.json only; varies run to run). */
    campaign::CampaignTotals totals;
};

/** The full search result (mirrors report.json). */
struct DseReport
{
    std::vector<DseRung> rungs;
    std::string bestCombo;
    double bestScore = 0.0;
    /** Final-rung storage/speedup Pareto front, storage ascending. */
    std::vector<DseCandidate> pareto;
    /** Per-workload winner at the final rung: (trace, combo). */
    std::vector<std::pair<std::string, std::string>> bestPerTrace;
};

/**
 * Run the search: enumerate, then halve rung by rung, then publish
 * <root>/report.json and <root>/summary.json. Fails (without
 * artifacts) on unusable options, a campaign that cannot complete, a
 * missing baseline outcome, or a gate mismatch.
 */
Result<DseReport> runSearch(const DseOptions &opts);

/**
 * Pin the default configuration's final-rung numbers to a text gate
 * file (`ipcp-dse-gate v1`): per-trace IPC and speedup plus the
 * geomean, at full round-trip precision.
 */
Status writeGate(const std::string &path, const DseReport &report,
                 const DseOptions &opts);

/**
 * Re-check a gate file against this run. Every pinned number must
 * match within `tolerance` (relative; 0 = exactly). A mismatch is
 * Errc::failed with the offending line in the message.
 */
Status checkGate(const std::string &path, const DseReport &report,
                 const DseOptions &opts);

} // namespace bouquet::dse

#endif // BOUQUET_DSE_DSE_HH
