/**
 * @file
 * ipcp_campaign — front-end for sharded, crash-tolerant sweeps.
 *
 *   ipcp_campaign submit DIR [--traces N] [--combos a,b,c]
 *   ipcp_campaign run DIR [--workers N] [--respawn M]
 *                         [--worker-bin PATH] [--strict]
 *   ipcp_campaign status DIR
 *   ipcp_campaign aggregate DIR
 *
 * `submit` writes the manifest (the DESIGN.md §5 figure sweep by
 * default: every memory-intensive trace under the baseline and the
 * Table III combos, at IPCP_SIM_INSTRS/IPCP_WARMUP_INSTRS run
 * lengths). `run` submits if needed, forks `--workers` stateless
 * `ipcp_sim --worker DIR` processes, streams progress, respawns dead
 * workers, and aggregates report.json + summary.json when every job
 * is done or quarantined. Workers may equally be started by hand on
 * any machine sharing the directory. IPCP_LEASE_TTL (seconds,
 * default 30) tunes the queue; a poison job is parked after 3 started
 * attempts.
 */

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include <unistd.h>

#include "campaign/aggregate.hh"
#include "campaign/campaign.hh"
#include "campaign/queue.hh"
#include "campaign/supervisor.hh"
#include "common/env.hh"
#include "harness/factory.hh"
#include "harness/runner.hh"

namespace
{

using namespace bouquet;
using namespace bouquet::campaign;

void
usage()
{
    std::cout <<
        "usage: ipcp_campaign <command> DIR [options]\n"
        "  submit DIR           write the manifest + directory tree\n"
        "    --traces N         first N memory-intensive traces "
        "(default all)\n"
        "    --combos a,b,c     combo list (default none + Table III)\n"
        "  run DIR              submit if needed, drive to completion\n"
        "    --workers N        worker processes (default 4)\n"
        "    --respawn M        respawn budget for dead workers "
        "(default 8)\n"
        "    --worker-bin PATH  ipcp_sim binary (default: next to "
        "this one)\n"
        "    --no-progress      suppress the live counts line\n"
        "    --strict           quarantined jobs fail the exit code\n"
        "                       (also IPCP_STRICT)\n"
        "    --stall-timeout S  kill a worker whose simulation makes\n"
        "                       no progress for S seconds and\n"
        "                       quarantine its job (default off)\n"
        "  status DIR           print one counts line and exit\n"
        "  aggregate DIR        rewrite report.json + summary.json\n"
        "env: IPCP_LEASE_TTL, IPCP_SIM_INSTRS, IPCP_WARMUP_INSTRS,\n"
        "     IPCP_CKPT_EVERY, IPCP_WARM_DIR, IPCP_WARM\n"
        "     (README.md's knob table lists every knob)\n";
}

/** ipcp_sim lives next to ipcp_campaign unless told otherwise. */
std::string
siblingWorkerBin(const char *argv0)
{
    const std::string self = argv0;
    const std::size_t slash = self.find_last_of('/');
    if (slash == std::string::npos)
        return "ipcp_sim";
    return self.substr(0, slash + 1) + "ipcp_sim";
}


int
submitIfMissing(const CampaignPaths &paths, std::size_t max_traces,
                const std::vector<std::string> &combos)
{
    if (readManifest(paths).ok())
        return 0;
    const CampaignSpec spec = defaultSweep(max_traces, combos);
    if (Status s = writeManifest(paths, spec); !s.ok()) {
        std::cerr << "error: " << s.error().message << "\n";
        return 1;
    }
    std::cerr << "[campaign] submitted " << spec.jobs.size()
              << " jobs to " << paths.root << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    installSignalHandlers();  // Ctrl-C = graceful fleet drain

    if (argc < 3) {
        usage();
        return 2;
    }
    const std::string command = argv[1];
    const std::string root = argv[2];
    const CampaignPaths paths(root);

    SupervisorOptions opts;
    opts.workerBin = siblingWorkerBin(argv[0]);
    std::size_t max_traces = 0;
    std::vector<std::string> combos;
    if (const char *env = std::getenv("IPCP_STRICT");
        env != nullptr && *env != '\0')
        opts.strict = true;

    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << arg << "\n";
                std::exit(2);
            }
            return argv[++i];
        };
        auto u64Value = [&]() -> std::uint64_t {
            const std::string v = value();
            std::uint64_t out = 0;
            if (!parseU64(v, out)) {
                std::cerr << arg << " wants an unsigned integer, got '"
                          << v << "'\n";
                std::exit(2);
            }
            return out;
        };
        auto doubleValue = [&]() -> double {
            const std::string v = value();
            double out = 0.0;
            if (!parseDouble(v, out)) {
                std::cerr << arg << " wants a number, got '" << v
                          << "'\n";
                std::exit(2);
            }
            return out;
        };
        if (arg == "--traces") {
            max_traces = static_cast<std::size_t>(u64Value());
        } else if (arg == "--combos") {
            combos = splitComboList(value());
        } else if (arg == "--workers") {
            opts.workers = static_cast<unsigned>(u64Value());
        } else if (arg == "--respawn") {
            opts.respawnBudget = static_cast<unsigned>(u64Value());
        } else if (arg == "--worker-bin") {
            opts.workerBin = value();
        } else if (arg == "--no-progress") {
            opts.progress = false;
        } else if (arg == "--stall-timeout") {
            opts.stallTimeout = doubleValue();
        } else if (arg == "--strict") {
            opts.strict = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            usage();
            return 2;
        }
    }
    if (opts.workers == 0)
        opts.workers = 1;

    if (command == "submit")
        return submitIfMissing(paths, max_traces, combos) == 0 ? 0
                                                               : 1;

    Result<CampaignSpec> manifest = readManifest(paths);
    if (command == "run") {
        if (!manifest.ok() &&
            submitIfMissing(paths, max_traces, combos) != 0)
            return 1;
        return runSupervisor(root, opts);
    }

    if (!manifest.ok()) {
        std::cerr << "error: " << manifest.error().message << "\n";
        return 1;
    }
    const CampaignSpec spec = manifest.take();

    if (command == "status") {
        const ExperimentConfig cfg = campaignConfig(paths, spec);
        WorkQueue queue(QueueConfig::fromEnv(paths.queueDir()),
                        "status");
        std::vector<std::string> hashes;
        for (const CampaignJob &job : spec.jobs)
            hashes.push_back(keyHash(keyOf(job, cfg)));
        const QueueCounts counts = queue.scan(hashes);
        std::cout << "done=" << counts.done
                  << " running=" << counts.leased
                  << " pending=" << counts.pending
                  << " orphaned=" << counts.orphaned
                  << " quarantined=" << counts.quarantined << "\n";
        return 0;
    }

    if (command == "aggregate") {
        if (Status s = writeReport(paths, spec); !s.ok()) {
            std::cerr << "error: " << s.error().message << "\n";
            return 1;
        }
        Result<CampaignTotals> totals = writeSummary(paths, spec);
        if (!totals.ok()) {
            std::cerr << "error: " << totals.error().message << "\n";
            return 1;
        }
        std::cout << "done=" << totals.value().done
                  << " quarantined=" << totals.value().quarantined
                  << " incomplete=" << totals.value().incomplete
                  << " attempts=" << totals.value().attempts
                  << " reclaims=" << totals.value().reclaims
                  << " resumes=" << totals.value().resumed << "\n";
        return 0;
    }

    std::cerr << "unknown command: " << command << "\n";
    usage();
    return 2;
}
