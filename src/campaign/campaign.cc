#include "campaign/campaign.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/env.hh"
#include "common/stateio.hh"
#include "harness/experiment.hh"
#include "harness/factory.hh"
#include "trace/suite.hh"

namespace bouquet::campaign
{

namespace
{

constexpr const char *kManifestHeader = "ipcp-campaign-manifest v1";

} // namespace

CampaignSpec
defaultSweep(std::size_t max_traces,
             const std::vector<std::string> &combos)
{
    CampaignSpec spec;
    const ExperimentConfig env = ExperimentConfig::fromEnv();
    spec.simInstrs = env.simInstrs;
    spec.warmupInstrs = env.warmupInstrs;

    std::vector<std::string> combo_names = combos;
    if (combo_names.empty()) {
        combo_names.push_back("none");
        for (const std::string &name : tableIIICombos())
            combo_names.push_back(name);
    }
    const std::vector<TraceSpec> &traces = memIntensiveTraces();
    const std::size_t count =
        max_traces == 0 ? traces.size()
                        : std::min(max_traces, traces.size());
    for (const std::string &combo : combo_names)
        for (std::size_t t = 0; t < count; ++t)
            spec.jobs.push_back(CampaignJob{traces[t].name, combo});
    return spec;
}

Status
initCampaignDirs(const CampaignPaths &paths)
{
    for (const std::string &dir :
         {paths.root, paths.queueDir(), paths.statsDir(),
          paths.ckptDir(), paths.warmDir()}) {
        if (Status s = ensureDir(dir); !s.ok())
            return s;
    }
    return Status();
}

Status
writeManifest(const CampaignPaths &paths, const CampaignSpec &spec)
{
    if (Status s = initCampaignDirs(paths); !s.ok())
        return s;
    std::ostringstream os;
    os << kManifestHeader << "\n"
       << "sim_instrs=" << spec.simInstrs << "\n"
       << "warmup_instrs=" << spec.warmupInstrs << "\n";
    for (const CampaignJob &job : spec.jobs)
        os << "job " << job.trace << " " << job.combo << "\n";
    return publishFile(paths.manifestFile(), os.str());
}

Result<CampaignSpec>
readManifest(const CampaignPaths &paths)
{
    std::ifstream is(paths.manifestFile());
    if (!is)
        return makeError(Errc::io,
                         "no manifest at " + paths.manifestFile());
    std::string line;
    if (!std::getline(is, line) || line != kManifestHeader)
        return makeError(Errc::corrupt,
                         paths.manifestFile() +
                             ": not a campaign manifest");
    CampaignSpec spec;
    bool have_sim = false;
    bool have_warmup = false;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        if (line.rfind("sim_instrs=", 0) == 0) {
            // A half-written or bit-rotted manifest must surface as a
            // Status, not a std::invalid_argument flying out of
            // stoull past every Result<> in the call chain.
            if (!parseU64(line.substr(11), spec.simInstrs))
                return makeError(Errc::corrupt,
                                 "bad manifest line: " + line);
            have_sim = true;
        } else if (line.rfind("warmup_instrs=", 0) == 0) {
            if (!parseU64(line.substr(14), spec.warmupInstrs))
                return makeError(Errc::corrupt,
                                 "bad manifest line: " + line);
            have_warmup = true;
        } else if (line.rfind("job ", 0) == 0) {
            std::string tag;
            CampaignJob job;
            fields >> tag >> job.trace >> job.combo;
            if (job.trace.empty() || job.combo.empty())
                return makeError(Errc::corrupt,
                                 "bad manifest job line: " + line);
            spec.jobs.push_back(std::move(job));
        } else {
            return makeError(Errc::corrupt,
                             "bad manifest line: " + line);
        }
    }
    if (!have_sim || !have_warmup || spec.jobs.empty())
        return makeError(Errc::corrupt,
                         paths.manifestFile() +
                             ": incomplete manifest");
    return spec;
}

ExperimentConfig
campaignConfig(const CampaignPaths &paths, const CampaignSpec &spec)
{
    ExperimentConfig cfg = ExperimentConfig::fromEnv();
    cfg.simInstrs = spec.simInstrs;
    cfg.warmupInstrs = spec.warmupInstrs;
    cfg.statsDir = paths.statsDir();
    cfg.ckptDir = paths.ckptDir();
    if (cfg.ckptEvery == 0)
        cfg.ckptEvery = 250'000;
    // Campaigns rate-limit crash checkpoints by wall clock unless the
    // operator pinned a cadence: at the forced 250k-cycle interval a
    // short job would otherwise spend most of its time in fsync. An
    // empty or malformed value keeps this default, not fromEnv's 0.
    cfg.ckptMinMs = envU64("IPCP_CKPT_MIN_MS", 500);
    // Warm-state sharing defaults on, inside the campaign directory,
    // so every worker of every fleet run shares one prefix cache.
    // IPCP_WARM_DIR (via fromEnv) points it elsewhere; IPCP_WARM=0
    // disables it entirely.
    const char *warm = std::getenv("IPCP_WARM");
    if (warm != nullptr && std::string(warm) == "0")
        cfg.warmDir.clear();
    else if (cfg.warmDir.empty())
        cfg.warmDir = paths.warmDir();
    return cfg;
}

std::string
keyOf(const CampaignJob &job, const ExperimentConfig &cfg)
{
    return jobKey(job.trace, job.combo, cfg);
}

Result<Job>
materialize(const CampaignJob &job, const ExperimentConfig &cfg)
{
    const std::string combo = job.combo;
    if (isFileTrace(job.trace)) {
        // A captured trace file: decoded by the job body into its
        // TraceFileGenerator. A missing/corrupt file surfaces then,
        // failing that job only.
        return Job{fileTraceSpec(job.trace), combo,
                   [combo](System &s) { applyCombo(s, combo); }, cfg};
    }
    const TraceSpec *spec = findTraceOrNull(job.trace);
    if (spec == nullptr)
        return makeError(Errc::unknown_name,
                         "unknown trace '" + job.trace + "'");
    return Job{*spec, combo,
               [combo](System &s) { applyCombo(s, combo); }, cfg};
}

} // namespace bouquet::campaign
