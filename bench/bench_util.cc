#include "bench/bench_util.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fstream>

#include "common/bitops.hh"
#include "common/stats.hh"
#include "harness/report.hh"

namespace bouquet::bench
{

namespace
{

std::atomic<std::size_t> g_jobFailures{0};
std::atomic<std::size_t> g_jobSuccesses{0};

} // namespace

OutcomeStore &
globalStore()
{
    static OutcomeStore s([] {
        const char *env = std::getenv("IPCP_CACHE_FILE");
        return std::string(env != nullptr ? env : "bench_cache.bin");
    }());
    return s;
}

Runner &
runner()
{
    // First use arms graceful Ctrl-C/SIGTERM handling: in-flight jobs
    // finish (flushing pending checkpoints), the rest fail as
    // interrupted, and the partial batch summary still prints.
    static const bool handlers = (installSignalHandlers(), true);
    (void)handlers;
    static Runner r;
    return r;
}

namespace
{

/** Fold a finished batch into the process-wide exit-code tallies. */
void
accountBatch(const BatchStats &stats)
{
    g_jobFailures.fetch_add(stats.failed, std::memory_order_relaxed);
    const std::size_t total = stats.jobs;
    g_jobSuccesses.fetch_add(total > stats.failed ? total - stats.failed
                                                  : 0,
                             std::memory_order_relaxed);
}

} // namespace

std::vector<JobOutcome>
submitJobs(const std::vector<Job> &jobs)
{
    auto fetch = [](const Job &j, Outcome &out) {
        return globalStore().get(jobKey(j), out);
    };
    auto store = [](const Job &j, const Outcome &out) {
        if (Status s = globalStore().put(jobKey(j), out); !s.ok())
            throw ErrorException(s.error());
    };
    std::vector<JobOutcome> results = runner().run(jobs, fetch, store);
    runner().lastBatch().print(std::cerr);
    accountBatch(runner().lastBatch());
    return results;
}

std::vector<std::vector<JobOutcome>>
runBatch(const std::vector<TraceSpec> &traces,
         const std::vector<Combo> &combos, const ExperimentConfig &cfg)
{
    std::vector<Job> jobs;
    jobs.reserve(traces.size() * combos.size());
    for (const Combo &c : combos)
        for (const TraceSpec &t : traces)
            jobs.push_back(Job{t, c.label, c.attach, cfg});
    std::vector<JobOutcome> outs = submitJobs(jobs);
    std::vector<std::vector<JobOutcome>> grid(combos.size());
    for (std::size_t i = 0; i < outs.size(); ++i)
        grid[i / traces.size()].push_back(std::move(outs[i]));
    return grid;
}

std::vector<MixJobOutcome>
runMixBatch(const std::vector<MixJob> &jobs)
{
    std::vector<MixJobOutcome> results = runner().runMixes(jobs);
    runner().lastBatch().print(std::cerr);
    accountBatch(runner().lastBatch());
    return results;
}

Combo
namedCombo(const std::string &name)
{
    return Combo{name, [name](System &s) { applyCombo(s, name); }};
}

std::vector<Combo>
tableIIIComboSet()
{
    std::vector<Combo> combos;
    for (const std::string &name : tableIIICombos())
        combos.push_back(namedCombo(name));
    return combos;
}

ExperimentConfig
defaultConfig()
{
    return ExperimentConfig::fromEnv();
}

std::vector<double>
speedupTable(std::ostream &os, const std::vector<TraceSpec> &traces,
             const std::vector<Combo> &combos,
             const ExperimentConfig &cfg, bool per_trace_rows)
{
    std::vector<std::string> header{"trace"};
    for (const Combo &c : combos)
        header.push_back(c.label);
    TablePrinter table(header);

    std::vector<MeanAccumulator> means(combos.size());
    const Combo baseline = namedCombo("none");
    Report report;

    // Fan the whole experiment (baseline included) across the worker
    // pool in one batch; a failed job costs only its own cell — or,
    // for the baseline, its trace's row.
    std::vector<Combo> all{baseline};
    all.insert(all.end(), combos.begin(), combos.end());
    const std::vector<std::vector<JobOutcome>> outs =
        runBatch(traces, all, cfg);

    for (std::size_t t = 0; t < traces.size(); ++t) {
        const JobOutcome &base = outs[0][t];
        if (!base.ok) {
            std::cerr << "[bench] skipping " << traces[t].name
                      << ": baseline failed: " << base.error << "\n";
            continue;
        }
        report.add(traces[t].name, baseline.label, base.outcome);
        std::vector<std::string> row{traces[t].name};
        for (std::size_t c = 0; c < combos.size(); ++c) {
            const JobOutcome &jo = outs[c + 1][t];
            if (!jo.ok) {
                row.push_back("n/a");
                continue;
            }
            report.add(traces[t].name, combos[c].label, jo.outcome);
            const double speedup = base.outcome.ipc > 0
                                       ? jo.outcome.ipc / base.outcome.ipc
                                       : 0;
            means[c].add(speedup);
            row.push_back(TablePrinter::pct(speedup));
        }
        if (per_trace_rows)
            table.addRow(std::move(row));
    }

    if (const char *csv = std::getenv("IPCP_REPORT_CSV");
        csv != nullptr && *csv != '\0') {
        std::ofstream out(csv, std::ios::app);
        report.writeCsv(out);
    }

    std::vector<std::string> geo_row{"GEOMEAN"};
    std::vector<double> geo;
    for (auto &m : means) {
        geo.push_back(m.geometricMean());
        geo_row.push_back(TablePrinter::pct(m.geometricMean()));
    }
    table.addRow(std::move(geo_row));
    table.print(os);
    return geo;
}

std::vector<TraceSpec>
sensitivitySubset()
{
    const char *names[] = {
        "603.bwaves_s-891B",   "602.gcc_s-2226B",
        "607.cactuBSSN_s-2421B", "619.lbm_s-2676B",
        "605.mcf_s-994B",      "605.mcf_s-1536B",
        "620.omnetpp_s-141B",  "621.wrf_s-6673B",
        "627.cam4_s-490B",     "649.fotonik3d_s-1176B",
        "654.roms_s-842B",     "657.xz_s-2302B",
    };
    std::vector<TraceSpec> v;
    for (const char *n : names)
        v.push_back(findTrace(n));
    return v;
}

std::size_t
batchFailures()
{
    return g_jobFailures.load(std::memory_order_relaxed);
}

std::size_t
batchSuccesses()
{
    return g_jobSuccesses.load(std::memory_order_relaxed);
}

int
exitCode()
{
    const std::size_t fail = g_jobFailures.load();
    if (fail == 0)
        return 0;
    if (const char *strict = std::getenv("IPCP_STRICT");
        strict != nullptr && *strict != '\0')
        return 1;
    return g_jobSuccesses.load() == 0 ? 1 : 0;
}

} // namespace bouquet::bench
