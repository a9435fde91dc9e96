/**
 * @file
 * Fig. 15 — multi-core summary: normalized weighted speedup over no
 * prefetching for homogeneous memory-intensive mixes (4- and 8-core)
 * and heterogeneous random mixes, for the top combinations.
 *
 * The paper evaluates >1000 mixes; this bench samples IPCP_MIXES
 * (default 12) per category with a fixed seed — raise the knob for a
 * paper-scale run.
 */

#include <iostream>
#include <map>

#include "bench/bench_util.hh"
#include "common/stats.hh"

namespace
{

using namespace bouquet;
using namespace bouquet::bench;

/** The no-prefetching single-core outcome of each trace, by name. */
using AloneRuns = std::map<std::string, JobOutcome>;

/**
 * Weighted speedup of one mix outcome. IPC_alone is always taken from
 * the no-prefetching single-core runs: the paper normalizes every
 * configuration against the same alone-IPC reference, so the ratio
 * WS_combo / WS_none measures what prefetching does to the mix rather
 * than how much of its single-core gain it retains.
 */
Result<double>
weightedSpeedupOf(const MixOutcome &out, const AloneRuns &alone)
{
    double ws = 0;
    for (std::size_t i = 0; i < out.traces.size(); ++i) {
        const JobOutcome &ref = alone.at(out.traces[i]);
        if (!ref.ok)
            return makeError(Errc::failed, ref.error);
        if (ref.outcome.ipc > 0)
            ws += out.ipc[i] / ref.outcome.ipc;
    }
    return ws;
}

} // namespace

int
main()
{
    const ExperimentConfig cfg = defaultConfig();
    printBanner(std::cout, "fig15",
                "Multi-core summary (Fig. 15)");

    const std::vector<Combo> combos{
        namedCombo("spp-ppf-dspatch"), namedCombo("mlop"),
        namedCombo("bingo"), namedCombo("ipcp")};
    const Combo baseline = namedCombo("none");

    struct Category
    {
        std::string name;
        std::vector<std::vector<TraceSpec>> mixes;
    };
    std::vector<Category> categories;

    // Homogeneous 4-core mixes: one trace replicated per core.
    {
        Category cat{"homog-4core", {}};
        const auto &pool = memIntensiveTraces();
        for (unsigned i = 0; i < cfg.mixes && i < pool.size(); ++i) {
            // Spread across the pool deterministically.
            const TraceSpec &t = pool[(i * 7) % pool.size()];
            cat.mixes.push_back({t, t, t, t});
        }
        categories.push_back(std::move(cat));
    }
    // Heterogeneous 4-core mixes from the memory-intensive pool.
    categories.push_back(
        {"hetero-4core-memint",
         sampleMixes(memIntensiveTraces(), 4, cfg.mixes, 1001)});
    // Heterogeneous 4-core mixes from the full suite (paper's random
    // mixes).
    categories.push_back(
        {"hetero-4core-full",
         sampleMixes(fullSuiteTraces(), 4, cfg.mixes, 1002)});
    // Homogeneous 8-core mixes (half the count: costly).
    {
        Category cat{"homog-8core", {}};
        const auto &pool = memIntensiveTraces();
        for (unsigned i = 0; i < cfg.mixes / 2 && i < pool.size(); ++i) {
            const TraceSpec &t = pool[(i * 11) % pool.size()];
            cat.mixes.push_back(std::vector<TraceSpec>(8, t));
        }
        categories.push_back(std::move(cat));
    }

    // The alone-IPC references: one single-core baseline run per
    // distinct trace, batched across the worker pool.
    AloneRuns alone;
    {
        std::vector<TraceSpec> traces;
        for (const Category &cat : categories)
            for (const auto &mix : cat.mixes)
                for (const TraceSpec &t : mix)
                    if (alone.emplace(t.name, JobOutcome{}).second)
                        traces.push_back(t);
        std::vector<JobOutcome> outs =
            runBatch(traces, {baseline}, cfg)[0];
        for (std::size_t i = 0; i < traces.size(); ++i)
            alone[traces[i].name] = std::move(outs[i]);
    }

    // Batch-submit every mix simulation: per mix, the no-prefetching
    // baseline followed by each combo, category by category. Results
    // come back in this submission order.
    std::vector<MixJob> mix_jobs;
    for (const Category &cat : categories) {
        for (const auto &mix : cat.mixes) {
            mix_jobs.push_back(
                MixJob{mix, cat.name + "|" + baseline.label,
                       baseline.attach, cfg});
            for (const Combo &c : combos)
                mix_jobs.push_back(MixJob{mix, cat.name + "|" + c.label,
                                          c.attach, cfg});
        }
    }
    const std::vector<MixJobOutcome> mix_results = runMixBatch(mix_jobs);

    TablePrinter table({"category", "mixes", "spp-ppf-dspatch", "mlop",
                        "bingo", "ipcp"});
    std::vector<MeanAccumulator> overall(combos.size());

    std::size_t job = 0;
    for (const Category &cat : categories) {
        std::vector<MeanAccumulator> means(combos.size());
        for (const auto &mix : cat.mixes) {
            // One baseline mix simulation per mix, shared by combos.
            // Consume all of the mix's job slots before any skip so a
            // failed mix never shifts the remaining alignment.
            const MixJobOutcome &base_jo = mix_results[job++];
            const std::size_t combo_base = job;
            job += combos.size();
            if (!base_jo.ok) {
                std::cerr << "[fig15] skipping a " << cat.name
                          << " mix: baseline failed: " << base_jo.error
                          << "\n";
                continue;
            }
            const Result<double> ws_none =
                weightedSpeedupOf(base_jo.outcome, alone);
            if (!ws_none.ok()) {
                std::cerr << "[fig15] skipping a " << cat.name
                          << " mix: " << ws_none.error().message << "\n";
                continue;
            }
            for (std::size_t c = 0; c < combos.size(); ++c) {
                const MixJobOutcome &jo = mix_results[combo_base + c];
                if (!jo.ok) {
                    std::cerr << "[fig15] skipping " << cat.name << "|"
                              << combos[c].label << ": " << jo.error
                              << "\n";
                    continue;
                }
                const Result<double> ws =
                    weightedSpeedupOf(jo.outcome, alone);
                if (!ws.ok()) {
                    std::cerr << "[fig15] skipping " << cat.name << "|"
                              << combos[c].label << ": "
                              << ws.error().message << "\n";
                    continue;
                }
                const double nws = ws_none.value() > 0
                                       ? ws.value() / ws_none.value()
                                       : 0.0;
                means[c].add(nws);
                overall[c].add(nws);
            }
        }
        std::vector<std::string> row{
            cat.name, std::to_string(cat.mixes.size())};
        for (auto &m : means)
            row.push_back(TablePrinter::pct(m.geometricMean()));
        table.addRow(std::move(row));
    }
    std::vector<std::string> row{"OVERALL", ""};
    for (auto &m : overall)
        row.push_back(TablePrinter::pct(m.geometricMean()));
    table.addRow(std::move(row));
    table.print(std::cout);

    std::cout << "\nPaper: IPCP 23.4% overall; Bingo 20.9%, MLOP 20%.\n"
                 "Homogeneous memory-intensive mixes are bandwidth-bound\n"
                 "and gain less than single-core.\n";
    return bouquet::bench::exitCode();
}
