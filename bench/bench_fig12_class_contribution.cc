/**
 * @file
 * Fig. 12 — contribution of each IPCP class (CS, CPLX, GS, NL) to the
 * L1 prefetch coverage, per memory-intensive trace, from the per-line
 * class-attribution bits.
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "common/stats.hh"
#include "ipcp/metadata.hh"

int
main()
{
    using namespace bouquet;
    using namespace bouquet::bench;

    const ExperimentConfig cfg = defaultConfig();
    printBanner(std::cout, "fig12",
                "Per-class contribution to L1 coverage (Fig. 12)");

    const Combo ipcp = namedCombo("ipcp");
    const std::vector<TraceSpec> &traces = memIntensiveTraces();
    const std::vector<JobOutcome> outs = runBatch(traces, {ipcp}, cfg)[0];
    TablePrinter table({"trace", "cs", "cplx", "gs", "nl"});
    MeanAccumulator means[kIpcpClassCount];

    for (std::size_t t = 0; t < traces.size(); ++t) {
        if (!outs[t].ok) {
            std::cerr << "[fig12] skipping " << traces[t].name << ": "
                      << outs[t].error << "\n";
            continue;
        }
        const Outcome &o = outs[t].outcome;
        std::uint64_t total = 0;
        for (unsigned c = 1; c < kIpcpClassCount; ++c)
            total += o.l1d.pfClassUseful[c];
        std::vector<std::string> row{traces[t].name};
        for (unsigned c = 1; c < kIpcpClassCount; ++c) {
            const double share =
                total > 0 ? static_cast<double>(
                                o.l1d.pfClassUseful[c]) /
                                static_cast<double>(total)
                          : 0.0;
            means[c].add(share);
            row.push_back(TablePrinter::num(share * 100, 1) + "%");
        }
        table.addRow(std::move(row));
    }
    std::vector<std::string> mean_row{"MEAN"};
    for (unsigned c = 1; c < kIpcpClassCount; ++c)
        mean_row.push_back(
            TablePrinter::num(means[c].arithmeticMean() * 100, 1) + "%");
    table.addRow(std::move(mean_row));
    table.print(std::cout);
    std::cout << "\nPaper: CS contributes 46.7% and GS 30% of coverage on\n"
                 "average; CPLX and NL pick up irregular stragglers.\n";
    return bouquet::bench::exitCode();
}
