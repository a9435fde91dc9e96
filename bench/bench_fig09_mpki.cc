/**
 * @file
 * Fig. 9 — reduction in demand MPKI at L1/L2/LLC for the Table III
 * combinations, averaged over the memory-intensive set.
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "common/stats.hh"

int
main()
{
    using namespace bouquet;
    using namespace bouquet::bench;

    const ExperimentConfig cfg = defaultConfig();
    printBanner(std::cout, "fig09",
                "Demand-MPKI reduction per cache level (Fig. 9)");

    const std::vector<Combo> combos = tableIIIComboSet();
    const Combo baseline = namedCombo("none");

    // Fan every (trace x combo) simulation across the worker pool up
    // front; the loop below reads the batch's outcomes, baseline
    // first.
    std::vector<Combo> all{baseline};
    all.insert(all.end(), combos.begin(), combos.end());
    const std::vector<TraceSpec> &traces = memIntensiveTraces();
    const std::vector<std::vector<JobOutcome>> outs =
        runBatch(traces, all, cfg);

    TablePrinter table({"combo", "L1D MPKI", "L2 MPKI", "LLC MPKI",
                        "L1D red.", "L2 red.", "LLC red."});

    double base_l1 = 0, base_l2 = 0, base_llc = 0;
    for (std::size_t c = 0; c < all.size(); ++c) {
        MeanAccumulator m1, m2, m3;
        for (std::size_t t = 0; t < traces.size(); ++t) {
            const JobOutcome &jo = outs[c][t];
            if (!jo.ok) {
                std::cerr << "[fig09] skipping " << traces[t].name
                          << " (" << all[c].label << "): " << jo.error
                          << "\n";
                continue;
            }
            m1.add(jo.outcome.mpkiL1());
            m2.add(jo.outcome.mpkiL2());
            m3.add(jo.outcome.mpkiLlc());
        }
        if (c == 0) {
            base_l1 = m1.arithmeticMean();
            base_l2 = m2.arithmeticMean();
            base_llc = m3.arithmeticMean();
            table.addRow({"no-prefetch", TablePrinter::num(base_l1, 1),
                          TablePrinter::num(base_l2, 1),
                          TablePrinter::num(base_llc, 1), "-", "-", "-"});
            continue;
        }
        auto red = [](double base, double now) {
            return base > 0 ? 100.0 * (base - now) / base : 0.0;
        };
        table.addRow(
            {all[c].label, TablePrinter::num(m1.arithmeticMean(), 1),
             TablePrinter::num(m2.arithmeticMean(), 1),
             TablePrinter::num(m3.arithmeticMean(), 1),
             TablePrinter::num(red(base_l1, m1.arithmeticMean()), 1) + "%",
             TablePrinter::num(red(base_l2, m2.arithmeticMean()), 1) + "%",
             TablePrinter::num(red(base_llc, m3.arithmeticMean()), 1) +
                 "%"});
    }
    table.print(std::cout);
    std::cout << "\nPaper's shape: IPCP achieves the largest demand-MPKI\n"
                 "reduction at L2 and LLC among the combos.\n";
    return bouquet::bench::exitCode();
}
