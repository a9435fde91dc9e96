/**
 * @file
 * Table IV — prefetch coverage and accuracy per level for the Table III
 * multi-level combinations, averaged over the memory-intensive set.
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
    printBanner(std::cout, "tab04",
                "Prefetch coverage and accuracy (Table IV)");

    // Coverage: baseline misses removed at the level (Fig. 10's
    // definition); accuracy: useful / filled prefetches at the level.
    auto coverage = [](const CacheStats &with, const CacheStats &base) {
        if (base.demandMisses() == 0)
            return 0.0;
        const double removed =
            static_cast<double>(base.demandMisses()) -
            static_cast<double>(with.demandMisses());
        return removed > 0 ? removed / static_cast<double>(
                                           base.demandMisses())
                           : 0.0;
    };
    auto accuracy = [](const CacheStats &s) {
        return ratio(s.pfUseful, s.pfFills);
    };
    const Combo baseline = namedCombo("none");

    // Batch-submit every simulation this table reads, baseline first.
    std::vector<Combo> all{baseline};
    const auto combos = tableIIIComboSet();
    all.insert(all.end(), combos.begin(), combos.end());
    const std::vector<TraceSpec> &traces = memIntensiveTraces();
    const std::vector<std::vector<JobOutcome>> outs =
        runBatch(traces, all, cfg);

    TablePrinter table({"combo", "cov L1", "cov L2", "cov LLC",
                        "acc L1", "acc L2"});
    for (std::size_t c = 1; c < all.size(); ++c) {
        MeanAccumulator c1, c2, c3, a1, a2;
        for (std::size_t t = 0; t < traces.size(); ++t) {
            const JobOutcome &rb = outs[0][t];
            const JobOutcome &ro = outs[c][t];
            if (!ro.ok || !rb.ok) {
                std::cerr << "[tab04] skipping " << traces[t].name << " ("
                          << all[c].label << "): "
                          << (ro.ok ? rb.error : ro.error) << "\n";
                continue;
            }
            const Outcome &o = ro.outcome;
            const Outcome &b = rb.outcome;
            c1.add(coverage(o.l1d, b.l1d));
            c2.add(coverage(o.l2, b.l2));
            c3.add(coverage(o.llc, b.llc));
            a1.add(accuracy(o.l1d));
            a2.add(accuracy(o.l2));
        }
        table.addRow({all[c].label,
                      TablePrinter::num(c1.arithmeticMean(), 2),
                      TablePrinter::num(c2.arithmeticMean(), 2),
                      TablePrinter::num(c3.arithmeticMean(), 2),
                      TablePrinter::num(a1.arithmeticMean(), 2),
                      TablePrinter::num(a2.arithmeticMean(), 2)});
    }
    table.print(std::cout);
    std::cout << "\nPaper Table IV: IPCP 0.60/0.79/0.83 coverage at\n"
                 "L1/L2/LLC with 0.80 accuracy at L1 — the best\n"
                 "coverage-accuracy point among the combos.\n";
    return bouquet::bench::exitCode();
}
