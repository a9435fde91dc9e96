/**
 * @file
 * Fig. 11 — covered, uncovered, and over-predicted demand misses with
 * IPCP at the L1. Over-predictions are prefetched lines evicted
 * untouched, reported relative to baseline misses.
 */

#include <iostream>

#include "bench/bench_util.hh"
#include <algorithm>

#include "common/stats.hh"

int
main()
{
    using namespace bouquet;
    using namespace bouquet::bench;

    const ExperimentConfig cfg = defaultConfig();
    printBanner(std::cout, "fig11",
                "Covered / uncovered / over-predicted at L1 (Fig. 11)");

    const Combo ipcp = namedCombo("ipcp");
    const Combo baseline = namedCombo("none");
    const std::vector<TraceSpec> &traces = memIntensiveTraces();
    const std::vector<std::vector<JobOutcome>> outs =
        runBatch(traces, {baseline, ipcp}, cfg);
    TablePrinter table(
        {"trace", "covered", "uncovered", "overpredicted"});
    MeanAccumulator mc, mu, mo;

    for (std::size_t t = 0; t < traces.size(); ++t) {
        const JobOutcome &rb = outs[0][t];
        const JobOutcome &ro = outs[1][t];
        if (!ro.ok || !rb.ok) {
            std::cerr << "[fig11] skipping " << traces[t].name << ": "
                      << (ro.ok ? rb.error : ro.error) << "\n";
            continue;
        }
        const Outcome &o = ro.outcome;
        const Outcome &b = rb.outcome;
        // All fractions are relative to the baseline's L1-D demand
        // misses, as in Fig. 11: covered = misses removed, uncovered =
        // misses remaining, over-predicted = prefetched lines evicted
        // untouched.
        const double denom =
            static_cast<double>(b.l1d.demandMisses());
        const double removed =
            denom - static_cast<double>(o.l1d.demandMisses());
        const double c = denom > 0 ? std::max(0.0, removed) / denom : 0;
        const double u =
            denom > 0 ? static_cast<double>(o.l1d.demandMisses()) /
                            denom
                      : 0;
        const double ov =
            denom > 0 ? static_cast<double>(o.l1d.pfUnused) / denom : 0;
        mc.add(c);
        mu.add(u);
        mo.add(ov);
        table.addRow({traces[t].name, TablePrinter::num(c * 100, 1) + "%",
                      TablePrinter::num(u * 100, 1) + "%",
                      TablePrinter::num(ov * 100, 1) + "%"});
    }
    table.addRow({"MEAN",
                  TablePrinter::num(mc.arithmeticMean() * 100, 1) + "%",
                  TablePrinter::num(mu.arithmeticMean() * 100, 1) + "%",
                  TablePrinter::num(mo.arithmeticMean() * 100, 1) + "%"});
    table.print(std::cout);
    std::cout << "\nPaper's shape: high coverage with a modest\n"
                 "over-prediction tail (GS trades accuracy for coverage\n"
                 "and timeliness).\n";
    return bouquet::bench::exitCode();
}
