/**
 * @file
 * Multi-core scenario: run a 4-core heterogeneous mix (the paper's
 * Section VI-D methodology) and report per-core IPC plus the weighted
 * speedup of IPCP over no prefetching — including the coordinated
 * per-class throttling that the paper credits for IPCP's behaviour on
 * bandwidth-constrained mixes.
 *
 * Usage: multicore_mix [trace0 trace1 trace2 trace3]
 */

#include <iostream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/factory.hh"
#include "harness/table.hh"

int
main(int argc, char **argv)
{
    using namespace bouquet;

    const ExperimentConfig cfg = ExperimentConfig::fromEnv();

    std::vector<TraceSpec> mix;
    if (argc == 5) {
        for (int i = 1; i < 5; ++i)
            mix.push_back(findTrace(argv[i]));
    } else {
        mix = {findTrace("619.lbm_s-2676B"),
               findTrace("603.bwaves_s-891B"),
               findTrace("605.mcf_s-994B"),
               findTrace("627.cam4_s-490B")};
    }

    std::cout << "4-core mix:";
    for (const auto &t : mix)
        std::cout << " " << t.name;
    std::cout << "\n\n";

    const AttachFn none = [](System &s) { applyCombo(s, "none"); };
    const AttachFn ipcp = [](System &s) { applyCombo(s, "ipcp"); };

    const MixOutcome base = runMix(mix, none, cfg);
    const MixOutcome with = runMix(mix, ipcp, cfg);

    TablePrinter table({"core", "trace", "IPC (none)", "IPC (ipcp)",
                        "speedup"});
    for (std::size_t c = 0; c < mix.size(); ++c) {
        table.addRow({std::to_string(c), mix[c].name,
                      TablePrinter::num(base.ipc[c]),
                      TablePrinter::num(with.ipc[c]),
                      TablePrinter::pct(with.ipc[c] / base.ipc[c])});
    }
    table.print(std::cout);

    const double ws_none = weightedSpeedup(base, none, cfg);
    const double ws_ipcp = weightedSpeedup(with, ipcp, cfg);
    std::cout << "\nWeighted speedup (vs per-trace alone runs): none="
              << TablePrinter::num(ws_none) << ", ipcp="
              << TablePrinter::num(ws_ipcp)
              << "\nNormalized improvement: "
              << TablePrinter::pct(ws_ipcp / ws_none) << "\n";
    return 0;
}
