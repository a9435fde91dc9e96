/**
 * @file
 * Table I / Table III storage accounting: the modeled hardware budget
 * of IPCP (exact, per Table I) and of every competing prefetcher and
 * combination, plus the resulting performance density context.
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "harness/factory.hh"
#include "ipcp/ipcp_l1.hh"
#include "ipcp/ipcp_l2.hh"

int
main()
{
    using namespace bouquet;
    using namespace bouquet::bench;

    printBanner(std::cout, "tab01",
                "Hardware storage accounting (Tables I & III)");

    {
        IpcpL1 l1;
        IpcpL2 l2;
        TablePrinter t({"structure", "bits", "bytes"});
        t.addRow({"IPCP at L1 (IP table + CSPT + RST + class bits + RR "
                  "filter + others)",
                  std::to_string(l1.storageBits()),
                  std::to_string((l1.storageBits() + 7) / 8)});
        t.addRow({"IPCP at L2 (IP table + NL gate counters)",
                  std::to_string(l2.storageBits()),
                  std::to_string((l2.storageBits() + 7) / 8)});
        t.addRow({"IPCP total",
                  std::to_string(l1.storageBits() + l2.storageBits()),
                  std::to_string((l1.storageBits() + 7) / 8 +
                                 (l2.storageBits() + 7) / 8)});
        t.print(std::cout);
        std::cout << "Paper Table I: 740 bytes at L1 + 155 bytes at L2 "
                     "= 895 bytes.\n\n";
    }

    {
        TablePrinter t({"prefetcher", "level", "bytes"});
        const std::pair<const char *, CacheLevel> entries[] = {
            {"ip-stride", CacheLevel::L1D},
            {"stream", CacheLevel::L1D},
            {"bop", CacheLevel::L1D},
            {"spp", CacheLevel::L2},
            {"spp-ppf", CacheLevel::L2},
            {"dspatch", CacheLevel::L2},
            {"mlop", CacheLevel::L1D},
            {"bingo", CacheLevel::L1D},
            {"bingo-119k", CacheLevel::L1D},
            {"tskid", CacheLevel::L1D},
            {"dol", CacheLevel::L1D},
            {"ipcp", CacheLevel::L1D},
        };
        for (const auto &[name, level] : entries) {
            const auto pf = makePrefetcher(name, level);
            t.addRow({name,
                      level == CacheLevel::L1D ? "L1" : "L2",
                      std::to_string((pf->storageBits() + 7) / 8)});
        }
        t.print(std::cout);
        std::cout << "\nPaper: the competing combos demand 10x-50x more\n"
                     "storage than IPCP's 895 bytes (MLOP 8 KB, "
                     "SPP+PPF+DSPatch ~32 KB, Bingo 48 KB, TSKID "
                     "~58 KB).\n";
    }
    return bouquet::bench::exitCode();
}
