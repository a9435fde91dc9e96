#include "harness/report.hh"

#include <cstdio>
#include <ostream>

#include "common/stats.hh"
#include "ipcp/metadata.hh"

namespace bouquet
{

namespace
{

/** Flatten one row into (column, value) pairs in column order. */
std::vector<std::pair<std::string, std::string>>
flatten(const ReportRow &row)
{
    const Outcome &o = row.outcome;
    auto u64 = [](std::uint64_t v) { return std::to_string(v); };
    auto dbl = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6g", v);
        return std::string(buf);
    };

    std::vector<std::pair<std::string, std::string>> kv;
    kv.emplace_back("trace", row.trace);
    kv.emplace_back("combo", row.combo);
    kv.emplace_back("ipc", dbl(o.ipc));
    kv.emplace_back("instructions", u64(o.instructions));
    kv.emplace_back("cycles", u64(o.cycles));
    kv.emplace_back("dram_bytes", u64(o.dramBytes));

    const std::pair<const char *, const CacheStats *> levels[] = {
        {"l1d", &o.l1d}, {"l2", &o.l2}, {"llc", &o.llc}};
    for (const auto &[prefix, s] : levels) {
        const std::string p = prefix;
        kv.emplace_back(p + "_misses", u64(s->demandMisses()));
        kv.emplace_back(p + "_mpki",
                        dbl(perKiloInstr(s->demandMisses(),
                                         o.instructions)));
        kv.emplace_back(p + "_pf_issued", u64(s->pfIssued));
        kv.emplace_back(p + "_pf_fills", u64(s->pfFills));
        kv.emplace_back(p + "_pf_useful", u64(s->pfUseful));
        kv.emplace_back(p + "_pf_unused", u64(s->pfUnused));
    }
    for (unsigned c = 1; c < kIpcpClassCount; ++c) {
        const std::string cls =
            ipcpClassName(static_cast<IpcpClass>(c));
        kv.emplace_back("l1d_fills_" + cls,
                        u64(o.l1d.pfClassFills[c]));
        kv.emplace_back("l1d_useful_" + cls,
                        u64(o.l1d.pfClassUseful[c]));
        kv.emplace_back("l1d_issued_" + cls,
                        u64(o.l1d.pfClassIssued[c]));
        kv.emplace_back("l1d_late_" + cls, u64(o.l1d.pfClassLate[c]));
    }
    return kv;
}

} // namespace

const std::vector<std::string> &
Report::columns()
{
    static const std::vector<std::string> cols = [] {
        ReportRow dummy{"", "", Outcome{}};
        std::vector<std::string> names;
        for (const auto &[k, v] : flatten(dummy))
            names.push_back(k);
        return names;
    }();
    return cols;
}

void
Report::writeCsv(std::ostream &os) const
{
    const auto &cols = columns();
    for (std::size_t i = 0; i < cols.size(); ++i)
        os << cols[i] << (i + 1 < cols.size() ? "," : "\n");
    for (const ReportRow &row : rows_) {
        const auto kv = flatten(row);
        for (std::size_t i = 0; i < kv.size(); ++i)
            os << kv[i].second << (i + 1 < kv.size() ? "," : "\n");
    }
}

} // namespace bouquet
