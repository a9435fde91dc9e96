#include "tools/golden.hh"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/stateio.hh"
#include "dse/dse.hh"
#include "harness/experiment.hh"
#include "harness/factory.hh"
#include "trace/suite.hh"

namespace bouquet::golden
{
namespace
{

/** One simulated cell: a workload per core under one combo. */
struct SimCell
{
    std::vector<std::string> traces;
    std::string combo;
    std::uint64_t warmup;
    std::uint64_t sim;
};

/**
 * perfbench sim-1core's five archetypes under no prefetching, IPCP at
 * the L1, full IPCP and the strongest baseline; then one 4-core and
 * one 8-core mix, so frozen clusters are pinned too.
 */
std::vector<SimCell>
simCells()
{
    std::vector<SimCell> cells;
    for (const char *trace :
         {"605.mcf_s-472B", "619.lbm_s-2676B", "603.bwaves_s-891B",
          "627.cam4_s-490B", "607.cactuBSSN_s-2421B"}) {
        for (const char *combo :
             {"none", "ipcp-l1", "ipcp", "spp-ppf-dspatch"})
            cells.push_back({{trace}, combo, 5'000, 20'000});
    }
    const std::vector<std::string> mix4 = {
        "605.mcf_s-472B", "619.lbm_s-2676B", "603.bwaves_s-891B",
        "607.cactuBSSN_s-2421B"};
    cells.push_back({mix4, "ipcp", 3'000, 12'000});
    std::vector<std::string> mix8 = mix4;
    for (const char *t : {"620.omnetpp_s-141B", "602.gcc_s-734B",
                          "627.cam4_s-490B", "644.nab_s-5721B"})
        mix8.push_back(t);
    cells.push_back({mix8, "spp-ppf-dspatch", 2'000, 8'000});
    return cells;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream body;
    body << in.rdbuf();
    return body.str();
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
roundTrip(double d)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    return buf;
}

/** FNV-1a of a stats JSON document minus its `job_key` line. */
std::string
statsDigest(const std::string &json)
{
    std::uint64_t h = fnv1a("");
    std::istringstream lines(json);
    for (std::string line; std::getline(lines, line);) {
        if (line.find("\"job_key\":") == std::string::npos)
            h = fnv1a(line + "\n", h);
    }
    return hex64(h);
}

Result<PinCell>
runSimCell(const SimCell &cell, const std::string &scratch)
{
    std::vector<TraceSpec> specs;
    for (const std::string &t : cell.traces)
        specs.push_back(findTrace(t));
    ExperimentConfig cfg;
    cfg.warmupInstrs = cell.warmup;
    cfg.simInstrs = cell.sim;
    cfg.statsJsonPath = scratch + "/stats.json";
    std::remove(cfg.statsJsonPath.c_str());
    const std::string combo = cell.combo;
    const MixOutcome out = runMix(
        specs, [&combo](System &s) { applyCombo(s, combo); }, cfg);
    const std::string json = readFile(cfg.statsJsonPath);
    if (json.empty())
        return makeError(Errc::io, "no stats JSON for " + combo);

    PinCell pin;
    pin.name = std::to_string(specs.size()) + "c/" + mixName(specs) +
               "/" + combo;
    std::string ipc;
    for (const double v : out.ipc) {
        if (!ipc.empty())
            ipc += ',';
        ipc += roundTrip(v);
    }
    pin.fields = {{"ipc", ipc}, {"stats", statsDigest(json)}};
    return pin;
}

/** A two-rung search over two traces and one knob. */
Result<PinCell>
runSearchCell(const std::string &scratch)
{
    dse::DseOptions opts;
    opts.root = scratch + "/dse";
    opts.traces = {"605.mcf_s-472B", "619.lbm_s-2676B"};
    Result<dse::SearchSpace> space = dse::parseSpace("ipEntries=32|128");
    if (!space.ok())
        return space.error();
    opts.space = space.take();
    opts.rungInstrs = {6'000, 12'000};
    opts.warmupInstrs = 2'000;
    opts.gateOutPath = scratch + "/gate.txt";
    opts.progress = false;
    Result<dse::DseReport> report = dse::runSearch(opts);
    if (!report.ok())
        return report.error();

    const std::string gate = readFile(opts.gateOutPath);
    std::string geomean;
    std::istringstream lines(gate);
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind("geomean=", 0) == 0)
            geomean = line.substr(8);
    }
    PinCell pin;
    pin.name = "dse/605.mcf_s-472B+619.lbm_s-2676B/ipEntries=32|128/"
               "r6000,12000";
    pin.fields = {
        {"geomean", geomean},
        {"gate", hex64(fnv1a(gate))},
        {"report", hex64(fnv1a(readFile(opts.root + "/report.json")))}};
    return pin;
}

} // namespace

Result<std::vector<PinCell>>
computePin(const std::string &scratch_dir)
{
    std::error_code ec;
    std::filesystem::remove_all(scratch_dir, ec);
    std::filesystem::create_directories(scratch_dir, ec);
    if (ec)
        return makeError(Errc::io, "cannot create " + scratch_dir);

    std::vector<PinCell> cells;
    Status failed;
    try {  // a simulation that throws (the watchdog) fails the pin
        for (const SimCell &cell : simCells()) {
            Result<PinCell> pin = runSimCell(cell, scratch_dir);
            if (!pin.ok()) {
                failed = pin.status();
                break;
            }
            cells.push_back(pin.take());
        }
        if (failed.ok()) {
            Result<PinCell> pin = runSearchCell(scratch_dir);
            if (pin.ok())
                cells.push_back(pin.take());
            else
                failed = pin.status();
        }
    } catch (const std::exception &e) {
        failed = makeError(Errc::failed, e.what());
    }
    std::filesystem::remove_all(scratch_dir, ec);
    if (!failed.ok())
        return failed.error();
    return cells;
}

std::string
formatPin(const std::vector<PinCell> &cells)
{
    std::string text =
        "# Result pin: simulated outputs per cell at smoke length.\n"
        "# Checked by GoldenResults.MatchCommittedPin; rewritten by\n"
        "# `ipcp_sim --regen tests/golden/results.txt`, only for a\n"
        "# declared fidelity change.\n";
    for (const PinCell &cell : cells) {
        text += cell.name;
        for (const auto &[key, value] : cell.fields)
            text += " " + key + "=" + value;
        text += "\n";
    }
    return text;
}

Result<std::vector<PinCell>>
parsePin(const std::string &text)
{
    std::vector<PinCell> cells;
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream tokens(line);
        PinCell cell;
        tokens >> cell.name;
        for (std::string kv; tokens >> kv;) {
            const std::size_t eq = kv.find('=');
            if (eq == std::string::npos || eq == 0)
                return makeError(Errc::corrupt,
                                 "bad pin field '" + kv + "' in: " + line);
            cell.fields.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
        }
        cells.push_back(std::move(cell));
    }
    return cells;
}

std::vector<std::string>
diffPin(const std::vector<PinCell> &want, const std::vector<PinCell> &got)
{
    std::vector<std::string> diffs;
    auto find = [](const std::vector<PinCell> &cells,
                   const std::string &name) -> const PinCell * {
        for (const PinCell &c : cells) {
            if (c.name == name)
                return &c;
        }
        return nullptr;
    };
    for (const PinCell &w : want) {
        const PinCell *g = find(got, w.name);
        if (g == nullptr) {
            diffs.push_back(w.name + ": pinned cell was not computed");
            continue;
        }
        std::set<std::string> seen;
        for (const auto &[key, value] : w.fields) {
            seen.insert(key);
            std::string now = "(missing)";
            for (const auto &[gk, gv] : g->fields) {
                if (gk == key)
                    now = gv;
            }
            if (now != value)
                diffs.push_back(w.name + ": " + key + " pinned " + value +
                                ", got " + now);
        }
        for (const auto &[gk, gv] : g->fields) {
            if (seen.count(gk) == 0)
                diffs.push_back(w.name + ": " + gk + " is not pinned");
        }
    }
    for (const PinCell &g : got) {
        if (find(want, g.name) == nullptr)
            diffs.push_back(g.name + ": computed cell is not pinned");
    }
    return diffs;
}

} // namespace bouquet::golden
