/**
 * @file
 * ipcp_sim — command-line driver for the simulator, in the spirit of
 * the ChampSim binary the paper's artifact shipped with.
 *
 *   ipcp_sim --trace 619.lbm_s-2676B --combo ipcp
 *   ipcp_sim --trace-file my.trace --combo spp-ppf-dspatch
 *   ipcp_sim --trace 605.mcf_s-994B --cores 4 --combo ipcp
 *   ipcp_sim --trace 619.lbm_s-2676B --combo none,ipcp,mlop
 *   ipcp_sim --record 603.bwaves_s-891B --records 1000000 --out b.trace
 *   ipcp_sim --list-traces
 *   ipcp_sim --regen tests/golden/results.txt
 *
 * Prints a ChampSim-style end-of-run report: IPC, per-level cache
 * stats, prefetcher effectiveness per class, DRAM traffic.
 *
 * `--combo` accepts a comma-separated list. Every run, of a named
 * or a recorded trace on any core count, is one job of a batch on
 * the parallel runner (IPCP_JOBS worker threads), reported in order,
 * with per-job wall time and aggregate throughput on stderr.
 */

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include <unistd.h>

#include "campaign/worker.hh"
#include "common/env.hh"
#include "common/perfcount.hh"
#include "common/stateio.hh"
#include "common/stats.hh"
#include "harness/experiment.hh"
#include "harness/factory.hh"
#include "harness/runner.hh"
#include "harness/table.hh"
#include "ipcp/metadata.hh"
#include "tools/golden.hh"
#include "trace/suite.hh"
#include "trace/trace_io.hh"

namespace
{

using namespace bouquet;

/** The `<pf>` names of `l1:<pf>`/`l2:<pf>`, wrapped under --combo. */
std::string
prefetcherList()
{
    const std::string indent(23, ' ');
    std::string out = indent + "<pf>:";
    std::size_t col = out.size();
    for (const std::string &name : prefetcherNames()) {
        if (col + 1 + name.size() > 72) {
            out += "\n" + indent + "     ";
            col = indent.size() + 5;
        }
        out += " " + name;
        col += 1 + name.size();
    }
    return out + "\n";
}

void
usage()
{
    std::cout <<
        "usage: ipcp_sim [options]\n"
        "  --trace NAME         named workload (see --list-traces)\n"
        "  --trace-file PATH    replay a recorded binary trace\n"
        "  --combo NAME[,NAME]  prefetching combination(s) — names or\n"
        "                       parameterized ipcp:k=v,... combos (a\n"
        "                       bare k=v continues the previous\n"
        "                       combo); a list is\n"
        "                       batch-run on IPCP_JOBS worker threads "
        "(default: ipcp)\n"
        "                       none | ipcp | ipcp-l1 | "
        "spp-ppf-dspatch | mlop |\n"
        "                       bingo | bingo-119k | tskid | l1:<pf> | "
        "l2:<pf>\n"
        << prefetcherList() <<
        "  --cores N            homogeneous N-core run (default 1)\n"
        "  --instructions N     measured instructions "
        "(default IPCP_SIM_INSTRS or 1e6)\n"
        "  --warmup N           warmup instructions\n"
        "  --record NAME        capture a named workload to a file\n"
        "  --records N          records to capture (default 1e6)\n"
        "  --out PATH           output path for --record\n"
        "  --save-checkpoint F  periodically checkpoint the simulation\n"
        "                       to F (every IPCP_CKPT_EVERY cycles,\n"
        "                       default 250000; single --combo only)\n"
        "  --resume F           restore state from checkpoint F before\n"
        "                       running (single --combo only)\n"
        "  --audit              run the invariant auditor after every\n"
        "                       tick (also IPCP_AUDIT=1)\n"
        "  --stats-json F       write the full stat tree as JSON to F\n"
        "                       when each run finishes (a combo list\n"
        "                       inserts the combo name before the\n"
        "                       extension)\n"
        "  --trace-events F     trace prefetch/throttle events into a\n"
        "                       ring of the last 65536 and write\n"
        "                       Chrome trace_event JSON to F (viewable\n"
        "                       in Perfetto; a combo list inserts the\n"
        "                       combo name before the extension)\n"
        "  --worker DIR         run as a stateless campaign worker:\n"
        "                       claim jobs from DIR's work queue until\n"
        "                       all are done or quarantined (see\n"
        "                       ipcp_campaign; IPCP_LEASE_TTL)\n"
        "  --strict             exit nonzero if any job fails (default:\n"
        "                       only when all fail; also IPCP_STRICT)\n"
        "  --perf               print per-job wall time, KIPS, the\n"
        "                       event-skipping tick/skip split, each\n"
        "                       component kind's share of executed-\n"
        "                       tick time, sampled on one tick in 64,\n"
        "                       and how many per-core cluster ticks\n"
        "                       ran or froze (stderr)\n"
        "  --list-traces        list every named workload\n"
        "  --regen PATH         recompute the result pin and rewrite\n"
        "                       PATH (tests/golden/results.txt)\n";
}

void
printCacheReport(const char *name, const CacheStats &s,
                 std::uint64_t instructions)
{
    std::cout << name << ": accesses " << s.demandAccesses() << " hits "
              << s.demandHits() << " misses " << s.demandMisses()
              << " (MPKI "
              << TablePrinter::num(
                     perKiloInstr(s.demandMisses(), instructions), 2)
              << ")\n"
              << "      prefetch: requested " << s.pfRequested
              << " issued " << s.pfIssued << " fills " << s.pfFills
              << " useful " << s.pfUseful << " late "
              << s.latePrefetches << " unused " << s.pfUnused << "\n";
    std::uint64_t class_total = 0;
    for (unsigned c = 1; c < kIpcpClassCount; ++c)
        class_total += s.pfClassFills[c];
    if (class_total > 0) {
        std::cout << "      by class:";
        for (unsigned c = 1; c < kIpcpClassCount; ++c) {
            std::cout << " " << ipcpClassName(static_cast<IpcpClass>(c))
                      << "=" << s.pfClassFills[c] << "/"
                      << s.pfClassUseful[c];
        }
        std::cout << " (fills/useful)\n";
    }
}

/**
 * The --perf lines: host wall time, simulated-KIPS, and how much of
 * the simulated time the event-skipping loop actually ticked; then
 * where the executed ticks' time went, by component kind; then, with
 * skipping on, how many per-core cluster ticks ran and how many were
 * frozen. Goes to stderr like all throughput reporting, so
 * stdout stays bit-identical run to run.
 */
void
printPerfReport(const std::string &label, double seconds,
                std::uint64_t instrs, std::uint64_t ticks,
                std::uint64_t skipped, const TickTimes &split)
{
    const std::uint64_t cycles = ticks + skipped;
    std::cerr << "[perf] " << label << ": wall "
              << TablePrinter::num(seconds, 3) << " s, "
              << TablePrinter::num(kips(instrs, seconds), 1)
              << " KIPS, ticks " << ticks << " / " << cycles
              << " cycles (skip ratio "
              << TablePrinter::num(
                     cycles == 0 ? 0.0
                                 : static_cast<double>(skipped) /
                                       static_cast<double>(cycles),
                     3)
              << ")\n";
    std::cerr << "[perf] " << label << ": tick time";
    if (split.samples == 0) {
        std::cerr << " not sampled (no tick timed in this process)\n";
    } else {
        for (unsigned p = 0; p < TickTimes::kParts; ++p)
            std::cerr << " " << TickTimes::kNames[p] << " "
                      << TablePrinter::num(
                             100.0 * split.share(
                                         static_cast<TickTimes::Part>(p)),
                             1)
                      << "%";
        std::cerr << " (" << split.samples << " ticks sampled)\n";
    }
    const std::uint64_t slots = split.clusterTicks + split.clustersFrozen;
    if (slots == 0)
        return;
    std::cerr << "[perf] " << label << ": cluster ticks "
              << split.clusterTicks << " ran, " << split.clustersFrozen
              << " frozen ("
              << TablePrinter::num(100.0 *
                                       static_cast<double>(
                                           split.clustersFrozen) /
                                       static_cast<double>(slots),
                                   1)
              << "% frozen)\n";
}

/** --regen: recompute every pinned cell and rewrite `path`. */
int
regenPin(const std::string &path)
{
    const std::filesystem::path scratch =
        std::filesystem::temp_directory_path() /
        ("ipcp_regen_" + std::to_string(::getpid()));
    Result<std::vector<golden::PinCell>> cells =
        golden::computePin(scratch.string());
    Status st = cells.ok() ? publishFile(path, golden::formatPin(
                                                   cells.take()))
                           : cells.status();
    if (!st.ok()) {
        std::cerr << "error: " << st.error().message << "\n";
        return 1;
    }
    std::cout << "wrote " << path << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Ctrl-C / SIGTERM: finish the jobs in flight (flushing their
    // periodic checkpoints), fail the rest as interrupted, and print
    // the partial batch summary on the way out.
    installSignalHandlers();

    std::string trace_name;
    std::string trace_file;
    std::string combo = "ipcp";
    std::string record_name;
    std::string out_path = "out.trace";
    unsigned cores = 1;
    std::uint64_t records = 1'000'000;
    ExperimentConfig cfg = ExperimentConfig::fromEnv();
    std::string stats_json;
    std::string trace_events;
    bool strict = false;
    bool perf = false;
    if (const char *env = std::getenv("IPCP_STRICT");
        env != nullptr && *env != '\0')
        strict = true;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << arg << "\n";
                std::exit(2);
            }
            return argv[++i];
        };
        auto u64Value = [&]() -> std::uint64_t {
            const std::string v = value();
            std::uint64_t out = 0;
            if (!parseU64(v, out)) {
                std::cerr << arg << " wants an unsigned integer, got '"
                          << v << "'\n";
                std::exit(2);
            }
            return out;
        };
        if (arg == "--trace") {
            trace_name = value();
        } else if (arg == "--trace-file") {
            trace_file = value();
        } else if (arg == "--combo") {
            combo = value();
        } else if (arg == "--cores") {
            cores = static_cast<unsigned>(u64Value());
        } else if (arg == "--instructions") {
            cfg.simInstrs = u64Value();
        } else if (arg == "--warmup") {
            cfg.warmupInstrs = u64Value();
        } else if (arg == "--record") {
            record_name = value();
        } else if (arg == "--records") {
            records = u64Value();
        } else if (arg == "--out") {
            out_path = value();
        } else if (arg == "--save-checkpoint") {
            cfg.ckptPath = value();
        } else if (arg.rfind("--save-checkpoint=", 0) == 0) {
            cfg.ckptPath = arg.substr(std::strlen("--save-checkpoint="));
        } else if (arg == "--resume") {
            cfg.resumePath = value();
        } else if (arg.rfind("--resume=", 0) == 0) {
            cfg.resumePath = arg.substr(std::strlen("--resume="));
        } else if (arg == "--stats-json") {
            stats_json = value();
        } else if (arg.rfind("--stats-json=", 0) == 0) {
            stats_json = arg.substr(std::strlen("--stats-json="));
        } else if (arg == "--trace-events") {
            trace_events = value();
        } else if (arg.rfind("--trace-events=", 0) == 0) {
            trace_events = arg.substr(std::strlen("--trace-events="));
        } else if (arg == "--worker") {
            return campaign::runWorker(value());
        } else if (arg.rfind("--worker=", 0) == 0) {
            return campaign::runWorker(
                arg.substr(std::strlen("--worker=")));
        } else if (arg == "--audit") {
            cfg.system.auditEveryTick = true;
        } else if (arg == "--strict") {
            strict = true;
        } else if (arg == "--perf") {
            perf = true;
        } else if (arg == "--regen") {
            return regenPin(value());
        } else if (arg == "--list-traces") {
            for (const auto *suite :
                 {&fullSuiteTraces(), &cloudSuiteTraces(),
                  &neuralNetTraces()}) {
                for (const TraceSpec &s : *suite)
                    std::cout << s.name << "\n";
            }
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            usage();
            return 2;
        }
    }

    try {
        if (!record_name.empty()) {
            GeneratorPtr gen = makeWorkload(record_name);
            if (Status s = writeTrace(out_path, *gen, records);
                !s.ok()) {
                std::cerr << "error: " << s.error().message << " ["
                          << errcName(s.error().code) << "]\n";
                return 1;
            }
            std::cout << "recorded " << records << " records of "
                      << record_name << " to " << out_path << "\n";
            return 0;
        }

        if (trace_name.empty() && trace_file.empty()) {
            usage();
            return 2;
        }
        if (cores == 0) {
            std::cerr << "--cores wants at least 1\n";
            return 2;
        }

        // `--combo a,b,c` batches one job per combination; bare `k=v`
        // segments continue a preceding parameterized `ipcp:` combo.
        std::vector<std::string> combo_names = splitComboList(combo);
        if (combo_names.empty()) {
            std::cerr << "no combo given\n";
            return 2;
        }
        if ((!cfg.ckptPath.empty() || !cfg.resumePath.empty()) &&
            combo_names.size() > 1) {
            std::cerr << "--save-checkpoint/--resume require a single "
                         "--combo\n";
            return 2;
        }
        if (!cfg.ckptPath.empty() && cfg.ckptEvery == 0)
            cfg.ckptEvery = 250'000;  // default periodic interval

        // Observability artifacts: with a combo list every job gets
        // its own file ("out.json" -> "out-<combo>.json") since the
        // jobs run concurrently.
        auto per_combo = [&](const std::string &base,
                             const std::string &label) -> std::string {
            if (base.empty() || combo_names.size() == 1)
                return base;
            const std::size_t slash = base.find_last_of('/');
            const std::size_t dot = base.find_last_of('.');
            if (dot == std::string::npos ||
                (slash != std::string::npos && dot < slash))
                return base + "-" + label;
            return base.substr(0, dot) + "-" + label +
                   base.substr(dot);
        };
        auto cfg_for = [&](const std::string &label) {
            ExperimentConfig c = cfg;
            if (!stats_json.empty())
                c.statsJsonPath = per_combo(stats_json, label);
            if (!trace_events.empty())
                c.traceEventsPath = per_combo(trace_events, label);
            return c;
        };

        // Every run is one batch of `cores`-core mixes, one job per
        // combo. A bad trace file fails every combo; a bad combo
        // fails its own run only.
        const TraceSpec spec = trace_file.empty() ? findTrace(trace_name)
                                                  : fileTraceSpec(trace_file);
        Runner runner;
        // --perf: each job's tick split, reset by every attempt.
        std::vector<TickTimes> splits(combo_names.size());
        std::vector<MixJob> jobs;
        for (std::size_t j = 0; j < combo_names.size(); ++j) {
            const std::string &name = combo_names[j];
            TickTimes *split = perf ? &splits[j] : nullptr;
            AttachFn attach = [name, split](System &s) {
                applyCombo(s, name);
                if (split != nullptr) {
                    *split = TickTimes{};
                    s.timeTicks(split);
                }
            };
            jobs.push_back(MixJob{std::vector<TraceSpec>(cores, spec), name,
                                  std::move(attach), cfg_for(name)});
        }
        const std::vector<MixJobOutcome> outs = runner.runMixes(jobs);

        std::size_t ok_jobs = 0;
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            const MixJobOutcome &jo = outs[j];
            if (!jo.ok) {
                std::cerr << "error: combo " << jobs[j].label
                          << " failed after " << jo.attempts
                          << " attempt(s): " << jo.error << "\n";
                continue;
            }
            const MixOutcome &o = jo.outcome;
            if (jo.resumed)
                std::cerr << "[ckpt] resumed from cycle " << jo.ckptCycle
                          << "\n";
            if (perf) {
                std::uint64_t instrs = 0;
                for (std::uint64_t i : o.instructions)
                    instrs += i;
                printPerfReport(jobs[j].label,
                                runner.lastBatch().perJob[j].seconds,
                                instrs, o.system.ticksExecuted,
                                o.system.skippedCycles, splits[j]);
            }
            ++ok_jobs;
            std::cout << "workload: "
                      << (!trace_file.empty() ? trace_file : trace_name)
                      << "  combo: " << jobs[j].label << "  cores: "
                      << cores << "\nsimulating " << cfg.warmupInstrs
                      << " warmup + " << cfg.simInstrs
                      << " measured instructions...\n\n";
            for (unsigned c = 0; c < cores; ++c) {
                std::cout << "core " << c << ": IPC "
                          << TablePrinter::num(o.ipc[c]) << " ("
                          << o.instructions[c] << " instructions, "
                          << o.cycles[c] << " cycles)\n";
            }
            std::cout << "\n";
            const Outcome &sys = o.system;
            printCacheReport("L1I ", sys.l1i, sys.instructions);
            printCacheReport("L1D ", sys.l1d, sys.instructions);
            printCacheReport("L2  ", sys.l2, sys.instructions);
            printCacheReport("LLC ", sys.llc, sys.instructions);
            std::cout << "DRAM: reads " << sys.dram.reads << " writes "
                      << sys.dram.writes << " row-hit rate "
                      << TablePrinter::num(
                             ratio(sys.dram.rowHits,
                                   sys.dram.rowHits + sys.dram.rowMisses),
                             2)
                      << " bytes " << sys.dramBytes << "\n";
            if (j + 1 < jobs.size())
                std::cout << "\n";
        }
        runner.lastBatch().print(std::cerr);
        // Exit-code contract: 0 on full or partial success, 1 when
        // every job failed or --strict saw any failure.
        const bool failed = ok_jobs < jobs.size();
        return failed && (strict || ok_jobs == 0) ? 1 : 0;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
