/**
 * @file
 * The layer benchmark's driver: one process that runs one workload
 * for a fixed wall-clock budget and prints one JSON result line.
 *
 *   perfbench_driver --workload sim-1core|mix-4core|dse-search
 *                    --seed N --seconds S --trace 0|1 --work-dir DIR
 *
 * --trace 0 measures the end-to-end metrics with no per-layer timing;
 * --trace 1 is a separate run that times every layer from outside, by
 * spans around calls to the layers' public functions, and reports the
 * per-layer metrics plus its own overhead. README.md in this directory
 * documents every workload and metric.
 */

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "arith.hh"
#include "hostspeed.hh"
#include "simjob.hh"

#include "campaign/campaign.hh"
#include "campaign/queue.hh"
#include "common/stateio.hh"
#include "common/stats.hh"
#include "dse/dse.hh"
#include "dse/space.hh"
#include "harness/outcomestore.hh"
#include "harness/warmstore.hh"
#include "ipcp/metadata.hh"

extern char **environ;

namespace perfbench
{
namespace
{

namespace fs = std::filesystem;
using bouquet::TraceSpec;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

double
nsSince(Clock::time_point t)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t)
        .count();
}

// --- workload definitions -------------------------------------------

/*
 * Inputs. Which stand-ins run is fixed per workload and the seed
 * redraws their contents: drawing the stand-ins themselves from the
 * seed made kips move by up to 25% (sim-1core) and 2x (mix-4core)
 * between seeds, because the stand-ins differ in memory intensity and
 * archetype, which would hide any change smaller than that.
 */

/** sim-1core: two stand-ins of each archetype IPCP's classes target. */
const char *const kSimTraces[] = {
    "605.mcf_s-472B",        "620.omnetpp_s-141B",     // pointer chase
    "619.lbm_s-2676B",       "602.gcc_s-734B",         // global stream
    "603.bwaves_s-891B",     "628.pop2_s-17B",         // constant stride
    "627.cam4_s-490B",       "644.nab_s-5721B",        // complex stride
    "607.cactuBSSN_s-2421B", "607.cactuBSSN_s-3477B",  // many IPs
};
/** The default single-core run lengths of runSingleCore. */
constexpr std::uint64_t kSimWarmup = 100'000;
constexpr std::uint64_t kSimInstrs = 1'000'000;

/** mix-4core: one stand-in of four different archetypes per mix. */
const std::vector<std::vector<const char *>> kMixes = {
    {"605.mcf_s-472B", "619.lbm_s-2676B", "603.bwaves_s-891B",
     "607.cactuBSSN_s-2421B"},
    {"620.omnetpp_s-141B", "602.gcc_s-734B", "627.cam4_s-490B",
     "628.pop2_s-17B"},
    {"605.mcf_s-1536B", "649.fotonik3d_s-1176B", "644.nab_s-5721B",
     "654.roms_s-523B"},
};
/** Per-core lengths, well below the 1M default (a 1M mix takes ~9 s). */
constexpr std::uint64_t kMixWarmup = 10'000;
constexpr std::uint64_t kMixInstrs = 100'000;

/**
 * dse-search: four stand-ins of different archetypes and the full
 * default grid. runSearch takes trace names, so the seed cannot redraw
 * their streams, and drawing a grid sample from the seed instead moved
 * jobs_per_s by 30% between seeds (the configurations differ in cost);
 * the seed therefore does not change this workload's inputs.
 */
const std::vector<std::string> kDseTraces = {
    "605.mcf_s-472B", "619.lbm_s-2676B", "603.bwaves_s-891B",
    "627.cam4_s-490B"};
constexpr std::size_t kDseSample = 0;  // the whole grid

/**
 * Period of every parameter makeWorkload derives from TraceSpec::seed
 * (the lcm of its moduli 3, 4, 5, 6, 7 and 15): adding a multiple
 * keeps the stand-in's parameters and redraws only its random stream.
 */
constexpr std::uint64_t kParamPeriod = 420;

/** Set-up is sub-millisecond, so it is repeated and the median kept. */
constexpr unsigned kSetupReps = 15;

/** Series length of the OutcomeStore and WorkQueue probes. */
constexpr std::size_t kSeries = 256;
constexpr std::size_t kSeriesEdge = 64;
constexpr std::size_t kMissProbes = 16;

/** Jobs whose end-of-warmup state feeds the StateIO/WarmStore probes. */
constexpr std::size_t kMaxCaptured = 32;

/** Records drained per trace by the generator probe. */
constexpr std::uint64_t kDrainRecords = 200'000;

/** The stand-in `name` with its random stream redrawn from `seed`. */
TraceSpec
reseeded(const std::string &name, std::uint64_t seed)
{
    TraceSpec s = bouquet::findTrace(name);
    const std::uint64_t draw = bouquet::fnv1a(seed, bouquet::fnv1a(name));
    s.seed += kParamPeriod * (1 + draw % 1'000'000);
    return s;
}

std::vector<SimJob>
simJobs(std::uint64_t seed)
{
    std::vector<SimJob> jobs;
    for (const char *name : kSimTraces)
        for (const char *combo : {"none", "ipcp-l1", "ipcp"})
            jobs.push_back(
                {{reseeded(name, seed)}, combo, kSimWarmup, kSimInstrs});
    return jobs;
}

std::vector<SimJob>
mixJobs(std::uint64_t seed)
{
    std::vector<SimJob> jobs;
    for (const std::vector<const char *> &names : kMixes) {
        std::vector<TraceSpec> mix;
        for (const char *name : names)
            mix.push_back(reseeded(name, seed));
        for (const char *combo : {"none", "ipcp"})
            jobs.push_back({mix, combo, kMixWarmup, kMixInstrs});
    }
    return jobs;
}

bouquet::dse::DseOptions
dseOptions(const std::vector<std::string> &traces, std::size_t sample,
           std::uint64_t seed, const std::string &root)
{
    bouquet::dse::DseOptions o;
    o.root = root;
    o.traces = traces;
    o.space = bouquet::dse::defaultSpace();
    o.sample = sample;
    o.seed = seed;
    o.workers = 1;
    o.progress = false;
    return o;
}

// --- result line ------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    void fail(std::uint64_t n, const std::string &why)
    {
        failed += n;
        std::fprintf(stderr, "[perfbench] FAILED (%llu job%s): %s\n",
                     static_cast<unsigned long long>(n),
                     n == 1 ? "" : "s", why.c_str());
    }

    void
    print() const
    {
        std::string line = "{\"correct\": ";
        line += (failed == 0 && attempted > 0) ? "true" : "false";
        line += ", \"attempted\": " + std::to_string(attempted);
        line += ", \"failed\": " + std::to_string(failed);
        line += ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            char num[40];
            std::snprintf(num, sizeof num, "%.17g", metrics[i].value);
            line += (i ? ", \"" : "\"") + metrics[i].name +
                    "\": {\"value\": " + num + ", \"unit\": \"" +
                    metrics[i].unit + "\"}";
        }
        line += "}}";
        std::printf("%s\n", line.c_str());
        std::fflush(stdout);
    }
};

double
peakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/** One-line stderr summary of a timing sample: median and tail. */
void
describe(const char *what, const std::vector<double> &v, const char *unit)
{
    const unsigned pm = tailPermille(v.size());
    if (pm == 0)
        std::fprintf(stderr, "[perfbench] %s: median %.6g %s (n=%zu)\n",
                     what, median(v), unit, v.size());
    else
        std::fprintf(stderr,
                     "[perfbench] %s: median %.6g %s, p%g %.6g %s "
                     "(n=%zu)\n",
                     what, median(v), unit, pm / 10.0,
                     percentile(v, pm), unit, v.size());
}

// --- isolated DSE search ----------------------------------------------

/** What a search child reports back through its pipe. */
struct SearchTotals
{
    std::uint64_t ok = 0;
    std::uint64_t jobs = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t incomplete = 0;
    std::uint64_t attempts = 0;
    std::uint64_t lastRungJobs = 0;
    std::uint64_t lastRungWarmHits = 0;
};

struct SearchRun
{
    SearchTotals totals;
    double wallS = 0.0;
    double peakRssMb = 0.0;
    std::uint64_t reportDigest = 0;
    std::uint64_t diskBytes = 0;
    std::uint64_t measuredInstrs = 0;  //!< nominal, over all rungs
    std::vector<SimJob> jobs;          //!< every rung's jobs
};

std::uint64_t
fileDigest(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    return bytes.empty() ? 0 : bouquet::fnv1a(bytes);
}

std::uint64_t
treeBytes(const std::string &root)
{
    std::uint64_t n = 0;
    for (const auto &e : fs::recursive_directory_iterator(root))
        if (e.is_regular_file())
            n += e.file_size();
    return n;
}

/**
 * Run one search in a forked child, the way one `ipcp_dse` process
 * would. The child is needed because the program keeps one WarmStore
 * (with up to 64 in-memory warm states) per warm directory for the
 * life of a process, so back-to-back searches in one process would
 * pile up about 50 MB of retained state each and make peak RSS a
 * function of how many searches fit in the time budget.
 */
SearchRun
runSearchIsolated(const bouquet::dse::DseOptions &opts)
{
    int fds[2];
    if (::pipe(fds) != 0)
        throw std::runtime_error("pipe failed");
    std::fflush(stdout);
    std::fflush(stderr);
    const Clock::time_point t0 = Clock::now();
    const pid_t pid = ::fork();
    if (pid < 0)
        throw std::runtime_error("fork failed");
    if (pid == 0) {
        ::close(fds[0]);
        // Keep the parent's stdout to its single result line.
        const int devnull = ::open("/dev/null", O_WRONLY);
        if (devnull >= 0)
            ::dup2(devnull, STDOUT_FILENO);
        SearchTotals t;
        bouquet::Result<bouquet::dse::DseReport> r =
            bouquet::dse::runSearch(opts);
        if (r.ok()) {
            t.ok = 1;
            for (const bouquet::dse::DseRung &rung : r.value().rungs) {
                t.jobs += rung.totals.jobs;
                t.quarantined += rung.totals.quarantined;
                t.incomplete += rung.totals.incomplete;
                t.attempts += rung.totals.attempts;
            }
            const auto &last = r.value().rungs.back().totals;
            t.lastRungJobs = last.jobs;
            t.lastRungWarmHits = last.warmHits;
        } else {
            std::fprintf(stderr, "[perfbench] search failed: %s\n",
                         r.error().message.c_str());
        }
        const ssize_t w = ::write(fds[1], &t, sizeof t);
        std::fflush(stderr);
        ::_exit(w == static_cast<ssize_t>(sizeof t) && t.ok ? 0 : 1);
    }
    ::close(fds[1]);
    SearchRun run;
    std::size_t got = 0;
    auto *dst = reinterpret_cast<char *>(&run.totals);
    while (got < sizeof run.totals) {
        const ssize_t n = ::read(fds[0], dst + got, sizeof run.totals - got);
        if (n <= 0)
            break;
        got += static_cast<std::size_t>(n);
    }
    ::close(fds[0]);
    int status = 0;
    rusage ru{};
    ::wait4(pid, &status, 0, &ru);
    run.wallS = secondsSince(t0);
    run.peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    if (got != sizeof run.totals)
        run.totals = SearchTotals{};

    run.reportDigest = fileDigest(opts.root + "/report.json");
    if (fs::exists(opts.root))
        run.diskBytes = treeBytes(opts.root);
    for (std::size_t r = 0; r < opts.rungInstrs.size(); ++r) {
        const bouquet::campaign::CampaignPaths paths(
            opts.root + "/rung-" + std::to_string(r + 1));
        bouquet::Result<bouquet::campaign::CampaignSpec> spec =
            bouquet::campaign::readManifest(paths);
        if (!spec.ok())
            continue;
        for (const bouquet::campaign::CampaignJob &j : spec.value().jobs) {
            run.jobs.push_back({{bouquet::findTrace(j.trace)}, j.combo,
                                spec.value().warmupInstrs,
                                spec.value().simInstrs});
            run.measuredInstrs += spec.value().simInstrs;
        }
    }
    return run;
}

/** Count a search's correctness failures into `res`. */
void
checkSearch(const SearchRun &run, std::uint64_t first_digest,
            Result &res)
{
    const SearchTotals &t = run.totals;
    if (!t.ok) {
        res.fail(std::max<std::uint64_t>(run.jobs.size(), 1),
                 "search did not complete");
        return;
    }
    if (t.quarantined + t.incomplete > 0)
        res.fail(t.quarantined + t.incomplete,
                 "quarantined or incomplete search jobs");
    if (t.lastRungWarmHits != t.lastRungJobs)
        res.fail(t.lastRungJobs - std::min(t.lastRungJobs,
                                           t.lastRungWarmHits),
                 "final-rung jobs that were not warm hits");
    if (run.reportDigest == 0 || run.reportDigest != first_digest)
        res.fail(t.jobs, "report.json differs between repetitions");
}

// --- end-to-end runs (--trace 0) -----------------------------------------

/**
 * Time `reps` calls of `setup` into `samples`, in reference seconds
 * (hostspeed.hh) against a kernel sample taken just before. The
 * workloads call this before their first timed job and again after
 * every pass, so the median is not at the mercy of one burst of host
 * contention at start-up.
 */
void
timeSetup(const std::function<void()> &setup, HostSpeed &host,
          std::vector<double> &samples)
{
    const double calib_ms = host.sampleMs();
    for (unsigned i = 0; i < kSetupReps; ++i) {
        const Clock::time_point t0 = Clock::now();
        setup();
        samples.push_back(referenceSeconds(secondsSince(t0), calib_ms));
    }
}

/**
 * Passes over a fixed job list until the budget is spent: a new pass
 * starts only while the median pass so far still fits, so every
 * sample covers the whole list. A host-speed kernel sample precedes
 * every job; each pass's throughput is taken in reference seconds at
 * the median of its kernel samples, and the run reports the median
 * over passes.
 */
void
runSimWorkload(std::vector<SimJob> &jobs, const std::function<void()> &setup,
               double budget_s, Result &res)
{
    HostSpeed host;
    std::vector<double> setup_s;
    timeSetup(setup, host, setup_s);
    std::uint64_t pass_instrs = 0;
    std::vector<std::uint64_t> first(jobs.size(), 0);
    std::vector<double> pass_s;
    std::vector<double> kips, raw_kips, jobs_per_s;
    const Clock::time_point start = Clock::now();
    while (pass_s.empty() ||
           secondsSince(start) + median(pass_s) <= budget_s) {
        const Clock::time_point pass_t0 = Clock::now();
        double busy_s = 0.0;
        std::uint64_t instrs = 0;
        std::vector<double> calib_ms;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            ++res.attempted;
            calib_ms.push_back(host.sampleMs());
            const Clock::time_point t0 = Clock::now();
            SimResult r;
            try {
                r = runUntraced(jobs[i]);
            } catch (const std::exception &e) {
                res.fail(1, jobs[i].label() + ": " + e.what());
                continue;
            }
            busy_s += secondsSince(t0);
            instrs += r.instructions();
            const std::uint64_t d = digest(r);
            if (pass_s.empty())
                first[i] = d;
            else if (d != first[i])
                res.fail(1, jobs[i].label() +
                                ": repeated job changed its results");
        }
        if (pass_s.empty())
            pass_instrs = instrs;
        const double ref_s = referenceSeconds(busy_s, median(calib_ms));
        kips.push_back(static_cast<double>(pass_instrs) / 1000.0 / ref_s);
        raw_kips.push_back(static_cast<double>(pass_instrs) / 1000.0 /
                           busy_s);
        jobs_per_s.push_back(static_cast<double>(jobs.size()) / ref_s);
        timeSetup(setup, host, setup_s);
        pass_s.push_back(secondsSince(pass_t0));
    }
    describe("pass kips (reference s)", kips, "kinstr/s");
    describe("pass kips (host s)", raw_kips, "kinstr/s");
    describe("setup (reference s)", setup_s, "s");
    res.add("kips", median(kips), "kinstr/s");
    res.add("jobs_per_s", median(jobs_per_s), "jobs/s");
    res.add("setup_s", median(setup_s), "s");
    res.add("peak_rss_mb", peakRssMb(), "MB");
}

void
runDseWorkload(std::uint64_t seed, double budget_s, const fs::path &work,
               Result &res)
{
    const Clock::time_point start = Clock::now();
    const std::vector<std::string> &traces = kDseTraces;
    // Set-up: the search's options and grid enumeration. runSearch
    // creates the root directory itself, inside the timed search; a
    // mkdir here would time the volume's journal, not the program.
    const auto setup = [&] {
        const bouquet::dse::DseOptions opts = dseOptions(
            traces, kDseSample, seed, (work / "search").string());
        if (bouquet::dse::enumerateGrid(opts.space, opts.sample, opts.seed)
                .empty())
            throw std::runtime_error("empty search grid");
    };
    HostSpeed host;
    std::vector<double> setup_s;
    timeSetup(setup, host, setup_s);

    std::vector<double> wall, raw_jobs_per_s, jobs_per_s, kips, rss;
    // An untimed first search: every timed search then follows the
    // deletion of a previous search's root, as in steady state. The
    // volume discards freed blocks, and a search that follows a
    // deletion runs up to 40% slower than one on an idle volume.
    std::uint64_t first_digest = 0;
    {
        const std::string root = (work / "search-warmup").string();
        const SearchRun run =
            runSearchIsolated(dseOptions(traces, kDseSample, seed, root));
        fs::remove_all(root);
        first_digest = run.reportDigest;
        res.attempted += std::max<std::uint64_t>(run.jobs.size(), 1);
        checkSearch(run, first_digest, res);
    }
    while (wall.empty() || secondsSince(start) + median(wall) <= budget_s) {
        const std::string root =
            (work / ("search-" + std::to_string(wall.size()))).string();
        // Start every search from a clean filesystem: write back what
        // the last search left dirty and let the unlinks of its root
        // commit (the volume may discard freed blocks), outside the
        // timed region, so one search's I/O does not land in the next.
        ::sync();
        // Kernel samples on both sides of the search, which runs in a
        // child process and cannot be interleaved.
        std::vector<double> calib_ms;
        for (int i = 0; i < 3; ++i)
            calib_ms.push_back(host.sampleMs());
        const SearchRun run =
            runSearchIsolated(dseOptions(traces, kDseSample, seed, root));
        for (int i = 0; i < 3; ++i)
            calib_ms.push_back(host.sampleMs());
        fs::remove_all(root);
        const double ref_s = referenceSeconds(run.wallS, median(calib_ms));
        res.attempted += std::max<std::uint64_t>(run.jobs.size(), 1);
        checkSearch(run, first_digest, res);
        const double jobs = static_cast<double>(run.jobs.size());
        std::fprintf(stderr,
                     "[perfbench] search %zu: %.0f jobs in %.3f s "
                     "(%.3f reference s, kernel %.2f ms)\n",
                     wall.size(), jobs, run.wallS, ref_s, median(calib_ms));
        wall.push_back(run.wallS);
        jobs_per_s.push_back(jobs / ref_s);
        raw_jobs_per_s.push_back(jobs / run.wallS);
        kips.push_back(static_cast<double>(run.measuredInstrs) / 1000.0 /
                       ref_s);
        rss.push_back(run.peakRssMb);
        timeSetup(setup, host, setup_s);
    }
    describe("search wall (host s)", wall, "s");
    describe("search jobs_per_s (reference s)", jobs_per_s, "jobs/s");
    describe("search jobs_per_s (host s)", raw_jobs_per_s, "jobs/s");
    describe("setup (reference s)", setup_s, "s");
    res.add("kips", median(kips), "kinstr/s");
    res.add("jobs_per_s", median(jobs_per_s), "jobs/s");
    res.add("setup_s", median(setup_s), "s");
    res.add("peak_rss_mb", median(rss), "MB");
}

// --- traced run (--trace 1) -----------------------------------------------

/** Counts summed over traced jobs for the exact metrics. */
struct ExactTally
{
    KinstrTally ticks;
    std::uint64_t skipped = 0;
    std::uint64_t cycles = 0;  //!< ticks + skipped
    KinstrTally l1dMisses, l2Misses, llcMisses, mshrFull;
    std::uint64_t llcLatSum = 0, llcLatCount = 0;
    KinstrTally dramBytes, busyRejects;
    std::uint64_t rowHits = 0, rowAccesses = 0;
    // IPCP, over the "ipcp" jobs only.
    KinstrTally l1Issued, l2Issued;
    std::uint64_t l1Fills = 0, l1Useful = 0, l1Late = 0;
    std::uint64_t l2Fills = 0, l2Useful = 0;
    KinstrTally classIssued[bouquet::kIpcpClassCount];
    std::uint64_t classFills[bouquet::kIpcpClassCount] = {};
    std::uint64_t classUseful[bouquet::kIpcpClassCount] = {};

    void
    add(const SimJob &job, const TracedRun &t)
    {
        const SimResult &r = t.result;
        const std::uint64_t in = r.instructions();
        ticks.add(r.ticks, in);
        skipped += r.skipped;
        cycles += r.ticks + r.skipped;
        l1dMisses.add(t.l1dAll.demandMisses(), in);
        l2Misses.add(t.l2All.demandMisses(), in);
        llcMisses.add(r.llc.demandMisses(), in);
        mshrFull.add(t.l1dAll.mshrFullStalls, in);
        llcLatSum += r.llc.missLatencySum;
        llcLatCount += r.llc.missLatencyCount;
        dramBytes.add(r.dramBytes, in);
        busyRejects.add(r.dram.busyRejects, in);
        rowHits += r.dram.rowHits;
        rowAccesses += r.dram.rowHits + r.dram.rowMisses;
        if (job.combo != "ipcp")
            return;
        l1Issued.add(t.l1dAll.pfIssued, in);
        l1Fills += t.l1dAll.pfFills;
        l1Useful += t.l1dAll.pfUseful;
        l1Late += t.l1dAll.latePrefetches;
        l2Issued.add(t.l2All.pfIssued, in);
        l2Fills += t.l2All.pfFills;
        l2Useful += t.l2All.pfUseful;
        for (unsigned c = 0; c < bouquet::kIpcpClassCount; ++c) {
            classIssued[c].add(t.l1dAll.pfClassIssued[c], in);
            classFills[c] += t.l1dAll.pfClassFills[c];
            classUseful[c] += t.l1dAll.pfClassUseful[c];
        }
    }
};

/** Inputs that share everything but the prefetch combo. */
std::string
groupKey(const SimJob &j)
{
    SimJob g = j;
    g.combo.clear();
    return g.label();
}

using Captured = std::vector<std::pair<SimJob, TracedRun>>;

/**
 * The per-job layers: every job of `jobs` through both routes in one
 * pass (alternating which goes first), plus an "ipcp-l1" traced run of
 * every group that lacks one so the L1/L2 prefetch split exists on
 * every workload. Passes repeat until the budget is spent. The first
 * pass's end-of-warmup states (up to kMaxCaptured) go to `captured`.
 */

void
traceJobLayers(const std::vector<SimJob> &jobs, double budget_s,
               Result &res, Captured &captured)
{
    std::vector<SimJob> extra;
    {
        std::map<std::string, std::set<std::string>> combos;
        for (const SimJob &j : jobs)
            combos[groupKey(j)].insert(j.combo);
        std::set<std::string> added;
        for (const SimJob &j : jobs) {
            const auto &have = combos[groupKey(j)];
            if (have.count("none") && have.count("ipcp") &&
                !have.count("ipcp-l1") && added.insert(groupKey(j)).second) {
                SimJob l1 = j;
                l1.combo = "ipcp-l1";
                extra.push_back(l1);
            }
        }
    }

    std::vector<std::uint64_t> first_digest(jobs.size(), 0);
    std::vector<double> build_ms, warmup_ms, measure_ms;
    // Per input, each combo's warmup + measure ns in every pass.
    struct GroupTimes
    {
        std::vector<double> none, l1, full;
        std::uint64_t instructions = 0;
    };
    std::map<std::string, GroupTimes> group_times;
    double traced_ns = 0.0, untraced_ns = 0.0, sim_ns = 0.0;
    std::uint64_t ticks = 0;
    ExactTally exact;
    std::map<std::string, std::pair<double, double>> speedup;  // ipcs
    HostSpeed host;
    std::vector<double> calib_ms;
    unsigned passes = 0;
    std::vector<double> pass_s;
    const Clock::time_point start = Clock::now();
    // At least two passes, so the prefetch split's per-input medians
    // are not single samples.
    while (passes < 2 ||
           secondsSince(start) + median(pass_s) <= budget_s) {
        const Clock::time_point pass_t0 = Clock::now();
        const std::size_t total = jobs.size() + extra.size();
        for (std::size_t i = 0; i < total; ++i) {
            const bool in_list = i < jobs.size();
            const SimJob &job = in_list ? jobs[i] : extra[i - jobs.size()];
            ++res.attempted;
            if (passes == 0)
                calib_ms.push_back(host.sampleMs());
            try {
                TracedRun t;
                double u_ns = 0.0;
                SimResult u;
                const auto untraced = [&] {
                    const Clock::time_point t0 = Clock::now();
                    u = runUntraced(job);
                    u_ns = nsSince(t0);
                };
                const bool untraced_first = (i + passes) % 2 == 0;
                if (in_list && untraced_first)
                    untraced();
                const bool capture =
                    in_list && passes == 0 && i < kMaxCaptured;
                t = runTraced(job, capture);
                if (in_list && !untraced_first)
                    untraced();

                if (in_list) {
                    const std::uint64_t d = digest(t.result);
                    if (d != digest(u))
                        res.fail(1, job.label() +
                                        ": traced route differs from "
                                        "runSingleCore/runMix");
                    if (passes == 0)
                        first_digest[i] = d;
                    else if (d != first_digest[i])
                        res.fail(1, job.label() +
                                        ": repeated job changed its "
                                        "results");
                    traced_ns += t.buildNs + t.warmupNs + t.measureNs;
                    untraced_ns += u_ns;
                }
                build_ms.push_back(t.buildNs / 1e6);
                warmup_ms.push_back(t.warmupNs / 1e6);
                measure_ms.push_back(t.measureNs / 1e6);
                sim_ns += t.warmupNs + t.measureNs;
                ticks += t.result.ticks;

                GroupTimes &g = group_times[groupKey(job)];
                const double ns = t.warmupNs + t.measureNs;
                if (job.combo == "none") {
                    g.none.push_back(ns);
                    g.instructions = t.result.instructions();
                } else if (job.combo == "ipcp-l1") {
                    g.l1.push_back(ns);
                } else if (job.combo == "ipcp") {
                    g.full.push_back(ns);
                }
                if (passes == 0) {
                    exact.add(job, t);
                    auto &sp = speedup[groupKey(job)];
                    if (job.combo == "none")
                        sp.first = t.result.ipcSum();
                    else if (job.combo == "ipcp")
                        sp.second = t.result.ipcSum();
                    if (capture)
                        captured.emplace_back(job, std::move(t));
                }
            } catch (const std::exception &e) {
                res.fail(1, job.label() + ": " + e.what());
            }
        }
        pass_s.push_back(secondsSince(pass_t0));
        ++passes;
    }

    describe("core.build_ms", build_ms, "ms");
    describe("core.warmup_ms", warmup_ms, "ms");
    describe("core.measure_ms", measure_ms, "ms");
    res.add("core.build_ms", median(build_ms), "ms");
    res.add("core.warmup_ms", median(warmup_ms), "ms");
    res.add("core.measure_ms", median(measure_ms), "ms");
    res.add("core.ns_per_tick", ticks ? sim_ns / ticks : 0.0, "ns");
    res.add("core.ticks_per_kinstr", exact.ticks.perKinstr(), "count");
    res.add("core.skip_ratio",
            bouquet::ratio(exact.skipped, exact.cycles), "ratio");

    // Each input's combo times are medians over passes, so one burst of
    // host contention does not land in a difference.
    const auto median_or_missing = [](const std::vector<double> &v) {
        return v.empty() ? -1.0 : median(v);
    };
    std::vector<ComboTimes> groups;
    for (const auto &[key, g] : group_times)
        groups.push_back({median_or_missing(g.none), median_or_missing(g.l1),
                          median_or_missing(g.full), g.instructions});
    const PrefetchSplit split = prefetchSplit(groups);
    res.add("prefetch.l1.ns_per_kinstr", split.l1NsPerKinstr, "ns");
    res.add("prefetch.l2.ns_per_kinstr", split.l2NsPerKinstr, "ns");

    res.add("ipcp.l1.issued_per_kinstr", exact.l1Issued.perKinstr(),
            "count");
    res.add("ipcp.l1.useful_ratio",
            bouquet::ratio(exact.l1Useful, exact.l1Fills), "ratio");
    res.add("ipcp.l1.late_ratio",
            bouquet::ratio(exact.l1Late, exact.l1Fills), "ratio");
    const std::pair<const char *, bouquet::IpcpClass> classes[] = {
        {"cs", bouquet::IpcpClass::CS},
        {"cplx", bouquet::IpcpClass::CPLX},
        {"gs", bouquet::IpcpClass::GS},
        {"nl", bouquet::IpcpClass::NL},
    };
    for (const auto &[name, cls] : classes) {
        const auto c = static_cast<unsigned>(cls);
        res.add(std::string("ipcp.l1.") + name + ".issued_per_kinstr",
                exact.classIssued[c].perKinstr(), "count");
        res.add(std::string("ipcp.l1.") + name + ".useful_ratio",
                bouquet::ratio(exact.classUseful[c], exact.classFills[c]),
                "ratio");
    }
    res.add("ipcp.l2.issued_per_kinstr", exact.l2Issued.perKinstr(),
            "count");
    res.add("ipcp.l2.useful_ratio",
            bouquet::ratio(exact.l2Useful, exact.l2Fills), "ratio");
    bouquet::MeanAccumulator geo;
    for (const auto &kv : speedup)
        if (kv.second.first > 0.0 && kv.second.second > 0.0)
            geo.add(kv.second.second / kv.second.first);
    res.add("ipcp.speedup_geomean", geo.geometricMean(), "ratio");

    res.add("cache.l1d.mpki", exact.l1dMisses.perKinstr(), "count");
    res.add("cache.l2.mpki", exact.l2Misses.perKinstr(), "count");
    res.add("cache.llc.mpki", exact.llcMisses.perKinstr(), "count");
    res.add("cache.l1d.mshr_full_stalls_per_kinstr",
            exact.mshrFull.perKinstr(), "count");
    res.add("cache.llc.avg_miss_latency",
            bouquet::ratio(exact.llcLatSum, exact.llcLatCount), "cycles");
    res.add("mem.dram.bytes_per_kinstr", exact.dramBytes.perKinstr(),
            "bytes");
    res.add("mem.dram.row_hit_ratio",
            bouquet::ratio(exact.rowHits, exact.rowAccesses), "ratio");
    res.add("mem.dram.busy_rejects_per_kinstr",
            exact.busyRejects.perKinstr(), "count");

    res.add("bench.calib_ms", median(calib_ms), "ms");
    res.add("bench.trace_overhead_pct",
            untraced_ns > 0.0 ? (traced_ns / untraced_ns - 1.0) * 100.0
                              : 0.0,
            "%");
}

/** Drain each distinct trace generator of `jobs`. */
void
traceGeneratorLayer(const std::vector<SimJob> &jobs, Result &res)
{
    std::set<std::string> seen;
    double ns = 0.0;
    std::uint64_t records = 0;
    for (const SimJob &j : jobs) {
        for (const TraceSpec &s : j.specs) {
            if (!seen.insert(s.name).second)
                continue;
            bouquet::GeneratorPtr gen = bouquet::makeWorkload(s);
            bouquet::TraceRecord rec;
            std::uint64_t sink = 0;
            const Clock::time_point t0 = Clock::now();
            for (std::uint64_t i = 0; i < kDrainRecords; ++i) {
                gen->next(rec);
                sink += rec.vaddr;
            }
            ns += nsSince(t0);
            records += kDrainRecords;
            if (sink == 1)  // keeps the drain from being optimised out
                std::fprintf(stderr, " ");
        }
    }
    res.add("trace.gen_ns_per_record", records ? ns / records : 0.0,
            "ns");
}

/**
 * The state layer and the harness stores, driven with the workload's
 * own end-of-warmup states and results, each in a fresh directory.
 */
void
traceStateAndStores(const Captured &runs, const fs::path &work,
                    Result &res)
{
    // StateIO: capture (timed in the warmup hook) and load into a
    // freshly built system of the same job.
    std::vector<double> capture_ms, load_ms;
    double state_bytes = 0.0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        capture_ms.push_back(runs[i].second.captureNs / 1e6);
        state_bytes += static_cast<double>(runs[i].second.warmState.size());
        std::unique_ptr<bouquet::System> sys = buildSystem(runs[i].first);
        const Clock::time_point t0 = Clock::now();
        const bouquet::Status st = sys->loadWarmState(runs[i].second.warmState);
        load_ms.push_back(nsSince(t0) / 1e6);
        if (!st.ok())
            res.fail(1, runs[i].first.label() + ": loadWarmState: " +
                            st.error().message);
    }
    res.add("stateio.capture_ms", median(capture_ms), "ms");
    res.add("stateio.load_ms", median(load_ms), "ms");
    res.add("stateio.state_kb",
            runs.empty() ? 0.0 : state_bytes / runs.size() / 1024.0, "kB");

    // WarmStore: publish every state, then fetch each through a second
    // store on the same directory so the reads come from disk.
    const std::string warm_dir = (work / "warm").string();
    std::vector<double> publish_ms, fetch_ms;
    std::uint64_t hits = 0;
    {
        bouquet::WarmStore writer(warm_dir);
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const std::string key = bouquet::warmupKey(
                runs[i].first.specs, runs[i].first.combo, runs[i].first.warmupInstrs,
                systemConfigFor(runs[i].first));
            std::vector<std::uint8_t> payload = runs[i].second.warmState;
            const Clock::time_point t0 = Clock::now();
            const bouquet::Status st =
                writer.publish(key, runs[i].second.configHash, std::move(payload));
            publish_ms.push_back(nsSince(t0) / 1e6);
            if (!st.ok())
                res.fail(1, runs[i].first.label() + ": warm publish: " +
                                st.error().message);
        }
        bouquet::WarmStore reader(warm_dir);
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const std::string key = bouquet::warmupKey(
                runs[i].first.specs, runs[i].first.combo, runs[i].first.warmupInstrs,
                systemConfigFor(runs[i].first));
            const Clock::time_point t0 = Clock::now();
            const bouquet::WarmStore::Payload p =
                reader.fetch(key, runs[i].second.configHash);
            fetch_ms.push_back(nsSince(t0) / 1e6);
            if (p && *p == runs[i].second.warmState)
                ++hits;
        }
    }
    res.add("harness.warm.publish_ms", median(publish_ms), "ms");
    res.add("harness.warm.fetch_ms", median(fetch_ms), "ms");
    res.add("harness.warm.hit_ratio",
            bouquet::ratio(hits, runs.size()), "ratio");

    // OutcomeStore: a series of puts with the workload's results; the
    // first and last kSeriesEdge show how a put scales with the store.
    const std::string store_path = (work / "outcomes.bin").string();
    std::vector<double> put_ms, get_ms;
    if (!runs.empty()) {
        bouquet::OutcomeStore store(store_path);
        for (std::size_t i = 0; i < kSeries; ++i) {
            const TracedRun &r = runs[i % runs.size()].second;
            const std::string key = "perfbench|" + std::to_string(i) +
                                    "|" + runs[i % runs.size()].first.label();
            const Clock::time_point t0 = Clock::now();
            const bouquet::Status st = store.put(key, r.result.toOutcome());
            put_ms.push_back(nsSince(t0) / 1e6);
            if (!st.ok())
                res.fail(1, "OutcomeStore::put: " + st.error().message);
        }
        // A probe for a key the store lacks: what a worker pays before
        // computing each new job, since a memory miss re-reads the file.
        for (std::size_t i = 0; i < kMissProbes; ++i) {
            bouquet::Outcome o;
            const Clock::time_point t0 = Clock::now();
            const bool hit =
                store.get("perfbench-absent|" + std::to_string(i), o);
            get_ms.push_back(nsSince(t0) / 1e6);
            if (hit)
                res.fail(1, "OutcomeStore::get found an absent key");
        }
    }
    const auto mean = [](std::vector<double>::const_iterator a,
                         std::vector<double>::const_iterator b) {
        return a == b ? 0.0
                      : std::accumulate(a, b, 0.0) /
                            static_cast<double>(std::distance(a, b));
    };
    const std::size_t edge = std::min(kSeriesEdge, put_ms.size());
    res.add("harness.store.put_ms_first",
            mean(put_ms.begin(), put_ms.begin() + edge), "ms");
    res.add("harness.store.put_ms_last",
            mean(put_ms.end() - edge, put_ms.end()), "ms");
    res.add("harness.store.get_ms", mean(get_ms.begin(), get_ms.end()),
            "ms");
    res.add("harness.store.file_kb",
            fs::exists(store_path)
                ? static_cast<double>(fs::file_size(store_path)) / 1024.0
                : 0.0,
            "kB");

    // WorkQueue: claim and publish-done every job of a fresh queue.
    bouquet::campaign::QueueConfig qcfg;
    qcfg.dir = (work / "queue").string();
    fs::create_directories(qcfg.dir);
    bouquet::campaign::WorkQueue queue(qcfg, "perfbench");
    std::vector<double> claim_us, done_us;
    for (std::size_t i = 0; i < kSeries; ++i) {
        const std::string key = "perfbench-job-" + std::to_string(i);
        char hash[17];
        std::snprintf(hash, sizeof hash, "%016llx",
                      static_cast<unsigned long long>(bouquet::fnv1a(key)));
        const Clock::time_point t0 = Clock::now();
        bouquet::Result<bouquet::campaign::Claim> c = queue.tryClaim(hash);
        claim_us.push_back(nsSince(t0) / 1e3);
        if (!c.ok() || !c.value().claimed) {
            res.fail(1, std::string("WorkQueue::tryClaim refused ") + hash);
            continue;
        }
        const Clock::time_point t1 = Clock::now();
        const bouquet::Status st =
            queue.publishDone(hash, key, c.value().nonce);
        done_us.push_back(nsSince(t1) / 1e3);
        if (!st.ok())
            res.fail(1, "WorkQueue::publishDone: " + st.error().message);
    }
    res.add("campaign.claim_us", median(claim_us), "us");
    res.add("campaign.publish_done_us", median(done_us), "us");
}

/**
 * Campaign and DSE layers from one isolated search: exact campaign
 * counts, disk footprint, and the simulation share of its wall time
 * (the same jobs run directly, cold, through runSingleCore).
 */
void
traceSearchLayers(const bouquet::dse::DseOptions &opts, Result &res,
                  SearchRun *out)
{
    SearchRun run = runSearchIsolated(opts);
    fs::remove_all(opts.root);
    res.attempted += std::max<std::uint64_t>(run.jobs.size(), 1);
    checkSearch(run, run.reportDigest, res);
    double direct_s = 0.0;
    for (const SimJob &j : run.jobs) {
        const Clock::time_point t0 = Clock::now();
        try {
            runUntraced(j);
        } catch (const std::exception &e) {
            res.fail(1, j.label() + ": " + e.what());
        }
        direct_s += secondsSince(t0);
    }
    const double jobs = static_cast<double>(run.jobs.size());
    res.add("campaign.attempts_per_job",
            jobs > 0 ? static_cast<double>(run.totals.attempts) / jobs : 0.0,
            "count");
    res.add("campaign.quarantined",
            static_cast<double>(run.totals.quarantined), "count");
    res.add("campaign.disk_mb",
            static_cast<double>(run.diskBytes) / (1024.0 * 1024.0), "MB");
    res.add("dse.sim_share", run.wallS > 0 ? direct_s / run.wallS : 0.0,
            "ratio");
    res.add("dse.harness_ms_per_job",
            jobs > 0 ? std::max(0.0, run.wallS - direct_s) * 1e3 / jobs
                     : 0.0,
            "ms");
    if (out != nullptr)
        *out = std::move(run);
}

// --- main -----------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30.0;
    bool trace = false;
    std::string workDir;
};

/**
 * Remove every IPCP_* variable (IPCP_FAULTS included) so a knob left
 * set in the shell cannot change what is measured: System's
 * constructor reads IPCP_NO_SKIP, IPCP_AUDIT, IPCP_SKIP_PROFILE and
 * IPCP_TICK_THREADS, and IPCP_WARM_DIR redirects runSearch. Returns
 * the names removed.
 */
std::vector<std::string>
scrubEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e != nullptr; ++e) {
        const std::string kv = *e;
        if (kv.rfind("IPCP_", 0) == 0)
            names.push_back(kv.substr(0, kv.find('=')));
    }
    for (const std::string &n : names)
        ::unsetenv(n.c_str());
    return names;
}

std::string
jsonList(const std::vector<std::string> &v)
{
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        s += (i ? ", \"" : "\"") + v[i] + "\"";
    return s + "]";
}

/** Record what this run resolved to, on stderr. */
void
printSettings(const Options &o, const std::vector<std::string> &scrubbed,
              const std::vector<SimJob> &jobs,
              const std::vector<std::string> &dse_traces)
{
    std::set<std::string> inputs;
    std::set<std::string> combos;
    std::uint64_t warmup = 0, sim = 0;
    for (const SimJob &j : jobs) {
        SimJob g = j;
        g.combo.clear();
        inputs.insert(g.label());
        combos.insert(j.combo);
        warmup = j.warmupInstrs;
        sim = j.simInstrs;
    }
    std::fprintf(
        stderr,
        "[perfbench] settings {\"workload\": \"%s\", \"seed\": %llu, "
        "\"seconds\": %g, \"trace\": %d, \"scrubbed_env\": %s, "
        "\"inputs\": %s, \"combos\": %s, \"warmup_instrs\": %llu, "
        "\"sim_instrs\": %llu, \"dse_traces\": %s, \"dse_sample\": %zu, "
        "\"system\": \"default Table II, skip loop on, serial ticks, "
        "no audit\"}\n",
        o.workload.c_str(), static_cast<unsigned long long>(o.seed),
        o.seconds, o.trace ? 1 : 0, jsonList(scrubbed).c_str(),
        jsonList({inputs.begin(), inputs.end()}).c_str(),
        jsonList({combos.begin(), combos.end()}).c_str(),
        static_cast<unsigned long long>(warmup),
        static_cast<unsigned long long>(sim),
        jsonList(dse_traces).c_str(), kDseSample);
}

int
run(const Options &o)
{
    const Clock::time_point start = Clock::now();
    const std::vector<std::string> scrubbed = scrubEnvironment();
    const fs::path work =
        fs::path(o.workDir) / (o.workload + "-" + std::to_string(::getpid()));
    fs::remove_all(work);
    fs::create_directories(work);

    Result res;
    const bool dse = o.workload == "dse-search";
    std::vector<SimJob> jobs;
    std::vector<std::string> traces;
    if (dse) {
        traces = kDseTraces;
    } else if (o.workload == "sim-1core") {
        jobs = simJobs(o.seed);
    } else {
        jobs = mixJobs(o.seed);
    }
    printSettings(o, scrubbed, jobs, traces);

    if (!o.trace) {
        if (dse) {
            runDseWorkload(o.seed, o.seconds, work, res);
        } else {
            // Set-up: the job list plus the first System built and
            // attached; the jobs run are the last list built.
            runSimWorkload(
                jobs,
                [&] {
                    jobs = o.workload == "sim-1core" ? simJobs(o.seed)
                                                     : mixJobs(o.seed);
                    buildSystem(jobs.front());
                },
                o.seconds - secondsSince(start), res);
        }
    } else {
        // Per-layer run. Sim workloads time their own jobs and drive
        // the stores with their own states and results; dse-search
        // does the same with the direct form of its search's jobs.
        // Every workload also runs one search (dse-search its own; the
        // sim workloads a small one over two of their traces) so the
        // campaign and DSE layers are measured on every workload.
        SearchRun search;
        if (dse) {
            traceSearchLayers(dseOptions(traces, kDseSample, o.seed,
                                         (work / "search").string()),
                              res, &search);
            jobs = search.jobs;
        } else {
            std::vector<std::string> names;
            for (const SimJob &j : jobs)
                for (const TraceSpec &s : j.specs)
                    if (names.size() < 2 &&
                        std::find(names.begin(), names.end(), s.name) ==
                            names.end())
                        names.push_back(s.name);
            traceSearchLayers(
                dseOptions(names, 4, o.seed, (work / "search").string()),
                res, nullptr);
        }
        Captured captured;
        traceJobLayers(jobs, o.seconds, res, captured);
        traceGeneratorLayer(jobs, res);
        traceStateAndStores(captured, work, res);
    }
    fs::remove_all(work);
    std::fprintf(stderr, "[perfbench] run took %.3f s\n",
                 secondsSince(start));
    res.print();
    return 0;
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        char *end = nullptr;
        if (k == "--workload") {
            o.workload = v;
        } else if (k == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0')
                return false;
        } else if (k == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(o.seconds > 0))
                return false;
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                return false;
            o.trace = v == "1";
        } else if (k == "--work-dir") {
            o.workDir = v;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !o.workDir.empty() &&
           (o.workload == "sim-1core" || o.workload == "mix-4core" ||
            o.workload == "dse-search");
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Options o;
    if (!perfbench::parseArgs(argc, argv, o)) {
        std::fprintf(stderr,
                     "usage: %s --workload sim-1core|mix-4core|dse-search "
                     "--seed N --seconds S --trace 0|1 --work-dir DIR\n",
                     argv[0]);
        return 2;
    }
    try {
        return perfbench::run(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "[perfbench] error: %s\n", e.what());
        return 1;
    }
}
