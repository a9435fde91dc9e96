#include "dse/dse.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "campaign/campaign.hh"
#include "campaign/queue.hh"
#include "campaign/supervisor.hh"
#include "campaign/worker.hh"
#include "common/env.hh"
#include "common/json.hh"
#include "common/stateio.hh"
#include "harness/factory.hh"
#include "ipcp/ipcp_l1.hh"
#include "ipcp/ipcp_l2.hh"

namespace bouquet::dse
{

namespace
{

/**
 * Point the WarmStore of every rung campaign (and, in fleet mode,
 * every forked worker, which inherits the environment) at ONE shared
 * directory for the whole search — this is what lets a promoted
 * candidate skip its warmup on rung N+1. An operator-provided
 * IPCP_WARM_DIR wins; otherwise the override is removed on exit.
 */
class WarmDirGuard
{
  public:
    explicit WarmDirGuard(const std::string &dir)
    {
        if (std::getenv("IPCP_WARM_DIR") != nullptr)
            return;
        ::setenv("IPCP_WARM_DIR", dir.c_str(), 1);
        set_ = true;
    }

    ~WarmDirGuard()
    {
        if (set_)
            ::unsetenv("IPCP_WARM_DIR");
    }

    WarmDirGuard(const WarmDirGuard &) = delete;
    WarmDirGuard &operator=(const WarmDirGuard &) = delete;

  private:
    bool set_ = false;
};

Result<std::uint64_t>
storageBitsFor(const std::string &combo)
{
    Result<IpcpComboParams> p = parseIpcpCombo(combo);
    if (!p.ok())
        return p.error();
    const IpcpComboParams cfg = p.take();
    std::uint64_t bits = IpcpL1(cfg.l1).storageBits();
    if (cfg.useL2)
        bits += IpcpL2(cfg.l2).storageBits();
    return bits;
}

/** Run one rung's campaign to completion (in-process or fleet). */
Status
runRungCampaign(const std::string &root, const DseOptions &opts)
{
    if (opts.workers <= 1) {
        if (campaign::runWorker(root) != 0)
            return makeError(Errc::failed,
                             "rung worker failed under " + root, true);
        return Status();
    }
    if (opts.workerBin.empty())
        return makeError(Errc::failed,
                         "fleet mode needs a worker binary "
                         "(DseOptions::workerBin)");
    campaign::SupervisorOptions sup;
    sup.workers = opts.workers;
    sup.respawnBudget = opts.workers * 2;
    sup.workerBin = opts.workerBin;
    sup.progress = opts.progress;
    sup.strict = false;
    if (campaign::runSupervisor(root, sup) != 0)
        return makeError(Errc::failed,
                         "rung fleet failed under " + root, true);
    return Status();
}

/**
 * Score one rung: read every (combo, trace) outcome from the rung's
 * done files and fold per-trace speedups over the "none" baseline
 * into a geomean per combo.
 */
Status
scoreRung(const campaign::CampaignPaths &paths,
          const campaign::CampaignSpec &spec, const DseOptions &opts,
          const std::vector<std::string> &combos, DseRung &rung)
{
    const ExperimentConfig cfg = campaign::campaignConfig(paths, spec);
    const campaign::WorkQueue queue(
        campaign::QueueConfig::fromEnv(paths.queueDir()), "dse");

    const auto ipcOf = [&](const std::string &combo,
                           const std::string &trace,
                           double &out) -> Status {
        const std::string key = campaign::keyOf(
            campaign::CampaignJob{trace, combo}, cfg);
        Result<Outcome> done =
            queue.readDone(keyHash(key), key);
        if (!done.ok())
            return makeError(Errc::failed,
                             "no outcome for " + trace + " under " +
                                 combo + " in " + paths.root + ": " +
                                 done.error().message,
                             true);
        out = done.value().ipc;
        return Status();
    };

    std::vector<double> baseline(opts.traces.size(), 0.0);
    for (std::size_t t = 0; t < opts.traces.size(); ++t) {
        if (Status s = ipcOf("none", opts.traces[t], baseline[t]);
            !s.ok())
            return s;
        if (!(baseline[t] > 0.0))
            return makeError(Errc::failed,
                             "baseline IPC is not positive for " +
                                 opts.traces[t]);
    }

    for (const std::string &combo : combos) {
        DseCandidate cand;
        cand.combo = combo;
        Result<std::uint64_t> bits = storageBitsFor(combo);
        if (!bits.ok())
            return bits.status();
        cand.storageBits = bits.take();
        double log_sum = 0.0;
        for (std::size_t t = 0; t < opts.traces.size(); ++t) {
            double ipc = 0.0;
            if (Status s = ipcOf(combo, opts.traces[t], ipc); !s.ok())
                return s;
            const double speedup = ipc / baseline[t];
            cand.ipc.emplace_back(opts.traces[t], ipc);
            cand.speedup.emplace_back(opts.traces[t], speedup);
            log_sum += std::log(speedup);
        }
        cand.score = std::exp(
            log_sum / static_cast<double>(opts.traces.size()));
        rung.candidates.push_back(std::move(cand));
    }

    std::sort(rung.candidates.begin(), rung.candidates.end(),
              [](const DseCandidate &a, const DseCandidate &b) {
                  if (a.score != b.score)
                      return a.score > b.score;
                  return a.combo < b.combo;
              });
    return Status();
}

void
writeCandidate(JsonWriter &w, const DseCandidate &cand)
{
    w.beginObject();
    w.key("combo");
    w.value(cand.combo);
    w.key("score");
    w.value(cand.score);
    w.key("storage_bits");
    w.value(cand.storageBits);
    w.key("ipc");
    w.beginObject();
    for (const auto &[trace, ipc] : cand.ipc) {
        w.key(trace);
        w.value(ipc);
    }
    w.endObject();
    w.key("speedup");
    w.beginObject();
    for (const auto &[trace, speedup] : cand.speedup) {
        w.key(trace);
        w.value(speedup);
    }
    w.endObject();
    w.endObject();
}

/** report.json: simulated data only — byte-identical per seed. */
Status
writeSearchReport(const std::string &path, const DseOptions &opts,
                  const DseReport &report)
{
    return campaign::publishJson(path, [&](JsonWriter &w) {
        w.beginObject();
        w.key("schema");
        w.value(std::uint64_t{1});
        w.key("kind");
        w.value("ipcp-dse-report");
        w.key("seed");
        w.value(opts.seed);
        w.key("sample");
        w.value(static_cast<std::uint64_t>(opts.sample));
        w.key("survivor_fraction");
        w.value(opts.survivorFraction);
        w.key("warmup_instrs");
        w.value(opts.warmupInstrs);
        w.key("traces");
        w.beginArray();
        for (const std::string &t : opts.traces)
            w.value(t);
        w.endArray();
        w.key("space");
        w.beginArray();
        for (const Knob &k : opts.space.knobs) {
            w.beginObject();
            w.key("name");
            w.value(k.name);
            w.key("values");
            w.beginArray();
            for (const std::string &v : k.values)
                w.value(v);
            w.endArray();
            w.endObject();
        }
        w.endArray();
        w.key("rungs");
        w.beginArray();
        for (const DseRung &rung : report.rungs) {
            w.beginObject();
            w.key("sim_instrs");
            w.value(rung.simInstrs);
            w.key("candidates");
            w.beginArray();
            for (const DseCandidate &cand : rung.candidates)
                writeCandidate(w, cand);
            w.endArray();
            w.key("survivors");
            w.beginArray();
            for (const std::string &s : rung.survivors)
                w.value(s);
            w.endArray();
            w.endObject();
        }
        w.endArray();
        w.key("best");
        w.beginObject();
        w.key("combo");
        w.value(report.bestCombo);
        w.key("score");
        w.value(report.bestScore);
        w.endObject();
        w.key("best_per_trace");
        w.beginArray();
        for (const auto &[trace, combo] : report.bestPerTrace) {
            w.beginObject();
            w.key("trace");
            w.value(trace);
            w.key("combo");
            w.value(combo);
            w.endObject();
        }
        w.endArray();
        w.key("pareto");
        w.beginArray();
        for (const DseCandidate &cand : report.pareto) {
            w.beginObject();
            w.key("combo");
            w.value(cand.combo);
            w.key("storage_bits");
            w.value(cand.storageBits);
            w.key("score");
            w.value(cand.score);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    });
}

/** summary.json: provenance that varies run to run by design. */
Status
writeSearchSummary(const std::string &path, const DseReport &report)
{
    return campaign::publishJson(path, [&](JsonWriter &w) {
        w.beginObject();
        w.key("schema");
        w.value(std::uint64_t{1});
        w.key("kind");
        w.value("ipcp-dse-summary");
        w.key("rungs");
        w.beginArray();
        for (const DseRung &rung : report.rungs) {
            const campaign::CampaignTotals &t = rung.totals;
            w.beginObject();
            w.key("sim_instrs");
            w.value(rung.simInstrs);
            w.key("jobs");
            w.value(static_cast<std::uint64_t>(t.jobs));
            w.key("done");
            w.value(static_cast<std::uint64_t>(t.done));
            w.key("quarantined");
            w.value(static_cast<std::uint64_t>(t.quarantined));
            w.key("attempts");
            w.value(t.attempts);
            w.key("reclaims");
            w.value(t.reclaims);
            w.key("resumed");
            w.value(t.resumed);
            w.key("warm_hits");
            w.value(t.warmHits);
            w.key("warm_misses");
            w.value(t.warmMisses);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    });
}

const DseCandidate *
findCandidate(const DseRung &rung, const std::string &combo)
{
    for (const DseCandidate &cand : rung.candidates)
        if (cand.combo == combo)
            return &cand;
    return nullptr;
}

bool
withinTolerance(double want, double got, double tolerance)
{
    if (want == got)
        return true;
    const double mag = std::max(std::fabs(want), std::fabs(got));
    return std::fabs(want - got) <= tolerance * mag;
}

} // namespace

Result<DseReport>
runSearch(const DseOptions &opts)
{
    if (opts.traces.empty())
        return makeError(Errc::failed, "dse: no traces selected");
    if (opts.rungInstrs.empty())
        return makeError(Errc::failed, "dse: no rungs configured");
    for (std::size_t i = 1; i < opts.rungInstrs.size(); ++i)
        if (opts.rungInstrs[i] <= opts.rungInstrs[i - 1])
            return makeError(Errc::failed,
                             "dse: rung lengths must increase");
    if (!(opts.survivorFraction > 0.0 && opts.survivorFraction <= 1.0))
        return makeError(Errc::failed,
                         "dse: survivor fraction must be in (0,1]");

    if (Status s = ensureDir(opts.root); !s.ok())
        return s.error();
    const std::string warm_dir = opts.root + "/warm";
    if (Status s = ensureDir(warm_dir); !s.ok())
        return s.error();
    WarmDirGuard warm_guard(warm_dir);

    std::vector<std::string> candidates =
        enumerateGrid(opts.space, opts.sample, opts.seed);

    DseReport report;
    for (std::size_t r = 0; r < opts.rungInstrs.size(); ++r) {
        DseRung rung;
        rung.simInstrs = opts.rungInstrs[r];
        const std::string rung_root =
            opts.root + "/rung-" + std::to_string(r + 1);
        const campaign::CampaignPaths paths(rung_root);

        campaign::CampaignSpec spec;
        spec.simInstrs = rung.simInstrs;
        spec.warmupInstrs = opts.warmupInstrs;
        for (const std::string &trace : opts.traces)
            spec.jobs.push_back(campaign::CampaignJob{trace, "none"});
        for (const std::string &combo : candidates)
            for (const std::string &trace : opts.traces)
                spec.jobs.push_back(
                    campaign::CampaignJob{trace, combo});

        // Submit-once: a manifest left by an interrupted search is
        // reused verbatim, so finished jobs are not re-simulated.
        if (!campaign::readManifest(paths).ok())
            if (Status s = campaign::writeManifest(paths, spec);
                !s.ok())
                return s.error();

        if (opts.progress)
            std::fprintf(stderr,
                         "[dse] rung %zu/%zu: %zu candidates x %zu "
                         "traces at %llu instrs\n",
                         r + 1, opts.rungInstrs.size(),
                         candidates.size(), opts.traces.size(),
                         static_cast<unsigned long long>(
                             rung.simInstrs));

        if (Status s = runRungCampaign(rung_root, opts); !s.ok())
            return s.error();
        if (Status s = campaign::writeReport(paths, spec); !s.ok())
            return s.error();
        Result<campaign::CampaignTotals> totals =
            campaign::writeSummary(paths, spec);
        if (!totals.ok())
            return totals.error();
        rung.totals = totals.take();

        if (Status s =
                scoreRung(paths, spec, opts, candidates, rung);
            !s.ok())
            return s.error();

        // Successive halving: promote the top fraction; the Table I
        // default always rides along so the gate numbers exist at
        // the final rung even when the default is beaten early.
        const std::size_t keep = std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   std::ceil(opts.survivorFraction *
                             static_cast<double>(
                                 rung.candidates.size()))));
        for (std::size_t i = 0;
             i < rung.candidates.size() && i < keep; ++i)
            rung.survivors.push_back(rung.candidates[i].combo);
        if (std::find(rung.survivors.begin(), rung.survivors.end(),
                      "ipcp") == rung.survivors.end())
            rung.survivors.push_back("ipcp");

        candidates = rung.survivors;
        report.rungs.push_back(std::move(rung));
    }

    const DseRung &final_rung = report.rungs.back();
    report.bestCombo = final_rung.candidates.front().combo;
    report.bestScore = final_rung.candidates.front().score;

    for (std::size_t t = 0; t < opts.traces.size(); ++t) {
        const DseCandidate *best = nullptr;
        for (const DseCandidate &cand : final_rung.candidates) {
            const double s = cand.speedup[t].second;
            if (best == nullptr || s > best->speedup[t].second ||
                (s == best->speedup[t].second &&
                 cand.combo < best->combo))
                best = &cand;
        }
        report.bestPerTrace.emplace_back(opts.traces[t], best->combo);
    }

    // Pareto front over (storage bits, score): cheapest first, keep
    // every point no larger design strictly beats.
    std::vector<DseCandidate> by_bits = final_rung.candidates;
    std::sort(by_bits.begin(), by_bits.end(),
              [](const DseCandidate &a, const DseCandidate &b) {
                  if (a.storageBits != b.storageBits)
                      return a.storageBits < b.storageBits;
                  if (a.score != b.score)
                      return a.score > b.score;
                  return a.combo < b.combo;
              });
    double best_score = -1.0;
    for (const DseCandidate &cand : by_bits) {
        if (cand.score > best_score) {
            report.pareto.push_back(cand);
            best_score = cand.score;
        }
    }

    if (Status s = writeSearchReport(opts.root + "/report.json", opts,
                                     report);
        !s.ok())
        return s.error();
    if (Status s =
            writeSearchSummary(opts.root + "/summary.json", report);
        !s.ok())
        return s.error();

    if (!opts.gateOutPath.empty())
        if (Status s = writeGate(opts.gateOutPath, report, opts);
            !s.ok())
            return s.error();
    if (!opts.gatePath.empty())
        if (Status s = checkGate(opts.gatePath, report, opts); !s.ok())
            return s.error();

    return report;
}

Status
writeGate(const std::string &path, const DseReport &report,
          const DseOptions &opts)
{
    const DseRung &final_rung = report.rungs.back();
    const DseCandidate *pinned = findCandidate(final_rung, "ipcp");
    if (pinned == nullptr)
        return makeError(Errc::failed,
                         "gate: default config missing from the "
                         "final rung");
    std::ostringstream os;
    os << "ipcp-dse-gate v1\n";
    os << "combo=ipcp\n";
    os << "sim_instrs=" << final_rung.simInstrs << "\n";
    os << "warmup_instrs=" << opts.warmupInstrs << "\n";
    os << "geomean=" << formatRoundTripDouble(pinned->score) << "\n";
    for (std::size_t t = 0; t < pinned->ipc.size(); ++t)
        os << "trace " << pinned->ipc[t].first
           << " ipc=" << formatRoundTripDouble(pinned->ipc[t].second)
           << " speedup="
           << formatRoundTripDouble(pinned->speedup[t].second) << "\n";

    return publishFile(path, os.str());
}

Status
checkGate(const std::string &path, const DseReport &report,
          const DseOptions &opts)
{
    const DseRung &final_rung = report.rungs.back();
    const DseCandidate *pinned = findCandidate(final_rung, "ipcp");
    if (pinned == nullptr)
        return makeError(Errc::failed,
                         "gate: default config missing from the "
                         "final rung");

    std::ifstream is(path);
    if (!is)
        return makeError(Errc::io, "cannot open gate " + path);
    std::string line;
    if (!std::getline(is, line) || line != "ipcp-dse-gate v1")
        return makeError(Errc::bad_magic,
                         path + ": not a dse gate file");

    const auto fail = [&](const std::string &what) {
        return makeError(Errc::failed,
                         "gate mismatch at " + path + ": " + what);
    };
    const auto checkDouble = [&](const std::string &label,
                                 const std::string &text,
                                 double got) -> Status {
        double want = 0.0;
        if (!parseDouble(text, want))
            return makeError(Errc::corrupt,
                             path + ": bad gate number '" + text +
                                 "'");
        if (!withinTolerance(want, got, opts.gateTolerance))
            return fail(label + " pinned " + text + ", reproduced " +
                        formatRoundTripDouble(got));
        return Status();
    };

    std::size_t traces_checked = 0;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        if (line.rfind("combo=", 0) == 0) {
            if (line.substr(6) != "ipcp")
                return fail("gate pins combo '" + line.substr(6) +
                            "', expected ipcp");
        } else if (line.rfind("sim_instrs=", 0) == 0) {
            std::uint64_t want = 0;
            if (!parseU64(line.substr(11), want))
                return makeError(Errc::corrupt,
                                 path + ": bad line: " + line);
            if (want != final_rung.simInstrs)
                return fail("sim_instrs pinned " + line.substr(11) +
                            ", ran " +
                            std::to_string(final_rung.simInstrs));
        } else if (line.rfind("warmup_instrs=", 0) == 0) {
            std::uint64_t want = 0;
            if (!parseU64(line.substr(14), want))
                return makeError(Errc::corrupt,
                                 path + ": bad line: " + line);
            if (want != opts.warmupInstrs)
                return fail("warmup_instrs pinned " +
                            line.substr(14) + ", ran " +
                            std::to_string(opts.warmupInstrs));
        } else if (line.rfind("geomean=", 0) == 0) {
            if (Status s = checkDouble("geomean", line.substr(8),
                                       pinned->score);
                !s.ok())
                return s;
        } else if (line.rfind("trace ", 0) == 0) {
            std::istringstream fields(line);
            std::string tag, trace, ipc_kv, speedup_kv;
            fields >> tag >> trace >> ipc_kv >> speedup_kv;
            if (trace.empty() || ipc_kv.rfind("ipc=", 0) != 0 ||
                speedup_kv.rfind("speedup=", 0) != 0)
                return makeError(Errc::corrupt,
                                 path + ": bad line: " + line);
            const DseCandidate *cand = pinned;
            bool found = false;
            for (std::size_t t = 0; t < cand->ipc.size(); ++t) {
                if (cand->ipc[t].first != trace)
                    continue;
                found = true;
                if (Status s = checkDouble(trace + " ipc",
                                           ipc_kv.substr(4),
                                           cand->ipc[t].second);
                    !s.ok())
                    return s;
                if (Status s = checkDouble(trace + " speedup",
                                           speedup_kv.substr(8),
                                           cand->speedup[t].second);
                    !s.ok())
                    return s;
                ++traces_checked;
                break;
            }
            if (!found)
                return fail("gate pins trace " + trace +
                            ", which this run did not simulate");
        } else {
            return makeError(Errc::corrupt,
                             path + ": bad line: " + line);
        }
    }
    if (traces_checked == 0)
        return makeError(Errc::corrupt,
                         path + ": gate pins no traces");
    return Status();
}

} // namespace bouquet::dse
