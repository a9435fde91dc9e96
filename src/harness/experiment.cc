#include "harness/experiment.hh"

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "common/degrade.hh"
#include "common/env.hh"
#include "common/publisher.hh"
#include "common/rng.hh"
#include "common/stateio.hh"
#include "common/stats.hh"
#include "harness/statsjson.hh"
#include "harness/warmstore.hh"

namespace bouquet
{

namespace
{

/** Events the trace ring holds with tracing on; oldest overwritten. */
constexpr std::size_t kTraceCapacity = 1 << 16;

bool
fileExists(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return false;
    std::fclose(f);
    return true;
}

/** A freshly built + attached System plus its checkpointing plan. */
struct PreparedSystem
{
    std::unique_ptr<System> sys;
    std::string savePath;   //!< periodic save target ("" = none)
    bool derived = false;   //!< savePath is key-derived (delete on
                            //!< success, resume opportunistically)
};

/**
 * Build a system via `build`, resolve where (if anywhere) it should
 * checkpoint, restore a prior checkpoint per cfg, and arm periodic
 * saves. An explicit resumePath must load (failure throws, failing
 * the job); a leftover key-derived checkpoint is best-effort — if it
 * does not load, the partially restored system is rebuilt and the
 * run starts fresh.
 *
 * The store-probe order is: explicit resumePath, then a leftover
 * key-derived checkpoint (a crashed attempt's mid-run state is
 * further along than any warm state), then — only when neither
 * restored anything — the WarmStore for `warm_key`. A warm hit
 * fast-forwards to the published end-of-warmup state; a warm miss
 * arms the warmup hook so this run publishes for the next one.
 */
template <typename BuildFn>
PreparedSystem
prepareSystem(const BuildFn &build, const ExperimentConfig &cfg,
              const std::string &ckpt_key, const std::string &warm_key)
{
    PreparedSystem p;
    p.sys = build();

    p.savePath = cfg.ckptPath;
    if (p.savePath.empty() && cfg.ckptEvery > 0 &&
        !cfg.ckptDir.empty() && !ckpt_key.empty()) {
        p.savePath = checkpointPathFor(cfg, ckpt_key);
        p.derived = true;  // fromEnv or the campaign made ckptDir
    }

    bool restored = false;
    if (!cfg.resumePath.empty()) {
        const Status st = p.sys->loadCheckpoint(cfg.resumePath);
        if (!st.ok())
            throw ErrorException(st.error());
        restored = true;
    } else if (p.derived && fileExists(p.savePath)) {
        const Status st = p.sys->loadCheckpoint(p.savePath);
        if (!st.ok()) {
            std::fprintf(stderr,
                         "[harness] checkpoint %s unusable (%s: %s); "
                         "starting fresh\n",
                         p.savePath.c_str(), errcName(st.error().code),
                         st.error().message.c_str());
            p.sys = build();  // loadCheckpoint may half-restore
        } else {
            restored = true;
        }
    }

    if (!restored && !warm_key.empty()) {
        WarmStore &store = warmStoreFor(cfg.warmDir);
        const std::uint64_t hash = p.sys->configHash();
        if (WarmStore::Payload warm = store.fetch(warm_key, hash)) {
            const Status st = p.sys->loadWarmState(*warm);
            if (!st.ok()) {
                std::fprintf(stderr,
                             "[harness] warm state for %s unusable "
                             "(%s: %s); simulating warmup\n",
                             warm_key.c_str(),
                             errcName(st.error().code),
                             st.error().message.c_str());
                store.discard(warm_key, hash, warm);
                p.sys = build();  // loadWarmState may half-restore
            }
        }
        if (!p.sys->warmStart()) {
            p.sys->setWarmupHook([&store, warm_key,
                                  publisher = cfg.publisher](System &s) {
                // Publish failure is degraded, not fatal: the store
                // warns once and counts it (§5i), and in-process
                // sharing still works, so its Status is dropped here.
                // A capture failure never reaches the store, so count
                // it here.
                Result<std::vector<std::uint8_t>> r = s.captureState();
                if (!r.ok()) {
                    noteDegraded(DegradeKind::warm, r.error());
                    return;
                }
                const std::uint64_t hash = s.configHash();
                if (publisher == nullptr) {
                    (void)store.publish(warm_key, hash,
                                        std::move(r.value()));
                    return;
                }
                // Fetches in this process hit at once; the file lands
                // on the publisher thread.
                auto payload =
                    std::make_shared<const std::vector<std::uint8_t>>(
                        std::move(r.value()));
                store.remember(warm_key, hash, payload);
                publisher->post([&store, warm_key, hash, payload] {
                    (void)store.publish(warm_key, hash, payload);
                });
            });
        }
    }

    if (!p.savePath.empty() && cfg.ckptEvery > 0)
        p.sys->setCheckpointEvery(cfg.ckptEvery, p.savePath,
                                  cfg.ckptMinMs);
    if (!cfg.traceEventsPath.empty())
        p.sys->enableTracing(kTraceCapacity);
    return p;
}

/** The warmup memoization key for a run, "" when sharing is off. */
std::string
warmKeyFor(const std::vector<TraceSpec> &specs,
           const ExperimentConfig &cfg, const SystemConfig &sys_cfg)
{
    if (cfg.warmDir.empty() || cfg.warmLabel.empty() ||
        cfg.warmupInstrs == 0)
        return {};
    return warmupKey(specs, cfg.warmLabel, cfg.warmupInstrs, sys_cfg);
}

/**
 * Post-run observability exports. Best-effort by design: a full disk
 * or bad path costs the artifact and a warning, never the run.
 */
void
writeRunArtifacts(System &sys, const ExperimentConfig &cfg,
                  const std::string &job_key)
{
    if (!cfg.statsJsonPath.empty()) {
        auto land = [path = cfg.statsJsonPath,
                     json = formatSystemStatsJson(sys, job_key)] {
            if (Status st = publishFile(path, json); !st.ok())
                noteDegraded(DegradeKind::stats, st.error());
        };
        if (cfg.publisher != nullptr)
            cfg.publisher->post(std::move(land));
        else
            land();
    }
    if (!cfg.traceEventsPath.empty()) {
        const Status st = writeTraceEvents(sys, cfg.traceEventsPath);
        if (!st.ok())
            std::fprintf(stderr,
                         "[harness] trace export to '%s' failed "
                         "(%s: %s)\n",
                         cfg.traceEventsPath.c_str(),
                         errcName(st.error().code),
                         st.error().message.c_str());
    }
}

} // namespace

std::string
checkpointPathFor(const ExperimentConfig &cfg, const std::string &key)
{
    return cfg.ckptDir + "/ckpt-" + keyHash(key) + ".ckpt";
}

ExperimentConfig
ExperimentConfig::fromEnv()
{
    ExperimentConfig cfg;
    cfg.simInstrs = envU64("IPCP_SIM_INSTRS", cfg.simInstrs);
    cfg.warmupInstrs = envU64("IPCP_WARMUP_INSTRS", cfg.warmupInstrs);
    cfg.mixes = static_cast<unsigned>(envU64("IPCP_MIXES", cfg.mixes));
    cfg.ckptEvery = envU64("IPCP_CKPT_EVERY", cfg.ckptEvery);
    cfg.ckptMinMs = envU64("IPCP_CKPT_MIN_MS", cfg.ckptMinMs);
    // The artifact directories are made here, once, not per job. Best
    // effort: a missing directory makes a save or export warn, never
    // a job fail.
    if (const char *dir = std::getenv("IPCP_CKPT_DIR");
        dir != nullptr && *dir != '\0') {
        cfg.ckptDir = dir;
        (void)ensureDir(dir);
    }
    const char *warm = std::getenv("IPCP_WARM");
    if (warm == nullptr || std::string(warm) != "0") {
        if (const char *dir = std::getenv("IPCP_WARM_DIR");
            dir != nullptr && *dir != '\0')
            cfg.warmDir = dir;
    }
    if (const char *dir = std::getenv("IPCP_STATS_DIR");
        dir != nullptr && *dir != '\0') {
        cfg.statsDir = dir;
        (void)ensureDir(dir);
    }
    return cfg;
}

double
Outcome::mpkiL1() const
{
    return perKiloInstr(l1d.demandMisses(), instructions);
}

double
Outcome::mpkiL2() const
{
    return perKiloInstr(l2.demandMisses(), instructions);
}

double
Outcome::mpkiLlc() const
{
    return perKiloInstr(llc.demandMisses(), instructions);
}

Outcome
runSingleCore(const TraceSpec &spec, const AttachFn &attach,
              const ExperimentConfig &cfg, const std::string &ckpt_key)
{
    return runMix({spec}, attach, cfg, ckpt_key).system;
}

std::string
systemFingerprint(const SystemConfig &cfg)
{
    char buf[256];
    std::snprintf(
        buf, sizeof(buf), "s%ux%u.%ux%u.%ux%u.%ux%u.m%u.%u.p%u.%u.d%u.%llu.r%d",
        cfg.l1d.sets, cfg.l1d.ways, cfg.l2.sets, cfg.l2.ways,
        cfg.llcPerCore.sets, cfg.llcPerCore.ways, cfg.l1i.sets,
        cfg.l1i.ways, cfg.l1d.mshrs, cfg.l2.mshrs, cfg.l1d.pqSize,
        cfg.l2.pqSize, cfg.dram.channels,
        static_cast<unsigned long long>(cfg.dram.busCyclesPerLine),
        static_cast<int>(cfg.llcPerCore.repl));
    return buf;
}

SystemConfig
tableIISystem(SystemConfig base, std::size_t cores)
{
    base.dram.channels = cores > 1 ? 2 : 1;
    return base;
}

std::string
mixName(const std::vector<TraceSpec> &specs)
{
    std::string name;
    for (const TraceSpec &s : specs)
        name += (name.empty() ? "" : "+") + s.name;
    return name;
}

MixOutcome
runMix(const std::vector<TraceSpec> &specs, const AttachFn &attach,
       const ExperimentConfig &cfg, const std::string &ckpt_key)
{
    const SystemConfig sys_cfg = tableIISystem(cfg.system, specs.size());

    PreparedSystem p = prepareSystem(
        [&] {
            auto sys = std::make_unique<System>(sys_cfg,
                                                makeWorkloads(specs));
            attach(*sys);
            return sys;
        },
        cfg, ckpt_key, warmKeyFor(specs, cfg, sys_cfg));
    System &sys = *p.sys;
    const RunResult r = sys.run(cfg.warmupInstrs, cfg.simInstrs);
    if (p.derived)
        std::remove(p.savePath.c_str());
    writeRunArtifacts(sys, cfg, ckpt_key.empty() ? mixName(specs)
                                                 : ckpt_key);

    MixOutcome out;
    for (std::size_t c = 0; c < specs.size(); ++c) {
        out.ipc.push_back(r.cores[c].ipc);
        out.traces.push_back(specs[c].name);
        out.instructions.push_back(r.cores[c].instructions);
        out.cycles.push_back(r.cores[c].cycles);
    }
    out.system.ipc = r.cores[0].ipc;
    out.system.instructions = r.cores[0].instructions;
    out.system.cycles = r.cores[0].cycles;
    out.system.l1i = sys.l1i(0).stats();
    out.system.l1d = sys.l1d(0).stats();
    out.system.l2 = sys.l2(0).stats();
    out.system.llc = sys.llc().stats();
    out.system.dram = sys.dram().stats();
    out.system.dramBytes = sys.dram().bytesTransferred();
    out.system.ticksExecuted = sys.perf().ticksExecuted;
    out.system.skippedCycles = sys.perf().skippedCycles;
    out.system.resumed = sys.resumed();
    out.system.ckptCycle = sys.resumedAtCycle();
    out.system.warmStart = sys.warmStart();
    return out;
}

double
weightedSpeedup(const MixOutcome &mix, const AttachFn &attach,
                const ExperimentConfig &cfg)
{
    double ws = 0.0;
    for (std::size_t c = 0; c < mix.ipc.size(); ++c) {
        const double alone =
            runSingleCore(findTrace(mix.traces[c]), attach, cfg).ipc;
        if (alone > 0.0)
            ws += mix.ipc[c] / alone;
    }
    return ws;
}

std::vector<std::vector<TraceSpec>>
sampleMixes(const std::vector<TraceSpec> &pool, unsigned cores_per_mix,
            unsigned count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<TraceSpec>> mixes;
    mixes.reserve(count);
    for (unsigned m = 0; m < count; ++m) {
        std::vector<TraceSpec> mix;
        for (unsigned c = 0; c < cores_per_mix; ++c)
            mix.push_back(pool[rng.below(pool.size())]);
        mixes.push_back(std::move(mix));
    }
    return mixes;
}

} // namespace bouquet
