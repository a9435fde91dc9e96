/**
 * @file
 * Simulator-throughput benchmark: simulated kilo-instructions per
 * wall-second (KIPS) across {no-pf, IPCP L1, multi-level IPCP} x
 * {1-, 4-, 8-core}, each in both the event-skipping loop and the
 * forced tick-every-cycle mode (IPCP_NO_SKIP semantics) — so the
 * perf trajectory of the simulator itself is a tracked artifact, not
 * folklore.
 *
 * Besides the google-benchmark console output, the binary writes
 * BENCH_throughput.json (path override: IPCP_THROUGHPUT_JSON) with one
 * entry per configuration: KIPS, wall seconds, instructions and the
 * skip ratio. The baseline for the recorded speedup is
 * the seed commit's headline KIPS (778: 1-core multi-level IPCP on
 * the tier-1 mcf sim-point); IPCP_BASELINE_KIPS overrides it, e.g. to
 * compare against a local build of main.
 *
 * Run lengths follow IPCP_SIM_INSTRS / IPCP_WARMUP_INSTRS (defaults
 * 1e6 / 1e5); CI's perf-smoke job shrinks them for a fast signal.
 */

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.hh"
#include "common/env.hh"
#include "common/perfcount.hh"

namespace
{

using namespace bouquet;

/** The tier-1 sim-point every configuration replays. */
constexpr const char *kTrace = "605.mcf_s-472B";

/** The headline configuration for baseline comparisons. */
constexpr const char *kHeadline = "ipcp/1core/skip";

/** Seed-commit headline KIPS; IPCP_BASELINE_KIPS overrides. */
constexpr double kSeedKips = 778.0;

struct Sample
{
    std::string combo;
    unsigned cores = 0;
    bool skip = true;
    std::uint64_t instructions = 0;
    double seconds = 0.0;
    std::uint64_t ticksExecuted = 0;
    std::uint64_t skippedCycles = 0;

    double kipsValue() const { return kips(instructions, seconds); }

    double
    skipRatio() const
    {
        const std::uint64_t total = ticksExecuted + skippedCycles;
        return total == 0 ? 0.0
                          : static_cast<double>(skippedCycles) /
                                static_cast<double>(total);
    }
};

std::map<std::string, Sample> &
samples()
{
    static std::map<std::string, Sample> s;
    return s;
}

ExperimentConfig
benchConfig(bool tick_every_cycle)
{
    ExperimentConfig cfg = bench::defaultConfig();
    cfg.system.tickEveryCycle = tick_every_cycle;
    return cfg;
}

void
runSim(benchmark::State &state, const std::string &combo_name,
       unsigned cores, bool skip)
{
    const bench::Combo combo = bench::namedCombo(combo_name);
    const ExperimentConfig cfg = benchConfig(!skip);
    const TraceSpec &spec = findTrace(kTrace);

    char key[64];
    std::snprintf(key, sizeof(key), "%s/%ucore/%s", combo_name.c_str(),
                  cores, skip ? "skip" : "noskip");
    Sample &s = samples()[key];
    s.combo = combo_name;
    s.cores = cores;
    s.skip = skip;

    for (auto _ : state) {
        WallTimer timer;
        std::uint64_t instrs = 0;
        std::uint64_t ticks = 0;
        std::uint64_t skipped = 0;
        if (cores == 1) {
            const Outcome out =
                runSingleCore(spec, combo.attach, cfg);
            instrs = out.instructions;
            ticks = out.ticksExecuted;
            skipped = out.skippedCycles;
        } else {
            const std::vector<TraceSpec> specs(cores, spec);
            const MixOutcome out = runMix(specs, combo.attach, cfg);
            for (std::uint64_t i : out.instructions)
                instrs += i;
            ticks = out.system.ticksExecuted;
            skipped = out.system.skippedCycles;
        }
        const double secs = timer.seconds();
        s.instructions += instrs;
        s.seconds += secs;
        s.ticksExecuted += ticks;
        s.skippedCycles += skipped;
        benchmark::DoNotOptimize(instrs);
    }
    state.counters["KIPS"] = benchmark::Counter(
        static_cast<double>(s.instructions) / 1e3,
        benchmark::Counter::kIsRate);
    state.counters["skip_ratio"] = s.skipRatio();
}

double
baselineKips()
{
    return envDouble("IPCP_BASELINE_KIPS", kSeedKips);
}

void
writeJson(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "bench_throughput: cannot write %s\n",
                     path.c_str());
        return;
    }
    const ExperimentConfig cfg = bench::defaultConfig();
    const double baseline = baselineKips();
    double headline = 0.0;
    if (auto it = samples().find(kHeadline); it != samples().end())
        headline = it->second.kipsValue();

    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema\": \"ipcp-bench-throughput-v3\",\n");
    std::fprintf(f, "  \"trace\": \"%s\",\n", kTrace);
    std::fprintf(f, "  \"sim_instrs\": %llu,\n",
                 static_cast<unsigned long long>(cfg.simInstrs));
    std::fprintf(f, "  \"warmup_instrs\": %llu,\n",
                 static_cast<unsigned long long>(cfg.warmupInstrs));
    std::fprintf(f, "  \"headline\": \"%s\",\n", kHeadline);
    std::fprintf(f, "  \"headline_kips\": %.1f,\n", headline);
    if (baseline > 0.0) {
        std::fprintf(f, "  \"baseline_main_kips\": %.1f,\n", baseline);
        std::fprintf(f, "  \"speedup_vs_baseline\": %.2f,\n",
                     headline / baseline);
    } else {
        std::fprintf(f, "  \"baseline_main_kips\": null,\n");
        std::fprintf(f, "  \"speedup_vs_baseline\": null,\n");
    }
    std::fprintf(f, "  \"entries\": [\n");
    std::size_t i = 0;
    for (const auto &[name, s] : samples()) {
        std::fprintf(
            f,
            "    {\"name\": \"%s\", \"combo\": \"%s\", \"cores\": %u, "
            "\"skip\": %s, \"kips\": %.1f, \"seconds\": %.3f, "
            "\"instructions\": %llu, \"skip_ratio\": %.4f}%s\n",
            name.c_str(), s.combo.c_str(), s.cores,
            s.skip ? "true" : "false", s.kipsValue(), s.seconds,
            static_cast<unsigned long long>(s.instructions),
            s.skipRatio(), ++i == samples().size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "bench_throughput: wrote %s\n", path.c_str());
    if (headline > 0.0)
        std::fprintf(stderr,
                     "bench_throughput: headline %s = %.0f KIPS, "
                     "%.1fx vs baseline %.0f KIPS\n",
                     kHeadline, headline, headline / baseline, baseline);
}

} // namespace

int
main(int argc, char **argv)
{
    const char *combos[] = {"none", "ipcp-l1", "ipcp"};
    for (const char *combo : combos) {
        for (unsigned cores : {1u, 4u, 8u}) {
            for (bool skip : {true, false}) {
                char name[64];
                std::snprintf(name, sizeof(name), "sim/%s/%uc/%s",
                              combo, cores,
                              skip ? "skip" : "noskip");
                benchmark::RegisterBenchmark(
                    name,
                    [combo, cores, skip](benchmark::State &st) {
                        runSim(st, combo, cores, skip);
                    })
                    ->Unit(benchmark::kMillisecond)
                    ->MeasureProcessCPUTime()
                    ->UseRealTime();
            }
        }
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    const char *out = std::getenv("IPCP_THROUGHPUT_JSON");
    writeJson(out != nullptr && *out != '\0' ? out
                                             : "BENCH_throughput.json");
    return 0;
}
