#include "simjob.hh"

#include <chrono>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "common/stateio.hh"
#include "harness/factory.hh"

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/**
 * Serialization visitor that hashes every visited field, so the
 * digest follows the stats structs' own serialize() lists and picks
 * up a counter added there without editing this file.
 */
struct Hasher
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    template <typename T>
    void
    io(T &v)
    {
        static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(T));
        h = bouquet::fnv1a(bits, h);
    }

    template <typename T>
    void
    io(std::vector<T> &v)
    {
        std::uint64_t n = v.size();
        io(n);
        for (T &e : v)
            e.serialize(*this);
    }
};

/** Visitor that lists a CacheStats' counters in serialize() order. */
struct Flatten
{
    std::vector<std::uint64_t> values;
    void io(std::uint64_t &v) { values.push_back(v); }
};

/** Visitor that adds a flattened list back, field by field. */
struct AddFrom
{
    const std::uint64_t *next;
    void io(std::uint64_t &v) { v += *next++; }
};

} // namespace

std::string
SimJob::label() const
{
    std::string out;
    for (const bouquet::TraceSpec &s : specs)
        out += (out.empty() ? "" : "+") + s.name + "#" +
               std::to_string(s.seed);
    return out + "/" + combo + "@" + std::to_string(warmupInstrs) + "+" +
           std::to_string(simInstrs);
}

std::uint64_t
SimResult::instructions() const
{
    std::uint64_t n = 0;
    for (const bouquet::CoreResult &c : cores)
        n += c.instructions;
    return n;
}

double
SimResult::ipcSum() const
{
    double s = 0.0;
    for (const bouquet::CoreResult &c : cores)
        s += c.ipc;
    return s;
}

bouquet::Outcome
SimResult::toOutcome() const
{
    bouquet::Outcome o;
    o.ipc = cores.at(0).ipc;
    o.instructions = cores.at(0).instructions;
    o.cycles = cores.at(0).cycles;
    o.l1i = l1i;
    o.l1d = l1d;
    o.l2 = l2;
    o.llc = llc;
    o.dram = dram;
    o.dramBytes = dramBytes;
    o.ticksExecuted = ticks;
    o.skippedCycles = skipped;
    return o;
}

std::uint64_t
digest(const SimResult &r)
{
    SimResult copy = r;  // serialize() visits through non-const refs
    Hasher h;
    h.io(copy.cores);
    copy.l1i.serialize(h);
    copy.l1d.serialize(h);
    copy.l2.serialize(h);
    copy.llc.serialize(h);
    copy.dram.serialize(h);
    h.io(copy.dramBytes);
    return h.h;
}

void
accumulate(bouquet::CacheStats &acc, const bouquet::CacheStats &s)
{
    Flatten f;
    bouquet::CacheStats copy = s;
    copy.serialize(f);
    AddFrom add{f.values.data()};
    acc.serialize(add);
}

bouquet::SystemConfig
systemConfigFor(const SimJob &job)
{
    // What runSingleCore / runMix simulate on: the default (Table II)
    // system with one DRAM channel per single core, two for a mix.
    bouquet::SystemConfig cfg;
    cfg.dram.channels = job.specs.size() == 1 ? 1 : 2;
    return cfg;
}

SimResult
runUntraced(const SimJob &job)
{
    bouquet::ExperimentConfig cfg;
    cfg.warmupInstrs = job.warmupInstrs;
    cfg.simInstrs = job.simInstrs;
    const auto attach = [&job](bouquet::System &s) {
        bouquet::applyCombo(s, job.combo);
    };

    SimResult r;
    if (job.specs.size() == 1) {
        const bouquet::Outcome o =
            bouquet::runSingleCore(job.specs[0], attach, cfg);
        r.cores.push_back({o.instructions, o.cycles, o.ipc});
        r.l1i = o.l1i;
        r.l1d = o.l1d;
        r.l2 = o.l2;
        r.llc = o.llc;
        r.dram = o.dram;
        r.dramBytes = o.dramBytes;
        r.ticks = o.ticksExecuted;
        r.skipped = o.skippedCycles;
        return r;
    }
    const bouquet::MixOutcome m = bouquet::runMix(job.specs, attach, cfg);
    for (std::size_t c = 0; c < m.ipc.size(); ++c)
        r.cores.push_back({m.instructions[c], m.cycles[c], m.ipc[c]});
    r.l1i = m.system.l1i;
    r.l1d = m.system.l1d;
    r.l2 = m.system.l2;
    r.llc = m.system.llc;
    r.dram = m.system.dram;
    r.dramBytes = m.system.dramBytes;
    r.ticks = m.system.ticksExecuted;
    r.skipped = m.system.skippedCycles;
    return r;
}

std::unique_ptr<bouquet::System>
buildSystem(const SimJob &job)
{
    std::vector<bouquet::GeneratorPtr> workloads;
    for (const bouquet::TraceSpec &s : job.specs)
        workloads.push_back(bouquet::makeWorkload(s));
    auto sys = std::make_unique<bouquet::System>(systemConfigFor(job),
                                                 std::move(workloads));
    bouquet::applyCombo(*sys, job.combo);
    return sys;
}

TracedRun
runTraced(const SimJob &job, bool capture)
{
    TracedRun t;
    const Clock::time_point start = Clock::now();
    std::unique_ptr<bouquet::System> sys = buildSystem(job);
    const Clock::time_point built = Clock::now();
    t.configHash = sys->configHash();

    Clock::time_point hook_in{};
    Clock::time_point hook_out{};
    std::string capture_error;
    sys->setWarmupHook([&](bouquet::System &s) {
        hook_in = Clock::now();
        if (capture) {
            bouquet::Result<std::vector<std::uint8_t>> state =
                s.captureState();
            if (state.ok())
                t.warmState = state.take();
            else
                capture_error = state.error().message;
        }
        hook_out = Clock::now();
    });
    const bouquet::RunResult rr =
        sys->run(job.warmupInstrs, job.simInstrs);
    const Clock::time_point done = Clock::now();
    if (!capture_error.empty())
        throw std::runtime_error("captureState: " + capture_error);
    if (hook_in == Clock::time_point{})
        throw std::runtime_error("warmup hook never fired for " +
                                 job.label());

    t.buildNs = nsBetween(start, built);
    t.warmupNs = nsBetween(built, hook_in);
    t.captureNs = nsBetween(hook_in, hook_out);
    t.measureNs = nsBetween(hook_out, done);

    SimResult &r = t.result;
    r.cores = rr.cores;
    r.l1i = sys->l1i(0).stats();
    r.l1d = sys->l1d(0).stats();
    r.l2 = sys->l2(0).stats();
    r.llc = sys->llc().stats();
    r.dram = sys->dram().stats();
    r.dramBytes = sys->dram().bytesTransferred();
    r.ticks = sys->perf().ticksExecuted;
    r.skipped = sys->perf().skippedCycles;
    for (unsigned c = 0; c < sys->numCores(); ++c) {
        accumulate(t.l1dAll, sys->l1d(c).stats());
        accumulate(t.l2All, sys->l2(c).stats());
    }
    return t;
}

} // namespace perfbench
