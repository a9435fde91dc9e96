#include "core/system.hh"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "common/degrade.hh"
#include "common/stateio.hh"

namespace bouquet
{

System::System(SystemConfig cfg, std::vector<GeneratorPtr> workloads)
    : config_(cfg), workloads_(std::move(workloads))
{
    assert(!workloads_.empty());
    const unsigned n = static_cast<unsigned>(workloads_.size());

    vmem_ = std::make_unique<VirtualMemory>(config_.frameBits,
                                            config_.seed, n);
    dram_ = std::make_unique<Dram>(config_.dram);

    CacheConfig llc_cfg = config_.llcPerCore;
    llc_cfg.sets *= n;
    llc_cfg.mshrs *= n;
    llc_cfg.pqSize *= n;
    llc_cfg.rqSize *= n;
    llc_cfg.wqSize *= n;
    llc_ = std::make_unique<Cache>(llc_cfg, config_.seed + 1);
    llc_->setLower(dram_.get());

    for (unsigned c = 0; c < n; ++c) {
        l1is_.push_back(
            std::make_unique<Cache>(config_.l1i, config_.seed + 10 + c));
        l1ds_.push_back(
            std::make_unique<Cache>(config_.l1d, config_.seed + 20 + c));
        l2s_.push_back(
            std::make_unique<Cache>(config_.l2, config_.seed + 30 + c));

        l1is_[c]->setLower(l2s_[c].get());
        l1ds_[c]->setLower(l2s_[c].get());
        l2s_[c]->setLower(llc_.get());

        cores_.push_back(std::make_unique<Core>(
            c, config_.core, config_.tlb, l1is_[c].get(), l1ds_[c].get(),
            vmem_.get(), workloads_[c].get()));

        Core *core = cores_[c].get();
        l1ds_[c]->setTranslator(
            [core](Addr va) { return core->translateData(va); });
        l1is_[c]->setTranslator(
            [core](Addr va) { return core->translateInstruction(va); });

        auto instr_source = [core] { return core->retiredSinceReset(); };
        l1ds_[c]->setInstructionSource(instr_source);
        l1is_[c]->setInstructionSource(instr_source);
        l2s_[c]->setInstructionSource(instr_source);
    }
    // The shared LLC's MPKI gate uses core 0 (single-core studies only).
    Core *core0 = cores_[0].get();
    llc_->setInstructionSource(
        [core0] { return core0->retiredSinceReset(); });

    noSkip_ = config_.tickEveryCycle;
    if (const char *env = std::getenv("IPCP_NO_SKIP");
        env != nullptr && env[0] != '\0' &&
        !(env[0] == '0' && env[1] == '\0'))
        noSkip_ = true;

    auditTick_ = config_.auditEveryTick;
    if (const char *env = std::getenv("IPCP_AUDIT");
        env != nullptr && env[0] != '\0' &&
        !(env[0] == '0' && env[1] == '\0'))
        auditTick_ = true;

    // Multi-core: defer L2→LLC egress to a serial end-of-cycle flush
    // so per-core clusters never call into shared state mid-tick
    // (DESIGN.md §5f). Single-core keeps the direct path.
    if (n > 1) {
        deferEgress_ = true;
        for (auto &l2 : l2s_)
            l2->setDeferLower(true);
    }

    // Skipping ticks only the clusters with work due (DESIGN.md §5c).
    if (!noSkip_) {
        clusters_.resize(n);
        for (unsigned c = 0; c < n; ++c) {
            clusters_[c].sys = this;
            clusters_[c].core = c;
            l2s_[c]->setFreezeGroup(&clusters_[c]);
        }
    }
}

void
System::Cluster::thaw()
{
    sys->catchUp(*this);
    wakeAt = sys->cycle_;
}

template <bool Sparse>
void
System::tickAll(Cycle cycle)
{
    ++perf_.ticksExecuted;
    timedPass_ = tickTimes_ != nullptr && (perf_.ticksExecuted & 63) == 0;
    if (timedPass_) [[unlikely]]
        tickParts<true, Sparse>(cycle);
    else
        tickParts<false, Sparse>(cycle);
}

void
System::timeTicks(TickTimes *sink)
{
    tickTimes_ = sink;
    if (sink != nullptr)
        sink->clockNs = TickTimes::measureClockNs();
}

template <bool Timed, bool Sparse>
void
System::tickParts(Cycle cycle)
{
    using Clock = std::chrono::steady_clock;
    Clock::time_point mark;
    if constexpr (Timed) {
        ++tickTimes_->samples;
        mark = Clock::now();
    }
    auto lap = [&](TickTimes::Part part) {
        if constexpr (Timed) {
            const Clock::time_point t = Clock::now();
            tickTimes_->add(part, t - mark);
            mark = t;
        }
    };

    // Shared levels first so their responses propagate upward within a
    // cycle, then each core's private cluster (L2 → L1D → L1I → core).
    // With deferred L2 egress no cluster calls into the LLC until the
    // flush below (DESIGN.md §5f).
    dram_->tick(cycle);
    lap(TickTimes::Dram);
    llc_->tick(cycle);
    lap(TickTimes::Llc);
    const unsigned n = numCores();
    for (unsigned c = 0; c < n; ++c) {
        if constexpr (Sparse) {
            // Nothing due and nothing waiting on LLC queue space: the
            // cluster's tick would change nothing but the per-cycle
            // stats that catchUp reconciles later (DESIGN.md §5c).
            Cluster &k = clusters_[c];
            if (k.wakeAt > cycle && !l2s_[c]->prefetchHeadBlocked()) {
                ++perf_.clustersFrozen;
                if constexpr (Timed)
                    ++tickTimes_->frozen;
                continue;
            }
            catchUp(k);
            k.clock = cycle;
            ++perf_.clusterTicks;
        }
        l2s_[c]->tick(cycle);
        lap(TickTimes::L2);
        l1ds_[c]->tick(cycle);
        lap(TickTimes::L1d);
        l1is_[c]->tick(cycle);
        lap(TickTimes::L1i);
        cores_[c]->tick(cycle);
        lap(TickTimes::Core);
    }
    if (deferEgress_) {
        // Serial, in core order: the deterministic point where parked
        // L2 misses, writebacks and prefetch handoffs reach the LLC.
        for (auto &l2 : l2s_)
            l2->flushEgress();
        lap(TickTimes::Egress);
    }
    if constexpr (Sparse) {
        // After the flush, which may still change a ticked L2 (and
        // its L1s); no later part of the cycle touches a cluster.
        for (Cluster &k : clusters_) {
            if (k.clock == cycle)
                k.wakeAt = clusterWakeup(k.core, cycle);
        }
        lap(TickTimes::Wakeup);
    }
}

Cycle
System::clusterWakeup(unsigned c, Cycle now) const
{
    Cycle wake = cores_[c]->nextWakeup(now);
    if (wake <= now + 1)
        return wake;
    wake = std::min(wake, l1ds_[c]->nextWakeup(now));
    if (wake <= now + 1)
        return wake;
    wake = std::min(wake, l1is_[c]->nextWakeup(now));
    if (wake <= now + 1)
        return wake;
    return std::min(wake, l2s_[c]->nextWakeup(now));
}

void
System::catchUp(Cluster &k)
{
    if (k.clock + 1 >= cycle_)
        return;
    const Cycle to = cycle_ - 1;
    const Cycle skipped = to - k.clock;
    Clocked *const members[] = {l2s_[k.core].get(), l1ds_[k.core].get(),
                                l1is_[k.core].get(),
                                cores_[k.core].get()};
    for (Clocked *m : members) {
        // As in skipTo: reconcile from the pre-sync clock, then sync.
        m->skipCycles(skipped);
        m->syncCycle(to);
    }
    k.clock = to;
}

void
System::thawAll()
{
    for (Cluster &k : clusters_)
        catchUp(k);
}

unsigned
System::frozenClusters() const
{
    unsigned frozen = 0;
    for (const Cluster &k : clusters_) {
        if (k.wakeAt > cycle_ && !l2s_[k.core]->prefetchHeadBlocked())
            ++frozen;
    }
    return frozen;
}

Cycle
System::nextWakeupAll(Cycle now) const
{
    // A ticked cluster's wakeup was stored after this tick; a frozen
    // one's still holds, since nothing reached it.
    Cycle wake = kNeverWakeup;
    for (const Cluster &k : clusters_)
        wake = std::min(wake, k.wakeAt);
    if (wake <= now + 1)
        return wake;
    wake = std::min(wake, llc_->nextWakeup(now));
    if (wake <= now + 1)
        return wake;
    return std::min(wake, dram_->nextWakeup(now));
}

void
System::skipTo(Cycle target)
{
    const Cycle skipped = target - cycle_;
    Clocked *const shared[] = {dram_.get(), llc_.get()};
    for (Clocked *c : shared) {
        // skipCycles first: reconciliation reads the pre-sync `now`.
        c->skipCycles(skipped);
        // Sync to target - 1, the value `now` would hold after a tick
        // at target - 1 — so response handlers that fire during
        // tickAll(target) before the component's own tick observe the
        // same (one-behind) timestamp per-cycle ticking produces.
        c->syncCycle(target - 1);
    }
    perf_.skippedCycles += skipped;
    cycle_ = target;
}

void
System::resetAllStats()
{
    // Routed through the registry so every component (and attached
    // prefetcher) that registered a reset hook participates — the
    // warmup boundary and any manual reset behave identically.
    statRegistry().resetAll();
}

StatRegistry &
System::statRegistry()
{
    registry_.clear();
    StatGroup root(registry_, "system");
    root.gauge("cycle", [this] { return static_cast<double>(cycle_); });
    for (unsigned c = 0; c < numCores(); ++c) {
        StatGroup cg = root.child("core" + std::to_string(c));
        cores_[c]->registerStats(cg);
        l1is_[c]->registerStats(cg.child("l1i"));
        l1ds_[c]->registerStats(cg.child("l1d"));
        l2s_[c]->registerStats(cg.child("l2"));
        // markStatsReset needs the current cycle, so the core's reset
        // lives here rather than in Core::registerStats.
        registry_.addResetHook(
            [this, c] { cores_[c]->markStatsReset(cycle_); });
    }
    llc_->registerStats(root.child("llc"));
    dram_->registerStats(root.child("dram"));
    return registry_;
}

void
System::enableTracing(std::size_t capacity)
{
    tracer_ = std::make_unique<EventTracer>(capacity);
    sysTrack_ = tracer_->registerTrack("system");
    for (unsigned c = 0; c < numCores(); ++c) {
        const std::string p = "core" + std::to_string(c) + ".";
        l1is_[c]->setTracer(tracer_.get(),
                            tracer_->registerTrack(p + "l1i"));
        l1ds_[c]->setTracer(tracer_.get(),
                            tracer_->registerTrack(p + "l1d"));
        l2s_[c]->setTracer(tracer_.get(),
                           tracer_->registerTrack(p + "l2"));
    }
    llc_->setTracer(tracer_.get(), tracer_->registerTrack("llc"));
}

RunResult
System::run(std::uint64_t warmup_instrs, std::uint64_t sim_instrs)
{
    if (rs_.phase == Phase::Idle) {
        rs_.phase = Phase::Warmup;
        rs_.warmupInstrs = warmup_instrs;
        rs_.lastProgressTotal = 0;
        rs_.lastProgressCycle = cycle_;
    } else if (rs_.warmupInstrs != warmup_instrs ||
               ((rs_.phase == Phase::Measured ||
                 rs_.phase == Phase::Done) &&
                rs_.simInstrs != sim_instrs)) {
        // A resumed run continues toward the targets the checkpoint
        // was taken with; different arguments mean a different
        // experiment was pointed at this checkpoint. simInstrs is
        // only bound once measurement starts: a state at or before
        // the warmup boundary (a shared warm state in particular) is
        // valid for any measurement length.
        throw ErrorException(makeError(
            Errc::corrupt,
            "resumed run targets differ from the checkpointed ones"));
    }

    RunResult result = noSkip_ ? runPhases<false>(sim_instrs)
                               : runPhases<true>(sim_instrs);
    thawAll();
    if (tickTimes_ != nullptr) {
        tickTimes_->clusterTicks = perf_.clusterTicks;
        tickTimes_->clustersFrozen = perf_.clustersFrozen;
    }
    bumpProgressEpoch();
    return result;
}

template <bool Sparse>
RunResult
System::runPhases(std::uint64_t sim_instrs)
{
    const unsigned n = numCores();

    auto all_reached = [&](std::uint64_t target) {
        for (unsigned c = 0; c < n; ++c) {
            if (cores_[c]->retired() < target)
                return false;
        }
        return true;
    };

    // The stall watchdog reads the process-wide progress epoch to tell
    // "wedged" from "slow". Every loop pass counts as progress (not
    // just watchdog boundaries, which cycle-skipping rarely lands on),
    // but the epoch is one shared atomic, so bump it once per 256
    // executed ticks (one tick per pass) rather than per pass: batch
    // threads would otherwise all write its cache line every tick.
    auto bumpEpoch = [&] {
        if ((perf_.ticksExecuted & 0xFF) == 0)
            bumpProgressEpoch();
    };

    auto watchdog = [&] {
        std::uint64_t total = 0;
        for (unsigned c = 0; c < n; ++c)
            total += cores_[c]->retired();
        if (total != rs_.lastProgressTotal) {
            rs_.lastProgressTotal = total;
            rs_.lastProgressCycle = cycle_;
        } else if (cycle_ - rs_.lastProgressCycle >
                   config_.watchdogCycles) {
            throw std::runtime_error(
                "simulation watchdog: no instruction retired for too "
                "long (deadlock?)");
        }
    };

    /**
     * Watchdog emulation for a skipped span: the per-cycle loop would
     * have called watchdog() at every 0x10000-boundary cycle_ value in
     * (cycle_, target]. Progress recorded since the last call is
     * credited at the first such boundary; if the last one still
     * exceeds the deadline, throw exactly as the per-cycle loop would.
     */
    auto watchdog_over_skip = [&](Cycle target) {
        const Cycle first = (cycle_ & ~Cycle{0xFFFF}) + 0x10000;
        if (first > target)
            return;  // no boundary inside the span
        const Cycle last = target & ~Cycle{0xFFFF};
        std::uint64_t total = 0;
        for (unsigned c = 0; c < n; ++c)
            total += cores_[c]->retired();
        if (total != rs_.lastProgressTotal) {
            rs_.lastProgressTotal = total;
            rs_.lastProgressCycle = first;
        }
        if (last - rs_.lastProgressCycle > config_.watchdogCycles)
            throw std::runtime_error(
                "simulation watchdog: no instruction retired for too "
                "long (deadlock?)");
    };

    /**
     * Event skipping (DESIGN.md §5c): after an iteration's tick and
     * checks, jump straight to the earliest cycle any component can
     * act in. `clamp_to_check` stops the jump one cycle short of the
     * next 256-cycle completion check so a core already past its
     * instruction target is recorded at the same boundary as under
     * per-cycle ticking.
     */
    auto jump = [&](bool clamp_to_check) {
        Cycle wake = nextWakeupAll(cycle_ - 1);
        if (clamp_to_check)
            wake = std::min(wake, (((cycle_ >> 8) + 1) << 8) - 1);
        if (wake <= cycle_)
            return;
        watchdog_over_skip(wake);
        skipTo(wake);
    };
    auto advance = [&](bool clamp_to_check) {
        if (!timedPass_) [[likely]] {
            jump(clamp_to_check);
            return;
        }
        const auto start = std::chrono::steady_clock::now();
        jump(clamp_to_check);
        tickTimes_->add(TickTimes::Wakeup,
                        std::chrono::steady_clock::now() - start);
    };

    // Warmup. Skipped entirely when resuming from a checkpoint taken
    // in the measured region, or when a shared warm state fast-
    // forwarded this system to the WarmupDone boundary (§5h).
    if (rs_.phase == Phase::Warmup) {
        while (!all_reached(rs_.warmupInstrs)) {
            tickAll<Sparse>(cycle_);
            ++cycle_;
            bumpEpoch();
            if ((cycle_ & 0xFFFF) == 0)
                watchdog();
            if (auditTick_)
                audit(false);
            if (Sparse && !all_reached(rs_.warmupInstrs))
                advance(false);
            maybeCheckpoint();
        }
        rs_.phase = Phase::WarmupDone;
        // Thawed for the hook and the stats reset below; a loaded
        // warm state arrives thawed.
        thawAll();
        // The publish point: everything below (stats reset, targets,
        // completion flags) is re-derived identically by any run that
        // loads the state captured here.
        if (warmupHook_)
            warmupHook_(*this);
    }

    if (rs_.phase == Phase::WarmupDone) {
        resetAllStats();
        if (tracer_)
            tracer_->record(TraceEventKind::WarmupEnd, sysTrack_,
                            cycle_);
        rs_.measureStart = cycle_;
        rs_.simInstrs = sim_instrs;
        rs_.phase = Phase::Measured;
        rs_.result = RunResult{};
        rs_.result.cores.assign(n, CoreResult{});
        rs_.done.assign(n, 0);
        rs_.remaining = n;
    }

    // Measured region: run until every core has retired simInstrs,
    // recording each core's completion point; fast cores keep running
    // (their workloads are endless) so contention stays realistic —
    // the paper's replay methodology.
    if (rs_.phase == Phase::Measured) {
        while (rs_.remaining > 0) {
            tickAll<Sparse>(cycle_);
            ++cycle_;
            if ((cycle_ & 0xFF) == 0 || n == 1) {
                for (unsigned c = 0; c < n; ++c) {
                    if (rs_.done[c] == 0 &&
                        cores_[c]->retiredSinceReset() >=
                            rs_.simInstrs) {
                        rs_.done[c] = 1;
                        --rs_.remaining;
                        CoreResult &r = rs_.result.cores[c];
                        r.instructions = cores_[c]->retiredSinceReset();
                        r.cycles = cycle_ - rs_.measureStart;
                        r.ipc = static_cast<double>(r.instructions) /
                                static_cast<double>(r.cycles);
                    }
                }
            }
            bumpEpoch();
            if ((cycle_ & 0xFFFF) == 0)
                watchdog();
            if (auditTick_)
                audit(false);
            if (Sparse && rs_.remaining > 0) {
                // A core past its target whose completion has not been
                // recorded yet (multi-core: checks run every 256
                // cycles) pins the jump to the next check boundary.
                bool pending = false;
                if (n > 1) {
                    for (unsigned c = 0; c < n; ++c) {
                        if (rs_.done[c] == 0 &&
                            cores_[c]->retiredSinceReset() >=
                                rs_.simInstrs) {
                            pending = true;
                            break;
                        }
                    }
                }
                advance(pending);
            }
            maybeCheckpoint();
        }
        rs_.result.measuredCycles = cycle_ - rs_.measureStart;
        rs_.phase = Phase::Done;
    }
    return rs_.result;
}

void
System::maybeCheckpoint()
{
    if (ckptEvery_ == 0 || cycle_ - lastCkptCycle_ < ckptEvery_)
        return;
    lastCkptCycle_ = cycle_;
    if (ckptMinMs_ > 0) {
        // Wall-clock rate limit: serializing + fsyncing the machine
        // costs milliseconds, so an aggressive cycle interval on a
        // fast (skip-heavy) run can spend more time checkpointing
        // than simulating. Skipping a save only widens the crash-
        // recovery window; simulated results are unaffected.
        const auto now = std::chrono::steady_clock::now();
        if (std::chrono::duration_cast<std::chrono::milliseconds>(
                now - lastCkptWall_)
                .count() < static_cast<long long>(ckptMinMs_))
            return;
        lastCkptWall_ = now;
    }
    if (tracer_)
        tracer_->record(TraceEventKind::CheckpointSave, sysTrack_,
                        cycle_, cycle_);
    const Status st = saveCheckpoint(ckptPath_);
    if (!st.ok()) {
        // Degraded, not fatal: the run continues with a wider crash-
        // recovery window. The ledger warns once and counts every
        // failure so campaigns can report the degradation.
        noteDegraded(DegradeKind::ckpt, st.error());
    }
}

std::uint64_t
System::configHash() const
{
    std::uint64_t h = fnv1a("ipcp-system-v1");
    auto mix = [&h](std::uint64_t v) { h = fnv1a(v, h); };

    mix(numCores());
    mix(config_.frameBits);
    mix(config_.seed);

    mix(config_.core.width);
    mix(config_.core.robSize);
    mix(config_.core.maxInflightFetches);
    mix(config_.core.modelInstructionFetch ? 1 : 0);

    mix(config_.tlb.itlbEntries);
    mix(config_.tlb.itlbWays);
    mix(config_.tlb.dtlbEntries);
    mix(config_.tlb.dtlbWays);
    mix(config_.tlb.stlbEntries);
    mix(config_.tlb.stlbWays);
    mix(config_.tlb.stlbLatency);
    mix(config_.tlb.walkLatency);

    mix(config_.dram.channels);
    mix(config_.dram.banksPerChannel);
    mix(config_.dram.rowBytes);
    mix(config_.dram.rowHitLatency);
    mix(config_.dram.rowMissLatency);
    mix(config_.dram.busCyclesPerLine);
    mix(config_.dram.controllerLatency);
    mix(config_.dram.queueSize);

    auto mix_cache = [&](Cache &cache) {
        const CacheConfig &c = cache.config();
        h = fnv1a(c.name, h);
        mix(static_cast<std::uint64_t>(c.level));
        mix(c.sets);
        mix(c.ways);
        mix(c.latency);
        mix(c.mshrs);
        mix(c.pqSize);
        mix(c.rqSize);
        mix(c.wqSize);
        mix(c.ports);
        mix(c.pfIssuePerCycle);
        mix(static_cast<std::uint64_t>(c.repl));
        // The attached prefetcher defines what the serialized
        // predictor tables mean; a name mismatch must reject the load.
        const Prefetcher *pf = cache.prefetcher();
        h = fnv1a(pf != nullptr ? pf->name() : "none", h);
    };

    mix_cache(*llc_);
    for (unsigned c = 0; c < numCores(); ++c) {
        mix_cache(*l2s_[c]);
        mix_cache(*l1ds_[c]);
        mix_cache(*l1is_[c]);
        h = fnv1a(workloads_[c]->name(), h);
    }
    return h;
}

void
System::serialize(StateIO &io)
{
    if (!io.reading())
        thawAll();
    // Identical registration order on save and load resolves every
    // MemRequest::requester index to the equivalent object.
    io.registerTarget(llc_.get());
    for (unsigned c = 0; c < numCores(); ++c) {
        io.registerTarget(l2s_[c].get());
        io.registerTarget(l1ds_[c].get());
        io.registerTarget(l1is_[c].get());
        io.registerTarget(cores_[c].get());
    }

    io.beginSection("system");
    io.io(cycle_);
    perf_.serialize(io);
    rs_.serialize(io);
    if (io.reading() && rs_.done.size() != numCores() &&
        rs_.phase != Phase::Idle && rs_.phase != Phase::Warmup &&
        rs_.phase != Phase::WarmupDone)
        StateIO::failCorrupt(
            "run-state completion flags disagree with the core count");

    vmem_->serialize(io);
    dram_->serialize(io);
    llc_->serialize(io);
    for (unsigned c = 0; c < numCores(); ++c) {
        l2s_[c]->serialize(io);
        l1ds_[c]->serialize(io);
        l1is_[c]->serialize(io);
        cores_[c]->serialize(io);
    }
    if (io.reading()) {
        // Every member's clock reads cycle_ - 1 in a saved machine;
        // the stored wakeups are derived state, recomputed.
        for (Cluster &k : clusters_) {
            k.clock = cycle_ > 0 ? cycle_ - 1 : 0;
            k.wakeAt = cycle_ > 0 ? clusterWakeup(k.core, cycle_ - 1) : 0;
        }
    }
}

Status
System::saveCheckpoint(const std::string &path)
{
    try {
        audit(true);
        // Recycle the serialization buffer across periodic saves: the
        // image size is steady-state, so after the first save the
        // whole serialize pass is allocation-free.
        StateIO io = StateIO::writer(std::move(ckptScratch_));
        serialize(io);
        std::vector<std::uint8_t> payload = io.takeBuffer();
        const Status st =
            writeCheckpointFile(path, configHash(), payload);
        ckptScratch_ = std::move(payload);
        return st;
    } catch (const ErrorException &e) {
        return e.error();
    }
}

Result<std::vector<std::uint8_t>>
System::captureState()
{
    try {
        audit(true);
        StateIO io = StateIO::writer();
        serialize(io);
        return io.takeBuffer();
    } catch (const ErrorException &e) {
        return e.error();
    }
}

Status
System::loadWarmState(const std::vector<std::uint8_t> &payload)
{
    try {
        StateIO io = StateIO::reader(payload);
        serialize(io);
        io.expectEnd();
        audit(true);
    } catch (const ErrorException &e) {
        return e.error();
    }
    if (rs_.phase != Phase::WarmupDone)
        return makeError(Errc::corrupt,
                         "warm state is not at the warmup boundary");
    warmStart_ = true;
    warmStartCycle_ = cycle_;
    lastCkptCycle_ = cycle_;
    return Status();
}

Status
System::loadCheckpoint(const std::string &path)
{
    try {
        Result<std::vector<std::uint8_t>> payload =
            readCheckpointFile(path, configHash());
        if (!payload.ok())
            return payload.status();
        StateIO io = StateIO::reader(payload.take());
        serialize(io);
        io.expectEnd();
        audit(true);
    } catch (const ErrorException &e) {
        return e.error();
    }
    resumed_ = true;
    resumedAtCycle_ = cycle_;
    lastCkptCycle_ = cycle_;
    return Status();
}

void
System::audit(bool deep) const
{
    dram_->audit();
    llc_->audit(deep);
    for (unsigned c = 0; c < numCores(); ++c) {
        l2s_[c]->audit(deep);
        l1ds_[c]->audit(deep);
        l1is_[c]->audit(deep);
        cores_[c]->audit();
    }
    if (cycle_ == 0)
        return;  // nothing ticked yet: every stored wakeup reads 0
    for (const Cluster &k : clusters_) {
        auto fail = [&k](const std::string &why) {
            throw ErrorException(makeError(
                Errc::corrupt,
                "core " + std::to_string(k.core) + " cluster: " + why));
        };
        if (k.wakeAt != clusterWakeup(k.core, cycle_ - 1))
            fail("stored wakeup differs from a fresh recompute");
        if (k.wakeAt > cycle_ && !l2s_[k.core]->prefetchHeadBlocked() &&
            (l2s_[k.core]->egressPending() ||
             l1ds_[k.core]->egressPending() ||
             l1is_[k.core]->egressPending()))
            fail("frozen with writebacks or MSHR sends still owed");
    }
}

} // namespace bouquet
