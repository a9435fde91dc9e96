/**
 * @file
 * The simulated system: N cores with private L1I/L1D/L2, a shared LLC,
 * shared DRAM and virtual memory — the Table II machine. Owns the
 * simulation loop (warmup + measured region) and the replay-until-all-
 * finish multi-core methodology of the paper.
 */

#ifndef BOUQUET_CORE_SYSTEM_HH
#define BOUQUET_CORE_SYSTEM_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/tlb.hh"
#include "common/errors.hh"
#include "common/perfcount.hh"
#include "common/statsink.hh"
#include "common/tracer.hh"
#include "core/core.hh"
#include "mem/dram.hh"
#include "mem/vmem.hh"
#include "trace/trace.hh"

namespace bouquet
{

class StateIO;

/** Full-system configuration (defaults reproduce the paper's Table II). */
struct SystemConfig
{
    CoreConfig core;
    TlbConfig tlb;

    CacheConfig l1i{.name = "L1I", .level = CacheLevel::L1I, .sets = 64,
                    .ways = 8, .latency = 3, .mshrs = 8, .pqSize = 8,
                    .rqSize = 32, .wqSize = 32, .ports = 4,
                    .pfIssuePerCycle = 2, .repl = ReplPolicy::LRU};
    CacheConfig l1d{.name = "L1D", .level = CacheLevel::L1D, .sets = 64,
                    .ways = 12, .latency = 5, .mshrs = 16, .pqSize = 8,
                    .rqSize = 32, .wqSize = 64, .ports = 2,
                    .pfIssuePerCycle = 2, .repl = ReplPolicy::LRU};
    CacheConfig l2{.name = "L2", .level = CacheLevel::L2, .sets = 1024,
                   .ways = 8, .latency = 10, .mshrs = 32, .pqSize = 16,
                   .rqSize = 48, .wqSize = 64, .ports = 2,
                   .pfIssuePerCycle = 2, .repl = ReplPolicy::LRU};
    /** Per-core LLC slice; sets are multiplied by the core count. */
    CacheConfig llcPerCore{.name = "LLC", .level = CacheLevel::LLC,
                           .sets = 2048, .ways = 16, .latency = 20,
                           .mshrs = 64, .pqSize = 32, .rqSize = 64,
                           .wqSize = 128, .ports = 4,
                           .pfIssuePerCycle = 4,
                           .repl = ReplPolicy::LRU};

    DramConfig dram;        //!< channels adjusted by the harness
    unsigned frameBits = 20;  //!< 4 GB of physical memory
    std::uint64_t seed = 42;

    /** Abort if no core retires for this many cycles (deadlock guard). */
    Cycle watchdogCycles = 4'000'000;

    /**
     * Disable the event-skipping loop and tick every cycle (also
     * forced by the IPCP_NO_SKIP=1 environment escape hatch). Both
     * modes produce bit-identical simulated results; this exists for
     * verification and debugging (see DESIGN.md §5c).
     */
    bool tickEveryCycle = false;

    /**
     * Run the shallow invariant audit after every tick (also forced by
     * the IPCP_AUDIT=1 environment variable). Deep audits still only
     * run at checkpoint save/load boundaries.
     */
    bool auditEveryTick = false;
};

/** Per-core outcome of a measured run. */
struct CoreResult
{
    std::uint64_t instructions = 0;
    Cycle cycles = 0;
    double ipc = 0.0;

    template <typename IO>
    void
    serialize(IO &io)
    {
        io.io(instructions);
        io.io(cycles);
        io.io(ipc);
    }
};

/** Outcome of System::run. */
struct RunResult
{
    std::vector<CoreResult> cores;
    Cycle measuredCycles = 0;  //!< cycles until the last core finished

    template <typename IO>
    void
    serialize(IO &io)
    {
        io.io(cores);
        io.io(measuredCycles);
    }
};

/**
 * The system under simulation. Prefetchers are attached to the caches
 * between construction and run() via the cache accessors.
 */
class System
{
  public:
    System(SystemConfig cfg, std::vector<GeneratorPtr> workloads);

    // The caches hold pointers back into the System (freeze groups).
    System(const System &) = delete;
    System &operator=(const System &) = delete;

    unsigned numCores() const
    {
        return static_cast<unsigned>(cores_.size());
    }

    Cache &l1i(unsigned core) { return *l1is_[core]; }
    Cache &l1d(unsigned core) { return *l1ds_[core]; }
    Cache &l2(unsigned core) { return *l2s_[core]; }
    Cache &llc() { return *llc_; }
    Dram &dram() { return *dram_; }
    Core &core(unsigned c) { return *cores_[c]; }
    const SystemConfig &config() const { return config_; }

    /**
     * Simulate: warm up until every core has retired `warmup_instrs`,
     * reset all statistics, then measure until every core has retired
     * `sim_instrs` more. Throws std::runtime_error on watchdog expiry.
     */
    RunResult run(std::uint64_t warmup_instrs, std::uint64_t sim_instrs);

    /** Host-side throughput counters (never affect simulated state). */
    const PerfCounters &perf() const { return perf_; }

    /**
     * Time one executed tick in 64, part by part, into `*sink` (see
     * TickTimes; nullptr, the default, switches timing off). Call
     * before run(); `*sink` must outlive it. Host-side only: timing
     * never changes simulated state, stats or checkpoints, and off it
     * costs one untaken branch per tick and per skip.
     */
    void timeTicks(TickTimes *sink);

    /** True when the event-skipping loop is disabled for this system. */
    bool tickEveryCycle() const { return noSkip_; }

    /**
     * Per-core clusters the next tick leaves frozen: their stored
     * wakeup lies beyond it and their L2 has no blocked prefetch head
     * (DESIGN.md §5c). Always 0 without skipping.
     */
    unsigned frozenClusters() const;

    /** Current simulated cycle. */
    Cycle cycle() const { return cycle_; }

    /** Name of the workload replayed on core `c`. */
    std::string workloadName(unsigned c) const
    {
        return workloads_[c]->name();
    }

    // --- observability -------------------------------------------------

    /**
     * The hierarchical stat registry rooted at "system". Rebuilt on
     * every call (cheap: registration only stores callbacks), so the
     * tree always reflects the currently attached prefetchers. The
     * returned reference stays valid until the next call or until the
     * System is destroyed.
     */
    StatRegistry &statRegistry();

    /**
     * Switch on event tracing into a bounded in-memory ring holding
     * `capacity` events (oldest overwritten). Call after prefetchers
     * are attached and before run(). Tracing off (the default) costs
     * one branch per rare event site and nothing on the hot path.
     */
    void enableTracing(std::size_t capacity);

    /** The event tracer, or nullptr while tracing is disabled. */
    EventTracer *tracer() const { return tracer_.get(); }

    // --- checkpoint / restore ------------------------------------------

    /**
     * FNV-1a hash of everything that must match between the saving and
     * the loading run for a checkpoint payload to make sense: cache
     * geometries, core/TLB/DRAM parameters, core count, workload names
     * and attached prefetcher names. Stored in the checkpoint header;
     * a mismatch is rejected before any payload byte is parsed, so
     * compute it (and call loadCheckpoint()) only after prefetchers
     * are attached.
     */
    std::uint64_t configHash() const;

    /**
     * Serialize the whole machine through `io` (both directions).
     * On read, derived structures are rebuilt, geometry is verified
     * and a deep audit runs; throws ErrorException on any mismatch.
     */
    void serialize(StateIO &io);

    /**
     * Deep-audit the machine and atomically write a checkpoint of it
     * to `path`. Never throws; failures come back as a Status so a
     * periodic save cannot kill a healthy simulation.
     */
    Status saveCheckpoint(const std::string &path);

    /**
     * Restore the machine from `path`, validating the container
     * (magic/version/size/CRC) and the config hash first. On failure
     * the System may be left partially restored — rebuild it before
     * running. Must be called after prefetchers are attached and
     * before run().
     */
    Status loadCheckpoint(const std::string &path);

    /**
     * Save a checkpoint to `path` every `interval` cycles while run()
     * executes (0 disables). Periodic save failures print one warning
     * to stderr and never interrupt the run. `min_interval_ms`
     * additionally rate-limits saves in wall-clock time: when the
     * cycle interval elapses but the last save was under that many
     * milliseconds ago, the save is skipped (0 = save at every cycle
     * interval, the eager pre-existing behaviour). Saves are host-side
     * only, so the cadence never affects simulated results — it only
     * bounds how much work a crash can lose.
     */
    void
    setCheckpointEvery(Cycle interval, std::string path,
                       std::uint64_t min_interval_ms = 0)
    {
        ckptEvery_ = interval;
        ckptPath_ = std::move(path);
        lastCkptCycle_ = cycle_;
        ckptMinMs_ = min_interval_ms;
        lastCkptWall_ = std::chrono::steady_clock::now();
    }

    /** True when this System continued from a loaded checkpoint. */
    bool resumed() const { return resumed_; }

    /** Cycle the loaded checkpoint was taken at (0 if not resumed). */
    Cycle resumedAtCycle() const { return resumedAtCycle_; }

    // --- warm-state sharing (DESIGN.md §5h) ----------------------------

    /**
     * Called exactly once when warmup completes (the Warmup →
     * WarmupDone boundary), before measurement-phase initialization.
     * The harness uses it to publish the end-of-warmup state into the
     * WarmStore; a system fast-forwarded via loadWarmState() never
     * fires it (its warmup was never simulated). Set before run().
     */
    void setWarmupHook(std::function<void(System &)> hook)
    {
        warmupHook_ = std::move(hook);
    }

    /**
     * Deep-audit and serialize the whole machine into a flat payload
     * (the checkpoint container's payload bytes, without the file
     * container around it). Used to publish warm states in memory.
     */
    Result<std::vector<std::uint8_t>> captureState();

    /**
     * Fast-forward this freshly built system to a published
     * end-of-warmup state. The payload must already be container-
     * validated (CRC + config hash, see WarmStore); this deserializes,
     * deep-audits, and requires the state to sit exactly at the warmup
     * boundary. On failure the System may be half-restored — rebuild
     * before use. Must be called after prefetchers are attached and
     * before run().
     */
    Status loadWarmState(const std::vector<std::uint8_t> &payload);

    /** True when this System fast-forwarded past warmup via a warm
     *  state (distinct from resumed(): that is crash recovery). */
    bool warmStart() const { return warmStart_; }

    /** Cycle the loaded warm state was captured at (0 if cold). */
    Cycle warmStartCycle() const { return warmStartCycle_; }

    /**
     * Validate runtime invariants across every component; throws
     * ErrorException (Errc::corrupt) on the first violation. The
     * shallow pass (deep = false) is cheap enough for per-tick use;
     * deep adds full tag-array and predictor-table scans. Both check
     * every per-core cluster's stored wakeup against a fresh
     * recompute, and that a frozen cluster owes no egress.
     */
    void audit(bool deep) const;

  private:
    /** Where run() is within its warmup/measure sequence. */
    enum class Phase : std::uint8_t
    {
        Idle,        //!< run() not entered yet
        Warmup,
        WarmupDone,  //!< warmup complete, measurement not initialized:
                     //!< the warm-state sharing boundary (§5h)
        Measured,
        Done,
    };

    /**
     * Every run() local that must survive a checkpoint so a resumed
     * run continues mid-warmup or mid-measurement exactly where the
     * saved one stopped.
     */
    struct RunState
    {
        Phase phase = Phase::Idle;
        std::uint64_t warmupInstrs = 0;
        std::uint64_t simInstrs = 0;
        Cycle measureStart = 0;
        std::vector<std::uint8_t> done;  //!< per-core completion flags
        std::uint32_t remaining = 0;
        std::uint64_t lastProgressTotal = 0;  //!< watchdog bookkeeping
        Cycle lastProgressCycle = 0;
        RunResult result;

        template <typename IO>
        void
        serialize(IO &io)
        {
            io.io(phase);
            io.io(warmupInstrs);
            io.io(simInstrs);
            io.io(measureStart);
            io.io(done);
            io.io(remaining);
            io.io(lastProgressTotal);
            io.io(lastProgressCycle);
            io.io(result);
        }
    };

    /**
     * One core's private hierarchy (L2 → L1D → L1I → core) as a freeze
     * unit of the skip loop (DESIGN.md §5c). A cluster
     * whose stored wakeup lies beyond the current cycle is not ticked
     * and its members' clocks are left behind; catchUp() reconciles
     * the skipped cycles in one step. Its L2 calls thaw() before a
     * response from the LLC enters it.
     */
    struct Cluster final : Freezable
    {
        System *sys = nullptr;
        unsigned core = 0;
        Cycle wakeAt = 0;  //!< the members' minimum nextWakeup
        Cycle clock = 0;   //!< the cycle the members' clocks read

        void thaw() override;
    };

    /**
     * run() after its target checks. `Sparse` (skipping on) jumps
     * over idle cycles and ticks only the clusters with work due;
     * runPhases<false> ticks everything every cycle, the reference
     * loop under tickEveryCycle.
     */
    template <bool Sparse>
    RunResult runPhases(std::uint64_t sim_instrs);

    template <bool Sparse>
    void tickAll(Cycle cycle);

    /** tickAll's body; `Timed` laps each part into tickTimes_. */
    template <bool Timed, bool Sparse>
    void tickParts(Cycle cycle);

    /** Minimum nextWakeup over cluster `c`'s members after `now`. */
    Cycle clusterWakeup(unsigned c, Cycle now) const;

    /** Bring a lagging cluster's members to cycle_ - 1: reconcile the
     *  cycles they were frozen for and sync their clocks. */
    void catchUp(Cluster &k);

    /** catchUp every cluster: before the whole machine is read or
     *  written (stats reset, warmup hook, serialize, run() return). */
    void thawAll();

    void resetAllStats();

    /** Save to ckptPath_ when the periodic interval has elapsed. */
    void maybeCheckpoint();

    /**
     * Minimum wakeup over the machine after the tick at `now`: the
     * clusters' stored wakeups first (the most likely to be now + 1,
     * which short-circuits the scan), then the LLC and DRAM.
     */
    Cycle nextWakeupAll(Cycle now) const;

    /**
     * Jump the clock to `target` without ticking: reconcile the LLC's
     * and DRAM's per-cycle-sampled stats for the skipped span and sync
     * their `now` to target - 1, so the next tickAll(target) behaves
     * exactly as if cycles cycle_..target-1 had been ticked. The
     * clusters catch up when they next tick or thaw.
     */
    void skipTo(Cycle target);

    SystemConfig config_;
    std::vector<GeneratorPtr> workloads_;
    std::unique_ptr<VirtualMemory> vmem_;
    std::unique_ptr<Dram> dram_;
    std::unique_ptr<Cache> llc_;
    std::vector<std::unique_ptr<Cache>> l1is_;
    std::vector<std::unique_ptr<Cache>> l1ds_;
    std::vector<std::unique_ptr<Cache>> l2s_;
    std::vector<std::unique_ptr<Core>> cores_;
    Cycle cycle_ = 0;
    bool noSkip_ = false;
    bool auditTick_ = false;
    bool deferEgress_ = false;  //!< multi-core: L2→LLC egress end-of-cycle
    /** One per core when skipping is on; empty without skipping. */
    std::vector<Cluster> clusters_;

    PerfCounters perf_;
    TickTimes *tickTimes_ = nullptr;  //!< timeTicks sink, or off
    bool timedPass_ = false;          //!< this pass's tick was timed
    RunState rs_;

    // Periodic checkpointing (setCheckpointEvery).
    Cycle ckptEvery_ = 0;
    std::string ckptPath_;
    Cycle lastCkptCycle_ = 0;
    std::uint64_t ckptMinMs_ = 0;  //!< wall-clock save rate limit
    std::chrono::steady_clock::time_point lastCkptWall_;
    std::vector<std::uint8_t> ckptScratch_;  //!< recycled save buffer

    bool resumed_ = false;
    Cycle resumedAtCycle_ = 0;

    // Warm-state sharing (DESIGN.md §5h).
    std::function<void(System &)> warmupHook_;
    bool warmStart_ = false;
    Cycle warmStartCycle_ = 0;

    // Observability (never serialized: purely host-side observation).
    StatRegistry registry_;
    std::unique_ptr<EventTracer> tracer_;
    int sysTrack_ = 0;
};

} // namespace bouquet

#endif // BOUQUET_CORE_SYSTEM_HH
