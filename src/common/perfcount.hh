/**
 * @file
 * Lightweight simulator-throughput instrumentation: a wall-clock timer,
 * the per-run counter bundle (cycles simulated, ticks actually
 * executed, cycles skipped by the event-skipping loop, instructions)
 * that `bench_throughput` and `ipcp_sim --perf` report from, and the
 * sampled per-component split of executed-tick time.
 *
 * Everything here is host-side measurement; nothing feeds back into
 * simulated state, so perf counters never affect simulated outcomes.
 */

#ifndef BOUQUET_COMMON_PERFCOUNT_HH
#define BOUQUET_COMMON_PERFCOUNT_HH

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>

namespace bouquet
{

/**
 * Counters of one simulation run (or one System lifetime). Ticks are
 * tick rounds actually executed by System::run; skipped cycles are
 * quiescent cycles the event-skipping loop jumped over. Their sum is
 * the number of simulated cycles.
 */
struct PerfCounters
{
    std::uint64_t ticksExecuted = 0;
    std::uint64_t skippedCycles = 0;
    /**
     * Per-core cluster ticks that ran and that were left frozen on
     * executed ticks (skipping on, DESIGN.md §5c). Not
     * checkpointed: a resumed run counts from its resume point.
     */
    std::uint64_t clusterTicks = 0;
    std::uint64_t clustersFrozen = 0;

    std::uint64_t cyclesSimulated() const
    {
        return ticksExecuted + skippedCycles;
    }

    /** Fraction of simulated cycles that were skipped, in [0,1]. */
    double
    skipRatio() const
    {
        const std::uint64_t total = cyclesSimulated();
        return total == 0
                   ? 0.0
                   : static_cast<double>(skippedCycles) /
                         static_cast<double>(total);
    }

    void reset() { *this = PerfCounters{}; }

    /**
     * The tick and skip counts are checkpointed so a resumed run
     * reports them over the whole logical run. Host-side only:
     * excluded from resume-equivalence comparisons.
     */
    template <typename IO>
    void
    serialize(IO &io)
    {
        io.io(ticksExecuted);
        io.io(skippedCycles);
    }
};

/**
 * Where executed-tick time goes, by component kind (`ipcp_sim
 * --perf`). System::timeTicks samples one executed tick in 64 with
 * steady_clock, adding each part's host nanoseconds here; `Wakeup`
 * is the next-wakeup scan (with the recompute of each ticked
 * cluster's wakeup) plus the skip that follows the sampled tick. A
 * frozen cluster is not timed: it adds to `frozen` instead of to the
 * L2, L1D, L1I and core laps. A clock read costs about as much as a
 * component's tick, so every lap is charged net of one read
 * (`clockNs`). Host-side only: never serialized and never in stats
 * JSON.
 */
struct TickTimes
{
    enum Part : unsigned
    {
        Dram = 0,
        Llc,
        L2,
        L1d,
        L1i,
        Core,
        Egress,  //!< the multi-core deferred L2→LLC flush
        Wakeup,
        kParts,
    };

    static constexpr const char *kNames[kParts] = {
        "dram", "llc", "l2", "l1d", "l1i", "core", "egress",
        "wakeup+skip"};

    std::array<std::uint64_t, kParts> ns{};    //!< raw lap time
    std::array<std::uint64_t, kParts> laps{};  //!< laps timed
    std::uint64_t samples = 0;                 //!< executed ticks timed
    std::uint64_t frozen = 0;  //!< cluster-samples frozen, not timed
    /** Exact PerfCounters cluster counts, copied when run() returns. */
    std::uint64_t clusterTicks = 0;
    std::uint64_t clustersFrozen = 0;
    double clockNs = 0.0;  //!< one steady_clock read, charged per lap

    /** Charge one timed lap of `d` to `p`. */
    void
    add(Part p, std::chrono::steady_clock::duration d)
    {
        ++laps[p];
        ns[p] += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(d)
                .count());
    }

    /** Time spent in `p`, net of the clock reads that timed it. */
    double
    netNs(Part p) const
    {
        return std::max(0.0, static_cast<double>(ns[p]) -
                                 static_cast<double>(laps[p]) * clockNs);
    }

    /** Share of the net timed nanoseconds spent in `p`, in [0,1]. */
    double
    share(Part p) const
    {
        double total = 0.0;
        for (unsigned q = 0; q < kParts; ++q)
            total += netNs(static_cast<Part>(q));
        return total == 0.0 ? 0.0 : netNs(p) / total;
    }

    /** Median gap between back-to-back steady_clock reads, in ns. */
    static double
    measureClockNs()
    {
        using Clock = std::chrono::steady_clock;
        std::array<std::int64_t, 255> gaps{};
        for (std::int64_t &g : gaps) {
            const Clock::time_point a = Clock::now();
            const Clock::time_point b = Clock::now();
            g = std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                    .count();
        }
        std::nth_element(gaps.begin(), gaps.begin() + gaps.size() / 2,
                         gaps.end());
        return static_cast<double>(gaps[gaps.size() / 2]);
    }
};

/** Monotonic wall-clock stopwatch. */
class WallTimer
{
  public:
    WallTimer() : start_(clock::now()) {}

    void restart() { start_ = clock::now(); }

    /** Seconds elapsed since construction or the last restart(). */
    double
    seconds() const
    {
        return std::chrono::duration<double>(clock::now() - start_)
            .count();
    }

  private:
    using clock = std::chrono::steady_clock;
    clock::time_point start_;
};

/** Simulated kilo-instructions per wall-second (the headline metric). */
inline double
kips(std::uint64_t instructions, double seconds)
{
    return seconds > 0.0
               ? static_cast<double>(instructions) / seconds / 1e3
               : 0.0;
}

} // namespace bouquet

#endif // BOUQUET_COMMON_PERFCOUNT_HH
