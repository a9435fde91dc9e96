/**
 * @file
 * DRAM model: multiple channels, per-channel banks with open-row
 * tracking, FR-FCFS-style scheduling, and a bandwidth-limited data bus.
 *
 * Calibrated to the paper's Table II: DDR4-1600 (12.8 GB/s/channel at a
 * 4 GHz core clock), 1 channel for single-core and 2 channels for
 * multi-core runs. The §VI-C bandwidth sensitivity study (3.2 GB/s and
 * 25 GB/s) is expressed by scaling `busCyclesPerLine`.
 */

#ifndef BOUQUET_MEM_DRAM_HH
#define BOUQUET_MEM_DRAM_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mem/request.hh"

namespace bouquet
{

class StatGroup;

/** DRAM timing/geometry configuration (all times in core cycles). */
struct DramConfig
{
    unsigned channels = 1;
    unsigned banksPerChannel = 8;
    unsigned rowBytes = 8192;       //!< open-row granularity
    Cycle rowHitLatency = 56;       //!< tCAS at 4 GHz (~14 ns)
    Cycle rowMissLatency = 160;     //!< tRP+tRCD+tCAS (~40 ns)
    Cycle busCyclesPerLine = 20;    //!< 64 B / 12.8 GB/s at 4 GHz
    /**
     * Pipelined controller/PHY/on-chip-network latency added to every
     * completion (~60 ns): end-to-end loaded DRAM latency is
     * 80-100 ns on real parts, far above the bare tCAS+transfer.
     */
    Cycle controllerLatency = 240;
    unsigned queueSize = 64;        //!< per-channel request queue
};

/**
 * The memory controller + DRAM devices.
 *
 * Requests complete after queueing, bank-activation and bus-transfer
 * delays; the caller's RespTarget is invoked at completion. Writes
 * (writebacks) consume bank and bus time but produce no response.
 */
class Dram final : public ReqSink, public Clocked
{
  public:
    /** Aggregate DRAM statistics. */
    struct Stats
    {
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        std::uint64_t rowHits = 0;
        std::uint64_t rowMisses = 0;
        std::uint64_t busyRejects = 0;  //!< acceptRequest refusals
        std::uint64_t dataCycles = 0;   //!< bus-occupied cycles

        void reset() { *this = Stats{}; }

        template <typename IO>
        void
        serialize(IO &io)
        {
            io.io(reads);
            io.io(writes);
            io.io(rowHits);
            io.io(rowMisses);
            io.io(busyRejects);
            io.io(dataCycles);
        }
    };

    explicit Dram(DramConfig cfg);

    bool acceptRequest(const MemRequest &req) override;

    void tick(Cycle cycle) override;

    /**
     * Earliest future cycle with work: the soonest in-flight
     * completion, or the first cycle a queued request could start
     * (its bank ready and the command window open). Read from each
     * channel's cached completion and start cycles, so it costs
     * O(channels); those cycles are derived state, refreshed whenever
     * the channel's queue, banks or bus change and recomputed on
     * checkpoint load, never serialized. No-op DRAM ticks touch no
     * state or statistics, so skipping needs no reconciliation (no
     * skipCycles/syncCycle overrides).
     */
    Cycle nextWakeup(Cycle now) const override;

    const Stats &stats() const { return stats_; }
    Stats &stats() { return stats_; }

    /** Export controller counters into the registry subtree `g`. */
    void registerStats(const StatGroup &g);

    const DramConfig &config() const { return config_; }

    /** Total bytes moved since the last stats reset. */
    std::uint64_t
    bytesTransferred() const
    {
        return (stats_.reads + stats_.writes) * kLineSize;
    }

    /**
     * Channel count is configuration and must match; queues, bank
     * rows/timers and in-flight completions checkpoint in container
     * order (swap-removal makes the order state, not presentation).
     * Decoded banks/rows and the cached event cycles are derived and
     * rebuilt on read.
     */
    template <typename IO>
    void
    serialize(IO &io)
    {
        std::uint32_t n = static_cast<std::uint32_t>(channels_.size());
        io.io(n);
        if (io.reading() && n != channels_.size())
            io.failCorrupt("checkpoint DRAM channel count mismatch");
        for (auto &ch : channels_) {
            ch.serialize(io);
            if (io.reading() && ch.banks.size() != config_.banksPerChannel)
                io.failCorrupt("checkpoint DRAM bank count mismatch");
        }
        stats_.serialize(io);
        if (io.reading())
            rederive();
    }

    /**
     * Structural invariants, including every decoded bank/row and
     * cached event cycle against a fresh recompute; throws
     * ErrorException on violation.
     */
    void audit() const;

  private:
    struct Pending
    {
        MemRequest req;
        Cycle readyAt;  //!< when the data transfer completes

        template <typename IO>
        void
        serialize(IO &io)
        {
            io.io(req);
            io.io(readyAt);
        }
    };

    struct Bank
    {
        std::uint64_t openRow = ~0ull;
        Cycle readyAt = 0;

        template <typename IO>
        void
        serialize(IO &io)
        {
            io.io(openRow);
            io.io(readyAt);
        }
    };

    /** A queued request with its bank and row decoded on arrival. */
    struct Queued
    {
        MemRequest req;
        unsigned bank = 0;
        std::uint64_t row = 0;

        /** Only the request is state; load re-decodes bank and row. */
        template <typename IO>
        void
        serialize(IO &io)
        {
            io.io(req);
        }
    };

    struct Channel
    {
        std::vector<Queued> queue;
        std::vector<Bank> banks;
        Cycle busFreeAt = 0;
        std::vector<Pending> inflight;

        // Derived from the fields above, never serialized.
        Cycle nextDone = kNeverWakeup;   //!< earliest in-flight readyAt
        Cycle nextStart = kNeverWakeup;  //!< first cycle schedule()
                                         //!< can start a request

        template <typename IO>
        void
        serialize(IO &io)
        {
            io.io(queue);
            io.io(banks);
            io.io(busFreeAt);
            io.io(inflight);
        }
    };

    unsigned channelOf(LineAddr line) const;
    /** Fill in `q.bank` and `q.row` from `q.req.line`. */
    void decode(Queued &q) const;

    /** First cycle the command window admits a start on `ch`. */
    Cycle windowOpensAt(const Channel &ch) const;
    /** Recompute `ch.nextStart` from its queue, banks and bus. */
    Cycle startCycle(const Channel &ch) const;
    /** Recompute `ch.nextDone` from its in-flight transfers. */
    static Cycle doneCycle(const Channel &ch);

    void complete(Channel &ch, Cycle now);
    void schedule(Channel &ch, Cycle now);

    /** Rebuild every derived field after a checkpoint load. */
    void rederive();

    DramConfig config_;
    std::vector<Channel> channels_;
    Stats stats_;
};

} // namespace bouquet

#endif // BOUQUET_MEM_DRAM_HH
