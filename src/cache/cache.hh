/**
 * @file
 * A non-blocking, write-back, set-associative cache with MSHRs, a
 * prefetch queue, port limits, pluggable replacement, and a prefetcher
 * hook set — the building block of the modeled hierarchy (L1I, L1D,
 * L2, LLC), mirroring the DPC-3 ChampSim cache.
 *
 * Timing model: an accepted request waits `latency` cycles in the read
 * queue before its tag lookup; hits respond immediately after lookup
 * (total = hit latency), misses allocate an MSHR and forward to the
 * next level, accumulating each level's latency on the way down plus
 * DRAM time. Fills propagate upward without additional delay.
 */

#ifndef BOUQUET_CACHE_CACHE_HH
#define BOUQUET_CACHE_CACHE_HH

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/replacement.hh"
#include "common/ringbuffer.hh"
#include "common/types.hh"
#include "mem/request.hh"
#include "prefetch/prefetcher.hh"

namespace bouquet
{

class EventTracer;
class StatGroup;
class StateIO;

/**
 * Open-addressed hash index mapping a line address to its slot in the
 * MSHR vector, so `findMshr` is O(1) instead of a linear scan on every
 * lookup, fill, and prefetch probe. Linear probing with backward-shift
 * deletion (no tombstones); the table holds at least 2x the MSHR count
 * so probe chains stay short, and it never allocates after
 * construction. Lines are unique within the MSHR set, so one slot per
 * key suffices.
 */
class MshrIndex
{
  public:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    explicit MshrIndex(std::uint32_t entries)
    {
        std::size_t cap = 8;
        while (cap < 2 * static_cast<std::size_t>(entries))
            cap <<= 1;
        slots_.assign(cap, Slot{});
        mask_ = cap - 1;
    }

    /** Slot of `line` in the MSHR vector, or kNone. */
    std::uint32_t
    find(LineAddr line) const
    {
        for (std::size_t i = home(line);; i = (i + 1) & mask_) {
            const Slot &s = slots_[i];
            if (s.slot == kNone)
                return kNone;
            if (s.line == line)
                return s.slot;
        }
    }

    /** Record `line` -> `slot`. The key must not already be present. */
    void
    insert(LineAddr line, std::uint32_t slot)
    {
        std::size_t i = home(line);
        while (slots_[i].slot != kNone) {
            assert(slots_[i].line != line);
            i = (i + 1) & mask_;
        }
        slots_[i] = Slot{line, slot};
    }

    /** Re-point an existing key at a new MSHR vector slot. */
    void
    update(LineAddr line, std::uint32_t slot)
    {
        slots_[findSlot(line)].slot = slot;
    }

    /** Remove a key that is present. */
    void
    erase(LineAddr line)
    {
        std::size_t hole = findSlot(line);
        // Backward-shift deletion: pull displaced entries over the hole
        // so probe chains stay contiguous without tombstones.
        for (std::size_t j = (hole + 1) & mask_;
             slots_[j].slot != kNone; j = (j + 1) & mask_) {
            const std::size_t h = home(slots_[j].line);
            if (((j - h) & mask_) >= ((j - hole) & mask_)) {
                slots_[hole] = slots_[j];
                hole = j;
            }
        }
        slots_[hole].slot = kNone;
    }

  private:
    struct Slot
    {
        LineAddr line = 0;
        std::uint32_t slot = kNone;
    };

    /** Preferred table position (Fibonacci hashing spreads the
     *  low-entropy line-address bits). */
    std::size_t
    home(LineAddr line) const
    {
        return static_cast<std::size_t>(
                   (line * 0x9E3779B97F4A7C15ull) >> 32) &
               mask_;
    }

    /** Table position of a key that must be present. */
    std::size_t
    findSlot(LineAddr line) const
    {
        for (std::size_t i = home(line);; i = (i + 1) & mask_) {
            assert(slots_[i].slot != kNone && "MshrIndex: key missing");
            if (slots_[i].line == line && slots_[i].slot != kNone)
                return i;
        }
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
};

/** Static configuration of one cache. */
struct CacheConfig
{
    std::string name = "cache";
    CacheLevel level = CacheLevel::L1D;
    std::uint32_t sets = 64;
    std::uint32_t ways = 12;
    Cycle latency = 5;          //!< hit latency
    std::uint32_t mshrs = 16;
    std::uint32_t pqSize = 8;   //!< prefetch queue entries
    std::uint32_t rqSize = 32;  //!< read (demand) queue entries
    std::uint32_t wqSize = 64;  //!< writeback queue entries
    std::uint32_t ports = 2;    //!< demand lookups per cycle
    std::uint32_t pfIssuePerCycle = 2;
    ReplPolicy repl = ReplPolicy::LRU;

    std::uint64_t sizeBytes() const
    {
        return std::uint64_t{sets} * ways * kLineSize;
    }
};

/** Number of distinct prefetch-class attribution slots. */
inline constexpr unsigned kPfClassSlots = 8;

/** Event counters of one cache (reset at end of warmup). */
struct CacheStats
{
    std::uint64_t accesses[5] = {};  //!< indexed by AccessType
    std::uint64_t hits[5] = {};
    std::uint64_t misses[5] = {};

    std::uint64_t mshrMerges = 0;      //!< demand merged into an MSHR
    std::uint64_t latePrefetches = 0;  //!< demand merged into a pf MSHR
    std::uint64_t mshrFullStalls = 0;

    std::uint64_t pfRequested = 0;        //!< prefetcher asked for
    std::uint64_t pfIssued = 0;           //!< sent past the probe
    std::uint64_t pfDroppedFull = 0;      //!< PQ full
    std::uint64_t pfDroppedHitCache = 0;  //!< probe hit in tags
    std::uint64_t pfDroppedHitMshr = 0;   //!< already in flight
    std::uint64_t pfFills = 0;            //!< lines installed by pf
    std::uint64_t pfUseful = 0;           //!< first demand hit on pf line
    std::uint64_t pfUnused = 0;           //!< pf line evicted untouched

    std::uint64_t writebacks = 0;      //!< dirty evictions sent down
    std::uint64_t wbDropped = 0;

    std::uint64_t missLatencySum = 0;   //!< cycles, MSHR alloc -> fill
    std::uint64_t missLatencyCount = 0;
    std::uint64_t mshrOccupancySum = 0;  //!< sampled every tick
    std::uint64_t tickCount = 0;

    std::uint64_t pfClassFills[kPfClassSlots] = {};
    std::uint64_t pfClassUseful[kPfClassSlots] = {};
    std::uint64_t pfClassUnused[kPfClassSlots] = {};
    std::uint64_t pfClassIssued[kPfClassSlots] = {};
    std::uint64_t pfClassLate[kPfClassSlots] = {};

    void reset() { *this = CacheStats{}; }

    /** Demand accesses = loads + stores + instruction fetches. */
    std::uint64_t demandAccesses() const;
    std::uint64_t demandHits() const;
    std::uint64_t demandMisses() const;

    template <typename IO>
    void
    serialize(IO &io)
    {
        for (auto &v : accesses)
            io.io(v);
        for (auto &v : hits)
            io.io(v);
        for (auto &v : misses)
            io.io(v);
        io.io(mshrMerges);
        io.io(latePrefetches);
        io.io(mshrFullStalls);
        io.io(pfRequested);
        io.io(pfIssued);
        io.io(pfDroppedFull);
        io.io(pfDroppedHitCache);
        io.io(pfDroppedHitMshr);
        io.io(pfFills);
        io.io(pfUseful);
        io.io(pfUnused);
        io.io(writebacks);
        io.io(wbDropped);
        io.io(missLatencySum);
        io.io(missLatencyCount);
        io.io(mshrOccupancySum);
        io.io(tickCount);
        for (auto &v : pfClassFills)
            io.io(v);
        for (auto &v : pfClassUseful)
            io.io(v);
        for (auto &v : pfClassUnused)
            io.io(v);
        for (auto &v : pfClassIssued)
            io.io(v);
        for (auto &v : pfClassLate)
            io.io(v);
    }
};

/**
 * The cache. Wire-up: `setLower` points at the next level (another
 * Cache or the Dram); `setTranslator` is required at virtually-accessed
 * L1s so prefetch virtual addresses can be translated when issued;
 * `setInstructionSource` supplies the retired-instruction count for the
 * prefetcher's MPKI gates.
 */
class Cache : public ReqSink, public RespTarget, public Clocked,
              public PrefetchHost
{
  public:
    Cache(CacheConfig cfg, std::uint64_t repl_seed = 7);

    // --- wiring -------------------------------------------------------
    void setLower(ReqSink *lower) { lower_ = lower; }

    /** Attach a prefetcher (the cache keeps a host link back). */
    void setPrefetcher(std::unique_ptr<Prefetcher> pf);

    /** VA->PA for prefetch issue at virtually-trained L1s. */
    void
    setTranslator(std::function<Addr(Addr)> fn)
    {
        translator_ = std::move(fn);
    }

    /** Source of the owning core's retired-instruction count. */
    void
    setInstructionSource(std::function<std::uint64_t()> fn)
    {
        instrSource_ = std::move(fn);
    }

    // --- ReqSink / RespTarget / Clocked -------------------------------
    bool acceptRequest(const MemRequest &req) override;
    void onResponse(const MemRequest &req) override;
    void tick(Cycle cycle) override;
    Cycle nextWakeup(Cycle now) const override;
    void skipCycles(Cycle count) override;
    void syncCycle(Cycle cycle) override { now_ = cycle; }

    // --- PrefetchHost --------------------------------------------------
    bool issuePrefetch(Addr byte_addr, CacheLevel fill_level,
                       std::uint32_t metadata,
                       std::uint8_t pf_class) override;
    CacheLevel level() const override { return config_.level; }
    Cycle now() const override { return now_; }
    std::uint64_t demandMisses() const override;
    std::uint64_t retiredInstructions() const override;
    EventTracer *tracer() const override { return tracer_; }
    int traceTrack() const override { return traceTrack_; }

    // --- introspection -------------------------------------------------
    const CacheConfig &config() const { return config_; }
    const CacheStats &stats() const { return stats_; }
    Prefetcher *prefetcher() { return prefetcher_.get(); }

    /** Reset all statistics (end of warmup). */
    void resetStats() { stats_.reset(); }

    /**
     * Export this cache's counters (and its prefetcher's, under a
     * `<prefetcher name>` child group) into the registry subtree `g`.
     */
    void registerStats(const StatGroup &g);

    /** Attach (or detach with nullptr) the event tracer. */
    void
    setTracer(EventTracer *t, int track)
    {
        tracer_ = t;
        traceTrack_ = track;
    }

    /** True when the line is resident (no side effects). */
    bool probe(LineAddr line) const;

    // --- deferred egress (multi-core parallel ticking) -----------------

    /**
     * Defer every call into the lower level to flushEgress() instead of
     * making it inside tick(). The System sets this on the private L2s
     * of a multi-core machine: their lower level is the *shared* LLC,
     * so deferring keeps per-core cluster ticks free of cross-cluster
     * calls, and replaying the deferred egress serially in core order
     * afterwards fixes when each core's requests reach the LLC
     * (DESIGN.md §5f).
     */
    void setDeferLower(bool on) { deferLower_ = on; }

    /**
     * Perform this tick's deferred lower-level egress: drain pending
     * writebacks, send unsent MSHRs, and resume the prefetch-queue
     * processing that suspended at an operation needing a synchronous
     * lower-level answer. Must be called once after every tick() while
     * deferral is enabled, from the serial section of the loop.
     */
    void flushEgress();

    // --- freeze groups (sparse ticking) ---------------------------------

    /**
     * Thaw `group` before every response delivered to this cache. The
     * System sets it on each private L2 while skipping is on: the
     * LLC's response is the only way into a core's cluster from
     * outside (DESIGN.md §5c).
     */
    void setFreezeGroup(Freezable *group) { freezeGroup_ = group; }

    /**
     * A prefetch head (own or incoming) was refused at this cache's
     * last tick. Its retry may be waiting on lower-level queue space,
     * an event that never arrives as a response, so the System never
     * freezes a cluster whose L2 reports this.
     */
    bool
    prefetchHeadBlocked() const
    {
        return pqHeadBlocked_ || ipqHeadBlocked_;
    }

    /** Writebacks or MSHR sends still owed to the lower level. */
    bool
    egressPending() const
    {
        return unsentMshrs_ > 0 || !outbound_.empty();
    }

    /** Number of in-flight MSHRs (for tests). */
    std::size_t mshrsInUse() const { return mshrs_.size(); }

    /** PQ occupancy: own pending prefetches + arrivals from above. */
    std::size_t pqOccupancy() const { return pq_.size() + ipq_.size(); }

    /**
     * Checkpoint every mutable field; on restore the MSHR line index
     * and unsent count are rebuilt from the MSHR vector. The wiring
     * (lower level, translator, prefetcher identity) is configuration
     * and must be re-established before loading.
     */
    void serialize(StateIO &io);

    /**
     * Validate structural invariants; throws ErrorException
     * (Errc::corrupt) on the first violation. Shallow checks cover
     * queue bounds and MSHR-index consistency (cheap enough for every
     * tick under IPCP_AUDIT=1); `deep` adds full tag-array set
     * membership/uniqueness scans plus the replacement and prefetcher
     * auditors, and runs at checkpoint boundaries.
     */
    void audit(bool deep) const;

  private:
    // --- tag array, structure-of-arrays ------------------------------
    //
    // The per-line record is split into parallel arrays so the hot
    // loops touch only what they need: findWay scans the contiguous
    // `tags_` array and nothing else (an invalid way holds kInvalidTag,
    // which no real line address can equal, so no validity check is
    // needed on the scan); the hit path reads/writes one byte of
    // `meta_`; the fill path consults the per-set `validCount_` to skip
    // the valid-mask rebuild once a set is full (sets only ever fill
    // up — lines are replaced, never invalidated).

    /** Tag stored in invalid ways; above any modeled physical line. */
    static constexpr LineAddr kInvalidTag = ~LineAddr{0};

    /** Bit flags of one line's `meta_` byte. */
    enum : std::uint8_t
    {
        kLineValid = 1,
        kLineDirty = 2,
        kLinePrefetched = 4,
        kLineReused = 8,
    };

    /** Cold per-MSHR state; the hot line/sent fields live in the
     *  parallel `mshrLine_`/`mshrSent_` arrays. */
    struct Mshr
    {
        bool pfOrigin = false;       //!< allocated by a prefetch
        bool demandMerged = false;
        std::uint8_t pfClass = 0;
        Cycle allocCycle = 0;
        MemRequest proto;            //!< request to forward downward
        std::vector<MemRequest> targets;  //!< responses owed upward

        template <typename IO>
        void
        serialize(IO &io)
        {
            io.io(pfOrigin);
            io.io(demandMerged);
            io.io(pfClass);
            io.io(allocCycle);
            io.io(proto);
            io.io(targets);
        }
    };

    struct PqEntry
    {
        Addr byteAddr = 0;
        CacheLevel fillLevel = CacheLevel::L1D;
        std::uint32_t metadata = 0;
        std::uint8_t pfClass = 0;
        Ip triggerIp = 0;  //!< IP of the access that trained this

        template <typename IO>
        void
        serialize(IO &io)
        {
            io.io(byteAddr);
            io.io(fillLevel);
            io.io(metadata);
            io.io(pfClass);
            io.io(triggerIp);
        }
    };

    /** Sentinel returned by findWay when the line is not resident. */
    static constexpr std::size_t kNoWay = ~std::size_t{0};

    std::uint32_t setOf(LineAddr line) const;

    /** Index of the resident line in the tag array, or kNoWay. */
    std::size_t findWay(LineAddr line) const;

    /** MSHR slot owning `line`, or MshrIndex::kNone. */
    std::uint32_t findMshr(LineAddr line) const;

    /** Append an MSHR, maintaining the line index and unsent count;
     *  returns the new slot. */
    std::uint32_t pushMshr(Mshr &&fresh, LineAddr line, bool sent);

    void handleLookup(const MemRequest &req);
    bool handleIncomingPrefetch(const MemRequest &req);
    void handleWriteback(const MemRequest &req);
    void installLine(const MemRequest &req, bool was_prefetch,
                     std::uint8_t pf_class);
    void processReadQueue();
    void processPrefetchQueue();
    void processWriteQueue();
    void drainOutbound();
    void notifyPrefetcher(const MemRequest &req, bool hit);

    /**
     * The two halves of processPrefetchQueue, shared between the
     * in-tick pass and the flushEgress resume. Each returns false when
     * deferral suspended it at an entry needing a synchronous
     * lower-level answer (never once deferActive_ is off).
     */
    bool runIncomingPrefetches(std::uint32_t &incoming);
    bool runOwnPrefetches(std::uint32_t &issued);
    void resumePrefetchQueue();

    CacheConfig config_;
    std::vector<LineAddr> tags_;         //!< sets * ways, row-major
    std::vector<std::uint8_t> meta_;     //!< kLine* flag bytes
    std::vector<std::uint8_t> pfClass_;  //!< attribution class per line
    std::vector<std::uint8_t> validCount_;  //!< valid ways per set
    std::unique_ptr<Replacement> repl_;
    std::unique_ptr<Prefetcher> prefetcher_;

    ReqSink *lower_ = nullptr;
    Freezable *freezeGroup_ = nullptr;  //!< setFreezeGroup, or none
    std::function<Addr(Addr)> translator_;
    std::function<std::uint64_t()> instrSource_;

    EventTracer *tracer_ = nullptr;  //!< null when tracing is off
    int traceTrack_ = 0;

    StampedRing<MemRequest> rq_;
    StampedRing<MemRequest> wq_;
    StampedRing<PqEntry> pq_;   //!< own prefetcher's pending requests
    StampedRing<MemRequest> ipq_;  //!< prefetch requests from above
    std::vector<Mshr> mshrs_;            //!< cold MSHR state
    std::vector<LineAddr> mshrLine_;     //!< hot: line per slot
    std::vector<std::uint8_t> mshrSent_; //!< hot: sent flag per slot
    MshrIndex mshrIndex_;      //!< line -> slot in mshrs_
    RingBuffer<MemRequest> outbound_;  //!< writebacks awaiting the bus

    std::uint32_t unsentMshrs_ = 0;  //!< MSHRs awaiting a downstream send

    /**
     * Head-of-line state captured by the queue-processing loops each
     * tick, consumed by nextWakeup/skipCycles (DESIGN.md §5c): a
     * stalled rq head accrues mshrFullStalls every cycle (reconciled
     * on skip); a blocked pq head's retry is side-effect-free, so the
     * cycle is skippable and wakeup comes from the event that unblocks
     * it.
     */
    bool rqHeadStalled_ = false;
    bool pqHeadBlocked_ = false;
    /** Incoming-prefetch head rejected (MSHR full / lower refused);
     *  its retry is side-effect-free, so the wait is skippable. */
    bool ipqHeadBlocked_ = false;

    /** Cached prefetcher_->needsCycle() (stable after attachment). */
    bool pfNeedsCycle_ = false;

    /**
     * Deferred-egress state (setDeferLower). deferActive_ is true from
     * the start of a deferring tick() until its flushEgress(); the
     * suspension fields record where prefetch-queue processing stopped
     * when it hit an operation needing a synchronous lower-level
     * answer. All of it is transient within one tickAll, so none of it
     * is checkpointed.
     */
    bool deferLower_ = false;
    bool deferActive_ = false;
    bool egSuspended_ = false;
    std::uint8_t egStage_ = 0;   //!< 0 = ipq loop, 1 = own-pq loop
    std::uint32_t egCount_ = 0;  //!< loop counter at suspension
    bool egPrefetcherPending_ = false;

    /** Scratch for installLine's victim search (avoids per-fill
     *  allocation; one System is confined to one runner thread). */
    std::vector<bool> replScratch_;

    /** Prebuilt all-true valid mask handed to the replacement policy
     *  once a set is full — the steady state after warmup — so the
     *  fill path stops rebuilding an identical mask per miss. */
    std::vector<bool> allValid_;

    Cycle now_ = 0;
    /**
     * IP of the access currently being shown to the prefetcher; stamped
     * onto prefetches it issues so lower levels can index their IP
     * tables (the paper: "the IP of the request is passed to the L2").
     */
    Ip operateIp_ = 0;
    CacheStats stats_;
};

} // namespace bouquet

#endif // BOUQUET_CACHE_CACHE_HH
