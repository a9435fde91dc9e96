/**
 * @file
 * The memory request/response plumbing shared by caches, DRAM, and the
 * core: request records, the downstream sink interface and the upstream
 * response-target interface.
 */

#ifndef BOUQUET_MEM_REQUEST_HH
#define BOUQUET_MEM_REQUEST_HH

#include <cstdint>

#include "common/types.hh"

namespace bouquet
{

class RespTarget;

/**
 * A memory request travelling down the hierarchy.
 *
 * `vaddr` is preserved alongside the physical line address because L1
 * prefetchers (IPCP among them) train on virtual addresses in a
 * virtually-indexed physically-tagged L1.
 */
struct MemRequest
{
    LineAddr line = 0;            //!< physical cache-line address
    Addr vaddr = 0;               //!< virtual byte address (0 if n/a)
    Ip ip = 0;                    //!< requesting instruction pointer
    AccessType type = AccessType::Load;
    CoreId core = 0;
    std::uint32_t metadata = 0;   //!< prefetcher metadata channel
    std::uint8_t pfClass = 0;     //!< prefetch-class attribution id
    CacheLevel fillLevel = CacheLevel::L1D;  //!< deepest fill target
    std::uint64_t id = 0;         //!< core-side completion token
    RespTarget *requester = nullptr;  //!< where the response goes

    /** The requester pointer travels as a checkpoint registry index. */
    template <typename IO>
    void
    serialize(IO &io)
    {
        io.io(line);
        io.io(vaddr);
        io.io(ip);
        io.io(type);
        io.io(core);
        io.io(metadata);
        io.io(pfClass);
        io.io(fillLevel);
        io.io(id);
        io.ioTarget(requester);
    }
};

/** Downstream interface: something requests can be sent to. */
class ReqSink
{
  public:
    virtual ~ReqSink() = default;

    /**
     * Try to accept a request. Returns false when the device cannot
     * take it this cycle (queue full); the caller must retry later.
     */
    virtual bool acceptRequest(const MemRequest &req) = 0;
};

/** Upstream interface: receives a response (fill/completion). */
class RespTarget
{
  public:
    virtual ~RespTarget() = default;

    /** Called when the data for `req` is available at the lower level. */
    virtual void onResponse(const MemRequest &req) = 0;
};

/**
 * A group of components the System may leave unticked while none of
 * them has work due (a frozen per-core cluster, DESIGN.md §5c).
 * thaw() brings the group's clocks and per-cycle statistics up to
 * the current cycle and makes it tick this cycle; the group's entry
 * point calls it before an external response enters the group.
 */
class Freezable
{
  public:
    virtual ~Freezable() = default;
    virtual void thaw() = 0;
};

/** Wakeup value meaning "no self-scheduled activity, ever". */
inline constexpr Cycle kNeverWakeup = ~Cycle{0};

/** A component advanced once per core clock cycle. */
class Clocked
{
  public:
    virtual ~Clocked() = default;

    /** Advance internal state to `cycle`. */
    virtual void tick(Cycle cycle) = 0;

    /**
     * Earliest cycle > `now` at which tick() could do anything, given
     * that no external event (acceptRequest/onResponse) is delivered
     * in between. `now` is the cycle of the component's most recent
     * tick. Components that cannot prove quiescence return `now + 1`
     * (the default): the driver then ticks every cycle, which is
     * always correct. kNeverWakeup means "only an external event can
     * wake me". See DESIGN.md §5c for the full contract.
     */
    virtual Cycle
    nextWakeup(Cycle now) const
    {
        return now + 1;
    }

    /**
     * Account for `count` consecutive quiescent cycles the driver
     * skipped instead of ticking. Implementations reproduce exactly
     * the statistics a per-cycle tick sequence would have accumulated
     * in that window (occupancy sums, tick counts, stall counters);
     * no other state may change.
     */
    virtual void
    skipCycles(Cycle count)
    {
        (void)count;
    }

    /**
     * Set the component's notion of "now" to `cycle` without ticking,
     * so that event handlers invoked before its next tick observe the
     * same timestamp they would under per-cycle ticking.
     */
    virtual void
    syncCycle(Cycle cycle)
    {
        (void)cycle;
    }
};

} // namespace bouquet

#endif // BOUQUET_MEM_REQUEST_HH
