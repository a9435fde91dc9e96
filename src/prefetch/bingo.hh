/**
 * @file
 * Bingo spatial data prefetcher [Bakhshalipour et al., HPCA 2019], a
 * descendant of Spatial Memory Streaming (SMS) [Somogyi et al., ISCA
 * 2006].
 *
 * It learns per-region footprints (bit patterns) in an accumulation
 * table and replays them when a trigger access recurs. Bingo looks up
 * the long (PC + region address) event first and falls back to the
 * short (PC + offset) event — its "multiple signatures in one table"
 * design. The paper evaluates Bingo at two budgets (48 KB and 119 KB),
 * which map to the `historyEntries` knob here.
 */

#ifndef BOUQUET_PREFETCH_BINGO_HH
#define BOUQUET_PREFETCH_BINGO_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "prefetch/prefetcher.hh"

namespace bouquet
{

/** Bingo's region geometry and table sizes. */
struct SpatialParams
{
    unsigned regionBytes = 2048;   //!< spatial region size
    unsigned accumEntries = 64;    //!< active-region accumulation table
    unsigned historyEntries = 2048;  //!< pattern history table
    CacheLevel fillLevel = CacheLevel::L1D;
};

/** Bingo: long (PC+address) lookup with short (PC+offset) fallback. */
class BingoPrefetcher : public Prefetcher
{
  public:
    explicit BingoPrefetcher(SpatialParams p = {});

    void operate(Addr addr, Ip ip, bool cache_hit, AccessType type,
                 std::uint32_t meta_in) override;

    std::string name() const override { return "bingo"; }
    std::size_t storageBits() const override;

    void serialize(StateIO &io) override;
    void audit() const override;

    void registerStats(const StatGroup &g) override;

  private:
    struct ActiveRegion
    {
        bool valid = false;
        Addr region = 0;
        std::uint32_t triggerPc = 0;
        std::uint8_t triggerOffset = 0;
        std::uint64_t bitmap = 0;
        std::uint64_t pending = 0;  //!< predicted lines not yet issued
        std::uint64_t lastUse = 0;

        template <typename IO>
        void
        serialize(IO &io)
        {
            io.io(valid);
            io.io(region);
            io.io(triggerPc);
            io.io(triggerOffset);
            io.io(bitmap);
            io.io(pending);
            io.io(lastUse);
        }
    };

    struct PhtEntry
    {
        bool valid = false;
        std::uint32_t longKey = 0;   //!< hash of PC + region address
        std::uint32_t shortKey = 0;  //!< hash of PC + offset
        std::uint64_t pattern = 0;
        std::uint64_t lastUse = 0;

        template <typename IO>
        void
        serialize(IO &io)
        {
            io.io(valid);
            io.io(longKey);
            io.io(shortKey);
            io.io(pattern);
            io.io(lastUse);
        }
    };

    /** Store a finished region's pattern into the history. */
    void recordPattern(const ActiveRegion &r);

    /**
     * Predict the footprint for a fresh trigger access; returns an
     * absolute-offset bitmap of lines to prefetch (0 = no prediction).
     */
    std::uint64_t predict(unsigned trigger_offset, std::uint32_t pc_hash,
                          Addr region);

    /** Issue up to `max_issue` pending lines of a region. */
    void drainPending(ActiveRegion &r, unsigned max_issue);

    unsigned linesPerRegion() const { return params_.regionBytes / kLineSize; }

    static std::uint32_t longKeyOf(std::uint32_t pc_hash, Addr region);
    static std::uint32_t shortKeyOf(std::uint32_t pc_hash,
                                    unsigned offset);

    SpatialParams params_;
    std::vector<ActiveRegion> regions_;
    std::uint64_t regionClock_ = 0;  //!< ticks once per trained access
    std::vector<PhtEntry> pht_;
    std::uint64_t historyClock_ = 0;  //!< ticks per history write/hit
};

} // namespace bouquet

#endif // BOUQUET_PREFETCH_BINGO_HH
