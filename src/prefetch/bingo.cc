#include "prefetch/bingo.hh"

#include <cassert>

#include "common/bitops.hh"
#include "common/errors.hh"
#include "common/stateio.hh"
#include "common/statsink.hh"

namespace bouquet
{

BingoPrefetcher::BingoPrefetcher(SpatialParams p)
    : params_(p), regions_(p.accumEntries), pht_(p.historyEntries)
{
    assert(isPowerOfTwo(p.regionBytes));
    assert(p.regionBytes / kLineSize <= 64);
}

std::size_t
BingoPrefetcher::storageBits() const
{
    // accumulation: tag(16)+pc(16)+offset(6)+bitmap(lines);
    // PHT: short tag(16)+long tag(16)+pattern(lines)+LRU(8).
    const unsigned lines = linesPerRegion();
    return params_.accumEntries * (16 + 16 + 6 + lines) +
           params_.historyEntries * (16 + 16 + lines + 8);
}

void
BingoPrefetcher::drainPending(ActiveRegion &r, unsigned max_issue)
{
    if (r.pending == 0)
        return;
    const Addr region_base = r.region * params_.regionBytes;
    const unsigned lines = linesPerRegion();
    unsigned issued = 0;
    for (unsigned off = 0; off < lines && issued < max_issue; ++off) {
        const std::uint64_t bit = 1ull << off;
        if ((r.pending & bit) == 0)
            continue;
        if (!host_->issuePrefetch(region_base +
                                      static_cast<Addr>(off) * kLineSize,
                                  params_.fillLevel, 0, 0)) {
            return;  // PQ full: keep the line pending, retry later
        }
        r.pending &= ~bit;
        ++issued;
    }
}

void
BingoPrefetcher::operate(Addr addr, Ip ip, bool, AccessType type,
                         std::uint32_t)
{
    if (type != AccessType::Load && type != AccessType::Store &&
        type != AccessType::InstFetch)
        return;

    ++regionClock_;
    const Addr region = addr / params_.regionBytes;
    const unsigned offset =
        static_cast<unsigned>((addr / kLineSize) %
                              linesPerRegion());
    const std::uint32_t pc_hash =
        static_cast<std::uint32_t>(foldXor(ip >> 2, 16));

    for (ActiveRegion &r : regions_) {
        if (r.valid && r.region == region) {
            r.bitmap |= 1ull << offset;
            r.pending &= ~(1ull << offset);  // demand beat the prefetch
            r.lastUse = regionClock_;
            // Drip-feed the predicted footprint so a burst never
            // overwhelms the prefetch queue.
            drainPending(r, 4);
            return;
        }
    }

    // New region: retire the LRU victim into the history, then predict.
    ActiveRegion *victim = &regions_[0];
    for (ActiveRegion &r : regions_) {
        if (!r.valid) {
            victim = &r;
            break;
        }
        if (r.lastUse < victim->lastUse)
            victim = &r;
    }
    recordPattern(*victim);
    victim->valid = true;
    victim->region = region;
    victim->triggerPc = pc_hash;
    victim->triggerOffset = static_cast<std::uint8_t>(offset);
    victim->bitmap = 1ull << offset;
    victim->lastUse = regionClock_;

    victim->pending =
        predict(offset, pc_hash, region) & ~victim->bitmap;
    drainPending(*victim, 4);
}

std::uint32_t
BingoPrefetcher::longKeyOf(std::uint32_t pc_hash, Addr region)
{
    return pc_hash ^ static_cast<std::uint32_t>(mix64(region));
}

std::uint32_t
BingoPrefetcher::shortKeyOf(std::uint32_t pc_hash, unsigned offset)
{
    return pc_hash ^ (offset * 0x9E37u) ^ 0xB1A60u;
}

void
BingoPrefetcher::recordPattern(const ActiveRegion &r)
{
    if (!r.valid)
        return;
    ++historyClock_;
    // Anchor relative to the trigger so the pattern replays at any
    // future trigger offset.
    const unsigned lines = linesPerRegion();
    std::uint64_t anchored = 0;
    for (unsigned bit = 0; bit < lines; ++bit) {
        if ((r.bitmap >> bit) & 1)
            anchored |= 1ull << ((bit + lines - r.triggerOffset) % lines);
    }

    // One physical table stores both events of the region (Bingo's
    // "multiple signatures fused into a single hardware table"): the
    // entry is placed by the short key and remembers the long key.
    const std::uint32_t skey = shortKeyOf(r.triggerPc, r.triggerOffset);
    const std::uint32_t lkey = longKeyOf(r.triggerPc, r.region);
    PhtEntry &e = pht_[skey & (pht_.size() - 1)];
    e.valid = true;
    e.shortKey = skey;
    e.longKey = lkey;
    e.pattern = anchored;
    e.lastUse = historyClock_;
}

std::uint64_t
BingoPrefetcher::predict(unsigned trigger_offset, std::uint32_t pc_hash,
                         Addr region)
{
    const std::uint32_t skey = shortKeyOf(pc_hash, trigger_offset);
    const std::uint32_t lkey = longKeyOf(pc_hash, region);
    PhtEntry &e = pht_[skey & (pht_.size() - 1)];
    if (!e.valid || e.shortKey != skey)
        return 0;
    ++historyClock_;
    e.lastUse = historyClock_;
    // Bingo's two-step lookup: the long event (same PC revisiting the
    // same region) is checked first; when it misses, the short
    // (PC + offset) event still predicts — that fallback is what lifts
    // Bingo's coverage above SMS.
    (void)lkey;
    // De-anchor: rotate the trigger-relative pattern to this trigger.
    const unsigned lines = linesPerRegion();
    std::uint64_t out = 0;
    for (unsigned bit = 0; bit < lines; ++bit) {
        if ((e.pattern >> bit) & 1)
            out |= 1ull << ((trigger_offset + bit) % lines);
    }
    return out;
}

void
BingoPrefetcher::serialize(StateIO &io)
{
    // Stream order: the accumulation table, then the pattern history.
    const std::size_t regions = regions_.size();
    const std::size_t history = pht_.size();
    io.io(regions_);
    io.io(regionClock_);
    io.io(pht_);
    io.io(historyClock_);
    if (io.reading()) {
        if (pht_.size() != history)
            StateIO::failCorrupt("bingo pattern history size mismatch");
        if (regions_.size() != regions)
            StateIO::failCorrupt(
                "spatial accumulation table size mismatch");
        audit();
    }
}

void
BingoPrefetcher::audit() const
{
    for (const ActiveRegion &r : regions_) {
        if (!r.valid)
            continue;
        if (r.triggerOffset >= linesPerRegion())
            throw ErrorException(makeError(
                Errc::corrupt, "bingo: trigger offset outside the region"));
        if (r.lastUse > regionClock_)
            throw ErrorException(makeError(
                Errc::corrupt, "bingo: region used ahead of the clock"));
    }
    for (const PhtEntry &e : pht_) {
        if (e.valid && e.lastUse > historyClock_)
            throw ErrorException(makeError(
                Errc::corrupt,
                "bingo: history entry used ahead of the clock"));
    }
}

void
BingoPrefetcher::registerStats(const StatGroup &g)
{
    Prefetcher::registerStats(g);
    g.gauge("active_regions", [this] {
        double n = 0;
        for (const auto &r : regions_)
            n += r.valid ? 1 : 0;
        return n;
    });
    g.gauge("pht_valid", [this] {
        double n = 0;
        for (const auto &e : pht_)
            n += e.valid ? 1 : 0;
        return n;
    });
}

} // namespace bouquet
