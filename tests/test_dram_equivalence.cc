/**
 * @file
 * Differential test of the DRAM controller. `Dram` decodes each
 * request once and wakes a channel only when its cached completion or
 * start cycle is due; `ScanAllDram` below is the straightforward
 * controller it replaced, which re-decodes and rescans every queue and
 * in-flight list on every tick and every nextWakeup. Both are fed the
 * same seeded stream of reads and writebacks, including bursts that
 * overflow the queues. Every accept verdict, every response (id, line
 * and cycle), every nextWakeup and the final Dram::Stats must agree,
 * and both must serialize to the same bytes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/stateio.hh"
#include "mem/dram.hh"

namespace bouquet
{
namespace
{

/** The scan-everything controller, kept as the test's oracle. */
class ScanAllDram
{
  public:
    explicit ScanAllDram(DramConfig cfg) : config_(cfg)
    {
        channels_.resize(config_.channels);
        for (auto &ch : channels_)
            ch.banks.resize(config_.banksPerChannel);
    }

    bool
    acceptRequest(const MemRequest &req)
    {
        Channel &ch = channels_[req.line % config_.channels];
        if (ch.queue.size() >= config_.queueSize) {
            ++stats_.busyRejects;
            return false;
        }
        ch.queue.push_back(req);
        return true;
    }

    void
    tick(Cycle cycle)
    {
        for (Channel &ch : channels_) {
            if (ch.inflight.empty() && ch.queue.empty())
                continue;
            for (std::size_t i = 0; i < ch.inflight.size();) {
                if (ch.inflight[i].readyAt <= cycle) {
                    const MemRequest req = ch.inflight[i].req;
                    ch.inflight[i] = ch.inflight.back();
                    ch.inflight.pop_back();
                    if (req.requester != nullptr)
                        req.requester->onResponse(req);
                } else {
                    ++i;
                }
            }
            schedule(ch, cycle);
        }
    }

    Cycle
    nextWakeup(Cycle now) const
    {
        Cycle wake = kNeverWakeup;
        const Cycle window = 8 * config_.busCyclesPerLine;
        for (const Channel &ch : channels_) {
            for (const Pending &p : ch.inflight)
                wake = std::min(wake, std::max(p.readyAt, now + 1));
            if (!ch.queue.empty()) {
                Cycle t = kNeverWakeup;
                for (const MemRequest &req : ch.queue)
                    t = std::min(t, ch.banks[bankOf(req.line)].readyAt);
                t = std::max(t, now + 1);
                if (ch.busFreeAt >= t + window)
                    t = ch.busFreeAt - window + 1;
                wake = std::min(wake, t);
            }
        }
        return wake;
    }

    const Dram::Stats &stats() const { return stats_; }

    /** The checkpoint layout Dram::serialize must keep writing. */
    void
    serialize(StateIO &io)
    {
        std::uint32_t n = static_cast<std::uint32_t>(channels_.size());
        io.io(n);
        for (auto &ch : channels_) {
            io.io(ch.queue);
            io.io(ch.banks);
            io.io(ch.busFreeAt);
            io.io(ch.inflight);
        }
        stats_.serialize(io);
    }

  private:
    struct Pending
    {
        MemRequest req;
        Cycle readyAt;

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

    struct Channel
    {
        std::deque<MemRequest> queue;
        std::vector<Bank> banks;
        Cycle busFreeAt = 0;
        std::vector<Pending> inflight;
    };

    unsigned
    bankOf(LineAddr line) const
    {
        const std::uint64_t lines_per_row = config_.rowBytes / kLineSize;
        return static_cast<unsigned>((line / config_.channels /
                                      lines_per_row) %
                                     config_.banksPerChannel);
    }

    std::uint64_t
    rowOf(LineAddr line) const
    {
        const std::uint64_t lines_per_row = config_.rowBytes / kLineSize;
        return line / config_.channels / lines_per_row /
               config_.banksPerChannel;
    }

    void
    schedule(Channel &ch, Cycle now)
    {
        const Cycle window = now + 8 * config_.busCyclesPerLine;
        unsigned started = 0;
        while (!ch.queue.empty() && started < 4 && ch.busFreeAt < window) {
            std::size_t pick = ch.queue.size();
            std::size_t fallback = ch.queue.size();
            for (std::size_t i = 0; i < ch.queue.size(); ++i) {
                const Bank &b = ch.banks[bankOf(ch.queue[i].line)];
                if (b.readyAt > now)
                    continue;
                if (b.openRow == rowOf(ch.queue[i].line)) {
                    pick = i;
                    break;
                }
                if (fallback == ch.queue.size())
                    fallback = i;
            }
            if (pick == ch.queue.size())
                pick = fallback;
            if (pick == ch.queue.size())
                return;

            MemRequest req = ch.queue[pick];
            ch.queue.erase(ch.queue.begin() +
                           static_cast<std::ptrdiff_t>(pick));
            Bank &bank = ch.banks[bankOf(req.line)];
            const bool row_hit = bank.openRow == rowOf(req.line);
            const Cycle access = row_hit ? config_.rowHitLatency
                                         : config_.rowMissLatency;
            row_hit ? ++stats_.rowHits : ++stats_.rowMisses;
            const Cycle data_start = std::max(now + access, ch.busFreeAt);
            const Cycle done = data_start + config_.busCyclesPerLine;
            ch.busFreeAt = done;
            stats_.dataCycles += config_.busCyclesPerLine;
            bank.openRow = rowOf(req.line);
            bank.readyAt = row_hit ? now + 4 : now + access;
            if (req.type == AccessType::Writeback) {
                ++stats_.writes;
            } else {
                ++stats_.reads;
                ch.inflight.push_back(
                    {req, done + config_.controllerLatency});
            }
            ++started;
        }
    }

    DramConfig config_;
    std::vector<Channel> channels_;
    Dram::Stats stats_;
};

/** One response as observed by the requester. */
struct Seen
{
    std::uint64_t id;
    LineAddr line;
    Cycle cycle;

    bool operator==(const Seen &) const = default;
};

/** Logs each response with the cycle of the tick that delivered it. */
class LogTarget : public RespTarget
{
  public:
    explicit LogTarget(const Cycle &clock) : clock_(clock) {}

    void
    onResponse(const MemRequest &req) override
    {
        seen.push_back({req.id, req.line, clock_});
    }

    std::vector<Seen> seen;

  private:
    const Cycle &clock_;
};

/**
 * Seeded request stream: quiet and bursty phases (bursts overflow the
 * queues), mixing four sequential streams (row hits), a hot region of
 * a few rows per bank (bank conflicts) and scattered far lines.
 */
class Traffic
{
  public:
    explicit Traffic(std::uint64_t seed) : rng_(seed)
    {
        for (LineAddr &s : streams_)
            s = rng_.below(1ull << 26);
    }

    /** Requests arriving at `cycle` (requester left unset). */
    std::vector<MemRequest>
    arrivals(Cycle cycle)
    {
        std::vector<MemRequest> out;
        const bool burst = (cycle / 1500) % 3 == 1;
        if (!rng_.chance(burst ? 0.6 : 0.04))
            return out;
        const unsigned n = 1 + static_cast<unsigned>(rng_.below(3));
        for (unsigned i = 0; i < n; ++i) {
            MemRequest r;
            const std::uint64_t where = rng_.below(10);
            if (where < 5)
                r.line = streams_[rng_.below(streams_.size())]++;
            else if (where < 8)
                r.line = rng_.below(4096);
            else
                r.line = rng_.below(1ull << 34);
            const std::uint64_t kind = rng_.below(20);
            r.type = kind < 5    ? AccessType::Writeback
                     : kind < 12 ? AccessType::Load
                     : kind < 16 ? AccessType::Prefetch
                                 : AccessType::Store;
            r.id = ++nextId_;
            out.push_back(r);
        }
        return out;
    }

  private:
    Rng rng_;
    std::array<LineAddr, 4> streams_{};
    std::uint64_t nextId_ = 0;
};

struct Geometry
{
    unsigned channels;
    Cycle busCyclesPerLine;
    unsigned banksPerChannel = 8;
    unsigned rowBytes = 8192;
};

std::string
describe(const Geometry &g, std::uint64_t seed)
{
    return std::to_string(g.channels) + " channel(s), " +
           std::to_string(g.busCyclesPerLine) + " bus cycles/line, " +
           std::to_string(g.banksPerChannel) + " banks, " +
           std::to_string(g.rowBytes) + " B rows, seed " +
           std::to_string(seed);
}

template <typename Controller>
std::vector<std::uint8_t>
save(Controller &d, RespTarget *t)
{
    StateIO io = StateIO::writer();
    io.registerTarget(t);
    d.serialize(io);
    return io.takeBuffer();
}

/**
 * Drive both controllers for `cycles` cycles of traffic plus a drain.
 * The oracle ticks every cycle; `Dram` ticks every cycle or, with
 * `every_cycle` false, only at the cycle its nextWakeup named. Each
 * cycle ticks first and accepts that cycle's arrivals after, the
 * order System::tickAll gives the LLC's requests. Halfway through,
 * `Dram` is checkpointed and replaced by a fresh one loaded from the
 * checkpoint.
 */
void
runDifferential(const Geometry &g, std::uint64_t seed, bool every_cycle)
{
    SCOPED_TRACE(describe(g, seed) +
                 (every_cycle ? ", ticking every cycle"
                              : ", ticking at nextWakeup"));
    DramConfig cfg;
    cfg.channels = g.channels;
    cfg.busCyclesPerLine = g.busCyclesPerLine;
    cfg.banksPerChannel = g.banksPerChannel;
    cfg.rowBytes = g.rowBytes;
    cfg.queueSize = 16;

    Cycle clock = 0;
    LogTarget ref_target(clock);
    LogTarget dut_target(clock);
    ScanAllDram ref(cfg);
    auto dut = std::make_unique<Dram>(cfg);
    Traffic traffic(seed);

    const Cycle traffic_cycles = 30'000;
    const Cycle restore_at = traffic_cycles / 2;
    const Cycle limit = traffic_cycles + 200'000;
    Cycle dut_wake = 0;
    std::uint64_t rejects = 0;
    std::uint64_t dut_ticks = 0;

    for (clock = 0; clock < limit; ++clock) {
        ref.tick(clock);
        if (every_cycle || clock >= dut_wake) {
            dut->tick(clock);
            ++dut_ticks;
        }
        if (clock < traffic_cycles) {
            for (MemRequest r : traffic.arrivals(clock)) {
                // A few reads nobody waits for, like a dropped prefetch.
                const bool silent = r.type == AccessType::Writeback ||
                                    r.id % 17 == 0;
                r.requester = silent ? nullptr : &ref_target;
                const bool ref_ok = ref.acceptRequest(r);
                r.requester = silent ? nullptr : &dut_target;
                ASSERT_EQ(dut->acceptRequest(r), ref_ok)
                    << "accept verdict for request " << r.id
                    << " at cycle " << clock;
                rejects += ref_ok ? 0 : 1;
            }
        }
        if (clock == restore_at) {
            const std::vector<std::uint8_t> bytes = save(*dut, &dut_target);
            ASSERT_EQ(bytes, save(ref, &ref_target))
                << "checkpoint bytes differ from the scan-all layout";
            auto fresh = std::make_unique<Dram>(cfg);
            StateIO io = StateIO::reader(bytes);
            io.registerTarget(&dut_target);
            fresh->serialize(io);
            io.expectEnd();
            dut = std::move(fresh);
        }
        ASSERT_NO_THROW(dut->audit()) << "at cycle " << clock;
        dut_wake = dut->nextWakeup(clock);
        ASSERT_EQ(dut_wake, ref.nextWakeup(clock))
            << "nextWakeup after cycle " << clock;
        ASSERT_EQ(dut_target.seen.size(), ref_target.seen.size())
            << "response count after cycle " << clock;
        if (clock >= traffic_cycles && dut_wake == kNeverWakeup)
            break;
    }
    ASSERT_LT(clock, limit) << "controllers never drained";

    EXPECT_EQ(dut_target.seen, ref_target.seen);
    const Dram::Stats &a = dut->stats();
    const Dram::Stats &b = ref.stats();
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.rowHits, b.rowHits);
    EXPECT_EQ(a.rowMisses, b.rowMisses);
    EXPECT_EQ(a.busyRejects, b.busyRejects);
    EXPECT_EQ(a.dataCycles, b.dataCycles);

    // The stream must have exercised what it is meant to cover.
    EXPECT_GT(rejects, 0u) << "no queue-full reject";
    EXPECT_GT(b.rowHits, 0u);
    EXPECT_GT(b.rowMisses, 0u);
    EXPECT_GT(ref_target.seen.size(), 200u);
    if (!every_cycle) {
        EXPECT_LT(dut_ticks, clock / 2)
            << "ticking at nextWakeup skipped too few cycles";
    }
}

/** §VI-C's 25, 12.8 and 3.2 GB/s per channel, on 1 and 2 channels,
 *  plus a geometry with no power-of-two dimension. */
const std::vector<Geometry> &
geometries()
{
    static const std::vector<Geometry> g = {
        {1, 10}, {1, 20}, {1, 80}, {2, 10}, {2, 20}, {2, 80},
        {3, 20, 5, 2048},
    };
    return g;
}

TEST(DramEquivalence, MatchesScanAllControllerTickingEveryCycle)
{
    for (const Geometry &g : geometries())
        for (std::uint64_t seed : {1u, 2u})
            runDifferential(g, seed, true);
}

TEST(DramEquivalence, MatchesScanAllControllerTickingAtNextWakeup)
{
    for (const Geometry &g : geometries())
        for (std::uint64_t seed : {1u, 2u})
            runDifferential(g, seed, false);
}

} // namespace
} // namespace bouquet
