#include "mem/dram.hh"

#include <algorithm>
#include <cassert>
#include <string>

#include "common/bitops.hh"
#include "common/errors.hh"
#include "common/statsink.hh"

namespace bouquet
{

Dram::Dram(DramConfig cfg) : config_(cfg)
{
    assert(config_.channels >= 1);
    channels_.resize(config_.channels);
    for (auto &ch : channels_)
        ch.banks.resize(config_.banksPerChannel);
}

void
Dram::registerStats(const StatGroup &g)
{
    g.counter("reads", stats_.reads);
    g.counter("writes", stats_.writes);
    g.counter("row_hits", stats_.rowHits);
    g.counter("row_misses", stats_.rowMisses);
    g.counter("busy_rejects", stats_.busyRejects);
    g.counter("data_cycles", stats_.dataCycles);
    g.counter("bytes_transferred", [this] { return bytesTransferred(); });
    g.onReset([this] { stats_.reset(); });
}

unsigned
Dram::channelOf(LineAddr line) const
{
    // Channel interleaving at line granularity spreads bandwidth.
    return static_cast<unsigned>(line % config_.channels);
}

void
Dram::decode(Queued &q) const
{
    const std::uint64_t lines_per_row = config_.rowBytes / kLineSize;
    const std::uint64_t row_index =
        q.req.line / config_.channels / lines_per_row;
    q.bank = static_cast<unsigned>(row_index % config_.banksPerChannel);
    q.row = row_index / config_.banksPerChannel;
}

Cycle
Dram::windowOpensAt(const Channel &ch) const
{
    // schedule() starts nothing unless busFreeAt < now + window.
    const Cycle window = 8 * config_.busCyclesPerLine;
    return ch.busFreeAt + 1 > window ? ch.busFreeAt + 1 - window : 0;
}

Cycle
Dram::startCycle(const Channel &ch) const
{
    Cycle ready = kNeverWakeup;  // stays so for an empty queue
    for (const Queued &q : ch.queue)
        ready = std::min(ready, ch.banks[q.bank].readyAt);
    return std::max(ready, windowOpensAt(ch));
}

Cycle
Dram::doneCycle(const Channel &ch)
{
    Cycle done = kNeverWakeup;
    for (const Pending &p : ch.inflight)
        done = std::min(done, p.readyAt);
    return done;
}

bool
Dram::acceptRequest(const MemRequest &req)
{
    Channel &ch = channels_[channelOf(req.line)];
    if (ch.queue.size() >= config_.queueSize) {
        ++stats_.busyRejects;
        return false;
    }
    Queued &q = ch.queue.emplace_back();
    q.req = req;
    decode(q);
    ch.nextStart = std::min(
        ch.nextStart,
        std::max(ch.banks[q.bank].readyAt, windowOpensAt(ch)));
    return true;
}

void
Dram::schedule(Channel &ch, Cycle now)
{
    // Issue commands ahead so bank activations overlap with other
    // banks' data transfers: the bus serializes only the data beats.
    // Cap the command-issue window so latency stays realistic.
    const Cycle window = now + 8 * config_.busCyclesPerLine;
    unsigned started = 0;

    while (!ch.queue.empty() && started < 4 && ch.busFreeAt < window) {
        // FR-FCFS: the oldest row-hit whose bank is ready; else the
        // oldest request with a ready bank. One pass finds both — the
        // fallback is the first ready bank seen before a row hit.
        std::size_t pick = ch.queue.size();
        std::size_t fallback = ch.queue.size();
        for (std::size_t i = 0; i < ch.queue.size(); ++i) {
            const Bank &b = ch.banks[ch.queue[i].bank];
            if (b.readyAt > now)
                continue;
            if (b.openRow == ch.queue[i].row) {
                pick = i;
                break;
            }
            if (fallback == ch.queue.size())
                fallback = i;
        }
        if (pick == ch.queue.size())
            pick = fallback;
        if (pick == ch.queue.size())
            break;  // all banks busy

        const Queued q = ch.queue[pick];
        ch.queue.erase(ch.queue.begin() +
                       static_cast<std::ptrdiff_t>(pick));

        Bank &bank = ch.banks[q.bank];
        const bool row_hit = bank.openRow == q.row;
        const Cycle access = row_hit ? config_.rowHitLatency
                                     : config_.rowMissLatency;
        row_hit ? ++stats_.rowHits : ++stats_.rowMisses;

        const Cycle data_start = std::max(now + access, ch.busFreeAt);
        const Cycle done = data_start + config_.busCyclesPerLine;
        ch.busFreeAt = done;
        stats_.dataCycles += config_.busCyclesPerLine;
        bank.openRow = q.row;
        // Same-row reads pipeline at tCCD; a row miss occupies the bank
        // for the precharge/activate window. The bus gate serializes
        // the data beats either way.
        bank.readyAt = row_hit ? now + 4 : now + access;

        if (q.req.type == AccessType::Writeback) {
            ++stats_.writes;
            // Writes complete silently.
        } else {
            ++stats_.reads;
            const Cycle ready = done + config_.controllerLatency;
            ch.inflight.push_back({q.req, ready});
            ch.nextDone = std::min(ch.nextDone, ready);
        }
        ++started;
    }
    ch.nextStart = startCycle(ch);
}

void
Dram::complete(Channel &ch, Cycle now)
{
    // Swap-removal: the in-flight order is checkpointed state, so the
    // scan order must stay exactly this one.
    Cycle next = kNeverWakeup;
    for (std::size_t i = 0; i < ch.inflight.size();) {
        if (ch.inflight[i].readyAt <= now) {
            const MemRequest req = ch.inflight[i].req;
            ch.inflight[i] = ch.inflight.back();
            ch.inflight.pop_back();
            if (req.requester != nullptr)
                req.requester->onResponse(req);
        } else {
            next = std::min(next, ch.inflight[i].readyAt);
            ++i;
        }
    }
    ch.nextDone = next;
}

void
Dram::tick(Cycle cycle)
{
    // Each channel works only when its cached completion or start
    // cycle is due; before that both passes would be no-ops.
    for (Channel &ch : channels_) {
        if (cycle >= ch.nextDone)
            complete(ch, cycle);
        // Read after the completions: a response handler may have
        // queued a writeback on this channel.
        if (cycle >= ch.nextStart)
            schedule(ch, cycle);
    }
}

void
Dram::rederive()
{
    for (Channel &ch : channels_) {
        for (Queued &q : ch.queue)
            decode(q);
        ch.nextDone = doneCycle(ch);
        ch.nextStart = startCycle(ch);
    }
}

void
Dram::audit() const
{
    for (std::size_t c = 0; c < channels_.size(); ++c) {
        const Channel &ch = channels_[c];
        auto fail = [c](const char *what) {
            throw ErrorException(makeError(
                Errc::corrupt,
                "DRAM channel " + std::to_string(c) + " " + what));
        };
        if (ch.queue.size() > config_.queueSize)
            fail("queue overflows its bound");
        if (ch.banks.size() != config_.banksPerChannel)
            fail("bank count mismatch");
        for (const Queued &q : ch.queue) {
            Queued fresh = q;
            decode(fresh);
            if (channelOf(q.req.line) != c)
                fail("queues a request of another channel");
            if (fresh.bank != q.bank || fresh.row != q.row)
                fail("holds a stale bank/row decode");
        }
        if (ch.nextDone != doneCycle(ch))
            fail("cached completion cycle is stale");
        if (ch.nextStart != startCycle(ch))
            fail("cached start cycle is stale");
    }
}

Cycle
Dram::nextWakeup(Cycle now) const
{
    Cycle wake = kNeverWakeup;
    for (const Channel &ch : channels_)
        wake = std::min({wake, ch.nextDone, ch.nextStart});
    return std::max(wake, now + 1);
}

} // namespace bouquet
