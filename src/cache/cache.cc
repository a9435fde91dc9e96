#include "cache/cache.hh"

#include <algorithm>
#include <cassert>
#include <string>

#include "common/bitops.hh"
#include "common/errors.hh"
#include "common/faultinject.hh"
#include "common/stateio.hh"
#include "common/statsink.hh"
#include "common/tracer.hh"

namespace bouquet
{

std::uint64_t
CacheStats::demandAccesses() const
{
    return accesses[static_cast<int>(AccessType::Load)] +
           accesses[static_cast<int>(AccessType::Store)] +
           accesses[static_cast<int>(AccessType::InstFetch)];
}

std::uint64_t
CacheStats::demandHits() const
{
    return hits[static_cast<int>(AccessType::Load)] +
           hits[static_cast<int>(AccessType::Store)] +
           hits[static_cast<int>(AccessType::InstFetch)];
}

std::uint64_t
CacheStats::demandMisses() const
{
    return misses[static_cast<int>(AccessType::Load)] +
           misses[static_cast<int>(AccessType::Store)] +
           misses[static_cast<int>(AccessType::InstFetch)];
}

namespace
{

bool
isDemand(AccessType t)
{
    return t == AccessType::Load || t == AccessType::Store ||
           t == AccessType::InstFetch;
}

} // namespace

Cache::Cache(CacheConfig cfg, std::uint64_t repl_seed)
    : config_(std::move(cfg)),
      tags_(static_cast<std::size_t>(config_.sets) * config_.ways,
            kInvalidTag),
      meta_(tags_.size(), 0),
      pfClass_(tags_.size(), 0),
      validCount_(config_.sets, 0),
      repl_(makeReplacement(config_.repl, config_.sets, config_.ways,
                            repl_seed)),
      prefetcher_(std::make_unique<NoPrefetcher>()),
      rq_(config_.rqSize),
      wq_(config_.wqSize),
      pq_(config_.pqSize),
      ipq_(config_.pqSize),
      mshrIndex_(config_.mshrs),
      outbound_(config_.mshrs + 8),
      allValid_(config_.ways, true)
{
    assert(isPowerOfTwo(config_.sets));
    assert(config_.ways < 255);  // validCount_ is a byte per set
    mshrs_.reserve(config_.mshrs);
    mshrLine_.reserve(config_.mshrs);
    mshrSent_.reserve(config_.mshrs);
    replScratch_.reserve(config_.ways);
}

void
Cache::setPrefetcher(std::unique_ptr<Prefetcher> pf)
{
    prefetcher_ = std::move(pf);
    prefetcher_->setHost(this);
    pfNeedsCycle_ = prefetcher_->needsCycle();
}

std::uint32_t
Cache::setOf(LineAddr line) const
{
    return static_cast<std::uint32_t>(line & (config_.sets - 1));
}

std::size_t
Cache::findWay(LineAddr line) const
{
    const std::size_t base =
        static_cast<std::size_t>(setOf(line)) * config_.ways;
    const LineAddr *p = &tags_[base];
    for (std::uint32_t w = 0; w < config_.ways; ++w) {
        if (p[w] == line)
            return base + w;
    }
    return kNoWay;
}

bool
Cache::probe(LineAddr line) const
{
    return findWay(line) != kNoWay;
}

std::uint32_t
Cache::findMshr(LineAddr line) const
{
    return mshrIndex_.find(line);
}

std::uint32_t
Cache::pushMshr(Mshr &&fresh, LineAddr line, bool sent)
{
    if (!sent)
        ++unsentMshrs_;
    const std::uint32_t slot = static_cast<std::uint32_t>(mshrs_.size());
    mshrIndex_.insert(line, slot);
    mshrs_.push_back(std::move(fresh));
    mshrLine_.push_back(line);
    mshrSent_.push_back(sent ? 1 : 0);
    return slot;
}

std::uint64_t
Cache::demandMisses() const
{
    return stats_.demandMisses();
}

std::uint64_t
Cache::retiredInstructions() const
{
    return instrSource_ ? instrSource_() : 0;
}

bool
Cache::acceptRequest(const MemRequest &req)
{
    if (req.type == AccessType::Writeback) {
        if (wq_.size() >= config_.wqSize) {
            ++stats_.wbDropped;
            return false;
        }
        wq_.push_back(req, now_ + config_.latency);
        return true;
    }
    if (req.type == AccessType::Prefetch) {
        // Arriving prefetches occupy this cache's PQ (ChampSim-style):
        // rejecting on a full PQ is the backpressure the paper's
        // multi-level discussion relies on.
        if (pqOccupancy() >= config_.pqSize)
            return false;
        ipq_.push_back(req, now_ + config_.latency);
        return true;
    }
    if (rq_.size() >= config_.rqSize)
        return false;
    rq_.push_back(req, now_ + config_.latency);
    return true;
}

void
Cache::notifyPrefetcher(const MemRequest &req, bool hit)
{
    // L1 prefetchers train on virtual addresses (VIPT L1); lower levels
    // see physical addresses only.
    const bool is_l1 = config_.level == CacheLevel::L1D ||
                       config_.level == CacheLevel::L1I;
    const Addr addr = (is_l1 && req.vaddr != 0) ? req.vaddr
                                                : lineToByte(req.line);
    operateIp_ = req.ip;
    prefetcher_->operate(addr, req.ip, hit, req.type, req.metadata);
}

void
Cache::handleLookup(const MemRequest &req)
{
    const int t = static_cast<int>(req.type);
    ++stats_.accesses[t];

    const std::size_t idx = findWay(req.line);
    const bool hit = idx != kNoWay;

    notifyPrefetcher(req, hit);

    if (hit) {
        ++stats_.hits[t];
        if (isDemand(req.type)) {
            const std::uint32_t set = setOf(req.line);
            repl_->touch(set,
                         static_cast<std::uint32_t>(
                             idx - static_cast<std::size_t>(set) *
                                       config_.ways),
                         req.ip);
            const std::uint8_t m = meta_[idx];
            if ((m & (kLinePrefetched | kLineReused)) ==
                kLinePrefetched) {
                meta_[idx] = m | kLineReused;
                ++stats_.pfUseful;
                ++stats_.pfClassUseful[pfClass_[idx] % kPfClassSlots];
                if (tracer_)
                    tracer_->record(TraceEventKind::PfUseful,
                                    traceTrack_, now_, req.line,
                                    pfClass_[idx]);
                prefetcher_->onPrefetchUseful(lineToByte(req.line),
                                              pfClass_[idx]);
            }
            if (req.type == AccessType::Store)
                meta_[idx] |= kLineDirty;
        }
        if (req.requester != nullptr)
            req.requester->onResponse(req);
        return;
    }

    const std::uint32_t slot = findMshr(req.line);
    if (slot == MshrIndex::kNone)
        ++stats_.misses[t];  // merged requests are not fresh line misses

    if (slot != MshrIndex::kNone) {
        Mshr &m = mshrs_[slot];
        if (isDemand(req.type)) {
            ++stats_.mshrMerges;
            if (m.pfOrigin && !m.demandMerged) {
                // A demand caught up with an in-flight prefetch: the
                // prefetch was useful but late (ChampSim's pf_late).
                ++stats_.latePrefetches;
                ++stats_.pfClassLate[m.pfClass % kPfClassSlots];
                ++stats_.pfUseful;
                ++stats_.pfClassUseful[m.pfClass % kPfClassSlots];
                if (tracer_)
                    tracer_->record(TraceEventKind::PfLate, traceTrack_,
                                    now_, req.line, m.pfClass);
                prefetcher_->onPrefetchUseful(lineToByte(req.line),
                                              m.pfClass);
            }
            m.demandMerged = true;
            if (req.type == AccessType::Store)
                m.proto.type = AccessType::Store;
        }
        if (req.requester != nullptr)
            m.targets.push_back(req);
        return;
    }

    // Allocate a new MSHR. Callers guarantee capacity for demand
    // requests (processReadQueue stalls otherwise); arriving prefetches
    // are dropped when no MSHR is free.
    assert(mshrs_.size() < config_.mshrs);
    Mshr fresh;
    fresh.allocCycle = now_;
    fresh.pfOrigin = req.type == AccessType::Prefetch;
    fresh.pfClass = req.pfClass;
    fresh.proto = req;
    fresh.proto.requester = this;
    if (req.requester != nullptr)
        fresh.targets.push_back(req);
    // Deferred egress: the MSHR starts unsent and flushEgress's unsent
    // scan performs the downstream send in allocation order.
    const bool sent = !deferActive_ && lower_ != nullptr &&
                      lower_->acceptRequest(fresh.proto);
    pushMshr(std::move(fresh), req.line, sent);
}

void
Cache::processReadQueue()
{
    const bool was_stalled = rqHeadStalled_;
    rqHeadStalled_ = false;
    std::uint32_t lookups = 0;
    while (!rq_.empty() && rq_.frontStamp() <= now_ &&
           lookups < config_.ports) {
        const MemRequest &req = rq_.front();
        const bool miss_needs_mshr =
            findWay(req.line) == kNoWay &&
            findMshr(req.line) == MshrIndex::kNone;
        if (miss_needs_mshr && mshrs_.size() >= config_.mshrs) {
            ++stats_.mshrFullStalls;
            rqHeadStalled_ = true;
            // One event per stall episode, not per stalled cycle.
            if (tracer_ && !was_stalled)
                tracer_->record(TraceEventKind::MshrStall, traceTrack_,
                                now_, req.line);
            break;  // head-of-line blocking until an MSHR frees up
        }
        MemRequest r = req;
        rq_.pop_front();
        ++lookups;
        handleLookup(r);
    }
}

bool
Cache::handleIncomingPrefetch(const MemRequest &req)
{
    // A prefetch whose fill target is deeper than this cache simply
    // passes through without touching local state.
    if (static_cast<int>(req.fillLevel) > static_cast<int>(config_.level))
        return lower_ != nullptr && lower_->acceptRequest(req);

    const bool hit = findWay(req.line) != kNoWay;
    const std::uint32_t slot = hit ? MshrIndex::kNone : findMshr(req.line);

    // Reject before any accounting or prefetcher training so a stalled
    // head retries side-effect-free — that makes a blocked ipq head
    // skippable (nextWakeup can wait for the freeing response).
    if (!hit && slot == MshrIndex::kNone && mshrs_.size() >= config_.mshrs)
        return false;

    const int t = static_cast<int>(AccessType::Prefetch);
    ++stats_.accesses[t];
    notifyPrefetcher(req, hit);

    if (hit) {
        ++stats_.hits[t];
        if (req.requester != nullptr)
            req.requester->onResponse(req);
        return true;
    }

    ++stats_.misses[t];

    if (slot != MshrIndex::kNone) {
        if (req.requester != nullptr)
            mshrs_[slot].targets.push_back(req);
        return true;
    }

    Mshr fresh;
    fresh.allocCycle = now_;
    fresh.pfOrigin = true;
    fresh.pfClass = req.pfClass;
    fresh.proto = req;
    fresh.proto.requester = this;
    if (req.requester != nullptr)
        fresh.targets.push_back(req);
    const bool sent = !deferActive_ && lower_ != nullptr &&
                      lower_->acceptRequest(fresh.proto);
    pushMshr(std::move(fresh), req.line, sent);
    return true;
}

void
Cache::processWriteQueue()
{
    std::uint32_t writes = 0;
    while (!wq_.empty() && wq_.frontStamp() <= now_ && writes < 2) {
        MemRequest req = wq_.front();
        wq_.pop_front();
        ++writes;
        handleWriteback(req);
    }
}

void
Cache::handleWriteback(const MemRequest &req)
{
    const std::size_t idx = findWay(req.line);
    if (idx != kNoWay) {
        meta_[idx] |= kLineDirty;
        return;
    }
    // Non-inclusive hierarchy: a writeback from above allocates here
    // (no fetch needed, the data is the payload).
    installLine(req, false, 0);
    const std::size_t filled = findWay(req.line);
    if (filled != kNoWay)
        meta_[filled] |= kLineDirty;
}

void
Cache::installLine(const MemRequest &req, bool was_prefetch,
                   std::uint8_t pf_class)
{
    const std::uint32_t set = setOf(req.line);
    const std::size_t base =
        static_cast<std::size_t>(set) * config_.ways;

    std::uint32_t way;
    if (validCount_[set] == config_.ways) {
        // Steady state: the set is full and stays full, so the valid
        // mask is a constant — no per-fill rebuild.
        way = repl_->victim(set, allValid_);
    } else {
        replScratch_.assign(config_.ways, false);
        for (std::uint32_t w = 0; w < config_.ways; ++w)
            replScratch_[w] = (meta_[base + w] & kLineValid) != 0;
        way = repl_->victim(set, replScratch_);
    }
    const std::size_t idx = base + way;

    const std::uint8_t vm = meta_[idx];
    if (vm & kLineValid) {
        if ((vm & (kLinePrefetched | kLineReused)) == kLinePrefetched) {
            ++stats_.pfUnused;
            ++stats_.pfClassUnused[pfClass_[idx] % kPfClassSlots];
        }
        if (vm & kLineDirty) {
            ++stats_.writebacks;
            MemRequest wb;
            wb.line = tags_[idx];
            wb.type = AccessType::Writeback;
            wb.core = req.core;
            outbound_.push_back(wb);
        }
    } else {
        ++validCount_[set];
    }

    tags_[idx] = req.line;
    meta_[idx] = static_cast<std::uint8_t>(
        kLineValid |
        (req.type == AccessType::Store ? kLineDirty : 0) |
        (was_prefetch ? kLinePrefetched : 0));
    pfClass_[idx] = pf_class;
    repl_->fill(set, way, req.ip, was_prefetch);
}

void
Cache::onResponse(const MemRequest &req)
{
    if (freezeGroup_ != nullptr)
        freezeGroup_->thaw();
    const std::uint32_t slot = findMshr(req.line);
    if (slot == MshrIndex::kNone)
        return;  // stray response (only possible after stats reset)
    Mshr &m = mshrs_[slot];

    stats_.missLatencySum += now_ - m.allocCycle;
    ++stats_.missLatencyCount;

    // Injection point for deep in-simulation faults: a fired
    // `cache.fill` fault unwinds out of the whole simulation and is
    // contained by the Runner's per-job capture.
    faultPoint(faults::kCacheFill, config_.name);

    const bool pf_fill = m.pfOrigin;
    if (pf_fill) {
        ++stats_.pfFills;
        ++stats_.pfClassFills[m.pfClass % kPfClassSlots];
        if (tracer_)
            tracer_->record(TraceEventKind::PfFill, traceTrack_, now_,
                            req.line, m.pfClass);
    }
    // A prefetch that a demand already merged into is installed as a
    // demand line (it has been "used"); a pure prefetch carries its
    // class bits for later attribution.
    const bool install_as_pf = pf_fill && !m.demandMerged;
    installLine(m.proto, install_as_pf, m.pfClass);

    prefetcher_->onFill(lineToByte(req.line), pf_fill, m.pfClass);

    for (const MemRequest &t : m.targets) {
        if (t.requester != nullptr)
            t.requester->onResponse(t);
    }

    // Swap-remove, keeping the line index pointed at the moved entry.
    mshrIndex_.erase(mshrLine_[slot]);
    if (mshrSent_[slot] == 0)
        --unsentMshrs_;
    const std::uint32_t last =
        static_cast<std::uint32_t>(mshrs_.size() - 1);
    if (slot != last) {
        mshrs_[slot] = std::move(mshrs_[last]);
        mshrLine_[slot] = mshrLine_[last];
        mshrSent_[slot] = mshrSent_[last];
        mshrIndex_.update(mshrLine_[slot], slot);
    }
    mshrs_.pop_back();
    mshrLine_.pop_back();
    mshrSent_.pop_back();
}

bool
Cache::issuePrefetch(Addr byte_addr, CacheLevel fill_level,
                     std::uint32_t metadata, std::uint8_t pf_class)
{
    ++stats_.pfRequested;
    if (pq_.size() >= config_.pqSize) {
        ++stats_.pfDroppedFull;
        return false;
    }
    pq_.push_back({byte_addr, fill_level, metadata, pf_class,
                   operateIp_},
                  now_ + 1);
    return true;
}

void
Cache::processPrefetchQueue()
{
    pqHeadBlocked_ = false;
    ipqHeadBlocked_ = false;
    // Prefetch arrivals from the level above first: they are older.
    std::uint32_t incoming = 0;
    if (!runIncomingPrefetches(incoming)) {
        egSuspended_ = true;
        egStage_ = 0;
        egCount_ = incoming;
        return;
    }
    std::uint32_t issued = 0;
    if (!runOwnPrefetches(issued)) {
        egSuspended_ = true;
        egStage_ = 1;
        egCount_ = issued;
    }
}

void
Cache::resumePrefetchQueue()
{
    // deferActive_ is off again: every lower-level call from here is
    // direct, so neither half can re-suspend.
    if (egStage_ == 0) {
        std::uint32_t incoming = egCount_;
        runIncomingPrefetches(incoming);
        std::uint32_t issued = 0;
        runOwnPrefetches(issued);
        return;
    }
    std::uint32_t issued = egCount_;
    runOwnPrefetches(issued);
}

bool
Cache::runIncomingPrefetches(std::uint32_t &incoming)
{
    while (!ipq_.empty() && ipq_.frontStamp() <= now_ &&
           incoming < config_.pfIssuePerCycle) {
        // A passthrough entry (fill target below this level) needs the
        // lower level's synchronous accept/reject; under deferral the
        // loop suspends here and flushEgress resumes it.
        if (deferActive_ &&
            static_cast<int>(ipq_.front().fillLevel) >
                static_cast<int>(config_.level))
            return false;
        if (!handleIncomingPrefetch(ipq_.front())) {
            // Backpressure (MSHR full / lower refused the handoff):
            // the retry is side-effect-free, so the head waits for the
            // external event that frees the resource.
            ipqHeadBlocked_ = true;
            break;
        }
        ipq_.pop_front();
        ++incoming;
    }
    return true;
}

bool
Cache::runOwnPrefetches(std::uint32_t &issued)
{
    while (!pq_.empty() && pq_.frontStamp() <= now_ &&
           issued < config_.pfIssuePerCycle) {
        const PqEntry e = pq_.front();

        const Addr pa = translator_ ? translator_(e.byteAddr)
                                    : e.byteAddr;
        const LineAddr line = lineAddr(pa);

        if (probe(line)) {
            ++stats_.pfDroppedHitCache;
            pq_.pop_front();
            continue;
        }
        if (findMshr(line) != MshrIndex::kNone) {
            ++stats_.pfDroppedHitMshr;
            pq_.pop_front();
            continue;
        }

        MemRequest req;
        req.line = line;
        req.vaddr = e.byteAddr;
        req.ip = e.triggerIp;
        req.type = AccessType::Prefetch;
        req.metadata = e.metadata;
        req.pfClass = e.pfClass;
        req.fillLevel = e.fillLevel;

        if (e.fillLevel == config_.level) {
            if (mshrs_.size() >= config_.mshrs) {
                pqHeadBlocked_ = true;
                break;  // retry next cycle
            }
            Mshr fresh;
            fresh.allocCycle = now_;
            fresh.pfOrigin = true;
            fresh.pfClass = e.pfClass;
            req.requester = this;
            fresh.proto = req;
            const bool sent = !deferActive_ && lower_ != nullptr &&
                              lower_->acceptRequest(fresh.proto);
            pushMshr(std::move(fresh), line, sent);
        } else {
            // Fill stops below us: hand the request straight to the
            // next level, no local MSHR, no response expected. The
            // handoff's accept/reject steers the loop, so under
            // deferral it suspends here for flushEgress to resume.
            if (deferActive_)
                return false;
            req.requester = nullptr;
            if (lower_ == nullptr || !lower_->acceptRequest(req)) {
                pqHeadBlocked_ = true;
                break;  // retry next cycle
            }
        }
        ++stats_.pfIssued;
        ++stats_.pfClassIssued[e.pfClass % kPfClassSlots];
        if (tracer_)
            tracer_->record(TraceEventKind::PfIssue, traceTrack_, now_,
                            line, e.pfClass);
        ++issued;
        pq_.pop_front();
    }
    return true;
}

void
Cache::drainOutbound()
{
    while (!outbound_.empty()) {
        if (lower_ == nullptr) {
            outbound_.pop_front();
            continue;
        }
        if (!lower_->acceptRequest(outbound_.front()))
            break;
        outbound_.pop_front();
    }
}

void
Cache::tick(Cycle cycle)
{
    now_ = cycle;
    stats_.mshrOccupancySum += mshrs_.size();
    ++stats_.tickCount;
    if (deferLower_) {
        // Deferred-egress mode (DESIGN.md §5f): no downstream calls
        // during the cluster phase. Fresh misses park as unsent MSHRs,
        // the prefetch loops suspend at the first entry that needs a
        // synchronous lower-level answer, and flushEgress() completes
        // the cycle serially once every cluster has ticked.
        deferActive_ = true;
        if (!wq_.empty())
            processWriteQueue();
        if (!rq_.empty())
            processReadQueue();
        if (!ipq_.empty() || !pq_.empty())
            processPrefetchQueue();
        if (pfNeedsCycle_) {
            if (!egSuspended_)
                prefetcher_->cycle();
            else
                egPrefetcherPending_ = true;
        }
        return;
    }
    if (!outbound_.empty())
        drainOutbound();
    // Retry MSHRs whose downstream send was refused. The sent flags
    // are a contiguous byte array, so the scan for unsent entries does
    // not touch the cold per-MSHR state until it finds one.
    if (unsentMshrs_ > 0 && lower_ != nullptr) {
        for (std::size_t i = 0; i < mshrSent_.size(); ++i) {
            if (mshrSent_[i] == 0 &&
                lower_->acceptRequest(mshrs_[i].proto)) {
                mshrSent_[i] = 1;
                --unsentMshrs_;
            }
        }
    }
    // An empty queue cannot have a blocked head (the flags are only
    // ever set with the rejected entry still at the front), so the
    // processors are skipped outright on the quiescent path.
    if (!wq_.empty())
        processWriteQueue();
    if (!rq_.empty())
        processReadQueue();
    if (!ipq_.empty() || !pq_.empty())
        processPrefetchQueue();
    if (pfNeedsCycle_)
        prefetcher_->cycle();
}

void
Cache::flushEgress()
{
    if (!deferActive_)
        return;
    deferActive_ = false;
    drainOutbound();
    // Unsent MSHRs are in slot order, which is chronological: entries
    // parked before this cycle precede the ones allocated during it.
    if (unsentMshrs_ > 0 && lower_ != nullptr) {
        for (std::size_t i = 0; i < mshrSent_.size(); ++i) {
            if (mshrSent_[i] == 0 &&
                lower_->acceptRequest(mshrs_[i].proto)) {
                mshrSent_[i] = 1;
                --unsentMshrs_;
            }
        }
    }
    if (egSuspended_) {
        egSuspended_ = false;
        resumePrefetchQueue();
    }
    if (egPrefetcherPending_) {
        egPrefetcherPending_ = false;
        prefetcher_->cycle();
    }
}

Cycle
Cache::nextWakeup(Cycle now) const
{
    // Work that must retry every cycle: pending writebacks (the retry
    // bumps the lower level's wbDropped), unsent MSHRs, a prefetcher
    // with per-cycle housekeeping.
    if (!outbound_.empty() || unsentMshrs_ > 0 || pfNeedsCycle_)
        return now + 1;

    Cycle wake = kNeverWakeup;

    if (!wq_.empty()) {
        wake = std::min(wake, std::max(wq_.frontStamp(), now + 1));
        if (wake <= now + 1)
            return wake;
    }
    if (!rq_.empty()) {
        const Cycle rdy = rq_.frontStamp();
        if (rdy > now)
            wake = std::min(wake, rdy);
        else if (!rqHeadStalled_)
            return now + 1;  // ready head (e.g. over the port cap)
        // A stalled head waits for an MSHR to free, which only an
        // external response can do; its per-cycle stall counter is
        // reconciled in skipCycles.
        if (wake <= now + 1)
            return wake;
    }
    if (!ipq_.empty()) {
        const Cycle rdy = ipq_.frontStamp();
        if (rdy > now)
            wake = std::min(wake, rdy);
        else if (!ipqHeadBlocked_)
            return now + 1;  // ready head (e.g. over the issue cap)
        // A rejected head (MSHR full / lower refused the passthrough)
        // retries side-effect-free — handleIncomingPrefetch rejects
        // before any accounting — so wait for the external event that
        // frees the resource.
        if (wake <= now + 1)
            return wake;
    }
    if (!pq_.empty()) {
        const Cycle rdy = pq_.frontStamp();
        if (rdy > now)
            wake = std::min(wake, rdy);
        else if (!pqHeadBlocked_)
            return now + 1;  // ready head (e.g. over the issue cap)
        // A blocked own-prefetch retry is side-effect-free (translate
        // is idempotent, probe/findMshr are const), so wait for the
        // external event that unblocks it.
    }
    return wake;
}

void
Cache::skipCycles(Cycle count)
{
    stats_.tickCount += count;
    stats_.mshrOccupancySum +=
        static_cast<std::uint64_t>(mshrs_.size()) * count;
    if (rqHeadStalled_)
        stats_.mshrFullStalls += count;
}

void
Cache::registerStats(const StatGroup &g)
{
    static constexpr const char *kTypeNames[5] = {
        "load", "store", "instfetch", "prefetch", "writeback"};
    // Class-slot names mirror the IPCP attribution ids the report
    // tables use; slots past the IPCP classes surface misattribution.
    static constexpr const char *kClassNames[kPfClassSlots] = {
        "none", "cs", "cplx", "gs", "nl", "class5", "class6", "class7"};

    for (int t = 0; t < 5; ++t) {
        const StatGroup ty = g.child(kTypeNames[t]);
        ty.counter("accesses", stats_.accesses[t]);
        ty.counter("hits", stats_.hits[t]);
        ty.counter("misses", stats_.misses[t]);
    }
    g.counter("demand_accesses",
              [this] { return stats_.demandAccesses(); });
    g.counter("demand_hits", [this] { return stats_.demandHits(); });
    g.counter("demand_misses", [this] { return stats_.demandMisses(); });

    g.counter("mshr_merges", stats_.mshrMerges);
    g.counter("late_prefetches", stats_.latePrefetches);
    g.counter("mshr_full_stalls", stats_.mshrFullStalls);

    g.counter("pf_requested", stats_.pfRequested);
    g.counter("pf_issued", stats_.pfIssued);
    g.counter("pf_dropped_full", stats_.pfDroppedFull);
    g.counter("pf_dropped_hit_cache", stats_.pfDroppedHitCache);
    g.counter("pf_dropped_hit_mshr", stats_.pfDroppedHitMshr);
    g.counter("pf_fills", stats_.pfFills);
    g.counter("pf_useful", stats_.pfUseful);
    g.counter("pf_unused", stats_.pfUnused);

    g.counter("writebacks", stats_.writebacks);
    g.counter("wb_dropped", stats_.wbDropped);

    g.counter("miss_latency_sum", stats_.missLatencySum);
    g.counter("miss_latency_count", stats_.missLatencyCount);
    g.counter("mshr_occupancy_sum", stats_.mshrOccupancySum);
    g.counter("tick_count", stats_.tickCount);

    const StatGroup classes = g.child("pf_class");
    for (unsigned c = 0; c < kPfClassSlots; ++c) {
        const StatGroup cls = classes.child(kClassNames[c]);
        cls.counter("issued", stats_.pfClassIssued[c]);
        cls.counter("fills", stats_.pfClassFills[c]);
        cls.counter("useful", stats_.pfClassUseful[c]);
        cls.counter("unused", stats_.pfClassUnused[c]);
        cls.counter("late", stats_.pfClassLate[c]);
    }

    g.gauge("mshrs_in_use",
            [this] { return static_cast<double>(mshrs_.size()); });

    prefetcher_->registerStats(g.child(prefetcher_->name()));

    g.onReset([this] { resetStats(); });
}

void
Cache::serialize(StateIO &io)
{
    io.beginSection(config_.name.c_str());
    io.io(tags_);
    io.io(meta_);
    io.io(pfClass_);
    repl_->serialize(io);
    prefetcher_->serialize(io);
    rq_.serialize(io);
    wq_.serialize(io);
    pq_.serialize(io);
    ipq_.serialize(io);
    io.io(mshrs_);
    io.io(mshrLine_);
    io.io(mshrSent_);
    io.io(outbound_);
    io.io(rqHeadStalled_);
    io.io(pqHeadBlocked_);
    io.io(ipqHeadBlocked_);
    io.io(now_);
    io.io(operateIp_);
    stats_.serialize(io);

    if (io.reading()) {
        const std::size_t geom =
            static_cast<std::size_t>(config_.sets) * config_.ways;
        if (tags_.size() != geom || meta_.size() != geom ||
            pfClass_.size() != geom)
            StateIO::failCorrupt(config_.name +
                                 ": line arrays do not match geometry");
        if (mshrs_.size() > config_.mshrs ||
            mshrLine_.size() != mshrs_.size() ||
            mshrSent_.size() != mshrs_.size())
            StateIO::failCorrupt(config_.name +
                                 ": checkpoint MSHR arrays are "
                                 "oversized or out of step");
        // Derived structures are rebuilt, not deserialized: the line
        // index, unsent count and per-set valid counts must agree with
        // the serialized arrays by construction.
        validCount_.assign(config_.sets, 0);
        for (std::size_t i = 0; i < meta_.size(); ++i) {
            if (meta_[i] & kLineValid)
                ++validCount_[i / config_.ways];
        }
        mshrIndex_ = MshrIndex(config_.mshrs);
        unsentMshrs_ = 0;
        for (std::uint32_t i = 0; i < mshrs_.size(); ++i) {
            if (mshrIndex_.find(mshrLine_[i]) != MshrIndex::kNone)
                StateIO::failCorrupt(config_.name +
                                     ": duplicate MSHR line address");
            mshrIndex_.insert(mshrLine_[i], i);
            if (mshrSent_[i] == 0)
                ++unsentMshrs_;
        }
        replScratch_.reserve(config_.ways);
    }
}

void
Cache::audit(bool deep) const
{
    auto fail = [this](const std::string &why) {
        throw ErrorException(
            makeError(Errc::corrupt, config_.name + ": " + why));
    };

    if (rq_.size() > config_.rqSize)
        fail("read queue overflows its configured bound");
    if (wq_.size() > config_.wqSize)
        fail("write queue overflows its configured bound");
    if (pq_.size() > config_.pqSize)
        fail("prefetch queue overflows its configured bound");
    if (ipq_.size() > config_.pqSize)
        fail("incoming prefetch queue overflows its configured bound");
    if (mshrs_.size() > config_.mshrs)
        fail("MSHR vector overflows its configured bound");
    if (mshrLine_.size() != mshrs_.size() ||
        mshrSent_.size() != mshrs_.size())
        fail("MSHR hot arrays are out of step with the cold vector");

    std::uint32_t unsent = 0;
    for (std::uint32_t i = 0; i < mshrs_.size(); ++i) {
        if (mshrIndex_.find(mshrLine_[i]) != i)
            fail("MSHR index does not map a line to its slot");
        if (mshrSent_[i] == 0)
            ++unsent;
    }
    if (unsent != unsentMshrs_)
        fail("unsent MSHR count is out of sync with the MSHR vector");

    if (!deep)
        return;

    for (std::uint32_t set = 0; set < config_.sets; ++set) {
        const std::size_t base =
            static_cast<std::size_t>(set) * config_.ways;
        std::uint32_t valid = 0;
        for (std::uint32_t w = 0; w < config_.ways; ++w) {
            const std::size_t i = base + w;
            if ((meta_[i] & kLineValid) == 0) {
                if (tags_[i] != kInvalidTag)
                    fail("invalid way holds a real tag");
                continue;
            }
            ++valid;
            if (setOf(tags_[i]) != set)
                fail("valid line is resident in the wrong set");
            for (std::uint32_t v = w + 1; v < config_.ways; ++v) {
                if (tags_[base + v] == tags_[i])
                    fail("duplicate line within a set");
            }
            if (mshrIndex_.find(tags_[i]) != MshrIndex::kNone)
                fail("line is both resident and in flight");
        }
        if (valid != validCount_[set])
            fail("per-set valid count is out of sync with the metadata");
    }
    repl_->audit();
    prefetcher_->audit();
}

} // namespace bouquet

