#include "ipcp/ipcp_l1.hh"

#include <cassert>

#include "common/bitops.hh"
#include "common/errors.hh"
#include "common/stateio.hh"
#include "common/statsink.hh"
#include "common/tracer.hh"

namespace bouquet
{

namespace
{

/** Lines per 2 KB GS region. */
constexpr unsigned kRegionLines = 32;

bool
demandType(AccessType t)
{
    return t == AccessType::Load || t == AccessType::Store;
}

} // namespace

IpcpL1::IpcpL1(IpcpL1Params p)
    : params_(p),
      ipTable_(p.ipEntries),
      cspt_(p.csptEntries),
      rst_(p.rstEntries),
      rrFilter_(p.rrEntries, 0xFFFF)
{
    assert(isPowerOfTwo(p.ipEntries));
    assert(isPowerOfTwo(p.csptEntries));
    assert(isPowerOfTwo(p.rrEntries));
    for (auto &t : throttle_)
        t.degree = 1;
    throttle_[static_cast<int>(IpcpClass::CS)].degree =
        p.csDefaultDegree;
    throttle_[static_cast<int>(IpcpClass::CPLX)].degree =
        p.cplxDefaultDegree;
    throttle_[static_cast<int>(IpcpClass::GS)].degree =
        p.gsDefaultDegree;
}

std::size_t
IpcpL1::storageBits() const
{
    // Table I, "IPCP at L1" row + the "Others" row; the tag widths
    // are knobs (Table I: 9 and 3).
    const std::size_t ip_entry_bits =
        params_.ipTagBits + 27;             // 9+1+2+6+7+2+1+1+7
    const std::size_t cspt_entry_bits = 9;  // 7+2
    const std::size_t rst_entry_bits =
        params_.rstTagBits + 50;            // 3+5+32+6+1+1+1+1+3
    const std::size_t class_bits = 2ull * 64 * 12;  // per-line class ids
    const std::size_t rr_bits =
        static_cast<std::size_t>(params_.rrTagBits) * params_.rrEntries;
    // Table I's "Others" row reports 113 bits; its itemized list
    // (1 + 32 + 32 + 10 + 10 + 28 + 7) sums to 120 — we report the
    // paper's published total so the 740-byte headline reproduces.
    const std::size_t others = 113;
    return ip_entry_bits * params_.ipEntries +
           cspt_entry_bits * params_.csptEntries +
           rst_entry_bits * params_.rstEntries + class_bits + rr_bits +
           others;
}

unsigned
IpcpL1::degreeOf(IpcpClass c) const
{
    return throttle_[static_cast<int>(c)].degree;
}

double
IpcpL1::accuracyOf(IpcpClass c) const
{
    return throttle_[static_cast<int>(c)].lastAccuracy;
}

unsigned
IpcpL1::defaultDegree(IpcpClass c) const
{
    switch (c) {
      case IpcpClass::CS:
        return params_.csDefaultDegree;
      case IpcpClass::CPLX:
        return params_.cplxDefaultDegree;
      case IpcpClass::GS:
        return params_.gsDefaultDegree;
      default:
        return 1;
    }
}

// --- RR filter ---------------------------------------------------------

bool
IpcpL1::rrProbe(LineAddr line) const
{
    const std::size_t idx = line & (params_.rrEntries - 1);
    const std::uint16_t tag = static_cast<std::uint16_t>(
        foldXor(line >> log2Exact(params_.rrEntries),
                params_.rrTagBits));
    return rrFilter_[idx] == tag;
}

void
IpcpL1::rrInsert(LineAddr line)
{
    const std::size_t idx = line & (params_.rrEntries - 1);
    rrFilter_[idx] = static_cast<std::uint16_t>(
        foldXor(line >> log2Exact(params_.rrEntries),
                params_.rrTagBits));
}

// --- RST ---------------------------------------------------------------

std::uint8_t
IpcpL1::regionIdOf(Addr region) const
{
    // The region id the IP table can reconstruct: 2 low bits of the
    // virtual page + msb of the line offset = low 3 bits of the region
    // number (Section IV-C).
    return static_cast<std::uint8_t>(
        region & ((1u << params_.rstTagBits) - 1));
}

IpcpL1::RstEntry *
IpcpL1::findRegion(Addr region)
{
    const std::uint32_t tag =
        static_cast<std::uint32_t>(foldXor(region, 24));
    for (RstEntry &e : rst_) {
        if (e.valid && e.regionTag == tag)
            return &e;
    }
    return nullptr;
}

void
IpcpL1::touchRegionLru(RstEntry &e)
{
    // 3-bit LRU stack positions: bump the touched entry to 0.
    for (RstEntry &o : rst_) {
        if (o.valid && o.lru < e.lru)
            ++o.lru;
    }
    e.lru = 0;
}

IpcpL1::RstEntry &
IpcpL1::allocRegion(Addr region)
{
    RstEntry *victim = &rst_[0];
    for (RstEntry &e : rst_) {
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lru > victim->lru)
            victim = &e;
    }
    *victim = RstEntry{};
    victim->valid = true;
    victim->regionTag =
        static_cast<std::uint32_t>(foldXor(region, 24));
    victim->regionId = regionIdOf(region);
    victim->lru = static_cast<std::uint8_t>(rst_.size() - 1);
    return *victim;
}

// --- MPKI gate ----------------------------------------------------------

void
IpcpL1::updateMpkiGate()
{
    const std::uint64_t instr = host_->retiredInstructions();
    const std::uint64_t miss = host_->demandMisses();
    if (instr < epochStartInstr_ || miss < epochStartMisses_) {
        // Statistics were reset (end of warmup): re-baseline.
        epochStartInstr_ = instr;
        epochStartMisses_ = miss;
        return;
    }
    if (instr - epochStartInstr_ >= 1024) {
        const std::uint64_t mpki = miss - epochStartMisses_;
        const bool enabled = mpki < params_.mpkiThreshold;
        if (enabled != nlEnabled_) {
            if (EventTracer *t = host_->tracer())
                t->record(TraceEventKind::NlGate, host_->traceTrack(),
                          host_->now(), enabled ? 1 : 0);
            nlEnabled_ = enabled;
        }
        epochStartInstr_ = instr;
        epochStartMisses_ = miss;
    }
}

// --- throttling ----------------------------------------------------------

void
IpcpL1::measureEpoch(IpcpClass c)
{
    ClassThrottle &t = throttle_[static_cast<int>(c)];
    if (t.fills < params_.epochFills)
        return;
    t.lastAccuracy = static_cast<double>(t.useful) /
                     static_cast<double>(t.fills);
    if (params_.throttling) {
        if (t.lastAccuracy > params_.highWatermark) {
            if (t.degree < defaultDegree(c))
                ++t.degree;
        } else if (t.lastAccuracy < params_.lowWatermark) {
            if (t.degree > 1)
                --t.degree;
        }
    }
    t.fills = 0;
    t.useful = 0;

    ++epochsMeasured_[static_cast<int>(c)];
    EpochRecord &rec = epochHistory_[epochHead_];
    rec.cls = static_cast<std::uint8_t>(c);
    rec.degree = static_cast<std::uint8_t>(t.degree);
    rec.accuracy = t.lastAccuracy;
    epochHead_ = epochHead_ + 1 == kEpochHistoryCap ? 0 : epochHead_ + 1;
    if (epochCount_ < kEpochHistoryCap)
        ++epochCount_;
    if (EventTracer *tr = host_->tracer())
        tr->record(TraceEventKind::ThrottleEpoch, host_->traceTrack(),
                   host_->now(), static_cast<std::uint64_t>(c), t.degree,
                   static_cast<std::uint32_t>(t.lastAccuracy * 1000.0));
}

void
IpcpL1::onFill(Addr, bool was_prefetch, std::uint8_t pf_class)
{
    if (!was_prefetch || pf_class >= kIpcpClassCount)
        return;
    ++throttle_[pf_class].fills;
    measureEpoch(static_cast<IpcpClass>(pf_class));
}

void
IpcpL1::onPrefetchUseful(Addr, std::uint8_t pf_class)
{
    if (pf_class >= kIpcpClassCount)
        return;
    ++throttle_[pf_class].useful;
}

// --- prefetch issue -------------------------------------------------------

bool
IpcpL1::issue(Addr base_vaddr, std::int64_t delta_lines, IpcpClass c,
              std::int64_t meta_stride)
{
    const Addr target =
        base_vaddr + static_cast<Addr>(delta_lines *
                                       static_cast<std::int64_t>(
                                           kLineSize));
    // IPCP is a spatial prefetcher: never cross the 4 KB page.
    if (pageNumber(target) != pageNumber(base_vaddr))
        return false;

    const LineAddr tline = lineAddr(target);
    if (rrProbe(tline))
        return false;  // recently requested: drop without an L1 probe

    std::uint32_t meta = 0;
    if (params_.sendMetadata) {
        const double acc =
            throttle_[static_cast<int>(c)].lastAccuracy;
        MetaClass mc = MetaClass::None;
        std::int64_t stride = 0;
        if (acc > params_.metadataAccuracy) {
            switch (c) {
              case IpcpClass::CS:
                mc = MetaClass::CS;
                stride = meta_stride;
                break;
              case IpcpClass::GS:
                mc = MetaClass::GS;
                stride = meta_stride;  // +1/-1 direction
                break;
              case IpcpClass::NL:
                mc = MetaClass::NL;
                stride = 1;
                break;
              default:
                break;  // CPLX is not consumed at the L2
            }
        }
        meta = encodeMetadata(mc, stride);
    }

    const bool ok = host_->issuePrefetch(
        target, CacheLevel::L1D, meta, static_cast<std::uint8_t>(c));
    if (ok) {
        rrInsert(tline);
        ++issuedPerClass_[static_cast<int>(c)];
    }
    return ok;
}

// --- main hook -------------------------------------------------------------

void
IpcpL1::operate(Addr addr, Ip ip, bool, AccessType type, std::uint32_t)
{
    if (!demandType(type))
        return;

    updateMpkiGate();

    const Addr vpage = pageNumber(addr);
    const std::uint8_t vp2 = static_cast<std::uint8_t>(vpage & 0x3);
    const std::uint8_t off =
        static_cast<std::uint8_t>(lineOffsetInPage(addr));
    const Addr region = addr >> 11;  // 2 KB regions
    const std::uint8_t region_off =
        static_cast<std::uint8_t>((addr >> kLineBits) &
                                  (kRegionLines - 1));

    rrInsert(lineAddr(addr));

    // ---- Region Stream Table update (every demand access) -------------
    RstEntry *r = findRegion(region);
    if (r == nullptr) {
        r = &allocRegion(region);
        r->bitVector = 1u << region_off;
        r->denseCount.increment();
        r->lastLineOffset = region_off;
    } else {
        const std::uint32_t bit = 1u << region_off;
        if ((r->bitVector & bit) == 0) {
            r->bitVector |= bit;
            r->denseCount.increment();
        }
        const int diff = static_cast<int>(region_off) -
                         static_cast<int>(r->lastLineOffset);
        if (diff > 0)
            r->posNeg.up();
        else if (diff < 0)
            r->posNeg.down();
        r->lastLineOffset = region_off;
        if (r->denseCount.value() >= params_.denseThreshold)
            r->trained = true;
    }
    touchRegionLru(*r);

    // ---- IP table lookup with hysteresis --------------------------------
    const std::uint64_t ip_key = ip >> 2;
    const std::size_t idx = ip_key & (params_.ipEntries - 1);
    const std::uint16_t tag = static_cast<std::uint16_t>(
        foldXor(ip_key >> log2Exact(params_.ipEntries),
                params_.ipTagBits));
    IpEntry &e = ipTable_[idx];

    bool tracked;
    bool fresh = false;
    if (e.valid && e.tag == tag) {
        tracked = true;
    } else if (e.valid) {
        // Competing IP: hysteresis keeps the incumbent but clears its
        // valid bit; the challenger is not tracked this time.
        e.valid = false;
        tracked = false;
    } else if (e.tag == tag) {
        // The incumbent lost its valid bit earlier but is back.
        e.valid = true;
        tracked = true;
    } else {
        // Free (invalidated) slot: the challenger takes it over.
        e = IpEntry{};
        e.tag = tag;
        e.valid = true;
        e.lastVpage = vp2;
        e.lastLineOffset = off;
        tracked = true;
        fresh = true;
    }

    std::int64_t stride = 0;
    if (tracked && !fresh) {
        // Stride across page boundaries via the 2-bit last-vpage
        // (Section IV-A): virtual pages are mostly contiguous.
        if (e.lastVpage == vp2) {
            stride = static_cast<int>(off) -
                     static_cast<int>(e.lastLineOffset);
        } else if (((e.lastVpage + 1) & 0x3) == vp2) {
            stride = static_cast<int>(off) -
                     static_cast<int>(e.lastLineOffset) + 64;
        } else if (((e.lastVpage - 1) & 0x3) == vp2) {
            stride = static_cast<int>(off) -
                     static_cast<int>(e.lastLineOffset) - 64;
        }

        // GS: on a region change, propagate training from the previous
        // region (control flow predicted data flow, Section IV-C).
        const std::uint8_t prev_region_id = static_cast<std::uint8_t>(
            ((e.lastVpage << 1) | (e.lastLineOffset >> 5)) &
            ((1u << params_.rstTagBits) - 1));
        const std::uint8_t cur_region_id = regionIdOf(region);
        bool inherited_dir = e.directionPositive;
        if (prev_region_id != cur_region_id) {
            for (RstEntry &prev : rst_) {
                if (prev.valid && prev.regionId == prev_region_id) {
                    if (prev.trained) {
                        r->tentative = true;
                        // The new region has no direction history yet:
                        // the stream's direction carries over.
                        inherited_dir = prev.posNeg.positive();
                    }
                    break;
                }
            }
        }

        // Classification: trained or tentative region => GS IP.
        const bool was_stream = e.streamValid;
        if (r->trained) {
            e.streamValid = true;
            e.directionPositive = r->posNeg.positive();
        } else if (r->tentative) {
            e.streamValid = true;
            e.directionPositive = inherited_dir;
        } else {
            e.streamValid = false;  // declassify once no longer dense
        }
        if (e.streamValid != was_stream) {
            // GS membership flip: the classifier moved this IP in or
            // out of the stream class.
            if (EventTracer *tr = host_->tracer())
                tr->record(TraceEventKind::ClassShift,
                           host_->traceTrack(), host_->now(), ip,
                           was_stream ? 1 : 0, e.streamValid ? 1 : 0);
        }

        if (stride != 0) {
            // CS training.
            if (stride == e.stride) {
                e.confidence.increment();
            } else {
                e.confidence.decrement();
                if (e.confidence.value() == 0) {
                    // The hardware stride field is 7-bit: clamp.
                    e.stride = static_cast<int>(
                        signExtend(encodeSigned(stride, 7), 7));
                }
            }
            // CPLX training via the signature-indexed CSPT.
            CsptEntry &ce = cspt_[e.signature & (params_.csptEntries - 1)];
            if (ce.stride == stride) {
                ce.confidence.increment();
            } else {
                ce.confidence.decrement();
                if (ce.confidence.value() == 0)
                    ce.stride = static_cast<int>(stride);
            }
            e.signature = static_cast<std::uint8_t>(
                ((e.signature << 1) ^
                 static_cast<std::uint8_t>(stride & 0x7F)) & 0x7F);
        }

        e.lastVpage = vp2;
        e.lastLineOffset = off;
    }

    // ---- class selection in priority order ------------------------------
    for (IpcpClass c : params_.priority) {
        switch (c) {
          case IpcpClass::GS: {
            if (!params_.enableGS || !tracked || !e.streamValid)
                break;
            const std::int64_t dir = e.directionPositive ? 1 : -1;
            const unsigned deg = degreeOf(IpcpClass::GS);
            for (unsigned k = 1; k <= deg; ++k)
                issue(addr, dir * static_cast<std::int64_t>(k),
                      IpcpClass::GS, dir);
            return;
          }
          case IpcpClass::CS: {
            if (!params_.enableCS || !tracked ||
                e.confidence.value() < 2 || e.stride == 0)
                break;
            const unsigned deg = degreeOf(IpcpClass::CS);
            for (unsigned k = 1; k <= deg; ++k)
                issue(addr,
                      static_cast<std::int64_t>(k) * e.stride,
                      IpcpClass::CS, e.stride);
            return;
          }
          case IpcpClass::CPLX: {
            if (!params_.enableCPLX || !tracked)
                break;
            // Look-ahead walk through the CSPT (Section IV-B).
            std::uint8_t sig = e.signature;
            std::int64_t cursor = 0;
            unsigned issued = 0;
            unsigned confident = 0;
            const unsigned deg = degreeOf(IpcpClass::CPLX);
            for (unsigned step = 0;
                 step < deg + 3 + params_.cplxDistance && issued < deg;
                 ++step) {
                const CsptEntry &ce =
                    cspt_[sig & (params_.csptEntries - 1)];
                if (ce.stride == 0)
                    break;
                cursor += ce.stride;
                if (ce.confidence.value() >= 1) {
                    // Prefetch distance: skip the shallow predictions
                    // that would sit on the L1 lookup critical path.
                    if (confident++ >= params_.cplxDistance &&
                        issue(addr, cursor, IpcpClass::CPLX, 0))
                        ++issued;
                }
                sig = static_cast<std::uint8_t>(
                    ((sig << 1) ^
                     static_cast<std::uint8_t>(ce.stride & 0x7F)) &
                    0x7F);
            }
            if (issued > 0)
                return;
            break;  // low CSPT confidence: fall through (to NL)
          }
          case IpcpClass::NL: {
            if (!params_.enableNL || !nlEnabled_)
                break;
            issue(addr, 1, IpcpClass::NL, 1);
            return;
          }
          default:
            break;
        }
    }
}

void
IpcpL1::serialize(StateIO &io)
{
    const std::size_t ip = ipTable_.size();
    const std::size_t cspt = cspt_.size();
    const std::size_t rst = rst_.size();
    const std::size_t rr = rrFilter_.size();
    io.io(ipTable_);
    io.io(cspt_);
    io.io(rst_);
    io.io(rrFilter_);
    for (ClassThrottle &t : throttle_)
        t.serialize(io);
    io.io(nlEnabled_);
    io.io(epochStartInstr_);
    io.io(epochStartMisses_);
    for (auto &v : issuedPerClass_)
        io.io(v);
    for (auto &v : epochsMeasured_)
        io.io(v);
    for (EpochRecord &r : epochHistory_)
        r.serialize(io);
    std::uint64_t head = epochHead_;
    std::uint64_t count = epochCount_;
    io.io(head);
    io.io(count);
    if (io.reading()) {
        if (head >= kEpochHistoryCap || count > kEpochHistoryCap)
            StateIO::failCorrupt("ipcp-l1 epoch history out of bounds");
        epochHead_ = static_cast<std::size_t>(head);
        epochCount_ = static_cast<std::size_t>(count);
    }
    if (io.reading()) {
        if (ipTable_.size() != ip || cspt_.size() != cspt ||
            rst_.size() != rst || rrFilter_.size() != rr)
            StateIO::failCorrupt("ipcp-l1 table size mismatch");
        audit();
    }
}

void
IpcpL1::audit() const
{
    auto fail = [](const char *why) {
        throw ErrorException(
            makeError(Errc::corrupt, std::string("ipcp-l1: ") + why));
    };
    for (const IpEntry &e : ipTable_) {
        if (!e.valid)
            continue;
        if (e.lastLineOffset >= 64)
            fail("IP-table line offset outside the page");
        if (e.lastVpage >= 4)
            fail("IP-table vpage tag wider than 2 bits");
        if (e.signature >= 128)
            fail("CPLX signature wider than 7 bits");
    }
    for (const RstEntry &e : rst_) {
        if (!e.valid)
            continue;
        if (e.lastLineOffset >= 32)
            fail("RST line offset outside the region");
        if (e.lru >= rst_.size())
            fail("RST LRU rank outside the table");
        if (e.regionId >= (1u << params_.rstTagBits))
            fail("RST region id wider than rstTagBits");
    }
    // Note: useful may legitimately exceed fills within an epoch — a
    // prefetch filled in the previous epoch (before the counters were
    // reset) can turn useful in this one.
    for (const ClassThrottle &t : throttle_) {
        if (t.degree < 1)
            fail("class throttle degree fell below one");
    }
}

void
IpcpL1::registerStats(const StatGroup &g)
{
    Prefetcher::registerStats(g);
    g.gauge("nl_enabled", [this] { return nlEnabled_ ? 1.0 : 0.0; });
    g.gauge("rst_trained_regions", [this] {
        double n = 0;
        for (const RstEntry &e : rst_)
            n += e.valid && e.trained ? 1 : 0;
        return n;
    });
    g.gauge("ip_table_valid", [this] {
        double n = 0;
        for (const IpEntry &e : ipTable_)
            n += e.valid ? 1 : 0;
        return n;
    });

    for (int c = 1; c < static_cast<int>(kIpcpClassCount); ++c) {
        const StatGroup cls =
            g.child(ipcpClassName(static_cast<IpcpClass>(c)));
        cls.counter("issued", issuedPerClass_[c]);
        cls.counter("epochs", epochsMeasured_[c]);
        // Behavior state: degree/accuracy drive throttling, the
        // fill/useful window feeds the next epoch measurement.
        cls.gauge("degree", [this, c] {
            return static_cast<double>(throttle_[c].degree);
        });
        cls.gauge("accuracy",
                  [this, c] { return throttle_[c].lastAccuracy; });
        cls.gauge("epoch_fills", [this, c] {
            return static_cast<double>(throttle_[c].fills);
        });
        cls.gauge("epoch_useful", [this, c] {
            return static_cast<double>(throttle_[c].useful);
        });
        // Accuracy deciles over the recent epoch history ring.
        cls.histogram("epoch_accuracy_deciles", [this, c] {
            std::vector<std::uint64_t> h(10, 0);
            for (std::size_t i = 0; i < epochCount_; ++i) {
                const EpochRecord &r = epochHistory_[i];
                if (r.cls != c)
                    continue;
                const auto d = static_cast<std::size_t>(
                    r.accuracy >= 1.0 ? 9 : r.accuracy * 10.0);
                ++h[d < 10 ? d : 9];
            }
            return h;
        });
    }

    g.onReset([this] {
        issuedPerClass_ = {};
        epochsMeasured_ = {};
        epochHistory_ = {};
        epochHead_ = 0;
        epochCount_ = 0;
    });
}

} // namespace bouquet
