#include "harness/factory.hh"

#include <climits>
#include <cstdio>
#include <stdexcept>

#include "common/bitops.hh"
#include "common/env.hh"
#include "common/json.hh"
#include "prefetch/bingo.hh"
#include "prefetch/bop.hh"
#include "prefetch/composite.hh"
#include "prefetch/dol.hh"
#include "prefetch/dspatch.hh"
#include "prefetch/mlop.hh"
#include "prefetch/ppf.hh"
#include "prefetch/simple.hh"
#include "prefetch/spp.hh"
#include "prefetch/tskid.hh"

namespace bouquet
{

namespace
{

template <typename T>
std::unique_ptr<Prefetcher>
makeDefault(CacheLevel)
{
    return std::make_unique<T>();
}

std::unique_ptr<Prefetcher>
makeNextLine(bool only_on_miss)
{
    NextLineParams p;
    p.degree = 1;
    p.onlyOnMiss = only_on_miss;
    return std::make_unique<NextLinePrefetcher>(p);
}

std::unique_ptr<Prefetcher>
makeBingo(CacheLevel level, unsigned history_entries,
          unsigned accum_entries)
{
    SpatialParams p;
    p.fillLevel = level;
    p.historyEntries = history_entries;
    p.accumEntries = accum_entries;
    return std::make_unique<BingoPrefetcher>(p);
}

struct PrefetcherMaker
{
    const char *name;
    std::unique_ptr<Prefetcher> (*make)(CacheLevel);
};

/** Every prefetcher name the factory builds, in presentation order. */
const PrefetcherMaker kPrefetcherMakers[] = {
    {"none", makeDefault<NoPrefetcher>},
    {"nl", [](CacheLevel) { return makeNextLine(false); }},
    // NL on demand accesses only (the L2/LLC companion in Table III).
    {"nl-restrictive", [](CacheLevel) { return makeNextLine(true); }},
    {"throttled-nl", makeDefault<ThrottledNextLine>},
    {"ip-stride", makeDefault<IpStridePrefetcher>},
    {"stream", makeDefault<StreamPrefetcher>},
    {"bop", makeDefault<BopPrefetcher>},
    {"spp", makeDefault<SppPrefetcher>},
    {"spp-ppf", makeDefault<PpfPrefetcher>},
    {"dspatch", makeDefault<DspatchPrefetcher>},
    {"spp-ppf-dspatch",
     [](CacheLevel) -> std::unique_ptr<Prefetcher> {
         std::vector<std::unique_ptr<Prefetcher>> kids;
         kids.push_back(std::make_unique<PpfPrefetcher>());
         kids.push_back(std::make_unique<DspatchPrefetcher>());
         return std::make_unique<CompositePrefetcher>(std::move(kids));
     }},
    {"mlop", makeDefault<MlopPrefetcher>},
    // Tuned to the L1-D size (48 KB) as in the paper's Fig. 7.
    {"bingo", [](CacheLevel l) { return makeBingo(l, 4096, 64); }},
    {"bingo-119k", [](CacheLevel l) { return makeBingo(l, 8192, 128); }},
    {"tskid", makeDefault<TskidPrefetcher>},
    {"dol", makeDefault<DolPrefetcher>},
    {"ipcp",
     [](CacheLevel level) -> std::unique_ptr<Prefetcher> {
         if (level == CacheLevel::L1D)
             return std::make_unique<IpcpL1>();
         return std::make_unique<IpcpL2>();
     }},
};

/** makePrefetcher's body: Errc::unknown_name for a bad name. */
Result<std::unique_ptr<Prefetcher>>
tryMakePrefetcher(const std::string &name, CacheLevel level)
{
    for (const PrefetcherMaker &m : kPrefetcherMakers)
        if (name == m.name)
            return m.make(level);
    return makeError(Errc::unknown_name,
                     "unknown prefetcher: " + name);
}

/**
 * Wrapper for Fig. 1's "learn at L1 but prefetch till the L2" mode: the
 * inner prefetcher trains on the L1 access stream, but every prefetch
 * it issues is demoted to fill the L2 only.
 */
class FillAtL2 : public Prefetcher, private PrefetchHost
{
  public:
    explicit FillAtL2(std::unique_ptr<Prefetcher> inner)
        : inner_(std::move(inner))
    {
        inner_->setHost(this);
    }

    void setHost(PrefetchHost *host) override { Prefetcher::setHost(host); }

    void
    operate(Addr addr, Ip ip, bool cache_hit, AccessType type,
            std::uint32_t meta_in) override
    {
        inner_->operate(addr, ip, cache_hit, type, meta_in);
    }

    void
    onFill(Addr addr, bool was_prefetch, std::uint8_t pf_class) override
    {
        inner_->onFill(addr, was_prefetch, pf_class);
    }

    void
    onPrefetchUseful(Addr addr, std::uint8_t pf_class) override
    {
        inner_->onPrefetchUseful(addr, pf_class);
    }

    void cycle() override { inner_->cycle(); }

    bool needsCycle() const override { return inner_->needsCycle(); }

    std::string name() const override { return inner_->name() + "@l2"; }

    std::size_t storageBits() const override
    {
        return inner_->storageBits();
    }

    void serialize(StateIO &io) override { inner_->serialize(io); }

    void audit() const override { inner_->audit(); }

  private:
    // PrefetchHost facade handed to the inner prefetcher.
    bool
    issuePrefetch(Addr byte_addr, CacheLevel, std::uint32_t metadata,
                  std::uint8_t pf_class) override
    {
        return host_->issuePrefetch(byte_addr, CacheLevel::L2, metadata,
                                    pf_class);
    }

    CacheLevel level() const override { return host_->level(); }
    Cycle now() const override { return host_->now(); }
    std::uint64_t demandMisses() const override
    {
        return host_->demandMisses();
    }
    std::uint64_t retiredInstructions() const override
    {
        return host_->retiredInstructions();
    }

    std::unique_ptr<Prefetcher> inner_;
};

Status
setAll(System &sys, const std::string &l1, const std::string &l2,
       const std::string &llc)
{
    for (unsigned c = 0; c < sys.numCores(); ++c) {
        auto l1pf = tryMakePrefetcher(l1, CacheLevel::L1D);
        if (!l1pf.ok())
            return l1pf.status();
        sys.l1d(c).setPrefetcher(l1pf.take());
        auto l2pf = tryMakePrefetcher(l2, CacheLevel::L2);
        if (!l2pf.ok())
            return l2pf.status();
        sys.l2(c).setPrefetcher(l2pf.take());
    }
    auto llcpf = tryMakePrefetcher(llc, CacheLevel::LLC);
    if (!llcpf.ok())
        return llcpf.status();
    sys.llc().setPrefetcher(llcpf.take());
    return Status();
}

/**
 * The ipcp-combo knob registry: one row per tunable scalar, pointing
 * into a live IpcpComboParams. Registry order IS the canonical
 * formatting order, so keep additions grouped (L1, then L2, then the
 * topology switch) rather than alphabetized.
 */
enum class KnobType { U32, F64, Bool };

struct KnobRef
{
    const char *name;
    KnobType type;
    void *ptr;
};

std::vector<KnobRef>
knobRefs(IpcpComboParams &p)
{
    return {
        {"ipEntries", KnobType::U32, &p.l1.ipEntries},
        {"ipTagBits", KnobType::U32, &p.l1.ipTagBits},
        {"csptEntries", KnobType::U32, &p.l1.csptEntries},
        {"rstEntries", KnobType::U32, &p.l1.rstEntries},
        {"rstTagBits", KnobType::U32, &p.l1.rstTagBits},
        {"rrEntries", KnobType::U32, &p.l1.rrEntries},
        {"rrTagBits", KnobType::U32, &p.l1.rrTagBits},
        {"csDefaultDegree", KnobType::U32, &p.l1.csDefaultDegree},
        {"cplxDefaultDegree", KnobType::U32, &p.l1.cplxDefaultDegree},
        {"gsDefaultDegree", KnobType::U32, &p.l1.gsDefaultDegree},
        {"cplxDistance", KnobType::U32, &p.l1.cplxDistance},
        {"denseThreshold", KnobType::U32, &p.l1.denseThreshold},
        {"mpkiThreshold", KnobType::U32, &p.l1.mpkiThreshold},
        {"highWatermark", KnobType::F64, &p.l1.highWatermark},
        {"lowWatermark", KnobType::F64, &p.l1.lowWatermark},
        {"epochFills", KnobType::U32, &p.l1.epochFills},
        {"throttling", KnobType::Bool, &p.l1.throttling},
        {"enableCS", KnobType::Bool, &p.l1.enableCS},
        {"enableCPLX", KnobType::Bool, &p.l1.enableCPLX},
        {"enableGS", KnobType::Bool, &p.l1.enableGS},
        {"enableNL", KnobType::Bool, &p.l1.enableNL},
        {"sendMetadata", KnobType::Bool, &p.l1.sendMetadata},
        {"metadataAccuracy", KnobType::F64, &p.l1.metadataAccuracy},
        {"l2IpEntries", KnobType::U32, &p.l2.ipEntries},
        {"l2IpTagBits", KnobType::U32, &p.l2.ipTagBits},
        {"l2CsDegree", KnobType::U32, &p.l2.csDegree},
        {"l2GsDegree", KnobType::U32, &p.l2.gsDegree},
        {"l2MpkiThreshold", KnobType::U32, &p.l2.mpkiThreshold},
        {"l2EnableNL", KnobType::Bool, &p.l2.enableNL},
        {"useL2", KnobType::Bool, &p.useL2},
    };
}

Status
setKnob(const KnobRef &ref, const std::string &value,
        const std::string &combo)
{
    const auto bad = [&]() {
        return makeError(Errc::corrupt,
                         std::string("bad value for ipcp parameter ") +
                             ref.name + ": '" + value + "' in " + combo);
    };
    switch (ref.type) {
    case KnobType::U32: {
        std::uint64_t v = 0;
        if (!parseU64(value, v) || v > UINT_MAX)
            return bad();
        *static_cast<unsigned *>(ref.ptr) = static_cast<unsigned>(v);
        return Status();
    }
    case KnobType::F64: {
        double v = 0.0;
        if (!parseDouble(value, v))
            return bad();
        *static_cast<double *>(ref.ptr) = v;
        return Status();
    }
    case KnobType::Bool: {
        bool v = false;
        if (value == "0" || value == "false")
            v = false;
        else if (value == "1" || value == "true")
            v = true;
        else
            return bad();
        *static_cast<bool *>(ref.ptr) = v;
        return Status();
    }
    }
    return bad();
}

std::string
formatKnob(const KnobRef &ref)
{
    switch (ref.type) {
    case KnobType::U32:
        return std::to_string(*static_cast<unsigned *>(ref.ptr));
    case KnobType::F64:
        return formatRoundTripDouble(*static_cast<double *>(ref.ptr));
    case KnobType::Bool:
        return *static_cast<bool *>(ref.ptr) ? "1" : "0";
    }
    return "";
}

/**
 * Structural sanity for a parsed parameter set. The hardware model
 * indexes the IP table, CSPT and RR filter with `addr & (N-1)`, so
 * those sizes must be powers of two; tag widths must fit their 16-bit
 * fields (and hash with foldXor, which needs width >= 1); the IP table
 * rebuilds only 3 region-id bits; the throttling watermarks are
 * accuracies in [0,1].
 */
Status
validateIpcpParams(const IpcpComboParams &p, const std::string &combo)
{
    const auto fail = [&](const std::string &what) -> Status {
        return makeError(Errc::corrupt, what + " in " + combo);
    };
    const auto pow2 = [&](const char *name, unsigned v) -> Status {
        if (v == 0 || !isPowerOfTwo(v))
            return fail(std::string(name) + "=" + std::to_string(v) +
                        " must be a power of two");
        return Status();
    };
    if (Status s = pow2("ipEntries", p.l1.ipEntries); !s.ok())
        return s;
    if (Status s = pow2("csptEntries", p.l1.csptEntries); !s.ok())
        return s;
    if (Status s = pow2("rrEntries", p.l1.rrEntries); !s.ok())
        return s;
    if (Status s = pow2("l2IpEntries", p.l2.ipEntries); !s.ok())
        return s;
    const auto width = [&](const char *name, unsigned v,
                           unsigned max) -> Status {
        if (v < 1 || v > max)
            return fail(std::string(name) + "=" + std::to_string(v) +
                        " must be within [1," + std::to_string(max) +
                        "]");
        return Status();
    };
    if (Status s = width("ipTagBits", p.l1.ipTagBits, 16); !s.ok())
        return s;
    if (Status s = width("rrTagBits", p.l1.rrTagBits, 16); !s.ok())
        return s;
    if (Status s = width("rstTagBits", p.l1.rstTagBits, 3); !s.ok())
        return s;
    if (Status s = width("l2IpTagBits", p.l2.ipTagBits, 16); !s.ok())
        return s;
    if (p.l1.rstEntries == 0)
        return fail("rstEntries must be at least 1");
    if (p.l1.epochFills == 0)
        return fail("epochFills must be at least 1");
    const auto unit = [&](const char *name, double v) -> Status {
        if (!(v >= 0.0 && v <= 1.0))
            return fail(std::string(name) + "=" +
                        formatRoundTripDouble(v) +
                        " must be within [0,1]");
        return Status();
    };
    if (Status s = unit("highWatermark", p.l1.highWatermark); !s.ok())
        return s;
    if (Status s = unit("lowWatermark", p.l1.lowWatermark); !s.ok())
        return s;
    if (Status s = unit("metadataAccuracy", p.l1.metadataAccuracy);
        !s.ok())
        return s;
    if (p.l1.lowWatermark > p.l1.highWatermark)
        return fail("lowWatermark must not exceed highWatermark");
    return Status();
}

/**
 * applyCombo's body: Errc::unknown_name for an unknown combo or
 * prefetcher name, parseIpcpCombo's errors for a bad `ipcp:` combo.
 */
Status
tryApplyCombo(System &sys, const std::string &combo)
{
    if (combo.rfind("ipcp:", 0) == 0) {
        Result<IpcpComboParams> parsed = parseIpcpCombo(combo);
        if (!parsed.ok())
            return parsed.status();
        const IpcpComboParams p = parsed.take();
        applyIpcp(sys, p.l1, p.l2, p.useL2);
        return Status();
    }
    if (combo == "none")
        return setAll(sys, "none", "none", "none");
    if (combo == "ipcp")
        return setAll(sys, "ipcp", "ipcp", "none");
    if (combo == "ipcp-l1")
        return setAll(sys, "ipcp", "none", "none");
    if (combo == "spp-ppf-dspatch")
        return setAll(sys, "throttled-nl", "spp-ppf-dspatch",
                      "nl-restrictive");
    if (combo == "mlop")
        return setAll(sys, "mlop", "nl-restrictive", "nl-restrictive");
    if (combo == "bingo")
        return setAll(sys, "bingo", "nl-restrictive",
                      "nl-restrictive");
    if (combo == "bingo-119k")
        return setAll(sys, "bingo-119k", "nl-restrictive",
                      "nl-restrictive");
    if (combo == "tskid")
        return setAll(sys, "tskid", "spp", "none");
    if (combo.rfind("l1:", 0) == 0)
        return setAll(sys, combo.substr(3), "none", "none");
    if (combo.rfind("l2:", 0) == 0)
        return setAll(sys, "none", combo.substr(3), "none");
    if (combo.rfind("l1fill2:", 0) == 0) {
        // Fig. 1: train at the L1 but fill only till the L2.
        const std::string inner = combo.substr(8);
        for (unsigned c = 0; c < sys.numCores(); ++c) {
            auto pf = tryMakePrefetcher(inner, CacheLevel::L1D);
            if (!pf.ok())
                return pf.status();
            sys.l1d(c).setPrefetcher(
                std::make_unique<FillAtL2>(pf.take()));
            sys.l2(c).setPrefetcher(
                std::make_unique<NoPrefetcher>());
        }
        sys.llc().setPrefetcher(std::make_unique<NoPrefetcher>());
        return Status();
    }
    return makeError(Errc::unknown_name, "unknown combo: " + combo);
}

} // namespace

std::unique_ptr<Prefetcher>
makePrefetcher(const std::string &name, CacheLevel level)
{
    Result<std::unique_ptr<Prefetcher>> pf =
        tryMakePrefetcher(name, level);
    if (!pf.ok())
        throw std::invalid_argument(pf.error().message);
    return pf.take();
}

const std::vector<std::string> &
prefetcherNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const PrefetcherMaker &m : kPrefetcherMakers)
            out.emplace_back(m.name);
        return out;
    }();
    return names;
}

Result<IpcpComboParams>
parseIpcpCombo(const std::string &combo)
{
    IpcpComboParams p;
    if (combo == "ipcp")
        return p;
    if (combo.rfind("ipcp:", 0) != 0)
        return makeError(Errc::unknown_name,
                         "not an ipcp combo: " + combo);
    const std::string list = combo.substr(5);
    if (list.empty())
        return makeError(Errc::corrupt,
                         "empty ipcp parameter list: " + combo);

    std::vector<KnobRef> refs = knobRefs(p);
    std::vector<std::string> seen;
    std::size_t start = 0;
    while (start <= list.size()) {
        std::size_t end = list.find(',', start);
        if (end == std::string::npos)
            end = list.size();
        const std::string pair = list.substr(start, end - start);
        start = end + 1;
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 == pair.size())
            return makeError(Errc::corrupt,
                             "bad ipcp parameter '" + pair + "' in " +
                                 combo);
        const std::string key = pair.substr(0, eq);
        const std::string value = pair.substr(eq + 1);
        const KnobRef *ref = nullptr;
        for (const KnobRef &r : refs)
            if (key == r.name) {
                ref = &r;
                break;
            }
        if (ref == nullptr)
            return makeError(Errc::unknown_name,
                             "unknown ipcp parameter: " + key);
        for (const std::string &s : seen)
            if (s == key)
                return makeError(Errc::corrupt,
                                 "duplicate ipcp parameter: " + key);
        seen.push_back(key);
        if (Status s = setKnob(*ref, value, combo); !s.ok())
            return s.error();
    }
    if (Status s = validateIpcpParams(p, combo); !s.ok())
        return s.error();
    return p;
}

std::string
formatIpcpCombo(const IpcpComboParams &p)
{
    IpcpComboParams defaults;
    IpcpComboParams copy = p;
    const std::vector<KnobRef> refs = knobRefs(copy);
    const std::vector<KnobRef> defs = knobRefs(defaults);
    std::string out = "ipcp";
    bool first = true;
    for (std::size_t i = 0; i < refs.size(); ++i) {
        if (formatKnob(refs[i]) == formatKnob(defs[i]))
            continue;
        out += first ? ":" : ",";
        first = false;
        out += refs[i].name;
        out += "=";
        out += formatKnob(refs[i]);
    }
    return out;
}

std::vector<std::string>
splitComboList(const std::string &list)
{
    std::vector<std::string> out;
    for (std::size_t pos = 0; pos <= list.size();) {
        const std::size_t comma = list.find(',', pos);
        const std::size_t end =
            comma == std::string::npos ? list.size() : comma;
        if (end > pos) {
            std::string seg = list.substr(pos, end - pos);
            // A bare `k=v` cannot name a combo; it is the next
            // parameter of the preceding `name:k=v,...` combo.
            const bool param = seg.find('=') != std::string::npos &&
                               seg.find(':') == std::string::npos;
            if (param && !out.empty() &&
                out.back().find(':') != std::string::npos) {
                out.back() += ",";
                out.back() += seg;
            } else {
                out.push_back(std::move(seg));
            }
        }
        pos = end + 1;
    }
    return out;
}

void
applyCombo(System &sys, const std::string &combo)
{
    if (Status s = tryApplyCombo(sys, combo); !s.ok())
        throw std::invalid_argument(s.error().message);
}

const std::vector<std::string> &
tableIIICombos()
{
    static const std::vector<std::string> combos = {
        "spp-ppf-dspatch", "mlop", "bingo", "tskid", "ipcp",
    };
    return combos;
}

void
applyIpcp(System &sys, const IpcpL1Params &l1, const IpcpL2Params &l2,
          bool use_l2)
{
    for (unsigned c = 0; c < sys.numCores(); ++c) {
        sys.l1d(c).setPrefetcher(std::make_unique<IpcpL1>(l1));
        if (use_l2)
            sys.l2(c).setPrefetcher(std::make_unique<IpcpL2>(l2));
        else
            sys.l2(c).setPrefetcher(std::make_unique<NoPrefetcher>());
    }
    sys.llc().setPrefetcher(std::make_unique<NoPrefetcher>());
}

} // namespace bouquet
