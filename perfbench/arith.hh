/**
 * @file
 * The benchmark's own arithmetic: medians and tail percentiles of
 * host timings, the differential split of prefetch cost, and the
 * per-kilo-instruction normalisation of summed counts. Header-only and
 * free of simulator types so the self-tests can pin every formula.
 */

#ifndef PERFBENCH_ARITH_HH
#define PERFBENCH_ARITH_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/stats.hh"

namespace perfbench
{

/** Median of `v` (mean of the middle pair for even sizes); 0 when empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * The highest percentile, in per mille, that still has at least ten
 * samples beyond it among `n`: 999 (p99.9), 990, 900 or 500, or 0 when
 * even the median would have fewer than ten above it (n < 20). Integer
 * arithmetic, so n = 100 gives p90 exactly (100 * 0.1 = 10 samples).
 */
inline unsigned
tailPermille(std::size_t n)
{
    for (const unsigned pm : {999u, 990u, 900u, 500u})
        if (n * (1000 - pm) >= 10'000)
            return pm;
    return 0;
}

/**
 * Nearest-rank percentile (`permille` / 1000) of `v`; 0 when empty.
 * The rank is ceil(p * n), so p50 of {1,2,3,4} is 2.
 */
inline double
percentile(std::vector<double> v, unsigned permille)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank = (v.size() * permille + 999) / 1000;
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

/**
 * Event counts summed over jobs, normalised once: sum-then-divide
 * weights every job by its instruction count, which is what a
 * per-kilo-instruction rate over a whole job list means. (Averaging
 * per-job rates would let a short job count as much as a long one.)
 */
struct KinstrTally
{
    std::uint64_t instructions = 0;
    std::uint64_t events = 0;

    void
    add(std::uint64_t job_events, std::uint64_t job_instructions)
    {
        events += job_events;
        instructions += job_instructions;
    }

    double perKinstr() const
    {
        return bouquet::perKiloInstr(events, instructions);
    }
};

/** Host time of one trace (or mix) under the three prefetch combos. */
struct ComboTimes
{
    double noneNs = -1.0;    //!< "none": no prefetching
    double l1Ns = -1.0;      //!< "ipcp-l1": IPCP at the L1D only
    double fullNs = -1.0;    //!< "ipcp": IPCP at L1D and L2
    std::uint64_t instructions = 0;  //!< measured, of the "none" job

    bool complete() const
    {
        return noneNs >= 0.0 && l1Ns >= 0.0 && fullNs >= 0.0 &&
               instructions > 0;
    }
};

/** Host ns per measured kilo-instruction added by each IPCP level. */
struct PrefetchSplit
{
    double l1NsPerKinstr = 0.0;  //!< ipcp-l1 - none
    double l2NsPerKinstr = 0.0;  //!< ipcp - ipcp-l1
    std::size_t groups = 0;      //!< complete groups used
};

/**
 * Differential prefetch cost over every complete group: the same
 * input run with none, ipcp-l1 and ipcp differs only in the attached
 * prefetchers, so the time differences are the L1 and L2 IPCP layers
 * (hooks plus the extra memory traffic they cause). Sums over groups
 * before dividing, like KinstrTally; incomplete groups are skipped. A
 * difference can come out negative when host noise exceeds the cost.
 */
inline PrefetchSplit
prefetchSplit(const std::vector<ComboTimes> &groups)
{
    double l1 = 0.0;
    double l2 = 0.0;
    std::uint64_t instrs = 0;
    PrefetchSplit out;
    for (const ComboTimes &g : groups) {
        if (!g.complete())
            continue;
        l1 += g.l1Ns - g.noneNs;
        l2 += g.fullNs - g.l1Ns;
        instrs += g.instructions;
        ++out.groups;
    }
    if (instrs == 0)
        return out;
    const double kinstr = static_cast<double>(instrs) / 1000.0;
    out.l1NsPerKinstr = l1 / kinstr;
    out.l2NsPerKinstr = l2 / kinstr;
    return out;
}

} // namespace perfbench

#endif // PERFBENCH_ARITH_HH
