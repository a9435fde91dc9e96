/**
 * @file
 * Prefetcher factory and multi-level combination wiring.
 *
 * Benches and examples describe prefetching configurations by name:
 * either a Table III combination ("ipcp", "spp-ppf-dspatch", "mlop",
 * "bingo", "tskid", "none", ...) applied to a whole system, or a single
 * prefetcher name instantiated at one level ("ip-stride", "spp",
 * "bingo-119k", ...). IPCP ablations use an explicit parameter struct.
 */

#ifndef BOUQUET_HARNESS_FACTORY_HH
#define BOUQUET_HARNESS_FACTORY_HH

#include <memory>
#include <string>
#include <vector>

#include "common/errors.hh"
#include "core/system.hh"
#include "ipcp/ipcp_l1.hh"
#include "ipcp/ipcp_l2.hh"
#include "prefetch/prefetcher.hh"

namespace bouquet
{

/**
 * Instantiate a single prefetcher by name for a given cache level.
 *
 * The known names are prefetcherNames(); `ipcp` builds the
 * level-appropriate IPCP. Throws std::invalid_argument for unknown
 * names.
 */
std::unique_ptr<Prefetcher> makePrefetcher(const std::string &name,
                                           CacheLevel level);

/** Every name makePrefetcher accepts, in the factory table's order. */
const std::vector<std::string> &prefetcherNames();

/**
 * Apply a named multi-level combination to every core of a system
 * (Table III):
 *
 *  - "none"             : no prefetching anywhere
 *  - "ipcp"             : IPCP(L1) + IPCP(L2)
 *  - "ipcp-l1"          : IPCP at the L1 only
 *  - "spp-ppf-dspatch"  : throttled-NL(L1) + SPP+PPF+DSPatch(L2) + NL(LLC)
 *  - "mlop"             : MLOP(L1) + NL(L2, LLC)
 *  - "bingo"            : Bingo 48 KB(L1) + NL(L2, LLC)
 *  - "bingo-119k"       : Bingo 119 KB(L1) + NL(L2, LLC)
 *  - "tskid"            : T-SKID(L1) + SPP(L2)
 *  - "l1:<name>"        : <name> at L1-D only
 *  - "l2:<name>"        : <name> at L2 only
 *
 * Throws std::invalid_argument for an unknown combo or prefetcher
 * name and for a malformed `ipcp:` combo; inside a Runner batch that
 * fails one job, not the process.
 */
void applyCombo(System &sys, const std::string &combo);

/** Names of the Table III combos, in the paper's presentation order. */
const std::vector<std::string> &tableIIICombos();

/** Apply an explicitly parameterized IPCP (ablation studies). */
void applyIpcp(System &sys, const IpcpL1Params &l1,
               const IpcpL2Params &l2, bool use_l2 = true);

/**
 * A fully parameterized IPCP configuration as named by a combo
 * string. `ipcp` alone means all defaults; `ipcp:` introduces
 * comma-separated `key=value` overrides using the IpcpL1Params field
 * names verbatim (`ipEntries`, `gsDefaultDegree`, `highWatermark`,
 * ...), `l2`-prefixed names for the L2 (`l2IpEntries`, `l2CsDegree`,
 * `l2GsDegree`, `l2IpTagBits`, `l2MpkiThreshold`, `l2EnableNL`) and
 * `useL2=0|1` to drop the L2 component entirely:
 *
 *   ipcp:ipEntries=128,gsDefaultDegree=4
 *   ipcp:throttling=0,l2CsDegree=2
 *
 * This makes design-space points first-class combo names: they flow
 * through Runner job keys, campaign manifests and warm-state labels
 * exactly like the Table III names do.
 */
struct IpcpComboParams
{
    IpcpL1Params l1;
    IpcpL2Params l2;
    bool useL2 = true;
};

/**
 * Parse an `ipcp` / `ipcp:k=v,...` combo string. Unknown keys are
 * Errc::unknown_name; malformed or out-of-range values (table sizes
 * that must be powers of two, watermarks outside [0,1], duplicate
 * keys) are Errc::corrupt.
 */
Result<IpcpComboParams> parseIpcpCombo(const std::string &combo);

/**
 * Canonical combo string for a parameter set: `ipcp` when everything
 * is at its default, otherwise `ipcp:` plus only the non-default
 * keys, in a fixed registry order. parse(format(p)) == p, and two
 * parameter sets compare equal iff their canonical strings do — the
 * DSE engine dedups grid points on this.
 */
std::string formatIpcpCombo(const IpcpComboParams &p);

/**
 * Split a comma-separated combo list (`--combo` / `--combos`) into
 * combo strings, keeping parameterized combos whole: a bare `k=v`
 * segment can never name a combo, so it continues the preceding
 * `name:k=v` combo instead of starting a new one —
 * `none,ipcp:ipEntries=128,gsDefaultDegree=6` is two combos, not
 * three. Empty segments are dropped.
 */
std::vector<std::string> splitComboList(const std::string &list);

} // namespace bouquet

#endif // BOUQUET_HARNESS_FACTORY_HH
