/**
 * @file
 * The result pin (tests/golden/results.txt): what the simulator
 * outputs for a fixed set of cells at smoke length, committed so that
 * a change claiming "no simulated byte moves" is checked by tier-1
 * (GoldenResults.MatchCommittedPin) rather than by a hand-run md5.
 *
 * A cell is a (workloads, combo) pair run through runMix, or a
 * two-rung ipcp_dse search. A simulation cell pins each core's IPC in
 * round-trip form and an FNV-1a digest of its stats JSON without the
 * `job_key` line (provenance, not a simulated result). The search
 * cell pins the default configuration's geomean and digests of its
 * `ipcp-dse-gate v1` gate and of report.json.
 *
 * `ipcp_sim --regen PATH` rewrites the pin. Only a change that
 * declares a fidelity fix regenerates it, listing old and new lines.
 */

#ifndef BOUQUET_TOOLS_GOLDEN_HH
#define BOUQUET_TOOLS_GOLDEN_HH

#include <string>
#include <utility>
#include <vector>

#include "common/errors.hh"

namespace bouquet::golden
{

/** One pinned cell: its name and its `key=value` fields in order. */
struct PinCell
{
    std::string name;
    std::vector<std::pair<std::string, std::string>> fields;
};

/**
 * Simulate every pinned cell. Scratch files (stats JSON, the search
 * root) go under `scratch_dir`, which is created and removed again.
 */
Result<std::vector<PinCell>> computePin(const std::string &scratch_dir);

/** The pin file's text: a comment header, then one line per cell. */
std::string formatPin(const std::vector<PinCell> &cells);

/** Parse formatPin's text; '#' lines and blank lines are skipped. */
Result<std::vector<PinCell>> parsePin(const std::string &text);

/**
 * Every way `got` differs from `want`, one message each naming the
 * cell and the field; empty when they agree.
 */
std::vector<std::string> diffPin(const std::vector<PinCell> &want,
                                 const std::vector<PinCell> &got);

} // namespace bouquet::golden

#endif // BOUQUET_TOOLS_GOLDEN_HH
