/**
 * @file
 * Per-store disk quotas with LRU garbage collection (DESIGN.md §5i).
 *
 * Every on-disk cache the harness grows — the WarmStore's warm-state
 * containers, the derived-checkpoint directory, the OutcomeStore file
 * — is unbounded by construction: a campaign that sweeps enough
 * combos eventually fills the filesystem and every co-tenant store
 * with it. A DiskBudget bounds one directory family of files:
 *
 *   DiskBudget(dir, prefix, suffix, budget_bytes, kind)
 *
 * sweep(incoming) scans `dir` for `prefix*suffix` payload files and,
 * while their total size plus the incoming write would exceed the
 * budget, unlinks the least-recently-used one (atime when the mount
 * tracks it, else mtime). Stores call sweep(0) on open and
 * sweep(payload_size) before each publish.
 *
 * Eviction takes no lock of its own. A store whose files have
 * healers sweeps under the lock they take (the WarmStore's one store
 * lock), and a reader or publisher that loses the race observes a
 * missing file: an ordinary miss that recomputes, never an error. A
 * budget of 0 disables the sweep entirely (the pre-quota behaviour).
 *
 * Evictions are counted per store kind, process-wide, and exported
 * through harnessCacheStats() as ipcp.gc.<kind>.evicted; campaign
 * workers fold per-attempt deltas into the job history so
 * summary.json can total them fleet-wide.
 */

#ifndef BOUQUET_HARNESS_DISKBUDGET_HH
#define BOUQUET_HARNESS_DISKBUDGET_HH

#include <cstdint>
#include <string>

namespace bouquet
{

/** Which store a budget (and its eviction counter) belongs to. */
enum class BudgetKind
{
    store,  //!< OutcomeStore record GC (IPCP_STORE_BUDGET_MB)
    warm,   //!< warm-state containers (IPCP_WARM_BUDGET_MB)
    ckpt,   //!< derived checkpoints (IPCP_CKPT_BUDGET_MB)
};

class DiskBudget
{
  public:
    /**
     * @param dir          directory holding the payload files
     * @param prefix       payload file name prefix (e.g. "warm-")
     * @param suffix       payload file name suffix (e.g. ".ckpt")
     * @param budget_bytes total payload bytes allowed; 0 = unlimited
     */
    DiskBudget(std::string dir, std::string prefix, std::string suffix,
               std::uint64_t budget_bytes, BudgetKind kind);

    /**
     * Evict least-recently-used payload files until the family's
     * total size plus `incoming_bytes` fits the budget. Silent and
     * best-effort: a missing directory, an unreadable entry or a
     * failed unlink only narrows what this pass can reclaim.
     */
    void sweep(std::uint64_t incoming_bytes = 0) const;

    std::uint64_t budgetBytes() const { return budgetBytes_; }
    bool enabled() const { return budgetBytes_ > 0; }

  private:
    std::string dir_;
    std::string prefix_;
    std::string suffix_;
    std::uint64_t budgetBytes_;
    BudgetKind kind_;
};

/**
 * Parse a *_BUDGET_MB environment knob into bytes. Accepts decimals
 * ("0.25" = 256 KiB) so tests and tiny campaigns can exercise the GC
 * without megabytes of artifacts. Unset, empty, zero or negative
 * disables the budget (returns 0).
 */
std::uint64_t envBudgetBytes(const char *env_name);

/** Files (or records) evicted under `kind`'s budget, process-wide. */
std::uint64_t gcEvicted(BudgetKind kind);

/** Evictions across all budget kinds. */
std::uint64_t gcEvictedTotal();

/** Credit `n` evictions to `kind` (DiskBudget and the OutcomeStore's
 *  record-level GC both report through this). */
void noteGcEvicted(BudgetKind kind, std::uint64_t n);

} // namespace bouquet

#endif // BOUQUET_HARNESS_DISKBUDGET_HH
