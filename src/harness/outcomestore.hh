/**
 * @file
 * Disk-backed store of Outcome records keyed by the runner's job key,
 * the cache behind the figure benches' Runner (`bench_cache.bin`).
 * Campaigns do not use it: their done files carry the outcome
 * (campaign/queue.hh).
 */

#ifndef BOUQUET_HARNESS_OUTCOMESTORE_HH
#define BOUQUET_HARNESS_OUTCOMESTORE_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/errors.hh"
#include "harness/experiment.hh"

namespace bouquet
{

/**
 * Disk-backed store of Outcome records keyed by the runner's job key.
 *
 * The file is versioned (format version + record size in the header)
 * and every record carries a checksum; a truncated, corrupt or
 * stale-format file is detected at load and its unusable tail (or the
 * whole file) is discarded and regenerated instead of trusted. A
 * zero-byte file — a writer that crashed between creating the file
 * and its first write, before the atomic-rename publish — is a plain
 * miss, not corruption: it is evicted (under the lock) at load so the
 * entry is recomputed cleanly.
 * Writes go through a sidecar lock file and publishFile() of the
 * complete store, after merging the entries currently on disk, so any
 * number of concurrent bench processes can share one cache file
 * without corrupting it or losing each other's completed entries.
 * If the advisory lock cannot be taken the write proceeds unlocked
 * (the atomic rename still guarantees readers a complete file; only
 * a concurrent writer's fresh entries could be lost) and the event
 * is counted in lockFailures(). A failed persist keeps the entry in
 * memory — the next successful put rewrites everything — and is
 * reported in the returned Status (an out-of-space failure is
 * additionally counted as a degraded store publish, see
 * common/degrade.hh). All member functions are thread-safe.
 *
 * Records carry a last-used stamp so the store can garbage-collect
 * itself under IPCP_STORE_BUDGET_MB: when the merged file would
 * exceed the budget, the least-recently-used records are dropped
 * (from disk and memory) until it fits — the single-file analogue of
 * DiskBudget's per-file LRU sweep, counted in evictions().
 *
 * Declares the `store.read`, `store.write`, `store.flock` and
 * `store.nospace` fault-injection points.
 */
class OutcomeStore
{
  public:
    /** Bump when the record layout or key format changes.
     *  v5: Outcome gained the warmStart provenance flag.
     *  v6: records carry a last-used stamp (LRU GC under budget). */
    static constexpr std::uint32_t kFormatVersion = 6;

    /** @param path cache file; empty = in-memory only */
    explicit OutcomeStore(std::string path);

    /**
     * Look up a key. On a memory miss the disk file is re-read first,
     * so entries completed by concurrent processes are found and not
     * recomputed.
     */
    bool get(const std::string &key, Outcome &out);

    /**
     * Insert an entry and persist the merged store atomically. On a
     * persist failure the entry survives in memory and the error is
     * returned (transient: a later put retries the whole merge).
     */
    Status put(const std::string &key, const Outcome &out);

    /** Entries currently in memory. */
    std::size_t size() const;

    /** Records rejected as corrupt/short when the file was loaded. */
    std::size_t corruptRecords() const { return corrupt_; }

    /** Times the sidecar lock could not be taken (write went ahead). */
    std::size_t lockFailures() const;

    /** Records dropped by the budget GC (memory and disk). */
    std::uint64_t evictions() const;

    const std::string &path() const { return path_; }

  private:
    struct Stamped
    {
        Outcome outcome;
        std::uint64_t stamp = 0;  //!< wall seconds at last get/put
    };

    std::map<std::string, Stamped> readDisk(std::size_t *corrupt) const;
    Status mergeAndPersistLocked();
    /** Drop LRU records until the serialized size fits the budget. */
    void enforceBudgetLocked();
    /** Unlink the store file iff it is (still) zero bytes. */
    void evictEmptyFile();

    std::string path_;
    mutable std::mutex mutex_;
    std::size_t corrupt_ = 0;
    std::size_t lockFailures_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t budgetBytes_ = 0;  //!< 0 = unlimited
    std::map<std::string, Stamped> cache_;
};

} // namespace bouquet

#endif // BOUQUET_HARNESS_OUTCOMESTORE_HH
