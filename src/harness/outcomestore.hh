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
 * Nothing evicts records: the file holds one per job key its benches
 * ever ran, and get() never writes.
 *
 * Declares the `store.read`, `store.write`, `store.flock` and
 * `store.nospace` fault-injection points.
 */
class OutcomeStore
{
  public:
    /** Bump when the record layout or key format changes.
     *  v5: Outcome gained the warmStart provenance flag.
     *  v6: records carried a last-used stamp (LRU GC under budget).
     *  v7: the stamp is gone. */
    static constexpr std::uint32_t kFormatVersion = 7;

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

    const std::string &path() const { return path_; }

  private:
    std::map<std::string, Outcome> readDisk(std::size_t *corrupt) const;
    Status mergeAndPersistLocked();
    /** Unlink the store file iff it is (still) zero bytes. */
    void evictEmptyFile();

    std::string path_;
    mutable std::mutex mutex_;
    std::size_t corrupt_ = 0;
    std::size_t lockFailures_ = 0;
    std::map<std::string, Outcome> cache_;
};

} // namespace bouquet

#endif // BOUQUET_HARNESS_OUTCOMESTORE_HH
