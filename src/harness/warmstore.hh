/**
 * @file
 * Warm-state memoization across runs (DESIGN.md §5h).
 *
 * Every job in a figure sweep simulates the same warmup prefix before
 * the measured region: only the measurement-phase knobs differ. The
 * WarmStore memoizes the end-of-warmup machine state, keyed by
 * warmupKey() — a digest of exactly the inputs that influence warmup
 * (traces, attach combo, warmup length, system geometry) and nothing
 * that only matters afterwards (simInstrs, stats/trace export paths).
 * The first run of each unique prefix publishes its state; every later
 * run with the same key fast-forwards by loading it, byte-identically
 * to having simulated the warmup itself.
 *
 * Sharing works at two levels:
 *  - in-process: a mutex-guarded payload cache, shared by all Runner
 *    workers via warmStoreFor() (one store per directory);
 *  - cross-process: checkpoint-container files under the store
 *    directory (campaign workers point IPCP_WARM_DIR at a shared
 *    path), written with the same atomic tmp+fsync+rename and CRC
 *    discipline as periodic checkpoints. Writers of one key write the
 *    same bytes, so racing publishes need no lock: the last rename
 *    wins.
 *
 * A stale, truncated, or corrupt warm file is never an error — it
 * heals to a miss: the reader revalidates under the store's one flock
 * (`<dir>/store.lock`, which budget sweeps also take) and unlinks the
 * file (OutcomeStore's zero-byte self-healing, generalized), and the
 * run simulates its warmup normally.
 */

#ifndef BOUQUET_HARNESS_WARMSTORE_HH
#define BOUQUET_HARNESS_WARMSTORE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/errors.hh"
#include "harness/diskbudget.hh"

namespace bouquet
{

struct SystemConfig;
struct TraceSpec;

/**
 * The memoization key for one warmup prefix. Inputs are exactly the
 * knobs that can change the machine state reached at the warmup
 * boundary:
 *  - the per-core workloads (name + generator seed + intensity);
 *  - the attach label (prefetchers train during warmup, so warm state
 *    is per-combo — two combos sharing a label must not share a key,
 *    which is why anonymous attach functions get no warm sharing);
 *  - the warmup length;
 *  - system geometry and seed (cache shapes via systemFingerprint,
 *    plus frame bits and RNG seed, which the fingerprint omits).
 * Measurement-only knobs (simInstrs, export paths, host-side tick
 * threading) are deliberately excluded: runs that differ only in
 * those share one warm state.
 */
std::string warmupKey(const std::vector<TraceSpec> &specs,
                      const std::string &attach_label,
                      std::uint64_t warmup_instrs,
                      const SystemConfig &sys);

/**
 * Flock-safe store of end-of-warmup state payloads, one checkpoint
 * container file per key under a directory. Thread-safe; share one
 * instance per directory via warmStoreFor().
 */
class WarmStore
{
  public:
    /** Immutable shared payload: loaders read, never mutate. */
    using Payload = std::shared_ptr<const std::vector<std::uint8_t>>;

    /** The one lock file every process sharing `dir` flocks to heal
     *  or sweep. */
    static constexpr const char *kLockFile = "store.lock";

    /**
     * `dir` is created on first publish. `mem_entries` caps the
     * in-process payload cache (beyond it the disk still serves);
     * 0 reads IPCP_WARM_MEM_ENTRIES, default 64. When
     * IPCP_WARM_BUDGET_MB is set the directory is swept (LRU files
     * evicted down to the budget) here and before every publish.
     */
    explicit WarmStore(std::string dir, std::size_t mem_entries = 0);
    ~WarmStore();

    WarmStore(const WarmStore &) = delete;
    WarmStore &operator=(const WarmStore &) = delete;

    /**
     * Look up the warm state for `key`. `config_hash` must be the
     * loading system's configHash() — a file written for a different
     * configuration is rejected (and healed) just like a periodic
     * checkpoint would be. Returns nullptr on miss.
     */
    Payload fetch(const std::string &key, std::uint64_t config_hash);

    /**
     * Publish the warm state for `key`: cache it in-process and write
     * the container file (skipped when a complete file already exists
     * or another thread of this process is writing it — keys are
     * deterministic, so whoever won the race writes the same bytes).
     * The returned Status reports this call's disk write;
     * in-process sharing works even when it fails, and an
     * out-of-space failure is counted as a degraded warm publish.
     * Declares the `warm.nospace` fault-injection point.
     */
    Status publish(const std::string &key, std::uint64_t config_hash,
                   std::vector<std::uint8_t> payload);

    /** The container file fetch/publish use for `key`. */
    std::string pathFor(const std::string &key) const;

    const std::string &dir() const { return dir_; }

    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }
    std::uint64_t publishes() const { return publishes_.load(); }
    /** Unusable files unlinked (healed to a miss). */
    std::uint64_t heals() const { return heals_.load(); }

  private:
    struct Entry
    {
        std::uint64_t configHash = 0;
        Payload payload;
    };

    class Lock;

    void remember(const std::string &key, std::uint64_t config_hash,
                  Payload payload);

    std::string dir_;
    std::size_t memCap_;
    DiskBudget budget_;
    std::mutex mutex_;  //!< guards mem_ and writing_
    std::map<std::string, Entry> mem_;
    std::set<std::string> writing_;  //!< keys this process is writing
    std::mutex lockMutex_;  //!< in-process half of Lock
    int lockFd_ = -1;       //!< the lock file, opened on first Lock
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> publishes_{0};
    std::atomic<std::uint64_t> heals_{0};
};

/**
 * Process-wide store registry, one WarmStore per directory, so every
 * Runner worker (and every job in a batch) shares the same in-memory
 * payload cache for a given IPCP_WARM_DIR.
 */
WarmStore &warmStoreFor(const std::string &dir);

class StatRegistry;

/**
 * Process-wide registry of the harness-level cache counters:
 *
 *   campaign.warm.{hit,miss,publish,heal}   summed over every
 *                                           WarmStore opened via
 *                                           warmStoreFor()
 *   ipcp.degraded.{store,warm,ckpt,stats}.writes
 *                                           publishes downgraded to
 *                                           pass-through (disk full
 *                                           or failing, §5i)
 *   ipcp.gc.{store,warm,ckpt}.evicted       records/files evicted
 *                                           under the disk budgets
 *
 * Deliberately separate from System's per-run registry: these count
 * host-side cache effectiveness, which must never leak into the
 * per-job stats JSON (warm and cold runs are byte-identical there).
 */
StatRegistry &harnessCacheStats();

} // namespace bouquet

#endif // BOUQUET_HARNESS_WARMSTORE_HH
