/**
 * @file
 * Deterministic, seedable fault injection for the experiment harness.
 *
 * The harness declares *named injection points* at the places a
 * production sweep actually fails — trace file reads, outcome-store
 * I/O and locking, the worker job body, the cache fill path — and a
 * process-wide FaultRegistry decides, deterministically, which hits
 * of which point should fail. The spec comes from the IPCP_FAULTS
 * environment variable (or FaultRegistry::configure in tests):
 *
 *   IPCP_FAULTS := clause (',' clause)*
 *   clause      := point ['~' match] '@' from ['-' to | '+'] ['=' action]
 *   action      := 'fail' | 'fatal'
 *
 *   point   one of: trace.read store.read store.write store.flock
 *                   job.body cache.fill ckpt.write ckpt.read
 *                   queue.claim queue.heartbeat queue.reclaim
 *                   store.nospace warm.nospace ckpt.nospace
 *                   worker.wedge
 *           (the *.nospace points emulate a full filesystem at the
 *           respective publish path — they inject Errc::no_space, the
 *           error the degradation layer downgrades to pass-through;
 *           worker.wedge spins a campaign worker forever inside the
 *           claimed job, heartbeat still beating, to exercise the
 *           supervisor's stall watchdog)
 *   match   substring filter on the point's context string (a job
 *           key, a file path, a cache name); only matching hits are
 *           counted and failed
 *   from/to 1-based hit numbers: "@3" fires on exactly the 3rd
 *           matching hit, "@3-5" on hits 3..5, "@2+" on every hit
 *           from the 2nd
 *   action  'fail'  inject a transient (retry-eligible) error
 *                   [default]
 *           'fatal' inject a permanent error (never retried)
 *
 * Examples:
 *   IPCP_FAULTS='job.body~605.mcf@1'         first mcf job fails once
 *   IPCP_FAULTS='store.write@1-2,store.flock@1'
 *   IPCP_FAULTS='cache.fill@100=fatal'
 *
 * Hits are counted per clause under a mutex, so firing is
 * deterministic for serial execution and for any point whose hits
 * are ordered (per-job points keyed by context). All entry points
 * are thread-safe; when no spec is configured the per-hit cost is
 * one relaxed atomic load.
 */

#ifndef BOUQUET_COMMON_FAULTINJECT_HH
#define BOUQUET_COMMON_FAULTINJECT_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/errors.hh"

namespace bouquet
{

/** The named injection points the harness declares. */
namespace faults
{
inline constexpr const char *kTraceRead = "trace.read";
inline constexpr const char *kStoreRead = "store.read";
inline constexpr const char *kStoreWrite = "store.write";
inline constexpr const char *kStoreFlock = "store.flock";
inline constexpr const char *kJobBody = "job.body";
inline constexpr const char *kCacheFill = "cache.fill";
inline constexpr const char *kCkptWrite = "ckpt.write";
inline constexpr const char *kCkptRead = "ckpt.read";
inline constexpr const char *kQueueClaim = "queue.claim";
inline constexpr const char *kQueueHeartbeat = "queue.heartbeat";
inline constexpr const char *kQueueReclaim = "queue.reclaim";
inline constexpr const char *kStoreNospace = "store.nospace";
inline constexpr const char *kWarmNospace = "warm.nospace";
inline constexpr const char *kCkptNospace = "ckpt.nospace";
inline constexpr const char *kWorkerWedge = "worker.wedge";
} // namespace faults

/** One parsed IPCP_FAULTS clause plus its firing counters. */
struct FaultClause
{
    enum class Action { Fail, Fatal };

    std::string point;
    std::string match;           //!< context substring ("" = any)
    std::uint64_t from = 1;      //!< first firing hit (1-based)
    std::uint64_t to = 1;        //!< last firing hit (inclusive)
    Action action = Action::Fail;

    std::uint64_t hits = 0;      //!< matching hits observed
    std::uint64_t fired = 0;     //!< hits that injected
};

/** Parse a spec string into clauses (exposed for tests/tools). */
Status parseFaultSpec(const std::string &spec,
                      std::vector<FaultClause> &out);

/**
 * The process-wide fault table. The singleton configures itself from
 * IPCP_FAULTS on first use; tests call configure()/clear() to drive
 * it explicitly (replacing any environment spec).
 */
class FaultRegistry
{
  public:
    static FaultRegistry &instance();

    /** Replace all clauses and reset counters. */
    Status configure(const std::string &spec);

    /** Drop all clauses (disables injection). */
    void clear();

    /** True if any clause is loaded (cheap, lock-free). */
    bool active() const
    {
        return active_.load(std::memory_order_relaxed);
    }

    /**
     * Record a hit of `point` with `context` and return the error to
     * inject, if any. Thread-safe.
     */
    std::optional<Error> check(std::string_view point,
                               std::string_view context);

    /** Total injected failures at `point` ("" = all points). */
    std::uint64_t firedCount(std::string_view point = {}) const;

    /** Total recorded (matching) hits at `point` ("" = all). */
    std::uint64_t hitCount(std::string_view point = {}) const;

  private:
    FaultRegistry();  //!< reads IPCP_FAULTS

    mutable std::mutex mutex_;
    std::vector<FaultClause> clauses_;
    std::atomic<bool> active_{false};
};

/**
 * Declare an injection point in Result/Status-based code: returns
 * the error to propagate, or nothing. No-op (one relaxed load) when
 * no faults are configured.
 */
inline std::optional<Error>
faultCheck(const char *point, std::string_view context = {})
{
    FaultRegistry &reg = FaultRegistry::instance();
    if (!reg.active())
        return std::nullopt;
    return reg.check(point, context);
}

/**
 * Declare an injection point in exception-based code (job bodies,
 * simulation internals): throws ErrorException when a fault fires.
 */
inline void
faultPoint(const char *point, std::string_view context = {})
{
    if (auto err = faultCheck(point, context))
        throw ErrorException(std::move(*err));
}

} // namespace bouquet

#endif // BOUQUET_COMMON_FAULTINJECT_HH
