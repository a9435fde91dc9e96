/**
 * @file
 * Graceful-degradation bookkeeping for resource exhaustion (DESIGN.md
 * §5i). When a store publish fails — disk full, quota hit, flaky I/O —
 * the write downgrades to a warn-once pass-through instead of failing
 * the job: the in-memory copy keeps serving, the artifact is simply
 * not durable. This module is the shared ledger for those events:
 *
 *   noteDegraded(kind, err)   count one skipped publish; the first
 *                             event of each kind prints one stderr
 *                             warning (later ones are silent — a full
 *                             disk would otherwise print per job)
 *   degradedCount(kind)       events so far, exported through
 *                             harnessCacheStats() as
 *                             ipcp.degraded.<kind>.writes
 *
 * It also hosts the process-wide *progress epoch*: a counter bumped
 * by the simulation tick loop (and the campaign worker's claim loop)
 * that the worker's heartbeat thread exports next to its lease
 * heartbeat. The supervisor's stall watchdog reads it to distinguish
 * "alive but wedged" (heartbeats flowing, epoch frozen) from "making
 * progress". Lives in common/ so core, trace, harness and campaign
 * can all bump or read it without layering cycles.
 */

#ifndef BOUQUET_COMMON_DEGRADE_HH
#define BOUQUET_COMMON_DEGRADE_HH

#include <cstdint>
#include <string>

#include "common/errors.hh"

namespace bouquet
{

/** Which publish path degraded. */
enum class DegradeKind
{
    store,  //!< OutcomeStore persist
    warm,   //!< WarmStore container publish
    ckpt,   //!< periodic checkpoint save
    stats,  //!< per-job stats JSON artifact
};

inline constexpr unsigned kDegradeKinds = 4;

const char *degradeKindName(DegradeKind kind);

/**
 * Record one degraded (skipped/failed) publish of `kind`. The first
 * event per kind prints a warning naming the error; every event is
 * counted.
 */
void noteDegraded(DegradeKind kind, const Error &err);

/** Degraded publishes of `kind` so far in this process. */
std::uint64_t degradedCount(DegradeKind kind);

/**
 * Degraded publishes of `kind` made on the calling thread: the campaign
 * worker charges each job the writes made for it on its own thread
 * and on the publisher thread.
 */
std::uint64_t degradedCountOnThread(DegradeKind kind);

/**
 * Map a captured errno from a failed write to the error vocabulary:
 * ENOSPC/EDQUOT become Errc::no_space (the degradable "disk is
 * full" family), everything else stays Errc::io. Both are transient —
 * space can be freed, flakes can clear.
 */
Error classifyWriteErrno(int saved_errno, std::string message);

/** True when `saved_errno` is the out-of-space family. */
bool isNoSpaceErrno(int saved_errno);

/** The process-wide progress epoch (monotonic, relaxed). */
std::uint64_t progressEpoch();

/** Bump the progress epoch: call from loops that constitute forward
 *  progress (simulation ticks, worker claim passes, trace decodes). */
void bumpProgressEpoch();

} // namespace bouquet

#endif // BOUQUET_COMMON_DEGRADE_HH
