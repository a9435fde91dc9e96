/**
 * @file
 * Machine-readable run artifacts: the full stat tree of a System as
 * pretty-printed JSON (schema-versioned, keyed by config hash and job
 * key) and the event-trace ring in Chrome trace_event format (loadable
 * by Perfetto / chrome://tracing). Both are exported after a run
 * completes. Both are formatted to a string and landed with
 * publishFile (atomic and durable), so a kill never leaves a torn file
 * under the real name; a failure comes back as a Status, so an export
 * problem never fails an otherwise healthy experiment.
 */

#ifndef BOUQUET_HARNESS_STATSJSON_HH
#define BOUQUET_HARNESS_STATSJSON_HH

#include <string>

#include "common/errors.hh"
#include "core/system.hh"

namespace bouquet
{

/**
 * Bumped whenever the shape of the stats JSON document (not the stat
 * tree itself — components may add stats freely) changes.
 */
inline constexpr std::uint64_t kStatsJsonSchemaVersion = 1;

/**
 * `sys`'s complete stat tree as pretty-printed JSON:
 *
 *   { "schema_version": 1,
 *     "config_hash": "0x....",        // System::configHash()
 *     "job_key": "...",               // caller-supplied run identity
 *     "workloads": ["...", ...],      // one per core
 *     "stats": { "system": {...} } }  // nested registry tree
 */
std::string formatSystemStatsJson(System &sys, const std::string &job_key);

/**
 * Publish the event-trace ring of `sys` to `path` in Chrome
 * trace_event JSON, replacing any earlier file whole. Returns an error
 * Status if tracing was never enabled or the write failed.
 */
Status writeTraceEvents(System &sys, const std::string &path);

} // namespace bouquet

#endif // BOUQUET_HARNESS_STATSJSON_HH
