/**
 * @file
 * Binary trace file I/O: capture any WorkloadGenerator's stream to a
 * file and replay it later (ChampSim-style trace-driven workflow).
 * The format is a fixed 20-byte little-endian record behind a
 * versioned header; files loop on replay, mirroring sim-point
 * methodology.
 *
 * Loading validates the header magic, the format version byte, and
 * the record count against the actual file size, and reports precise
 * Result errors (bad magic vs unsupported version vs truncated vs
 * oversized vs zero records) instead of a generic failure, so one
 * unreadable trace fails one job rather than a whole sweep. The
 * read path declares the `trace.read` fault-injection point (see
 * common/faultinject.hh).
 */

#ifndef BOUQUET_TRACE_TRACE_IO_HH
#define BOUQUET_TRACE_TRACE_IO_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/errors.hh"
#include "trace/trace.hh"

namespace bouquet
{

/**
 * Capture `count` records from `gen` into a trace file. Error code:
 * io (cannot open or write).
 */
Status writeTrace(const std::string &path, WorkloadGenerator &gen,
                  std::uint64_t count);

/**
 * Load, validate, and decode a whole trace file into records. This is
 * the single decode path under every TraceFileGenerator. Error codes:
 * io (unreadable), bad_magic, bad_version, truncated, oversized,
 * empty. Fault point: `trace.read`.
 */
Result<std::vector<TraceRecord>>
readTraceRecords(const std::string &path);

/** Decoded records, shared read-only by the generators replaying them. */
using SharedTraceRecords = std::shared_ptr<const std::vector<TraceRecord>>;

/**
 * A workload generator replaying decoded trace records. The whole
 * trace is held in memory (records are 20 bytes; a 10M-record
 * sim-point is 200 MB — the files this library writes are far
 * smaller). Replay wraps at the end of file. The records may be
 * shared: every core of every combo replaying one file in a run
 * holds the same vector, and only the cursor is private.
 */
class TraceFileGenerator : public WorkloadGenerator
{
  public:
    /**
     * Load and validate a trace file into a generator named `name`
     * (the path when empty). Error codes: readTraceRecords'.
     */
    static Result<std::unique_ptr<TraceFileGenerator>>
    load(const std::string &path, std::string name = {});

    /** Replay already-decoded records. `records` must be non-empty. */
    TraceFileGenerator(std::string name, SharedTraceRecords records)
        : name_(std::move(name)), records_(std::move(records))
    {
    }

    void next(TraceRecord &out) override;
    void reset() override { pos_ = 0; }
    std::string name() const override { return name_; }

    std::size_t size() const { return records_->size(); }

  private:
    std::string name_;
    SharedTraceRecords records_;
    std::size_t pos_ = 0;
};

} // namespace bouquet

#endif // BOUQUET_TRACE_TRACE_IO_HH
