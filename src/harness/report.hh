/**
 * @file
 * Machine-readable result export: write collections of experiment
 * outcomes as CSV so plots and regression dashboards can be built
 * from bench output without screen-scraping the tables.
 */

#ifndef BOUQUET_HARNESS_REPORT_HH
#define BOUQUET_HARNESS_REPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace bouquet
{

/** One labelled experiment result row. */
struct ReportRow
{
    std::string trace;
    std::string combo;
    Outcome outcome;
};

/**
 * Accumulates rows and renders them as CSV.
 *
 * Columns: trace, combo, ipc, instructions, cycles, per-level demand
 * misses / MPKI, prefetch issued / fills / useful / unused per level,
 * per-class L1 fills & useful, DRAM bytes.
 */
class Report
{
  public:
    void
    add(std::string trace, std::string combo, const Outcome &outcome)
    {
        rows_.push_back({std::move(trace), std::move(combo), outcome});
    }

    std::size_t size() const { return rows_.size(); }
    const std::vector<ReportRow> &rows() const { return rows_; }

    /** Render as CSV with a header row. */
    void writeCsv(std::ostream &os) const;

    /** The CSV column names, in output order. */
    static const std::vector<std::string> &columns();

  private:
    std::vector<ReportRow> rows_;
};

} // namespace bouquet

#endif // BOUQUET_HARNESS_REPORT_HH
