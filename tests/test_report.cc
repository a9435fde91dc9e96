/** @file Tests for the CSV result exporter. */

#include <gtest/gtest.h>

#include <sstream>

#include "harness/report.hh"

namespace bouquet
{
namespace
{

Outcome
sampleOutcome()
{
    Outcome o;
    o.ipc = 1.25;
    o.instructions = 1000;
    o.cycles = 800;
    o.dramBytes = 4096;
    o.l1d.misses[static_cast<int>(AccessType::Load)] = 40;
    o.l1d.pfFills = 30;
    o.l1d.pfUseful = 25;
    o.l1d.pfClassFills[1] = 20;  // cs
    o.l1d.pfClassUseful[1] = 18;
    return o;
}

TEST(Report, CsvHasHeaderAndRows)
{
    Report r;
    r.add("traceA", "ipcp", sampleOutcome());
    r.add("traceB", "none", sampleOutcome());
    std::ostringstream os;
    r.writeCsv(os);
    const std::string out = os.str();

    // Header + 2 rows = 3 lines.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
    EXPECT_EQ(out.find("trace,combo,ipc"), 0u);
    EXPECT_NE(out.find("traceA,ipcp,1.25"), std::string::npos);
}

TEST(Report, CsvColumnCountsMatchHeader)
{
    Report r;
    r.add("t", "c", sampleOutcome());
    std::ostringstream os;
    r.writeCsv(os);
    std::istringstream is(os.str());
    std::string header, row;
    std::getline(is, header);
    std::getline(is, row);
    EXPECT_EQ(std::count(header.begin(), header.end(), ','),
              std::count(row.begin(), row.end(), ','));
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(header.begin(), header.end(), ',')) + 1,
              Report::columns().size());
}

TEST(Report, CsvCarriesClassBreakdown)
{
    Report r;
    r.add("t", "c", sampleOutcome());
    std::ostringstream os;
    r.writeCsv(os);
    EXPECT_NE(os.str().find("l1d_fills_cs"), std::string::npos);
    EXPECT_NE(os.str().find("l1d_useful_gs"), std::string::npos);
}

TEST(Report, CsvCarriesIssuedAndLateColumns)
{
    Report r;
    Outcome o = sampleOutcome();
    o.l1d.pfClassIssued[1] = 22;
    o.l1d.pfClassLate[1] = 4;
    r.add("t", "c", o);
    std::ostringstream os;
    r.writeCsv(os);
    EXPECT_NE(os.str().find("l1d_issued_cs"), std::string::npos);
    EXPECT_NE(os.str().find("l1d_late_nl"), std::string::npos);
    EXPECT_NE(os.str().find(",22,"), std::string::npos);
}

TEST(Report, EmptyReportStillValid)
{
    Report r;
    std::ostringstream csv;
    r.writeCsv(csv);
    const std::string csv_out = csv.str();
    EXPECT_EQ(std::count(csv_out.begin(), csv_out.end(), '\n'), 1);
}

} // namespace
} // namespace bouquet
