/**
 * @file
 * The committed result pin (tests/golden/results.txt): every cell is
 * simulated again and must reproduce its pinned IPC and digests
 * exactly, under either loop (CI runs this test with IPCP_NO_SKIP=1
 * too). A mismatch names the cell and the field. A change that moves
 * a result on purpose regenerates the pin with
 * `ipcp_sim --regen tests/golden/results.txt` and lists the old and
 * new lines in CHANGES.md.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "tools/golden.hh"

namespace bouquet
{
namespace
{

TEST(GoldenResults, MatchCommittedPin)
{
    const std::string path =
        std::string(IPCP_SOURCE_DIR) + "/tests/golden/results.txt";
    std::ifstream in(path);
    ASSERT_TRUE(in) << "cannot open " << path;
    std::ostringstream text;
    text << in.rdbuf();
    Result<std::vector<golden::PinCell>> want =
        golden::parsePin(text.str());
    ASSERT_TRUE(want.ok()) << want.error().message;
    ASSERT_FALSE(want.value().empty()) << path << " pins no cell";

    Result<std::vector<golden::PinCell>> got = golden::computePin(
        ::testing::TempDir() + "/golden_results_" +
        std::to_string(::getpid()));
    ASSERT_TRUE(got.ok()) << got.error().message;
    for (const std::string &diff : golden::diffPin(want.value(),
                                                   got.value()))
        ADD_FAILURE() << diff;
}

TEST(GoldenResults, DiffNamesTheCellAndField)
{
    const std::vector<golden::PinCell> want = {
        {"1c/a/none", {{"ipc", "0.5"}, {"stats", "00ff"}}},
        {"1c/b/ipcp", {{"ipc", "0.7"}}}};
    std::vector<golden::PinCell> got = want;
    got[0].fields[1].second = "0100";
    got.pop_back();
    const std::vector<std::string> diffs = golden::diffPin(want, got);
    ASSERT_EQ(diffs.size(), 2u);
    EXPECT_EQ(diffs[0], "1c/a/none: stats pinned 00ff, got 0100");
    EXPECT_EQ(diffs[1], "1c/b/ipcp: pinned cell was not computed");

    Result<std::vector<golden::PinCell>> back =
        golden::parsePin(golden::formatPin(want));
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(golden::diffPin(want, back.value()).empty());
}

} // namespace
} // namespace bouquet
