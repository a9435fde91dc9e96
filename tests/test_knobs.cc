/**
 * @file
 * Source-level check of the environment knob table: README.md's
 * `| \`IPCP_…\` | default | meaning |` table is the one list of every
 * IPCP_* knob the program reads. A quoted "IPCP_…" literal under
 * src/, tools/ or bench/ without a row fails, and so does a row that
 * names a knob no such literal reads. A knob that CI's workflow or a
 * tools/ script sets must be one of those read, so a deleted knob
 * cannot linger as a setting that does nothing.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

namespace
{

const std::filesystem::path kRoot(IPCP_SOURCE_DIR);

bool
isKnobChar(char c)
{
    return (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_';
}

/** The IPCP_* name starting at `pos` in `text`. */
std::string
knobAt(const std::string &text, std::size_t pos)
{
    std::size_t end = pos;
    while (end < text.size() && isKnobChar(text[end]))
        ++end;
    return text.substr(pos, end - pos);
}

std::string
slurp(const std::filesystem::path &p)
{
    std::ifstream is(p, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** Every quoted "IPCP_…" literal in the program's sources. */
std::set<std::string>
knobsRead()
{
    std::set<std::string> knobs;
    for (const char *dir : {"src", "tools", "bench"}) {
        for (const auto &entry :
             std::filesystem::recursive_directory_iterator(kRoot / dir)) {
            if (!entry.is_regular_file())
                continue;
            const std::string text = slurp(entry.path());
            for (std::size_t pos = text.find("\"IPCP_");
                 pos != std::string::npos;
                 pos = text.find("\"IPCP_", pos + 1))
                knobs.insert(knobAt(text, pos + 1));
        }
    }
    return knobs;
}

/** The knob of every README table row that starts with one. */
std::set<std::string>
knobRows()
{
    std::set<std::string> rows;
    std::istringstream readme(slurp(kRoot / "README.md"));
    for (std::string line; std::getline(readme, line);) {
        if (line.rfind("| `IPCP_", 0) == 0)
            rows.insert(knobAt(line, line.find("IPCP_")));
    }
    return rows;
}

/** `IPCP_NAME` at `pos` of `line` when `sep` directly follows it. */
std::string
assignedKnob(const std::string &line, std::size_t pos, char sep)
{
    const std::string knob = knobAt(line, pos);
    const std::size_t end = pos + knob.size();
    return end < line.size() && line[end] == sep ? knob : "";
}

/**
 * Every IPCP_* name set by an env block entry (`IPCP_X: v`) in the CI
 * workflow or by an assignment (`IPCP_X=v`) outside a comment in a
 * shell script under tools/.
 */
std::set<std::string>
knobsSet()
{
    std::set<std::string> knobs;
    std::istringstream ci(slurp(kRoot / ".github/workflows/ci.yml"));
    for (std::string line; std::getline(ci, line);) {
        const std::size_t pos = line.find_first_not_of(' ');
        if (pos != std::string::npos &&
            line.compare(pos, 5, "IPCP_") == 0)
            knobs.insert(assignedKnob(line, pos, ':'));
    }
    for (const auto &entry :
         std::filesystem::directory_iterator(kRoot / "tools")) {
        if (entry.path().extension() != ".sh")
            continue;
        std::istringstream script(slurp(entry.path()));
        for (std::string line; std::getline(script, line);) {
            const std::size_t first = line.find_first_not_of(" \t");
            if (first == std::string::npos || line[first] == '#')
                continue;
            for (std::size_t pos = line.find("IPCP_");
                 pos != std::string::npos;
                 pos = line.find("IPCP_", pos + 1)) {
                // -DIPCP_X=... is a CMake option, not a knob.
                if (pos == 0 || !isKnobChar(line[pos - 1]))
                    knobs.insert(assignedKnob(line, pos, '='));
            }
        }
    }
    knobs.erase("");
    return knobs;
}

TEST(KnobTable, EveryKnobReadHasAReadmeRow)
{
    const std::set<std::string> read = knobsRead();
    const std::set<std::string> rows = knobRows();
    // The sources were found and actually scanned.
    ASSERT_GT(read.size(), 10u);
    for (const std::string &knob : read)
        EXPECT_TRUE(rows.count(knob) != 0)
            << knob << " is read in src/, tools/ or bench/ but has no "
                       "row in README.md's knob table";
}

TEST(KnobTable, EveryReadmeRowIsRead)
{
    const std::set<std::string> read = knobsRead();
    const std::set<std::string> rows = knobRows();
    ASSERT_GT(rows.size(), 10u);
    for (const std::string &knob : rows)
        EXPECT_TRUE(read.count(knob) != 0)
            << knob << " has a row in README.md's knob table but "
                       "nothing in src/, tools/ or bench/ reads it";
}

TEST(KnobTable, EveryKnobCiOrToolsSetsIsRead)
{
    const std::set<std::string> read = knobsRead();
    const std::set<std::string> set = knobsSet();
    // The workflow and the scripts were found and actually scanned.
    ASSERT_GT(set.size(), 5u);
    for (const std::string &knob : set)
        EXPECT_TRUE(read.count(knob) != 0)
            << knob << " is set in .github/workflows/ci.yml or a "
                       "tools/ script but nothing in src/, tools/ or "
                       "bench/ reads it";
}

} // namespace
