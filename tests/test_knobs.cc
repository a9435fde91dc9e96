/**
 * @file
 * Source-level check of the environment knob table: README.md's
 * `| \`IPCP_…\` | default | meaning |` table is the one list of every
 * IPCP_* knob the program reads. A quoted "IPCP_…" literal under
 * src/, tools/ or bench/ without a row fails, and so does a row that
 * names a knob no such literal reads.
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

} // namespace
