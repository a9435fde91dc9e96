/**
 * @file
 * Tests for StateIO's varint and sequence run encoding (DESIGN.md
 * §5d): round trips around every run-length boundary for packed
 * integer arrays and for elements with their own serialize(), the two
 * run writers agreeing byte for byte, the allocation guard and the
 * run-header checks against hand-built payloads, every prefix of a
 * real warm state failing cleanly, and the size of that state; and
 * publishFile, the atomic file publish every writer goes through.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/errors.hh"
#include "common/stateio.hh"
#include "core/system.hh"
#include "harness/factory.hh"
#include "trace/suite.hh"
#include "tests/test_support.hh"

namespace bouquet
{
namespace
{

constexpr std::size_t kRunLengths[] = {0, 1, 2, 3, 127, 128, 129, 130};

/** Serialize `v` into a fresh writer and read it back. */
template <typename T>
T
roundTrip(const T &v, std::size_t *bytes = nullptr)
{
    T in = v;
    StateIO w = StateIO::writer();
    w.io(in);
    std::vector<std::uint8_t> buf = w.takeBuffer();
    if (bytes != nullptr)
        *bytes = buf.size();
    StateIO r = StateIO::reader(std::move(buf));
    T out{};
    r.io(out);
    r.expectEnd();
    return out;
}

/** Errc of reading a `std::vector<T>` from `payload`, ok if none. */
template <typename T>
Errc
readVectorErrc(std::vector<std::uint8_t> payload)
{
    StateIO r = StateIO::reader(std::move(payload));
    std::vector<T> v;
    try {
        r.io(v);
        r.expectEnd();
    } catch (const ErrorException &e) {
        return e.error().code;
    }
    return Errc::ok;
}

template <typename T>
void
checkPackedShapes()
{
    const T big = static_cast<T>(~T{0} - 5);
    for (const std::size_t n : kRunLengths) {
        std::vector<T> literal(n), repeat(n, big), alternating(n);
        for (std::size_t i = 0; i < n; ++i) {
            literal[i] = static_cast<T>(i * 37 + 1);
            alternating[i] = i % 2 ? big : T{0};
        }
        EXPECT_EQ(roundTrip(literal), literal) << "literal n=" << n;
        EXPECT_EQ(roundTrip(alternating), alternating)
            << "alternating n=" << n;

        // A repeat run carries one element for up to 129 copies.
        std::size_t bytes = 0;
        EXPECT_EQ(roundTrip(repeat, &bytes), repeat) << "repeat n=" << n;
        const std::size_t runs = (n + 128) / 129;
        EXPECT_LE(bytes, 2 + runs * 11) << "repeat n=" << n;

        // A literal block followed by a run of n equal elements, and
        // the same run embedded between two literal blocks.
        std::vector<T> mixed = {1, 2, 3};
        mixed.insert(mixed.end(), n, T{9});
        EXPECT_EQ(roundTrip(mixed), mixed) << "mixed n=" << n;
        mixed.insert(mixed.end(), {4, 5});
        EXPECT_EQ(roundTrip(mixed), mixed) << "embedded n=" << n;
    }
}

TEST(StateIoRuns, PackedShapesRoundTripAtEveryRunBoundary)
{
    checkPackedShapes<std::uint8_t>();
    checkPackedShapes<std::uint32_t>();
    checkPackedShapes<std::uint64_t>();
    checkPackedShapes<std::int32_t>();
}

template <typename C>
std::vector<std::uint8_t>
encode(C c)
{
    StateIO w = StateIO::writer();
    w.io(c);
    return w.takeBuffer();
}

TEST(StateIoRuns, BothCodecsWriteTheSameBytes)
{
    // A vector of integers takes the by-value codec, a deque (not
    // contiguous) the by-serialized-bytes one; the format is one.
    for (const std::size_t n : kRunLengths) {
        for (const std::size_t period : {1, 2, 3, 200}) {
            std::vector<std::uint32_t> v(n);
            for (std::size_t i = 0; i < n; ++i)
                v[i] = static_cast<std::uint32_t>(i / period);
            v.insert(v.end(), n, 7u);
            const std::deque<std::uint32_t> d(v.begin(), v.end());
            EXPECT_EQ(encode(v), encode(d))
                << "n=" << n << " period=" << period;
        }
    }
}

/** An element that serializes through its own member, like a table
 *  entry, including a nested sequence. */
struct Entry
{
    std::uint64_t tag = 0;
    bool valid = false;
    std::vector<std::uint16_t> deltas;

    template <typename IO>
    void
    serialize(IO &io)
    {
        io.io(tag);
        io.io(valid);
        io.io(deltas);
    }

    bool
    operator==(const Entry &o) const
    {
        return tag == o.tag && valid == o.valid && deltas == o.deltas;
    }
};

TEST(StateIoRuns, SerializedElementsRoundTripAtEveryRunBoundary)
{
    for (const std::size_t n : kRunLengths) {
        std::vector<Entry> literal(n), repeat(n), pairs(n);
        for (std::size_t i = 0; i < n; ++i) {
            literal[i] = {i + 1, true, {static_cast<std::uint16_t>(i)}};
            repeat[i] = {42, true, {1, 1, 1}};
            // Tags 0, 1, 1, 3, 4, 4, ...: each equal pair follows a
            // two-element literal stretch, whose last element must
            // leave the literal block to open the repeat run.
            pairs[i] = {i - (i % 3 == 2), true, {}};
        }
        EXPECT_EQ(roundTrip(literal), literal) << "literal n=" << n;
        EXPECT_EQ(roundTrip(pairs), pairs) << "pairs n=" << n;
        std::size_t bytes = 0;
        EXPECT_EQ(roundTrip(repeat, &bytes), repeat) << "repeat n=" << n;
        EXPECT_LE(bytes, 1 + (n + 128) / 129 * 8) << "repeat n=" << n;

        std::deque<Entry> dq(literal.begin(), literal.end());
        dq.insert(dq.end(), repeat.begin(), repeat.end());
        EXPECT_EQ(roundTrip(dq), dq) << "deque n=" << n;

        std::vector<bool> bits(n);
        for (std::size_t i = 0; i < n; ++i)
            bits[i] = i % 3 == 0 || i > n / 2;
        EXPECT_EQ(roundTrip(bits), bits) << "bits n=" << n;
    }

    std::array<Entry, 130> arr{};
    arr[0] = {7, true, {}};
    arr[129] = {8, true, {}};
    EXPECT_EQ(roundTrip(arr), arr);
    std::array<std::uint64_t, 130> words{};
    words[64] = 5;
    EXPECT_EQ(roundTrip(words), words);
}

TEST(StateIoRuns, RejectsCountsAndRunsThePayloadCannotHold)
{
    // A packed run takes at least two bytes (header and one varint
    // byte) and covers at most 129 elements. With 10 bytes left after
    // the count, 5 * 129 elements pass the guard and then run out of
    // bytes; one more is refused before anything is allocated.
    const auto with_count = [](std::uint64_t n) {
        StateIO w = StateIO::writer();
        w.io(n);
        std::vector<std::uint8_t> buf = w.takeBuffer();
        buf.insert(buf.end(), 10, std::uint8_t{0});
        return buf;
    };
    EXPECT_EQ(readVectorErrc<std::uint32_t>(with_count(5 * 129)),
              Errc::truncated);
    EXPECT_EQ(readVectorErrc<std::uint32_t>(with_count(5 * 129 + 1)),
              Errc::corrupt);
    EXPECT_EQ(readVectorErrc<std::uint64_t>(with_count(1ull << 40)),
              Errc::corrupt);
    // An element with its own serialize() may take no bytes, so only
    // its run header counts: 129 elements a byte.
    EXPECT_EQ(readVectorErrc<Entry>(with_count(10 * 129)),
              Errc::truncated);
    EXPECT_EQ(readVectorErrc<Entry>(with_count(10 * 129 + 1)),
              Errc::corrupt);

    // A run longer than the elements still owed is corrupt, whether
    // a repeat run (header 126 + k) or a literal block (header k - 1).
    EXPECT_EQ(readVectorErrc<std::uint8_t>({3, 126 + 4, 1}),
              Errc::corrupt);
    EXPECT_EQ(readVectorErrc<std::uint8_t>({3, 3, 1, 2, 3, 4}),
              Errc::corrupt);
    // A literal block cut short, or a missing header, is truncated.
    EXPECT_EQ(readVectorErrc<std::uint8_t>({3, 2, 1, 2}), Errc::truncated);
    EXPECT_EQ(readVectorErrc<std::uint8_t>({3, 0, 1}), Errc::truncated);
    EXPECT_EQ(readVectorErrc<std::uint8_t>({3, 2, 1, 2, 3}), Errc::ok);
    EXPECT_EQ(readVectorErrc<std::uint8_t>({3, 0, 1, 126 + 2, 7}),
              Errc::ok);
    // A varint too wide for its field is corrupt.
    EXPECT_EQ(readVectorErrc<std::uint8_t>({1, 0, 0x80, 0x02}),
              Errc::corrupt);
}

/** End-of-warmup state of a single-core job at DSE's 5k warmup. */
std::vector<std::uint8_t>
warmState(const std::string &trace, const std::string &combo)
{
    std::vector<GeneratorPtr> w;
    w.push_back(makeWorkload(findTrace(trace)));
    System sys(SystemConfig{}, std::move(w));
    applyCombo(sys, combo);
    std::vector<std::uint8_t> state;
    sys.setWarmupHook([&state](System &s) {
        Result<std::vector<std::uint8_t>> r = s.captureState();
        if (r.ok())
            state = r.take();
    });
    sys.run(5'000, 1);
    return state;
}

TEST(StateIoRuns, McfWarmStateAfterFiveThousandInstructionsFitsIn150KB)
{
    const std::vector<std::uint8_t> state =
        warmState("605.mcf_s-472B", "ipcp");
    ASSERT_FALSE(state.empty());
    EXPECT_LE(state.size(), 150u * 1024u);
}

TEST(StateIoRuns, EveryPrefixOfAWarmStateFailsCleanly)
{
    const std::vector<std::uint8_t> state =
        warmState("627.cam4_s-573B", "ipcp");
    ASSERT_FALSE(state.empty());

    std::vector<GeneratorPtr> w;
    w.push_back(makeWorkload(findTrace("627.cam4_s-573B")));
    System sys(SystemConfig{}, std::move(w));
    applyCombo(sys, "ipcp");
    ASSERT_TRUE(sys.loadWarmState(state).ok());

    std::size_t truncated = 0;
    for (std::size_t cut = 0; cut < state.size(); ++cut) {
        StateIO r = StateIO::reader(
            std::vector<std::uint8_t>(state.begin(), state.begin() + cut));
        try {
            sys.serialize(r);
            r.expectEnd();
            ADD_FAILURE() << "prefix of " << cut << " bytes loaded";
        } catch (const ErrorException &e) {
            const Errc c = e.error().code;
            EXPECT_TRUE(c == Errc::truncated || c == Errc::corrupt)
                << "prefix " << cut << ": " << errcName(c);
            truncated += c == Errc::truncated;
        }
    }
    // Most cuts land mid-field and must read as truncation.
    EXPECT_GT(truncated, state.size() / 2);
}

// ---- publishFile ----

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** Names in `dir` that look like publish temp files. */
std::vector<std::string>
tempFiles(const std::string &dir)
{
    std::vector<std::string> names;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        const std::string name = e.path().filename().string();
        if (name.find(".tmp") != std::string::npos)
            names.push_back(name);
    }
    return names;
}

TEST(PublishFile, ReplacesAnExistingFileAndLeavesNoTemp)
{
    test::TempDir dir;
    const std::string path = dir.file("report.json");
    ASSERT_TRUE(publishFile(path, "old").ok());
    ASSERT_TRUE(publishFile(path, "new bytes").ok());
    EXPECT_EQ(readAll(path), "new bytes");
    EXPECT_TRUE(tempFiles(dir.path).empty());
}

TEST(PublishFile, ReadersSeeTheOldOrTheNewBytesNeverAMix)
{
    test::TempDir dir;
    const std::string path = dir.file("shared.bin");
    const std::string a(8192, 'a');
    const std::string b(8192, 'b');
    ASSERT_TRUE(publishFile(path, a).ok());

    const pid_t writer = ::fork();
    ASSERT_GE(writer, 0);
    if (writer == 0) {
        bool ok = true;
        for (int i = 0; i < 60 && ok; ++i)
            ok = publishFile(path, i % 2 == 0 ? b : a).ok();
        ::_exit(ok ? 0 : 1);
    }
    int status = 0;
    unsigned reads = 0;
    while (::waitpid(writer, &status, WNOHANG) == 0) {
        const std::string got = readAll(path);
        EXPECT_TRUE(got == a || got == b)
            << "read " << got.size() << " bytes of a torn file";
        ++reads;
    }
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    EXPECT_GT(reads, 0u);
    EXPECT_TRUE(tempFiles(dir.path).empty());
}

TEST(PublishFile, AFailedPublishLeavesTheTargetAndNoTemp)
{
    test::TempDir dir;
    // The target is a non-empty directory: the temp file is written,
    // then the rename fails, and the temp must go with it.
    const std::string occupied = dir.file("occupied");
    ASSERT_EQ(::mkdir(occupied.c_str(), 0755), 0);
    ASSERT_TRUE(publishFile(occupied + "/keep", "kept").ok());
    const Status st = publishFile(occupied, "bytes");
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, Errc::io);
    EXPECT_TRUE(std::filesystem::is_directory(occupied));
    EXPECT_TRUE(tempFiles(dir.path).empty());

    // An unwritable directory. Root writes there anyway, so only an
    // unprivileged run can observe this failure.
    const std::string locked = dir.file("locked");
    ASSERT_EQ(::mkdir(locked.c_str(), 0755), 0);
    const std::string path = locked + "/file";
    ASSERT_TRUE(publishFile(path, "old").ok());
    ASSERT_EQ(::chmod(locked.c_str(), 0555), 0);
    if (::geteuid() != 0) {
        EXPECT_FALSE(publishFile(path, "new").ok());
        EXPECT_EQ(readAll(path), "old");
        EXPECT_TRUE(tempFiles(locked).empty());
    }
    ASSERT_EQ(::chmod(locked.c_str(), 0755), 0);
}

} // namespace
} // namespace bouquet
