/**
 * @file
 * Resource-exhaustion resilience tests (DESIGN.md §5i): ENOSPC
 * graceful degradation through the *.nospace fault points and the
 * degraded-publish ledger, the supervisor's StallTracker, worker
 * pulse beacons, and a seeded random-bytes fuzzer proving every store
 * reader heals or rejects garbage instead of crashing.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <cerrno>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "campaign/queue.hh"
#include "campaign/supervisor.hh"
#include "common/degrade.hh"
#include "common/faultinject.hh"
#include "common/publisher.hh"
#include "common/rng.hh"
#include "common/stateio.hh"
#include "harness/experiment.hh"
#include "harness/factory.hh"
#include "harness/outcomestore.hh"
#include "harness/statsjson.hh"
#include "harness/warmstore.hh"
#include "trace/suite.hh"
#include "tests/test_support.hh"

namespace bouquet
{
namespace
{

using test::TempDir;

/**
 * Recursive-descent recogniser for JSON: document() is true when the
 * text is exactly one value with only whitespace around it. Numbers
 * are checked loosely (a sign or digit, then whatever strtod takes).
 */
class JsonRecognizer
{
  public:
    explicit JsonRecognizer(std::string text) : s_(std::move(text)) {}

    bool
    document()
    {
        if (!value())
            return false;
        skipSpace();
        return i_ == s_.size();
    }

  private:
    void
    skipSpace()
    {
        while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' ||
                                  s_[i_] == '\r' || s_[i_] == '\t'))
            ++i_;
    }

    bool
    eat(char c)
    {
        skipSpace();
        if (i_ >= s_.size() || s_[i_] != c)
            return false;
        ++i_;
        return true;
    }

    bool
    value()
    {
        skipSpace();
        if (i_ >= s_.size())
            return false;
        if (s_[i_] == '{' || s_[i_] == '[')
            return members(s_[i_] == '{');
        if (s_[i_] == '"')
            return string();
        for (const char *word : {"true", "false", "null"}) {
            if (s_.compare(i_, std::strlen(word), word) == 0) {
                i_ += std::strlen(word);
                return true;
            }
        }
        if (s_[i_] != '-' &&
            !std::isdigit(static_cast<unsigned char>(s_[i_])))
            return false;
        char *end = nullptr;
        std::strtod(s_.c_str() + i_, &end);
        i_ = static_cast<std::size_t>(end - s_.c_str());
        return true;
    }

    bool
    members(bool object)
    {
        const char close = object ? '}' : ']';
        ++i_;  // the opening bracket
        if (eat(close))
            return true;
        do {
            if (object) {
                skipSpace();
                if (!string() || !eat(':'))
                    return false;
            }
            if (!value())
                return false;
        } while (eat(','));
        return eat(close);
    }

    bool
    string()
    {
        if (i_ >= s_.size() || s_[i_] != '"')
            return false;
        for (++i_; i_ < s_.size(); ++i_) {
            const auto c = static_cast<unsigned char>(s_[i_]);
            if (c == '"') {
                ++i_;
                return true;
            }
            if (c < 0x20)
                return false;
            if (c == '\\')
                ++i_;  // skip the escaped character
        }
        return false;
    }

    std::string s_;
    std::size_t i_ = 0;
};

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
}

/** Pin a file's atime+mtime to `secs` ago. */
void
ageFile(const std::string &path, long secs)
{
    struct timespec now;
    ::clock_gettime(CLOCK_REALTIME, &now);
    struct timespec times[2];
    times[0].tv_sec = now.tv_sec - secs;
    times[0].tv_nsec = 0;
    times[1] = times[0];
    ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0);
}

Outcome
sampleOutcome(double ipc)
{
    Outcome out;
    out.ipc = ipc;
    out.instructions = 1000;
    out.cycles = 2000;
    return out;
}

/** Faults and shutdown state never leak between tests. */
class ResilienceTest : public ::testing::Test
{
  protected:
    void SetUp() override { FaultRegistry::instance().clear(); }
    void TearDown() override { FaultRegistry::instance().clear(); }
};

// ---- OutcomeStore nospace degradation ----

TEST_F(ResilienceTest, OutcomeStoreNospaceDegradesToPassThrough)
{
    TempDir dir;
    const std::string path = dir.file("outcomes.bin");
    OutcomeStore store(path);
    ASSERT_TRUE(FaultRegistry::instance()
                    .configure("store.nospace@1+")
                    .ok());

    const std::uint64_t degraded0 =
        degradedCount(DegradeKind::store);
    const Status st = store.put("k", sampleOutcome(2.0));
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, Errc::no_space);
    EXPECT_TRUE(st.error().transient);
    EXPECT_EQ(degradedCount(DegradeKind::store), degraded0 + 1);

    // The in-memory copy keeps serving (pass-through)…
    Outcome out;
    EXPECT_TRUE(store.get("k", out));
    EXPECT_DOUBLE_EQ(out.ipc, 2.0);
    // …but nothing reached the disk: a reloaded store lacks it.
    EXPECT_FALSE(OutcomeStore(path).get("k", out));

    // Space comes back: the next successful persist recovers the
    // entry (put rewrites the whole merged cache).
    FaultRegistry::instance().clear();
    ASSERT_TRUE(store.put("k2", sampleOutcome(3.0)).ok());
    OutcomeStore reloaded(path);
    EXPECT_TRUE(reloaded.get("k", out));
    EXPECT_DOUBLE_EQ(out.ipc, 2.0);
    EXPECT_TRUE(reloaded.get("k2", out));
    EXPECT_DOUBLE_EQ(out.ipc, 3.0);
}

// ---- WarmStore nospace degradation ----

TEST_F(ResilienceTest, WarmStoreNospaceCountsDegradedPublish)
{
    TempDir dir;
    WarmStore store(dir.path);
    ASSERT_TRUE(FaultRegistry::instance()
                    .configure("warm.nospace@1+")
                    .ok());

    const std::uint64_t degraded0 = degradedCount(DegradeKind::warm);
    const Status st =
        store.publish("key", 42, std::vector<std::uint8_t>(64, 7));
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, Errc::no_space);
    EXPECT_EQ(degradedCount(DegradeKind::warm), degraded0 + 1);

    // In-process sharing still works…
    EXPECT_NE(store.fetch("key", 42), nullptr);
    // …but nothing reached the disk for other processes.
    WarmStore fresh(dir.path);
    EXPECT_EQ(fresh.fetch("key", 42), nullptr);
}

// ---- stats JSON: atomic replace, degraded on failure ----

TEST_F(ResilienceTest, StatsJsonOverwriteLeavesOneWholeDocument)
{
    TempDir dir;
    const std::string path = dir.file("stats-x.json");
    // A longer earlier file: a truncating rewrite that stopped short
    // would leave its tail behind.
    writeBytes(path, std::string(1 << 20, 'x'));

    System sys(SystemConfig{},
               makeWorkloads({findTrace("603.bwaves_s-891B")}));
    sys.run(1'000, 4'000);
    ASSERT_TRUE(publishFile(path, formatSystemStatsJson(sys, "job")).ok());

    std::ifstream in(path, std::ios::binary);
    std::ostringstream body;
    body << in.rdbuf();
    EXPECT_EQ(body.str(), formatSystemStatsJson(sys, "job"));
    EXPECT_EQ(body.str().front(), '{');
    EXPECT_EQ(body.str().substr(body.str().size() - 2), "}\n");
    for (const auto &entry : std::filesystem::directory_iterator(dir.path))
        EXPECT_EQ(entry.path().filename().string(), "stats-x.json");
}

TEST_F(ResilienceTest, TraceEventsOverwriteLeavesOneWholeDocument)
{
    TempDir dir;
    const std::string path = dir.file("trace.json");
    // A longer earlier file: a truncating rewrite that stopped short
    // would leave its tail behind.
    writeBytes(path, std::string(1 << 20, 'x'));
    struct stat before{};
    ASSERT_EQ(::stat(path.c_str(), &before), 0);

    ExperimentConfig cfg;
    cfg.warmupInstrs = 1'000;
    cfg.simInstrs = 4'000;
    cfg.traceEventsPath = path;
    const Outcome out =
        runSingleCore(findTrace("603.bwaves_s-891B"),
                      [](System &s) { applyCombo(s, "ipcp"); }, cfg);
    EXPECT_GT(out.ipc, 0.0);

    std::ifstream in(path, std::ios::binary);
    std::ostringstream body;
    body << in.rdbuf();
    EXPECT_EQ(body.str().rfind("{\"displayTimeUnit\"", 0), 0u);
    EXPECT_NE(body.str().find("\"pf_issue\""), std::string::npos);
    EXPECT_TRUE(JsonRecognizer(body.str()).document())
        << body.str().substr(body.str().size() - 200);
    // Published through a temp renamed over the old file, not
    // rewritten in place, and no temp is left behind.
    struct stat after{};
    ASSERT_EQ(::stat(path.c_str(), &after), 0);
    EXPECT_NE(after.st_ino, before.st_ino);
    for (const auto &entry : std::filesystem::directory_iterator(dir.path))
        EXPECT_EQ(entry.path().filename().string(), "trace.json");
}

TEST(JsonRecognizer, RejectsTornAndTrailingText)
{
    EXPECT_TRUE(JsonRecognizer("{\"a\": [1, -2.5e3, \"x\\\"y\", null]}\n")
                    .document());
    EXPECT_FALSE(JsonRecognizer("{\"a\": [1, 2").document());
    EXPECT_FALSE(JsonRecognizer("{\"a\": 1}xxxx").document());
    EXPECT_FALSE(JsonRecognizer("{\"a\" 1}").document());
}

TEST_F(ResilienceTest, FailedStatsJsonWriteOnlyCountsAStatsDegrade)
{
    TempDir dir;
    Publisher publisher;
    for (Publisher *via : {static_cast<Publisher *>(nullptr), &publisher}) {
        SCOPED_TRACE(via == nullptr ? "inline" : "publisher");
        ExperimentConfig cfg;
        cfg.warmupInstrs = 1'000;
        cfg.simInstrs = 4'000;
        cfg.statsJsonPath = dir.file("missing/stats.json");
        cfg.publisher = via;
        std::uint64_t before[kDegradeKinds];
        for (unsigned k = 0; k < kDegradeKinds; ++k)
            before[k] = degradedCount(static_cast<DegradeKind>(k));

        const Outcome out = runSingleCore(findTrace("603.bwaves_s-891B"),
                                          [](System &) {}, cfg);
        publisher.drain();
        EXPECT_GT(out.ipc, 0.0);
        for (unsigned k = 0; k < kDegradeKinds; ++k) {
            const auto kind = static_cast<DegradeKind>(k);
            EXPECT_EQ(degradedCount(kind),
                      before[k] + (kind == DegradeKind::stats ? 1 : 0))
                << degradeKindName(kind);
        }
    }
    EXPECT_TRUE(std::filesystem::is_empty(dir.path));
}

// ---- checkpoint nospace + errno classification ----

TEST_F(ResilienceTest, CheckpointNospaceFaultInjectsNoSpace)
{
    TempDir dir;
    ASSERT_TRUE(FaultRegistry::instance()
                    .configure("ckpt.nospace@1")
                    .ok());
    const std::string path = dir.file("x.ckpt");
    const Status st =
        writeCheckpointFile(path, 7, std::vector<std::uint8_t>(16, 1));
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, Errc::no_space);
    EXPECT_FALSE(std::filesystem::exists(path));

    // The fault fired once; the retry lands.
    EXPECT_TRUE(writeCheckpointFile(path, 7,
                                    std::vector<std::uint8_t>(16, 1))
                    .ok());
    EXPECT_TRUE(readCheckpointFile(path, 7).ok());
}

TEST_F(ResilienceTest, ClassifyWriteErrnoSplitsNoSpaceFromIo)
{
    EXPECT_TRUE(isNoSpaceErrno(ENOSPC));
    EXPECT_TRUE(isNoSpaceErrno(EDQUOT));
    EXPECT_FALSE(isNoSpaceErrno(EIO));

    const Error nospace = classifyWriteErrno(ENOSPC, "full");
    EXPECT_EQ(nospace.code, Errc::no_space);
    EXPECT_TRUE(nospace.transient);

    const Error io = classifyWriteErrno(EIO, "flaky");
    EXPECT_EQ(io.code, Errc::io);
    EXPECT_TRUE(io.transient);
}

// ---- stall watchdog pieces ----

TEST_F(ResilienceTest, StallTrackerFiresOnlyOnFrozenEpoch)
{
    campaign::StallTracker tracker(10.0);

    // Advancing epochs never fire, no matter how slowly they tick.
    EXPECT_FALSE(tracker.observe(1, 5, "job", 0.0));
    EXPECT_FALSE(tracker.observe(1, 6, "job", 100.0));
    EXPECT_FALSE(tracker.observe(1, 7, "job", 200.0));

    // A frozen epoch fires only past the timeout.
    EXPECT_FALSE(tracker.observe(1, 7, "job", 205.0));
    EXPECT_TRUE(tracker.observe(1, 7, "job", 210.5));

    // Progress resets the clock.
    EXPECT_FALSE(tracker.observe(1, 8, "job", 211.0));
    EXPECT_FALSE(tracker.observe(1, 8, "job", 220.0));
    EXPECT_TRUE(tracker.observe(1, 8, "job", 222.0));

    // A job switch resets too (same epoch, different hash).
    EXPECT_FALSE(tracker.observe(1, 8, "other", 223.0));

    // Idle workers are never stalled, and idling resets the clock.
    EXPECT_FALSE(tracker.observe(1, 8, "idle", 300.0));
    EXPECT_FALSE(tracker.observe(1, 8, "other", 301.0));

    // Workers are tracked independently.
    EXPECT_FALSE(tracker.observe(2, 8, "other", 302.0));
    EXPECT_TRUE(tracker.observe(1, 8, "other", 312.0));

    // forget() wipes the history.
    tracker.forget(1);
    EXPECT_FALSE(tracker.observe(1, 8, "other", 400.0));

    // Timeout 0 disables detection entirely.
    campaign::StallTracker off(0.0);
    EXPECT_FALSE(off.observe(1, 1, "job", 0.0));
    EXPECT_FALSE(off.observe(1, 1, "job", 1e9));
}

TEST_F(ResilienceTest, PulseBeaconRoundTripsAndScanReapsStaleOnes)
{
    TempDir dir;
    campaign::QueueConfig cfg;
    cfg.dir = dir.path;
    cfg.leaseTtl = 5.0;
    campaign::WorkQueue queue(cfg, "w123");

    std::uint64_t epoch = 0;
    std::string hash;
    EXPECT_FALSE(queue.readPulse("w123", epoch, hash));

    queue.writePulse(42, "abcd");
    ASSERT_TRUE(queue.readPulse("w123", epoch, hash));
    EXPECT_EQ(epoch, 42u);
    EXPECT_EQ(hash, "abcd");

    // Atomic replace, not append.
    queue.writePulse(43, "idle");
    ASSERT_TRUE(queue.readPulse("w123", epoch, hash));
    EXPECT_EQ(epoch, 43u);
    EXPECT_EQ(hash, "idle");

    // A beacon whose worker stopped beating is litter: reaped once
    // older than twice the lease TTL.
    ageFile(queue.pulsePath("w123"), 60);
    queue.scan({});
    EXPECT_FALSE(
        std::filesystem::exists(queue.pulsePath("w123")));
}

// ---- store-format fuzzing: readers heal or reject, never crash ----

TEST_F(ResilienceTest, FuzzedStoreFilesHealOrRejectCleanly)
{
    TempDir dir;
    Rng rng(20260810);

    auto randomBytes = [&rng](std::size_t n) {
        std::string bytes(n, '\0');
        for (char &c : bytes)
            c = static_cast<char>(rng.next() & 0xFF);
        return bytes;
    };

    for (int iter = 0; iter < 40; ++iter) {
        const std::size_t len =
            static_cast<std::size_t>(rng.next() % 600);

        // OutcomeStore: garbage loads as corrupt/empty, then keeps
        // working — a put over the wreckage persists and re-reads.
        const std::string store_path =
            dir.file("fz-outcomes-" + std::to_string(iter) + ".bin");
        writeBytes(store_path, randomBytes(len));
        OutcomeStore store(store_path);
        Outcome out;
        store.get("absent", out);  // must not crash
        ASSERT_TRUE(store.put("k", sampleOutcome(1.0)).ok());
        OutcomeStore reread(store_path);
        EXPECT_TRUE(reread.get("k", out));

        // WarmStore: garbage under a warm path heals to a miss.
        WarmStore warm(dir.path);
        writeBytes(warm.pathFor("fzkey"), randomBytes(len));
        EXPECT_EQ(warm.fetch("fzkey", 42), nullptr);

        // Checkpoint container: garbage is a clean error.
        const std::string ckpt_path =
            dir.file("fz-" + std::to_string(iter) + ".ckpt");
        writeBytes(ckpt_path, randomBytes(len));
        EXPECT_FALSE(readCheckpointFile(ckpt_path, 42).ok());
    }
}

TEST_F(ResilienceTest, TruncatedStoreKeepsEveryCompleteRecord)
{
    TempDir dir;
    const std::string path = dir.file("outcomes.bin");
    {
        OutcomeStore store(path);
        for (int i = 0; i < 3; ++i)
            ASSERT_TRUE(store
                            .put("job-" + std::to_string(i),
                                 sampleOutcome(i))
                            .ok());
    }
    std::string full;
    {
        std::ifstream is(path, std::ios::binary);
        std::stringstream ss;
        ss << is.rdbuf();
        full = ss.str();
    }

    // Every truncation point must load without crashing and serve
    // only complete, checksummed records.
    for (std::size_t cut = 0; cut < full.size(); cut += 7) {
        writeBytes(path, full.substr(0, cut));
        OutcomeStore store(path);
        EXPECT_LE(store.size(), 3u);
        Outcome out;
        for (int i = 0; i < 3; ++i) {
            if (store.get("job-" + std::to_string(i), out)) {
                EXPECT_DOUBLE_EQ(out.ipc, static_cast<double>(i));
            }
        }
    }
}

// ---- fuzzing the campaign history/manifest readers ----

TEST_F(ResilienceTest, FuzzedHistoryAndPulseFilesParseCleanly)
{
    TempDir dir;
    Rng rng(424242);
    campaign::QueueConfig cfg;
    cfg.dir = dir.path;
    campaign::WorkQueue queue(cfg, "w1");

    for (int iter = 0; iter < 25; ++iter) {
        std::string bytes(
            static_cast<std::size_t>(rng.next() % 300), '\0');
        for (char &c : bytes)
            c = static_cast<char>(rng.next() & 0xFF);

        writeBytes(queue.attemptsPath("deadbeef"), bytes);
        queue.attemptCount("deadbeef");     // must not crash
        queue.history("deadbeef");          // must not crash

        writeBytes(queue.pulsePath("w1"), bytes);
        std::uint64_t epoch = 0;
        std::string hash;
        queue.readPulse("w1", epoch, hash);  // must not crash

        writeBytes(queue.leasePath("deadbeef"), bytes);
        queue.state("deadbeef");             // must not crash
    }
}

// ---- progress epoch plumbing ----

TEST_F(ResilienceTest, SimulationRunBumpsProgressEpoch)
{
    const std::uint64_t epoch0 = progressEpoch();
    ExperimentConfig cfg;
    cfg.simInstrs = 2'000;
    cfg.warmupInstrs = 1'000;
    runSingleCore(findTrace("605.mcf_s-472B"),
                  [](System &) {}, cfg);
    EXPECT_GT(progressEpoch(), epoch0)
        << "tick loops must advance the stall-watchdog epoch";
}

} // namespace
} // namespace bouquet
