/**
 * @file
 * Tests for the crash-safe checkpoint/resume subsystem: StateIO
 * round-trips, the checkpoint file container's rejection matrix
 * (corruption, truncation, version and config-hash mismatches),
 * kill-and-resume equivalence across skip/no-skip modes and core
 * counts, the runner's automatic resume-on-retry, the ckpt.* fault
 * points, graceful shutdown, and the runtime invariant auditor.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/faultinject.hh"
#include "common/stateio.hh"
#include "core/system.hh"
#include "harness/experiment.hh"
#include "harness/factory.hh"
#include "harness/runner.hh"
#include "trace/suite.hh"
#include "tests/test_support.hh"

namespace bouquet
{
namespace
{

/** Every test starts and ends with clean fault/shutdown state. */
class CheckpointTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        FaultRegistry::instance().clear();
        clearShutdownRequest();
    }

    void
    TearDown() override
    {
        FaultRegistry::instance().clear();
        clearShutdownRequest();
    }
};

using test::TempDir;

ExperimentConfig
tinyConfig()
{
    ExperimentConfig cfg;
    cfg.warmupInstrs = 3'000;
    cfg.simInstrs = 15'000;
    return cfg;
}

AttachFn
comboAttach(const std::string &name)
{
    return [name](System &s) { applyCombo(s, name); };
}

const TraceSpec &
testTrace()
{
    return findTrace("603.bwaves_s-891B");
}

/**
 * Byte-identical simulated results. The host-side perf counters and
 * the resume provenance fields are deliberately excluded: skip and
 * no-skip modes (and resumed vs uninterrupted runs) must agree on
 * every simulated stat but not on how the host got there.
 */
bool
sameStats(const Outcome &a, const Outcome &b)
{
    return a.ipc == b.ipc && a.instructions == b.instructions &&
           a.cycles == b.cycles && a.dramBytes == b.dramBytes &&
           std::memcmp(&a.l1i, &b.l1i, sizeof(CacheStats)) == 0 &&
           std::memcmp(&a.l1d, &b.l1d, sizeof(CacheStats)) == 0 &&
           std::memcmp(&a.l2, &b.l2, sizeof(CacheStats)) == 0 &&
           std::memcmp(&a.llc, &b.llc, sizeof(CacheStats)) == 0 &&
           std::memcmp(&a.dram, &b.dram, sizeof(Dram::Stats)) == 0;
}

bool
sameMix(const MixOutcome &a, const MixOutcome &b)
{
    return a.ipc == b.ipc && a.traces == b.traces &&
           a.instructions == b.instructions && a.cycles == b.cycles &&
           sameStats(a.system, b.system);
}

std::vector<std::uint8_t>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
writeAll(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

Errc
loadErrc(const std::string &path, std::uint64_t hash)
{
    auto r = readCheckpointFile(path, hash);
    return r.ok() ? Errc::ok : r.error().code;
}

// ---- StateIO round-trips ----

enum class Flavor : std::uint8_t
{
    Plain,
    Spicy
};

TEST_F(CheckpointTest, StateIoRoundTripsEveryKind)
{
    std::uint64_t u64 = 0xDEADBEEFCAFEF00Dull;
    std::int32_t neg = -12345;
    bool flag = true;
    double d = 3.14159265358979;
    Flavor flavor = Flavor::Spicy;
    std::string s = "bouquet";
    std::vector<std::uint32_t> vec = {1, 2, 3, 0xFFFFFFFFu};
    std::deque<std::uint16_t> dq = {7, 8, 9};
    std::vector<bool> bits = {true, false, true, true};
    std::array<std::uint8_t, 3> arr = {10, 20, 30};

    StateIO w = StateIO::writer();
    w.beginSection("kinds");
    w.io(u64);
    w.io(neg);
    w.io(flag);
    w.io(d);
    w.io(flavor);
    w.io(s);
    w.io(vec);
    w.io(dq);
    w.io(bits);
    w.io(arr);

    StateIO r = StateIO::reader(w.takeBuffer());
    std::uint64_t u64r = 0;
    std::int32_t negr = 0;
    bool flagr = false;
    double dr = 0.0;
    Flavor flavorr = Flavor::Plain;
    std::string sr;
    std::vector<std::uint32_t> vecr;
    std::deque<std::uint16_t> dqr;
    std::vector<bool> bitsr;
    std::array<std::uint8_t, 3> arrr = {};
    r.beginSection("kinds");
    r.io(u64r);
    r.io(negr);
    r.io(flagr);
    r.io(dr);
    r.io(flavorr);
    r.io(sr);
    r.io(vecr);
    r.io(dqr);
    r.io(bitsr);
    r.io(arrr);
    r.expectEnd();

    EXPECT_EQ(u64r, u64);
    EXPECT_EQ(negr, neg);
    EXPECT_EQ(flagr, flag);
    EXPECT_EQ(dr, d);
    EXPECT_EQ(flavorr, flavor);
    EXPECT_EQ(sr, s);
    EXPECT_EQ(vecr, vec);
    EXPECT_EQ(dqr, dq);
    EXPECT_EQ(bitsr, bits);
    EXPECT_EQ(arrr, arr);
}

TEST_F(CheckpointTest, StateIoRejectsShortBuffersAndFuzzedCounts)
{
    // A read past the end of the payload is a truncation: both bytes
    // carry the varint continuation bit, so the integer never ends.
    StateIO r = StateIO::reader({0x81, 0x82});
    std::uint64_t v = 0;
    try {
        r.io(v);
        FAIL() << "short read did not throw";
    } catch (const ErrorException &e) {
        EXPECT_EQ(e.error().code, Errc::truncated);
    }

    // A container length larger than the remaining bytes cannot be
    // honest and must be rejected before any allocation.
    StateIO w = StateIO::writer();
    std::uint64_t huge = 1ull << 40;
    w.io(huge);
    StateIO r2 = StateIO::reader(w.takeBuffer());
    std::vector<std::uint32_t> vec;
    try {
        r2.io(vec);
        FAIL() << "fuzzed count did not throw";
    } catch (const ErrorException &e) {
        EXPECT_EQ(e.error().code, Errc::corrupt);
    }

    // A mismatched section tag names the structural failure.
    StateIO w2 = StateIO::writer();
    w2.beginSection("dram");
    StateIO r3 = StateIO::reader(w2.takeBuffer());
    try {
        r3.beginSection("cache");
        FAIL() << "section mismatch did not throw";
    } catch (const ErrorException &e) {
        EXPECT_EQ(e.error().code, Errc::corrupt);
    }
}

// ---- checkpoint container rejection matrix ----

TEST_F(CheckpointTest, ContainerRejectionMatrix)
{
    TempDir dir;
    const std::string path = dir.file("a.ckpt");
    const std::uint64_t hash = 0x1234567890ABCDEFull;
    const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5, 6, 7};

    ASSERT_TRUE(writeCheckpointFile(path, hash, payload).ok());

    // Pristine file round-trips.
    auto good = readCheckpointFile(path, hash);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.take(), payload);

    const std::vector<std::uint8_t> image = readAll(path);
    ASSERT_GE(image.size(), 36u + payload.size());

    // Bit flip in the payload (last byte of the file) fails the CRC.
    std::vector<std::uint8_t> flipped = image;
    flipped.back() ^= 0x40;
    writeAll(path, flipped);
    EXPECT_EQ(loadErrc(path, hash), Errc::corrupt);

    // Truncation (drop the tail) is detected by the size check.
    std::vector<std::uint8_t> cut(image.begin(), image.end() - 3);
    writeAll(path, cut);
    EXPECT_EQ(loadErrc(path, hash), Errc::truncated);

    // Even a header-only fragment is rejected as truncated.
    writeAll(path, std::vector<std::uint8_t>(image.begin(),
                                             image.begin() + 20));
    EXPECT_EQ(loadErrc(path, hash), Errc::truncated);

    // Wrong magic: not a checkpoint at all.
    std::vector<std::uint8_t> magic = image;
    magic[0] = 'X';
    writeAll(path, magic);
    EXPECT_EQ(loadErrc(path, hash), Errc::bad_magic);

    // Future format version (byte 8) is refused before parsing.
    std::vector<std::uint8_t> vers = image;
    vers[8] = static_cast<std::uint8_t>(kCheckpointVersion + 1);
    writeAll(path, vers);
    EXPECT_EQ(loadErrc(path, hash), Errc::bad_version);

    // Trailing garbage after the payload.
    std::vector<std::uint8_t> padded = image;
    padded.push_back(0xAA);
    writeAll(path, padded);
    EXPECT_EQ(loadErrc(path, hash), Errc::oversized);

    // A checkpoint from a differently configured system is refused by
    // the header hash, before any payload byte is parsed.
    writeAll(path, image);
    EXPECT_EQ(loadErrc(path, hash ^ 1), Errc::corrupt);

    // Missing file.
    EXPECT_EQ(loadErrc(dir.file("nope.ckpt"), hash), Errc::io);
}

TEST_F(CheckpointTest, ConcurrentWritersOfOnePathEachLeaveAValidFile)
{
    // Two processes writing one checkpoint path, as after a lease
    // reclaim. Equal-sized payloads: bytes interleaved in a shared
    // temp file would pass the size check and fail the CRC.
    TempDir dir;
    const std::string path = dir.file("shared.ckpt");
    const std::uint64_t hash = 0x5eed;
    std::vector<std::uint8_t> payloads[2];
    for (int k = 0; k < 2; ++k) {
        payloads[k].resize(64 * 1024);
        for (std::size_t i = 0; i < payloads[k].size(); ++i)
            payloads[k][i] = static_cast<std::uint8_t>(i * (7 + 6 * k));
    }

    pid_t writers[2];
    for (int k = 0; k < 2; ++k) {
        writers[k] = ::fork();
        ASSERT_GE(writers[k], 0);
        if (writers[k] == 0) {
            bool ok = true;
            for (int i = 0; i < 40 && ok; ++i) {
                ok = writeCheckpointFile(path, hash, payloads[k]).ok();
                Result<std::vector<std::uint8_t>> back =
                    readCheckpointFile(path, hash);
                ok = ok && back.ok() &&
                     (back.value() == payloads[0] ||
                      back.value() == payloads[1]);
            }
            ::_exit(ok ? 0 : 1);
        }
    }
    for (const pid_t pid : writers) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
            << "a writer failed, or read back an invalid checkpoint";
    }
    EXPECT_TRUE(readCheckpointFile(path, hash).ok());
    // Both temp files were renamed away.
    EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir.path),
                            std::filesystem::directory_iterator()),
              1);
}

// ---- whole-system save/load ----

TEST_F(CheckpointTest, SystemRejectsCheckpointFromDifferentCombo)
{
    TempDir dir;
    const std::string path = dir.file("sys.ckpt");

    auto build = [](const std::string &combo) {
        std::vector<GeneratorPtr> w;
        w.push_back(makeWorkload(testTrace()));
        auto sys = std::make_unique<System>(SystemConfig{}, std::move(w));
        applyCombo(*sys, combo);
        return sys;
    };

    auto saver = build("ipcp");
    ASSERT_TRUE(saver->saveCheckpoint(path).ok());

    // Same config loads; a different prefetcher combo changes the
    // config hash and is rejected up front.
    auto same = build("ipcp");
    EXPECT_TRUE(same->loadCheckpoint(path).ok());
    auto other = build("none");
    const Status st = other->loadCheckpoint(path);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, Errc::corrupt);
}

TEST_F(CheckpointTest, SystemRejectsDamagedPayloadSection)
{
    TempDir dir;
    const std::string path = dir.file("sys.ckpt");

    std::vector<GeneratorPtr> w;
    w.push_back(makeWorkload(testTrace()));
    System sys(SystemConfig{}, std::move(w));
    applyCombo(sys, "ipcp");
    ASSERT_TRUE(sys.saveCheckpoint(path).ok());

    // Damage the first payload bytes (the "system" section tag) and
    // re-stamp the CRC so the container passes: the payload-level
    // section check must still catch it.
    std::vector<std::uint8_t> image = readAll(path);
    const std::uint32_t build_len =
        static_cast<std::uint32_t>(image[12]) |
        (static_cast<std::uint32_t>(image[13]) << 8) |
        (static_cast<std::uint32_t>(image[14]) << 16) |
        (static_cast<std::uint32_t>(image[15]) << 24);
    const std::size_t payload_at = 36 + build_len;
    ASSERT_LT(payload_at + 8, image.size());
    image[payload_at + 5] ^= 0xFF;  // inside the section tag string
    const std::uint32_t crc =
        crc32(image.data() + payload_at, image.size() - payload_at);
    for (unsigned i = 0; i < 4; ++i)
        image[32 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
    writeAll(path, image);

    std::vector<GeneratorPtr> w2;
    w2.push_back(makeWorkload(testTrace()));
    System fresh(SystemConfig{}, std::move(w2));
    applyCombo(fresh, "ipcp");
    const Status st = fresh.loadCheckpoint(path);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, Errc::corrupt);
}

// ---- kill-and-resume equivalence matrix ----

TEST_F(CheckpointTest, ResumeEquivalenceMatrixSingleCore)
{
    const ExperimentConfig base = tinyConfig();
    const AttachFn attach = comboAttach("ipcp");

    for (const bool no_skip : {false, true}) {
        ExperimentConfig cfg = base;
        cfg.system.tickEveryCycle = no_skip;
        const Outcome golden = runSingleCore(testTrace(), attach, cfg);

        for (const Cycle every : {Cycle{2'000}, Cycle{5'000}}) {
            SCOPED_TRACE("no_skip=" + std::to_string(no_skip) +
                         " every=" + std::to_string(every));
            TempDir dir;
            const std::string path = dir.file("run.ckpt");

            // A checkpointing run is bit-identical to a plain one.
            ExperimentConfig save = cfg;
            save.ckptPath = path;
            save.ckptEvery = every;
            const Outcome saved =
                runSingleCore(testTrace(), attach, save);
            EXPECT_TRUE(sameStats(golden, saved));
            ASSERT_TRUE(std::filesystem::exists(path));

            // Resuming the mid-run checkpoint completes with the
            // same simulated stats.
            ExperimentConfig resume = cfg;
            resume.resumePath = path;
            const Outcome resumed =
                runSingleCore(testTrace(), attach, resume);
            EXPECT_TRUE(sameStats(golden, resumed));
            EXPECT_TRUE(resumed.resumed);
            EXPECT_GT(resumed.ckptCycle, 0u);
        }
    }
}

/**
 * The same kill-and-resume equivalence for every prefetcher the
 * factory builds, alone at the L1-D (`l1:<name>`), at the L2
 * (`l2:<name>`) and trained at the L1-D but filling the L2
 * (`l1fill2:<name>`). Restoring deep-audits the system, so each
 * stateful prefetcher's serialize() and audit() run here; a table
 * left out of serialize() shows up as a resumed run that drifts.
 */
class PrefetcherResumeTest
    : public CheckpointTest,
      public ::testing::WithParamInterface<std::string>
{
};

TEST_P(PrefetcherResumeTest, ResumedRunMatchesUninterrupted)
{
    const ExperimentConfig cfg = tinyConfig();
    const AttachFn attach = comboAttach(GetParam());
    const Outcome golden = runSingleCore(testTrace(), attach, cfg);

    TempDir dir;
    ExperimentConfig save = cfg;
    save.ckptPath = dir.file("run.ckpt");
    save.ckptEvery = 5'000;
    const Outcome saved = runSingleCore(testTrace(), attach, save);
    EXPECT_TRUE(sameStats(golden, saved));

    ExperimentConfig resume = cfg;
    resume.resumePath = save.ckptPath;
    const Outcome resumed = runSingleCore(testTrace(), attach, resume);
    EXPECT_TRUE(resumed.resumed);
    EXPECT_GT(resumed.ckptCycle, 0u);
    EXPECT_TRUE(sameStats(golden, resumed))
        << "cycles " << golden.cycles << " -> " << resumed.cycles;
}

std::vector<std::string>
everyPrefetcherAtEveryLevel()
{
    std::vector<std::string> combos;
    for (const char *level : {"l1:", "l2:", "l1fill2:"})
        for (const std::string &name : prefetcherNames())
            combos.push_back(level + name);
    return combos;
}

INSTANTIATE_TEST_SUITE_P(
    EveryPrefetcher, PrefetcherResumeTest,
    ::testing::ValuesIn(everyPrefetcherAtEveryLevel()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string n = info.param;
        for (char &c : n)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

TEST_F(CheckpointTest, ResumeEquivalenceMatrixFourCores)
{
    const std::vector<TraceSpec> specs(4, testTrace());
    const ExperimentConfig base = tinyConfig();
    const AttachFn attach = comboAttach("ipcp");

    for (const bool no_skip : {false, true}) {
        ExperimentConfig cfg = base;
        cfg.system.tickEveryCycle = no_skip;
        const MixOutcome golden = runMix(specs, attach, cfg);

        SCOPED_TRACE("no_skip=" + std::to_string(no_skip));
        TempDir dir;
        const std::string path = dir.file("mix.ckpt");

        ExperimentConfig save = cfg;
        save.ckptPath = path;
        save.ckptEvery = 4'000;
        const MixOutcome saved = runMix(specs, attach, save);
        EXPECT_TRUE(sameMix(golden, saved));
        ASSERT_TRUE(std::filesystem::exists(path));

        ExperimentConfig resume = cfg;
        resume.resumePath = path;
        const MixOutcome resumed = runMix(specs, attach, resume);
        EXPECT_TRUE(sameMix(golden, resumed));
        EXPECT_TRUE(resumed.system.resumed);
        EXPECT_GT(resumed.system.ckptCycle, 0u);
    }
}

TEST_F(CheckpointTest, ResumeCrossesSkipModes)
{
    // A checkpoint saved under the event-skipping loop resumes under
    // tick-every-cycle (and stays byte-identical): the image holds
    // only simulated state, never loop bookkeeping.
    const ExperimentConfig base = tinyConfig();
    const AttachFn attach = comboAttach("ipcp");
    const Outcome golden = runSingleCore(testTrace(), attach, base);

    TempDir dir;
    const std::string path = dir.file("skip.ckpt");
    ExperimentConfig save = base;
    save.ckptPath = path;
    save.ckptEvery = 3'000;
    runSingleCore(testTrace(), attach, save);
    ASSERT_TRUE(std::filesystem::exists(path));

    ExperimentConfig resume = base;
    resume.resumePath = path;
    resume.system.tickEveryCycle = true;
    const Outcome resumed = runSingleCore(testTrace(), attach, resume);
    EXPECT_TRUE(sameStats(golden, resumed));
    EXPECT_TRUE(resumed.resumed);
}

TEST_F(CheckpointTest, MissingExplicitResumeFailsTheRun)
{
    ExperimentConfig cfg = tinyConfig();
    cfg.resumePath = "/tmp/definitely_not_here.ckpt";
    EXPECT_THROW(runSingleCore(testTrace(), comboAttach("none"), cfg),
                 ErrorException);
}

// ---- key-derived checkpoints and the runner's automatic resume ----

TEST_F(CheckpointTest, DerivedCheckpointResumesAndCleansUp)
{
    TempDir dir;
    const AttachFn attach = comboAttach("ipcp");
    ExperimentConfig cfg = tinyConfig();
    cfg.ckptDir = dir.path;
    cfg.ckptEvery = 2'000;
    const std::string key = "unit-test-job";
    const std::string derived = checkpointPathFor(cfg, key);

    const Outcome golden = runSingleCore(testTrace(), attach,
                                         tinyConfig());

    // Plant a genuine mid-run checkpoint at the derived path, as a
    // crashed attempt would leave behind.
    {
        ExperimentConfig save = tinyConfig();
        save.ckptPath = derived;
        save.ckptEvery = 2'000;
        runSingleCore(testTrace(), attach, save);
        ASSERT_TRUE(std::filesystem::exists(derived));
    }

    // The keyed run resumes from it, matches the golden stats, and
    // removes the leftover on success.
    const Outcome out = runSingleCore(testTrace(), attach, cfg, key);
    EXPECT_TRUE(sameStats(golden, out));
    EXPECT_TRUE(out.resumed);
    EXPECT_GT(out.ckptCycle, 0u);
    EXPECT_FALSE(std::filesystem::exists(derived));
}

TEST_F(CheckpointTest, CacheHitRemovesStaleDerivedCheckpoint)
{
    // A crashed attempt leaves a derived checkpoint behind; when the
    // job's result then arrives from the external cache (another
    // worker finished it), the runner must clean up the leftover —
    // the job will never run here again, so nothing else would.
    TempDir dir;
    ExperimentConfig cfg = tinyConfig();
    cfg.ckptDir = dir.path;
    cfg.ckptEvery = 2'000;
    const Job job{testTrace(), "ipcp", comboAttach("ipcp"), cfg};
    const std::string derived =
        checkpointPathFor(cfg, jobKey(job));
    {
        std::ofstream f(derived, std::ios::binary);
        f << "stale checkpoint from a crashed attempt";
    }
    ASSERT_TRUE(std::filesystem::exists(derived));

    Runner runner(1);
    const Runner::FetchFn fetch = [](const Job &, Outcome &out) {
        out = Outcome{};
        out.ipc = 1.0;
        return true;
    };
    const std::vector<JobOutcome> outs = runner.run({job}, fetch);

    ASSERT_EQ(outs.size(), 1u);
    EXPECT_TRUE(outs[0].ok);
    EXPECT_EQ(runner.lastBatch().cached, 1u);
    EXPECT_FALSE(std::filesystem::exists(derived));
}

TEST_F(CheckpointTest, UnreadableDerivedCheckpointFallsBackToFresh)
{
    TempDir dir;
    const AttachFn attach = comboAttach("ipcp");
    ExperimentConfig cfg = tinyConfig();
    cfg.ckptDir = dir.path;
    cfg.ckptEvery = 2'000;
    const std::string key = "unit-test-job";
    const std::string derived = checkpointPathFor(cfg, key);

    ExperimentConfig save = tinyConfig();
    save.ckptPath = derived;
    save.ckptEvery = 2'000;
    runSingleCore(testTrace(), attach, save);
    ASSERT_TRUE(std::filesystem::exists(derived));

    // An injected ckpt.read fault makes the leftover unreadable; the
    // run must fall back to a fresh start, not fail.
    ASSERT_TRUE(FaultRegistry::instance()
                    .configure("ckpt.read@1")
                    .ok());
    const Outcome golden = runSingleCore(testTrace(), attach,
                                         tinyConfig());
    const Outcome out = runSingleCore(testTrace(), attach, cfg, key);
    EXPECT_TRUE(sameStats(golden, out));
    EXPECT_FALSE(out.resumed);
}

TEST_F(CheckpointTest, RunnerRetryResumesFromCheckpoint)
{
    const AttachFn attach = comboAttach("ipcp");
    const ExperimentConfig plain = tinyConfig();

    // Probe how many L1D fills the run performs (the clause below
    // never fires; it only counts matching hits), then aim a one-shot
    // transient fault at the halfway point — mid-simulation, well
    // after the first periodic checkpoint.
    ASSERT_TRUE(FaultRegistry::instance()
                    .configure("cache.fill~L1D@999999999")
                    .ok());
    const Outcome golden = runSingleCore(testTrace(), attach, plain);
    const std::uint64_t fills =
        FaultRegistry::instance().hitCount("cache.fill");
    ASSERT_GT(fills, 4u);

    TempDir dir;
    ExperimentConfig cfg = plain;
    cfg.ckptDir = dir.path;
    cfg.ckptEvery = 500;
    ASSERT_TRUE(FaultRegistry::instance()
                    .configure("cache.fill~L1D@" +
                               std::to_string(fills / 2))
                    .ok());

    Runner runner(1);
    runner.setMaxAttempts(2);
    const std::vector<Job> jobs = {
        Job{testTrace(), "ipcp", attach, cfg}};
    const std::vector<JobOutcome> outs = runner.run(jobs);

    ASSERT_EQ(outs.size(), 1u);
    EXPECT_TRUE(outs[0].ok) << outs[0].error;
    EXPECT_EQ(outs[0].attempts, 2u);
    EXPECT_TRUE(outs[0].resumed);
    EXPECT_GT(outs[0].ckptCycle, 0u);
    EXPECT_TRUE(sameStats(golden, outs[0].outcome));
    EXPECT_EQ(runner.lastBatch().resumed, 1u);
    EXPECT_EQ(runner.lastBatch().retried, 1u);

    // The derived checkpoint is deleted once the job succeeds.
    EXPECT_TRUE(std::filesystem::is_empty(dir.path));
}

TEST_F(CheckpointTest, FailingAttemptsLeaveOneDerivedCheckpoint)
{
    const AttachFn attach = comboAttach("ipcp");
    const ExperimentConfig plain = tinyConfig();

    // Count the run's L1D fills (the clause never fires), then fail
    // three attempts in a row, each a quarter of the run past the
    // previous failure, so every attempt resumes and saves again.
    ASSERT_TRUE(FaultRegistry::instance()
                    .configure("cache.fill~L1D@999999999")
                    .ok());
    const Outcome golden = runSingleCore(testTrace(), attach, plain);
    const std::uint64_t quarter =
        FaultRegistry::instance().hitCount("cache.fill") / 4;
    ASSERT_GT(quarter, 1u);

    TempDir dir;
    ExperimentConfig cfg = plain;
    cfg.ckptDir = dir.path;
    cfg.ckptEvery = 500;
    const std::string spec =
        "cache.fill~L1D@" + std::to_string(quarter) +
        ",cache.fill~L1D@" + std::to_string(2 * quarter) +
        ",cache.fill~L1D@" + std::to_string(3 * quarter);
    ASSERT_TRUE(FaultRegistry::instance().configure(spec).ok());

    const std::vector<Job> jobs = {
        Job{testTrace(), "ipcp", attach, cfg}};
    Runner runner(1);
    runner.setMaxAttempts(3);
    const std::vector<JobOutcome> failed = runner.run(jobs);
    ASSERT_FALSE(failed[0].ok);
    EXPECT_EQ(failed[0].attempts, 3u);
    EXPECT_EQ(FaultRegistry::instance().firedCount("cache.fill"), 3u);

    // One key, one file: the three attempts share the job's derived
    // checkpoint and leave no temp beside it.
    std::vector<std::filesystem::path> left;
    for (const auto &entry : std::filesystem::directory_iterator(dir.path))
        left.push_back(entry.path().filename());
    ASSERT_EQ(left.size(), 1u);
    EXPECT_EQ(left[0],
              std::filesystem::path(checkpointPathFor(cfg, jobKey(jobs[0])))
                  .filename());

    // A clean rerun resumes from it, matches the uninterrupted run,
    // and removes it.
    FaultRegistry::instance().clear();
    const std::vector<JobOutcome> rerun = runner.run(jobs);
    ASSERT_TRUE(rerun[0].ok) << rerun[0].error;
    EXPECT_TRUE(rerun[0].resumed);
    EXPECT_TRUE(sameStats(golden, rerun[0].outcome));
    EXPECT_TRUE(std::filesystem::is_empty(dir.path));
}

// ---- ckpt.* fault points ----

TEST_F(CheckpointTest, CheckpointWriteFaultNeverFailsTheRun)
{
    TempDir dir;
    const AttachFn attach = comboAttach("ipcp");
    const Outcome golden = runSingleCore(testTrace(), attach,
                                         tinyConfig());

    ASSERT_TRUE(FaultRegistry::instance()
                    .configure("ckpt.write@1+")
                    .ok());
    ExperimentConfig cfg = tinyConfig();
    cfg.ckptPath = dir.file("never.ckpt");
    cfg.ckptEvery = 2'000;
    const Outcome out = runSingleCore(testTrace(), attach, cfg);

    // Every periodic save failed, the run itself did not, and the
    // simulated results are untouched.
    EXPECT_TRUE(sameStats(golden, out));
    EXPECT_FALSE(std::filesystem::exists(cfg.ckptPath));
    EXPECT_GT(FaultRegistry::instance().firedCount("ckpt.write"), 0u);
}

TEST_F(CheckpointTest, CheckpointReadFaultFailsExplicitResume)
{
    TempDir dir;
    const AttachFn attach = comboAttach("ipcp");
    ExperimentConfig save = tinyConfig();
    save.ckptPath = dir.file("r.ckpt");
    save.ckptEvery = 2'000;
    runSingleCore(testTrace(), attach, save);
    ASSERT_TRUE(std::filesystem::exists(save.ckptPath));

    ASSERT_TRUE(FaultRegistry::instance().configure("ckpt.read@1").ok());
    ExperimentConfig resume = tinyConfig();
    resume.resumePath = save.ckptPath;
    try {
        runSingleCore(testTrace(), attach, resume);
        FAIL() << "explicit resume under a read fault did not throw";
    } catch (const ErrorException &e) {
        EXPECT_EQ(e.error().code, Errc::injected);
    }
}

// ---- graceful shutdown ----

TEST_F(CheckpointTest, ShutdownRequestFailsUnstartedJobsAsInterrupted)
{
    requestShutdown();
    Runner runner(1);
    const std::vector<Job> jobs = {
        Job{testTrace(), "none", comboAttach("none"), tinyConfig()},
        Job{findTrace("619.lbm_s-2676B"), "none", comboAttach("none"),
            tinyConfig()}};
    const std::vector<JobOutcome> outs = runner.run(jobs);

    ASSERT_EQ(outs.size(), 2u);
    for (const JobOutcome &o : outs) {
        EXPECT_FALSE(o.ok);
        EXPECT_NE(o.error.find("interrupted"), std::string::npos);
    }
    EXPECT_EQ(runner.lastBatch().interrupted, 2u);
    EXPECT_EQ(runner.lastBatch().failed, 2u);

    // Clearing the flag restores normal batch execution.
    clearShutdownRequest();
    const std::vector<JobOutcome> again = runner.run(jobs);
    EXPECT_TRUE(again[0].ok);
    EXPECT_TRUE(again[1].ok);
    EXPECT_EQ(runner.lastBatch().interrupted, 0u);
}

// ---- invariant auditor ----

TEST_F(CheckpointTest, PerTickAuditRunsCleanAndChangesNothing)
{
    const AttachFn attach = comboAttach("ipcp");
    const Outcome golden = runSingleCore(testTrace(), attach,
                                         tinyConfig());

    ExperimentConfig cfg = tinyConfig();
    cfg.system.auditEveryTick = true;
    const Outcome audited = runSingleCore(testTrace(), attach, cfg);
    EXPECT_TRUE(sameStats(golden, audited));

    // Also under the no-skip loop and a second combo. The per-tick
    // audit is the shallow System::audit(false): it checks queue and
    // MSHR bounds, DRAM, the cores and the cluster wakeups. Resident
    // lines, replacement state and predictor tables are deep-only,
    // reached by the audits at checkpoint save and restore.
    cfg.system.tickEveryCycle = true;
    const Outcome audited2 =
        runSingleCore(testTrace(), comboAttach("spp-ppf-dspatch"), cfg);
    EXPECT_GT(audited2.instructions, 0u);
}

} // namespace
} // namespace bouquet
