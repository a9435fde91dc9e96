/**
 * @file
 * Tests for the sharded campaign engine (src/campaign): manifest
 * round-trips and key agreement with the runner, the filesystem
 * work-queue protocol (exclusive claims, lease expiry and
 * nonce-verified reclaim, attempt-budget quarantine, atomic publish,
 * scan-time litter reaping, fault injection), the in-process worker
 * loop end to end — a reclaimed job resuming a dead owner's periodic
 * checkpoint and still producing a byte-identical report —
 * multi-process queue contention with real forked workers
 * (exactly-once compute under >= 4 processes), and done files: a
 * real outcome round-trips, and a damaged one reads as incomplete.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/aggregate.hh"
#include "campaign/campaign.hh"
#include "campaign/queue.hh"
#include "campaign/supervisor.hh"
#include "campaign/worker.hh"
#include "common/faultinject.hh"
#include "common/publisher.hh"
#include "dse/dse.hh"
#include "harness/experiment.hh"
#include "harness/factory.hh"
#include "harness/runner.hh"
#include "harness/warmstore.hh"
#include "trace/suite.hh"
#include "tests/test_support.hh"

namespace bouquet::campaign
{
namespace
{

/** Every test starts and ends with clean fault/shutdown state. */
class CampaignTest : public ::testing::Test
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

/** Scoped environment override, restored on destruction. */
struct EnvGuard
{
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        had_ = old != nullptr;
        old_ = had_ ? old : "";
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~EnvGuard()
    {
        if (had_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

    const char *name_;
    bool had_ = false;
    std::string old_;
};

QueueConfig
queueConfig(const std::string &dir)
{
    QueueConfig cfg;
    cfg.dir = dir;
    return cfg;
}

/** Age a file so its lease reads as expired. */
void
backdate(const std::string &path, double seconds)
{
    struct timespec now;
    ::clock_gettime(CLOCK_REALTIME, &now);
    struct timespec times[2];
    times[0] = now;
    times[0].tv_sec -= static_cast<time_t>(seconds);
    times[1] = times[0];
    ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0);
}

bool
historyContains(const std::vector<std::string> &lines,
                const std::string &needle)
{
    for (const std::string &line : lines) {
        if (line.find(needle) != std::string::npos)
            return true;
    }
    return false;
}

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** Every entry of `dir` but `.` and `..`, hidden ones included. */
std::vector<std::string>
listDir(const std::string &dir)
{
    std::vector<std::string> names;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        names.push_back(entry.path().filename().string());
    return names;
}

/** History lines that start with `prefix`. */
std::size_t
countLines(const std::vector<std::string> &lines,
           const std::string &prefix)
{
    std::size_t n = 0;
    for (const std::string &line : lines)
        n += line.rfind(prefix, 0) == 0 ? 1 : 0;
    return n;
}

/** The three-cell test sweep: two real jobs plus one poison job. */
CampaignSpec
tinySpec(bool with_poison)
{
    CampaignSpec spec;
    spec.simInstrs = 20'000;
    spec.warmupInstrs = 4'000;
    spec.jobs.push_back(CampaignJob{"603.bwaves_s-891B", "none"});
    spec.jobs.push_back(CampaignJob{"603.bwaves_s-891B", "ipcp"});
    if (with_poison)
        spec.jobs.push_back(CampaignJob{"no.such_trace-0B", "ipcp"});
    return spec;
}

Outcome
fakeOutcome(double ipc)
{
    Outcome o;
    o.ipc = ipc;
    o.instructions = 1000;
    o.cycles = 500;
    o.dramBytes = 4096;
    return o;
}

// ---- manifest + keys ----

TEST_F(CampaignTest, ManifestRoundTrips)
{
    TempDir dir;
    const CampaignPaths paths(dir.file("camp"));
    ASSERT_TRUE(initCampaignDirs(paths).ok());
    const CampaignSpec spec = tinySpec(true);
    ASSERT_TRUE(writeManifest(paths, spec).ok());

    Result<CampaignSpec> loaded = readManifest(paths);
    ASSERT_TRUE(loaded.ok());
    const CampaignSpec got = loaded.take();
    EXPECT_EQ(got.simInstrs, spec.simInstrs);
    EXPECT_EQ(got.warmupInstrs, spec.warmupInstrs);
    ASSERT_EQ(got.jobs.size(), spec.jobs.size());
    for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
        EXPECT_EQ(got.jobs[i].trace, spec.jobs[i].trace);
        EXPECT_EQ(got.jobs[i].combo, spec.jobs[i].combo);
    }
}

TEST_F(CampaignTest, ManifestRejectsMissingAndGarbage)
{
    TempDir dir;
    const CampaignPaths missing(dir.file("nowhere"));
    EXPECT_FALSE(readManifest(missing).ok());

    const CampaignPaths paths(dir.file("camp"));
    ASSERT_TRUE(initCampaignDirs(paths).ok());
    {
        std::ofstream f(paths.manifestFile());
        f << "not-a-manifest v9\n";
    }
    EXPECT_FALSE(readManifest(paths).ok());
}

/**
 * Regression: a manifest whose run-length lines hold garbage (a torn
 * write, a stray editor keystroke) used to escape readManifest as a
 * std::stoull exception, killing the worker/supervisor process
 * instead of failing the load with a Status.
 */
TEST_F(CampaignTest, ManifestRejectsCorruptRunLengths)
{
    const std::vector<std::string> bad_lengths = {
        "sim_instrs=12junk",     // trailing garbage
        "sim_instrs=",           // empty value
        "sim_instrs=-5",         // sign into an unsigned
        "sim_instrs=99999999999999999999999",  // overflow
        "warmup_instrs=4e3",     // not an integer
    };
    for (const std::string &bad : bad_lengths) {
        TempDir dir;
        const CampaignPaths paths(dir.file("camp"));
        ASSERT_TRUE(initCampaignDirs(paths).ok());
        {
            std::ofstream f(paths.manifestFile());
            f << "ipcp-campaign-manifest v1\n";
            f << (bad.rfind("sim_instrs", 0) == 0
                      ? "warmup_instrs=4000\n"
                      : "sim_instrs=20000\n");
            f << bad << "\n";
            f << "job 603.bwaves_s-891B ipcp\n";
        }
        Result<CampaignSpec> loaded = readManifest(paths);
        ASSERT_FALSE(loaded.ok()) << bad;
        EXPECT_EQ(loaded.error().code, Errc::corrupt) << bad;
    }
}

TEST_F(CampaignTest, KeyOfMatchesRunnerJobKey)
{
    TempDir dir;
    const CampaignPaths paths(dir.file("camp"));
    CampaignSpec spec = tinySpec(false);
    // Parameterized design-space points are combo names like any
    // other: the campaign key and the runner key must agree or a
    // DSE rung would recompute (and mis-file) every outcome.
    spec.jobs.push_back(CampaignJob{
        "603.bwaves_s-891B", "ipcp:ipEntries=128,gsDefaultDegree=4"});
    const ExperimentConfig cfg = campaignConfig(paths, spec);

    for (const CampaignJob &cell : spec.jobs) {
        Result<Job> job = materialize(cell, cfg);
        ASSERT_TRUE(job.ok());
        EXPECT_EQ(keyOf(cell, cfg), jobKey(job.value()));
    }
    // Existing campaign roots are filed under this exact key format.
    EXPECT_EQ(jobKey("603.bwaves_s-891B", "ipcp", ExperimentConfig{}),
              "603.bwaves_s-891B|ipcp|1000000|100000|"
              "s64x12.1024x8.2048x16.64x8.m16.32.p8.16.d1.20.r0");

    Result<Job> poison =
        materialize(CampaignJob{"no.such_trace-0B", "ipcp"}, cfg);
    ASSERT_FALSE(poison.ok());
    EXPECT_EQ(poison.error().code, Errc::unknown_name);
    // Poison jobs still get a key (and so queue artifacts).
    EXPECT_EQ(
        keyHash(keyOf(CampaignJob{"no.such_trace-0B", "ipcp"}, cfg))
            .size(),
        16u);
}

TEST_F(CampaignTest, MalformedCheckpointRateLimitKeepsTheCampaignDefault)
{
    TempDir dir;
    const CampaignPaths paths(dir.file("camp"));
    const CampaignSpec spec = tinySpec(false);
    {
        EnvGuard unset("IPCP_CKPT_MIN_MS", nullptr);
        EXPECT_EQ(campaignConfig(paths, spec).ckptMinMs, 500u);
    }
    {
        EnvGuard empty("IPCP_CKPT_MIN_MS", "");
        EXPECT_EQ(campaignConfig(paths, spec).ckptMinMs, 500u);
    }
    {
        // No other test sets this knob malformed, and env warns once
        // per variable per process: both readers of it share the one
        // warning.
        EnvGuard soon("IPCP_CKPT_MIN_MS", "soon");
        testing::internal::CaptureStderr();
        EXPECT_EQ(campaignConfig(paths, spec).ckptMinMs, 500u);
        EXPECT_EQ(campaignConfig(paths, spec).ckptMinMs, 500u);
        const std::string err = testing::internal::GetCapturedStderr();
        std::size_t warnings = 0;
        for (std::size_t at = err.find("IPCP_CKPT_MIN_MS");
             at != std::string::npos;
             at = err.find("IPCP_CKPT_MIN_MS", at + 1))
            ++warnings;
        EXPECT_EQ(warnings, 1u) << err;
    }
    {
        EnvGuard pinned("IPCP_CKPT_MIN_MS", "0");
        EXPECT_EQ(campaignConfig(paths, spec).ckptMinMs, 0u);
    }
}

// ---- queue protocol ----

TEST_F(CampaignTest, ClaimIsExclusiveUntilReleased)
{
    TempDir dir;
    WorkQueue alpha(queueConfig(dir.path), "alpha");
    WorkQueue beta(queueConfig(dir.path), "beta");
    const std::string hash = "00000000deadbeef";

    Result<Claim> first = alpha.tryClaim(hash);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(first.value().claimed);
    EXPECT_FALSE(std::filesystem::exists(alpha.attemptsPath(hash)));
    EXPECT_EQ(alpha.state(hash), JobState::Leased);

    // A live lease is not claimable or reclaimable by anyone else.
    Result<Claim> second = beta.tryClaim(hash);
    ASSERT_TRUE(second.ok());
    EXPECT_FALSE(second.value().claimed);

    // Release with the wrong nonce is a no-op; with the right one the
    // job returns to pending and is claimable again.
    alpha.release(hash, "not-the-nonce");
    EXPECT_EQ(alpha.state(hash), JobState::Leased);
    alpha.release(hash, first.value().nonce);
    EXPECT_EQ(alpha.state(hash), JobState::Pending);
    Result<Claim> third = beta.tryClaim(hash);
    ASSERT_TRUE(third.ok());
    EXPECT_TRUE(third.value().claimed);
    EXPECT_FALSE(std::filesystem::exists(beta.attemptsPath(hash)));
}

TEST_F(CampaignTest, ExpiredLeaseIsReclaimedAndOldOwnerFencedOut)
{
    TempDir dir;
    WorkQueue alpha(queueConfig(dir.path), "alpha");
    WorkQueue beta(queueConfig(dir.path), "beta");
    const std::string hash = "00000000deadbeef";

    Result<Claim> dead = alpha.tryClaim(hash);
    ASSERT_TRUE(dead.ok());
    ASSERT_TRUE(dead.value().claimed);
    ASSERT_TRUE(alpha.heartbeat(hash, dead.value().nonce).ok());

    backdate(alpha.leasePath(hash), 120.0);
    EXPECT_EQ(alpha.state(hash), JobState::Orphaned);

    Result<Claim> takeover = beta.tryClaim(hash);
    ASSERT_TRUE(takeover.ok());
    ASSERT_TRUE(takeover.value().claimed);
    EXPECT_TRUE(
        historyContains(beta.history(hash), "orphaned prior=alpha"));
    EXPECT_TRUE(historyContains(beta.history(hash),
                                "attempt owner=beta kind=reclaim "
                                "prior=alpha"));

    // The reclaimed-from owner can neither renew nor publish.
    EXPECT_FALSE(alpha.heartbeat(hash, dead.value().nonce).ok());
    EXPECT_FALSE(
        alpha.publishDone(hash, "some|key", dead.value().nonce).ok());
    EXPECT_EQ(alpha.state(hash), JobState::Leased);

    // The new owner publishes; the job is terminal and unclaimable.
    ASSERT_TRUE(
        beta.publishDone(hash, "some|key", takeover.value().nonce)
            .ok());
    EXPECT_EQ(beta.state(hash), JobState::Done);
    EXPECT_TRUE(beta.isTerminal(hash));
    EXPECT_FALSE(std::filesystem::exists(beta.leasePath(hash)));
    Result<Claim> late = alpha.tryClaim(hash);
    ASSERT_TRUE(late.ok());
    EXPECT_FALSE(late.value().claimed);
}

TEST_F(CampaignTest, AttemptBudgetQuarantinesWithFullHistory)
{
    TempDir dir;
    QueueConfig cfg = queueConfig(dir.path);
    cfg.quarantineAfter = 2;
    WorkQueue queue(cfg, "alpha");
    const std::string hash = "00000000deadbeef";

    for (unsigned round = 0; round < 2; ++round) {
        Result<Claim> claim = queue.tryClaim(hash);
        ASSERT_TRUE(claim.ok());
        ASSERT_TRUE(claim.value().claimed);
        queue.recordAttempt(hash, false, "");
        queue.recordFailure(hash, "simulated crash #" +
                                      std::to_string(round));
        queue.release(hash, claim.value().nonce);
    }
    EXPECT_EQ(queue.attemptCount(hash), 2u);

    // The third claim trips the budget: parked, not leased.
    Result<Claim> third = queue.tryClaim(hash);
    ASSERT_TRUE(third.ok());
    EXPECT_FALSE(third.value().claimed);
    EXPECT_EQ(queue.state(hash), JobState::Quarantined);
    EXPECT_FALSE(std::filesystem::exists(queue.attemptsPath(hash)));

    const std::vector<std::string> lines = queue.history(hash);
    EXPECT_TRUE(historyContains(lines, "attempt owner=alpha"));
    EXPECT_TRUE(historyContains(lines, "simulated crash #0"));
    EXPECT_TRUE(historyContains(lines, "simulated crash #1"));
    EXPECT_TRUE(historyContains(lines, "quarantine reason="));
}

TEST_F(CampaignTest, ScanCountsAndReapsLitter)
{
    TempDir dir;
    WorkQueue queue(queueConfig(dir.path), "alpha");
    const std::vector<std::string> hashes = {"aaaa", "bbbb", "cccc"};

    Result<Claim> claim = queue.tryClaim("aaaa");
    ASSERT_TRUE(claim.ok() && claim.value().claimed);
    ASSERT_TRUE(
        queue.publishDone("aaaa", "k", claim.value().nonce).ok());
    Result<Claim> live = queue.tryClaim("bbbb");
    ASSERT_TRUE(live.ok() && live.value().claimed);

    // A crash between publish and lease-drop leaves a stale lease
    // beside the done marker; scan reaps it.
    {
        std::ofstream f(queue.leasePath("aaaa"));
        f << "owner=ghost\nnonce=g\n";
    }
    const QueueCounts counts = queue.scan(hashes);
    EXPECT_EQ(counts.done, 1u);
    EXPECT_EQ(counts.leased, 1u);
    EXPECT_EQ(counts.pending, 1u);
    EXPECT_EQ(counts.terminal(), 1u);
    EXPECT_FALSE(std::filesystem::exists(queue.leasePath("aaaa")));
}

TEST_F(CampaignTest, ScanReapsOnlyAgedPublishTemps)
{
    // A worker killed mid-publish leaves its hidden temp file behind;
    // scan reaps it once it is older than 2xTTL, and leaves a temp
    // that a live publish may still rename alone.
    TempDir dir;
    QueueConfig cfg = queueConfig(dir.path);
    cfg.leaseTtl = 2.0;
    WorkQueue queue(cfg, "alpha");
    const std::string aged = dir.file(".done-00000000deadbeef.tmp.4242");
    const std::string legacy = dir.file(".tmp-done-00000000deadbeef.4243");
    const std::string fresh = dir.file(".done-00000000feedface.tmp.4244");
    for (const std::string &path : {aged, legacy, fresh})
        std::ofstream(path) << "partial";
    backdate(aged, 5.0);
    backdate(legacy, 5.0);

    queue.scan({});
    EXPECT_FALSE(std::filesystem::exists(aged));
    EXPECT_FALSE(std::filesystem::exists(legacy));
    EXPECT_TRUE(std::filesystem::exists(fresh));
}

TEST_F(CampaignTest, WorkerStartReapsOnlyAgedCheckpointTemps)
{
    // A worker SIGKILLed during a checkpoint save, a stats publish or
    // a warm publish leaves its hidden publish temp in ckpts/, stats/
    // or warm/. A starting worker removes it once it is older than
    // 2xTTL, and keeps a temp a live publish may still rename and
    // every checkpoint a rerun resumes from.
    EnvGuard ttl("IPCP_LEASE_TTL", "2");
    EnvGuard warm_dir("IPCP_WARM_DIR", nullptr);
    EnvGuard warm("IPCP_WARM", nullptr);
    TempDir dir;
    const CampaignPaths paths(dir.file("camp"));
    ASSERT_TRUE(initCampaignDirs(paths).ok());
    CampaignSpec spec = tinySpec(false);
    spec.jobs.resize(1);
    ASSERT_TRUE(writeManifest(paths, spec).ok());
    const std::string aged =
        paths.ckptDir() + "/.ckpt-00000000deadbeef.ckpt.tmp.4242";
    const std::string fresh =
        paths.ckptDir() + "/.ckpt-00000000feedface.ckpt.tmp.4244";
    const std::string ckpt =
        paths.ckptDir() + "/ckpt-00000000deadbeef.ckpt";
    const std::string aged_stats =
        paths.statsDir() + "/.stats-00000000deadbeef.json.tmp.4242";
    const std::string fresh_stats =
        paths.statsDir() + "/.stats-00000000feedface.json.tmp.4244";
    const std::string aged_warm =
        paths.warmDir() + "/.warm-00000000deadbeef.ckpt.tmp.4242";
    const std::string fresh_warm =
        paths.warmDir() + "/.warm-00000000feedface.ckpt.tmp.4244";
    for (const std::string &path : {aged, fresh, ckpt, aged_stats,
                                    fresh_stats, aged_warm, fresh_warm})
        std::ofstream(path) << "partial";
    backdate(aged, 5.0);
    backdate(ckpt, 5.0);
    backdate(aged_stats, 5.0);
    backdate(aged_warm, 5.0);

    ASSERT_EQ(runWorker(paths.root), 0);
    EXPECT_FALSE(std::filesystem::exists(aged));
    EXPECT_TRUE(std::filesystem::exists(fresh));
    EXPECT_TRUE(std::filesystem::exists(ckpt));
    EXPECT_FALSE(std::filesystem::exists(aged_stats));
    EXPECT_TRUE(std::filesystem::exists(fresh_stats));
    EXPECT_FALSE(std::filesystem::exists(aged_warm));
    EXPECT_TRUE(std::filesystem::exists(fresh_warm));
}

TEST_F(CampaignTest, FutureDatedLeaseIsClampedNotTreatedAsMissing)
{
    // Clock skew on a shared filesystem can stamp a lease with a
    // heartbeat mtime in the future. The age computation must clamp
    // it to "just renewed" — the historical behaviour read a negative
    // age as "no lease" (Pending), letting a second worker claim a
    // job whose owner was alive and heartbeating.
    TempDir dir;
    WorkQueue alpha(queueConfig(dir.path), "alpha");
    WorkQueue beta(queueConfig(dir.path), "beta");
    const std::string hash = "00000000deadbeef";

    Result<Claim> claim = alpha.tryClaim(hash);
    ASSERT_TRUE(claim.ok() && claim.value().claimed);
    backdate(alpha.leasePath(hash), -120.0);  // 2 min in the future

    EXPECT_EQ(alpha.state(hash), JobState::Leased);
    Result<Claim> steal = beta.tryClaim(hash);
    ASSERT_TRUE(steal.ok());
    EXPECT_FALSE(steal.value().claimed)
        << "a skewed-but-live lease must not be double-claimed";

    // The first observation clamps the mtime to now, so from here the
    // lease ages normally and ordinary TTL expiry still works.
    struct stat st;
    struct timespec now;
    ::clock_gettime(CLOCK_REALTIME, &now);
    ASSERT_EQ(::stat(alpha.leasePath(hash).c_str(), &st), 0);
    EXPECT_LE(st.st_mtim.tv_sec, now.tv_sec + 1);
    backdate(alpha.leasePath(hash), 120.0);
    EXPECT_EQ(alpha.state(hash), JobState::Orphaned);
}

TEST_F(CampaignTest, QueueOperationsLeakNoFileDescriptors)
{
    // Campaigns run thousands of scan/claim/history passes per worker
    // process; a single leaked descriptor per pass exhausts the fd
    // table (EMFILE) mid-campaign. Exercise every queue operation in
    // a loop and require the process fd count to stay flat.
    TempDir dir;
    WorkQueue queue(queueConfig(dir.path), "alpha");
    const std::vector<std::string> hashes = {"aaaa", "bbbb", "cccc"};

    auto openFds = [] {
        std::size_t n = 0;
        DIR *d = ::opendir("/proc/self/fd");
        if (d == nullptr)
            return n;
        while (::readdir(d) != nullptr)
            ++n;
        ::closedir(d);
        return n;
    };

    // Warm one full pass first so lazily-created state (history
    // files, markers) does not read as a leak.
    Result<Claim> done = queue.tryClaim("aaaa");
    ASSERT_TRUE(done.ok() && done.value().claimed);
    ASSERT_TRUE(queue.publishDone("aaaa", "k", done.value().nonce).ok());
    queue.scan(hashes);
    queue.writePulse(1, "bbbb");

    const std::size_t before = openFds();
    for (int pass = 0; pass < 50; ++pass) {
        Result<Claim> claim = queue.tryClaim("bbbb");
        ASSERT_TRUE(claim.ok() && claim.value().claimed);
        queue.recordAttempt("bbbb", false, "");
        ASSERT_TRUE(queue.heartbeat("bbbb", claim.value().nonce).ok());
        queue.writePulse(static_cast<std::uint64_t>(pass), "bbbb");
        std::uint64_t epoch = 0;
        std::string job;
        queue.readPulse("alpha", epoch, job);
        queue.recordFailure("bbbb", "synthetic");
        queue.recordDegraded("bbbb", 1, 0, 0, 0);
        queue.history("bbbb");
        queue.attemptCount("bbbb");
        queue.state("bbbb");
        queue.scan(hashes);
        queue.release("bbbb", claim.value().nonce);
        ::unlink(queue.attemptsPath("bbbb").c_str());  // reset budget
    }
    EXPECT_EQ(openFds(), before);
}

TEST_F(CampaignTest, QueueFaultPointsSurfaceAsErrors)
{
    TempDir dir;
    WorkQueue queue(queueConfig(dir.path), "alpha");
    const std::string hash = "00000000deadbeef";

    ASSERT_TRUE(
        FaultRegistry::instance().configure("queue.claim@1").ok());
    Result<Claim> claim = queue.tryClaim(hash);
    EXPECT_FALSE(claim.ok());
    FaultRegistry::instance().clear();

    // Reclaim fault: a claim of an expired lease errors instead of
    // stealing it, leaving the lease untouched for the next pass.
    Result<Claim> held = queue.tryClaim(hash);
    ASSERT_TRUE(held.ok() && held.value().claimed);
    backdate(queue.leasePath(hash), 120.0);
    ASSERT_TRUE(
        FaultRegistry::instance().configure("queue.reclaim@1").ok());
    Result<Claim> reclaim = queue.tryClaim(hash);
    EXPECT_FALSE(reclaim.ok());
    EXPECT_TRUE(std::filesystem::exists(queue.leasePath(hash)));
    FaultRegistry::instance().clear();

    ASSERT_TRUE(FaultRegistry::instance()
                    .configure("queue.heartbeat@1")
                    .ok());
    EXPECT_FALSE(queue.heartbeat(hash, held.value().nonce).ok());
}

// ---- worker end to end ----

TEST_F(CampaignTest, WorkerDrivesCampaignAndQuarantinesPoisonJob)
{
    EnvGuard ttl("IPCP_LEASE_TTL", nullptr);
    TempDir dir;
    const CampaignPaths paths(dir.file("camp"));
    ASSERT_TRUE(initCampaignDirs(paths).ok());
    const CampaignSpec spec = tinySpec(true);
    ASSERT_TRUE(writeManifest(paths, spec).ok());

    EXPECT_EQ(runWorker(paths.root), 0);

    const ExperimentConfig cfg = campaignConfig(paths, spec);
    WorkQueue queue(queueConfig(paths.queueDir()), "test");
    std::vector<std::string> hashes;
    for (const CampaignJob &job : spec.jobs)
        hashes.push_back(keyHash(keyOf(job, cfg)));
    const QueueCounts counts = queue.scan(hashes);
    EXPECT_EQ(counts.done, 2u);
    EXPECT_EQ(counts.quarantined, 1u);
    EXPECT_TRUE(historyContains(queue.history(hashes.back()),
                                "unknown trace 'no.such_trace-0B'"));

    // Every done job's done file carries its outcome, and its stats
    // artifact exists under the campaign's stats dir. No shared
    // outcome store is written.
    for (std::size_t i = 0; i + 1 < spec.jobs.size(); ++i) {
        Result<Outcome> out =
            queue.readDone(hashes[i], keyOf(spec.jobs[i], cfg));
        ASSERT_TRUE(out.ok()) << out.error().message;
        EXPECT_GT(out.value().ipc, 0.0);
        EXPECT_TRUE(std::filesystem::exists(
            paths.statsDir() + "/stats-" + hashes[i] + ".json"));
    }
    EXPECT_FALSE(std::filesystem::exists(paths.root + "/outcomes.bin"));

    ASSERT_TRUE(writeReport(paths, spec).ok());
    Result<CampaignTotals> totals = writeSummary(paths, spec);
    ASSERT_TRUE(totals.ok());
    EXPECT_EQ(totals.value().jobs, 3u);
    EXPECT_EQ(totals.value().done, 2u);
    EXPECT_EQ(totals.value().quarantined, 1u);
    EXPECT_EQ(totals.value().incomplete, 0u);
    EXPECT_GE(totals.value().attempts, 2u);

    const std::string report = readAll(paths.reportFile());
    EXPECT_NE(report.find("\"quarantined\""), std::string::npos);
    EXPECT_NE(report.find("no.such_trace-0B"), std::string::npos);
}

TEST_F(CampaignTest, ReclaimResumesDeadOwnersCheckpointDeterministically)
{
    EnvGuard ttl("IPCP_LEASE_TTL", nullptr);
    // Force frequent periodic checkpoints so the planted "crashed
    // owner" run leaves a mid-run checkpoint behind. The wall-clock
    // rate limit campaigns default to would suppress them all for a
    // run this short, so pin it off.
    EnvGuard every("IPCP_CKPT_EVERY", "2000");
    EnvGuard min_ms("IPCP_CKPT_MIN_MS", "0");
    TempDir dir;

    CampaignSpec spec;
    spec.simInstrs = 20'000;
    spec.warmupInstrs = 4'000;
    spec.jobs.push_back(CampaignJob{"603.bwaves_s-891B", "ipcp"});

    // Campaign A: a dead owner left an expired lease, a started
    // attempt, and a periodic checkpoint for the only job.
    const CampaignPaths pathsA(dir.file("campA"));
    ASSERT_TRUE(initCampaignDirs(pathsA).ok());
    ASSERT_TRUE(writeManifest(pathsA, spec).ok());
    const ExperimentConfig cfgA = campaignConfig(pathsA, spec);
    const std::string key = keyOf(spec.jobs[0], cfgA);
    const std::string hash = keyHash(key);
    {
        ExperimentConfig save = cfgA;
        save.ckptPath = checkpointPathFor(cfgA, key);
        runSingleCore(findTrace(spec.jobs[0].trace),
                      [](System &s) { applyCombo(s, "ipcp"); }, save);
        ASSERT_TRUE(
            std::filesystem::exists(checkpointPathFor(cfgA, key)));
    }
    WorkQueue dead(queueConfig(pathsA.queueDir()), "deadworker");
    Result<Claim> stale = dead.tryClaim(hash);
    ASSERT_TRUE(stale.ok() && stale.value().claimed);
    dead.recordAttempt(hash, false, "");
    backdate(dead.leasePath(hash), 120.0);

    EXPECT_EQ(runWorker(pathsA.root), 0);
    EXPECT_EQ(dead.state(hash), JobState::Done);
    const std::vector<std::string> lines = dead.history(hash);
    EXPECT_TRUE(historyContains(lines, "orphaned prior=deadworker"));
    EXPECT_TRUE(
        historyContains(lines, "kind=reclaim prior=deadworker"));
    EXPECT_TRUE(historyContains(lines, "resumed owner="));
    // The resumed job's success removed the stale checkpoint.
    EXPECT_FALSE(
        std::filesystem::exists(checkpointPathFor(cfgA, key)));
    ASSERT_TRUE(writeReport(pathsA, spec).ok());
    Result<CampaignTotals> totalsA = writeSummary(pathsA, spec);
    ASSERT_TRUE(totalsA.ok());
    EXPECT_GE(totalsA.value().reclaims, 1u);
    EXPECT_GE(totalsA.value().resumed, 1u);

    // Campaign B: the same manifest run cleanly. The deterministic
    // report must not betray how A's result was produced.
    const CampaignPaths pathsB(dir.file("campB"));
    ASSERT_TRUE(initCampaignDirs(pathsB).ok());
    ASSERT_TRUE(writeManifest(pathsB, spec).ok());
    EXPECT_EQ(runWorker(pathsB.root), 0);
    ASSERT_TRUE(writeReport(pathsB, spec).ok());

    EXPECT_EQ(readAll(pathsA.reportFile()),
              readAll(pathsB.reportFile()));
}

// ---- per-job file traffic: what a clean job leaves behind ----

TEST_F(CampaignTest, CleanCampaignLeavesOnlyDoneFilesAndOnePulse)
{
    EnvGuard ttl("IPCP_LEASE_TTL", nullptr);
    EnvGuard warm_dir("IPCP_WARM_DIR", nullptr);
    EnvGuard warm("IPCP_WARM", nullptr);
    TempDir dir;
    const CampaignPaths paths(dir.file("camp"));
    ASSERT_TRUE(initCampaignDirs(paths).ok());
    CampaignSpec spec = tinySpec(false);
    spec.jobs.push_back(CampaignJob{"619.lbm_s-2676B", "none"});
    const std::size_t n = spec.jobs.size();
    ASSERT_TRUE(writeManifest(paths, spec).ok());
    ASSERT_EQ(runWorker(paths.root), 0);

    // No lease, history, reclaim corpse or publish temp survives a
    // clean job: only its done file, plus the worker's one beacon.
    std::size_t done = 0;
    std::size_t pulses = 0;
    for (const std::string &name : listDir(paths.queueDir())) {
        if (name.rfind("done-", 0) == 0)
            ++done;
        else if (name.rfind("pulse-", 0) == 0)
            ++pulses;
        else
            ADD_FAILURE() << "unexpected queue file " << name;
    }
    EXPECT_EQ(done, n);
    EXPECT_LE(pulses, 1u);

    // One warm state per (trace, combo) prefix and one store lock, no
    // per-key lock sidecars.
    std::size_t states = 0;
    std::size_t locks = 0;
    for (const std::string &name : listDir(paths.warmDir())) {
        if (name.rfind("warm-", 0) == 0 &&
            name.size() > 5 && name.substr(name.size() - 5) == ".ckpt")
            ++states;
        else if (name == WarmStore::kLockFile)
            ++locks;
        else
            ADD_FAILURE() << "unexpected warm file " << name;
    }
    EXPECT_EQ(states, n);
    EXPECT_EQ(locks, 1u);

    // The done files alone carry the totals: one attempt and one
    // warm hit or miss per job.
    Result<CampaignTotals> totals = writeSummary(paths, spec);
    ASSERT_TRUE(totals.ok());
    EXPECT_EQ(totals.value().done, n);
    EXPECT_EQ(totals.value().attempts, n);
    EXPECT_EQ(totals.value().warmHits + totals.value().warmMisses, n);
    EXPECT_EQ(totals.value().warmMisses, n);
    EXPECT_EQ(totals.value().reclaims, 0u);
}

TEST_F(CampaignTest, FailedAttemptLogsAttemptAndFailure)
{
    EnvGuard ttl("IPCP_LEASE_TTL", nullptr);
    TempDir dir;
    const CampaignPaths paths(dir.file("camp"));
    ASSERT_TRUE(initCampaignDirs(paths).ok());
    CampaignSpec spec = tinySpec(false);
    // Materializes, then fails every attempt when the combo attaches.
    spec.jobs[1].combo = "bogus-combo";
    ASSERT_TRUE(writeManifest(paths, spec).ok());
    ASSERT_EQ(runWorker(paths.root), 0);

    const ExperimentConfig cfg = campaignConfig(paths, spec);
    WorkQueue queue(queueConfig(paths.queueDir()), "test");
    const std::string clean = keyHash(keyOf(spec.jobs[0], cfg));
    const std::string bogus = keyHash(keyOf(spec.jobs[1], cfg));
    EXPECT_EQ(queue.state(clean), JobState::Done);
    EXPECT_FALSE(std::filesystem::exists(queue.attemptsPath(clean)));
    EXPECT_TRUE(queue.history(clean).empty());

    // Each failed attempt is charged by its own worker with an
    // attempt line and its error, until the budget parks the job.
    ASSERT_EQ(queue.state(bogus), JobState::Quarantined);
    const std::vector<std::string> lines = queue.history(bogus);
    EXPECT_EQ(countLines(lines, "attempt owner=w"), 3u);
    EXPECT_EQ(countLines(lines, "fail owner=w"), 3u);
    EXPECT_TRUE(historyContains(lines, "kind=claim"));
    EXPECT_TRUE(historyContains(lines, "unknown combo"));
    EXPECT_TRUE(historyContains(lines, "attempt budget exhausted"));

    Result<CampaignTotals> totals = writeSummary(paths, spec);
    ASSERT_TRUE(totals.ok());
    EXPECT_EQ(totals.value().attempts, 4u);
    EXPECT_EQ(totals.value().warmHits + totals.value().warmMisses, 1u);
}

TEST_F(CampaignTest, ReclaimedOrphansCountTowardTheAttemptBudget)
{
    TempDir dir;
    QueueConfig cfg = queueConfig(dir.path);
    cfg.quarantineAfter = 2;
    WorkQueue alpha(cfg, "alpha");
    WorkQueue beta(cfg, "beta");
    WorkQueue gamma(cfg, "gamma");
    const std::string hash = "00000000deadbeef";

    // alpha dies holding the lease; beta's reclaim charges alpha's
    // attempt, and beta starts the second one.
    Result<Claim> first = alpha.tryClaim(hash);
    ASSERT_TRUE(first.ok() && first.value().claimed);
    EXPECT_FALSE(std::filesystem::exists(alpha.attemptsPath(hash)));
    backdate(alpha.leasePath(hash), 120.0);
    Result<Claim> second = beta.tryClaim(hash);
    ASSERT_TRUE(second.ok() && second.value().claimed);
    EXPECT_EQ(beta.attemptCount(hash), 1u);
    EXPECT_TRUE(historyContains(beta.history(hash),
                                "attempt owner=beta kind=reclaim "
                                "prior=alpha"));

    // beta dies too. Charging its attempt spends the budget, so
    // gamma parks the job instead of starting a third attempt.
    backdate(beta.leasePath(hash), 120.0);
    Result<Claim> third = gamma.tryClaim(hash);
    ASSERT_TRUE(third.ok());
    EXPECT_FALSE(third.value().claimed);
    EXPECT_EQ(gamma.state(hash), JobState::Quarantined);
    EXPECT_FALSE(std::filesystem::exists(gamma.leasePath(hash)));
    const std::vector<std::string> lines = gamma.history(hash);
    EXPECT_EQ(countLines(lines, "attempt "), 2u);
    EXPECT_EQ(countLines(lines, "orphaned "), 2u);
    EXPECT_TRUE(historyContains(lines, "prior=beta"));
    EXPECT_TRUE(historyContains(lines, "attempt budget exhausted"));
}

TEST_F(CampaignTest, OwnerThatLostItsLeaseDoesNotChargeTheAttempt)
{
    TempDir dir;
    QueueConfig cfg = queueConfig(dir.path);
    cfg.quarantineAfter = 2;
    WorkQueue alpha(cfg, "alpha");
    WorkQueue beta(cfg, "beta");
    const std::string hash = "00000000deadbeef";

    // alpha stalls past the TTL; beta reclaims and charges alpha's
    // attempt.
    Result<Claim> stalled = alpha.tryClaim(hash);
    ASSERT_TRUE(stalled.ok() && stalled.value().claimed);
    backdate(alpha.leasePath(hash), 120.0);
    Result<Claim> takeover = beta.tryClaim(hash);
    ASSERT_TRUE(takeover.ok() && takeover.value().claimed);
    EXPECT_EQ(beta.attemptCount(hash), 1u);

    // alpha resumes and its attempt fails: the attempt was charged
    // already, so alpha charges nothing and beta keeps the job.
    EXPECT_FALSE(alpha.chargeAttempt(hash, stalled.value().nonce));
    EXPECT_EQ(alpha.attemptCount(hash), 1u);
    EXPECT_FALSE(alpha.isTerminal(hash));
    EXPECT_EQ(alpha.state(hash), JobState::Leased);

    // beta's attempt is the second; ending it spends the budget.
    EXPECT_TRUE(beta.chargeAttempt(hash, takeover.value().nonce));
    EXPECT_EQ(beta.attemptCount(hash), 2u);
    EXPECT_TRUE(historyContains(beta.history(hash),
                                "attempt owner=beta kind=claim"));
    EXPECT_TRUE(beta.quarantineIfSpent(hash));
}

TEST_F(CampaignTest, StallKilledJobKeepsItsAttemptInQuarantine)
{
    TempDir dir;
    WorkQueue worker(queueConfig(dir.path), "w4242");
    WorkQueue supervisor(queueConfig(dir.path), "supervisor");
    const std::string hash = "00000000deadbeef";

    Result<Claim> claim = worker.tryClaim(hash);
    ASSERT_TRUE(claim.ok() && claim.value().claimed);
    worker.writePulse(7, hash);

    quarantineStalled(supervisor, hash, "w4242");
    EXPECT_EQ(supervisor.state(hash), JobState::Quarantined);
    EXPECT_FALSE(
        std::filesystem::exists(supervisor.pulsePath("w4242")));
    const std::vector<std::string> lines = supervisor.history(hash);
    EXPECT_EQ(countLines(lines, "attempt "), 1u);
    EXPECT_TRUE(historyContains(
        lines, "attempt owner=supervisor kind=reclaim prior=w4242"));
    EXPECT_TRUE(historyContains(lines, "stalled: progress epoch"));
    EXPECT_TRUE(historyContains(
        lines, "stalled worker killed by supervisor watchdog"));
}

// ---- the publisher pipeline: done files land behind the next job ----

/**
 * Holds a publisher's FIFO behind one task until release(). The
 * destructor releases too, so a test that fails while the gate is
 * shut still lets its Publisher drain: declare it after that
 * Publisher.
 */
struct Gate
{
    std::latch latch{1};
    bool open = false;

    void
    release()
    {
        if (!open) {
            open = true;
            latch.count_down();
        }
    }

    ~Gate() { release(); }
};

/** The end of a successful attempt on `claim`, ready to publish. */
AttemptEnd
okEnd(const std::string &hash, const std::string &key,
      const Claim &claim, double ipc)
{
    AttemptEnd end;
    end.hash = hash;
    end.key = key;
    end.nonce = claim.nonce;
    end.ok = true;
    end.record = WorkQueue::doneRecord(key, fakeOutcome(ipc));
    return end;
}

TEST_F(CampaignTest, LeaseOfAQueuedDoneTaskStaysRenewed)
{
    TempDir dir;
    QueueConfig cfg = queueConfig(dir.path);
    cfg.leaseTtl = 0.6;
    WorkQueue owner(cfg, "owner");
    WorkQueue rival(cfg, "rival");
    const std::string hash = "00000000deadbeef";
    const std::string key = "some|key";

    Result<Claim> claim = owner.tryClaim(hash);
    ASSERT_TRUE(claim.ok() && claim.value().claimed);
    Heartbeat heartbeat(owner);
    heartbeat.work(hash, claim.value().nonce);  // simulated; done task queued
    Publisher publisher;
    Gate gate;
    publisher.post([&gate] { gate.latch.wait(); });
    const AttemptEnd end = okEnd(hash, key, claim.value(), 1.5);
    publisher.post([&owner, &heartbeat, end] {
        finishAttempt(owner, heartbeat, end);
    });

    // Three TTLs pass while the done task waits: the heartbeat keeps
    // the lease fresh, so no rival can reclaim it.
    for (int i = 0; i < 9; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        Result<Claim> stolen = rival.tryClaim(hash);
        ASSERT_TRUE(stolen.ok());
        ASSERT_FALSE(stolen.value().claimed) << "reclaimed at beat " << i;
        ASSERT_EQ(owner.state(hash), JobState::Leased);
    }

    gate.release();
    publisher.drain();
    EXPECT_EQ(owner.state(hash), JobState::Done);
    Result<Outcome> out = owner.readDone(hash, key);
    ASSERT_TRUE(out.ok()) << out.error().message;
    EXPECT_DOUBLE_EQ(out.value().ipc, 1.5);
    EXPECT_FALSE(std::filesystem::exists(owner.leasePath(hash)));
    EXPECT_FALSE(std::filesystem::exists(owner.attemptsPath(hash)));
}

TEST_F(CampaignTest, LeaseReclaimedWhileItsTaskWaitsIsNotPublished)
{
    for (const bool ok : {true, false}) {
        SCOPED_TRACE(ok ? "successful attempt" : "failed attempt");
        TempDir dir;
        QueueConfig cfg = queueConfig(dir.path);
        cfg.quarantineAfter = 2;
        WorkQueue owner(cfg, "owner");
        WorkQueue rival(cfg, "rival");
        const std::string hash = "00000000deadbeef";
        const std::string key = "some|key";

        Result<Claim> claim = owner.tryClaim(hash);
        ASSERT_TRUE(claim.ok() && claim.value().claimed);
        // The default TTL's first beat is 10 s away: nothing renews
        // the lease during the test.
        Heartbeat heartbeat(owner);
        heartbeat.work(hash, claim.value().nonce);
        Publisher publisher;
        Gate gate;
        publisher.post([&gate] { gate.latch.wait(); });
        AttemptEnd end = okEnd(hash, key, claim.value(), 2.0);
        if (!ok) {
            end.ok = false;
            end.record.clear();
            end.error = "simulated failure";
        }
        publisher.post([&owner, &heartbeat, end] {
            finishAttempt(owner, heartbeat, end);
        });

        // The owner stalls past the TTL; the rival reclaims the lease
        // and charges the owner's attempt.
        backdate(owner.leasePath(hash), 120.0);
        Result<Claim> takeover = rival.tryClaim(hash);
        ASSERT_TRUE(takeover.ok() && takeover.value().claimed);
        gate.release();
        publisher.drain();

        // Nothing published, no second charge, no quarantine: the
        // rival still holds the job.
        EXPECT_FALSE(std::filesystem::exists(owner.donePath(hash)));
        EXPECT_EQ(owner.state(hash), JobState::Leased);
        const std::vector<std::string> lines = owner.history(hash);
        EXPECT_EQ(countLines(lines, "attempt "), 1u);
        EXPECT_TRUE(historyContains(lines, "kind=reclaim prior=owner"));
        EXPECT_FALSE(
            std::filesystem::exists(owner.quarantinePath(hash)));
        EXPECT_TRUE(rival.heartbeat(hash, takeover.value().nonce).ok());
    }
}

TEST_F(CampaignTest, BlockedPublishFreezesThePulseOnItsOwnJob)
{
    TempDir dir;
    QueueConfig cfg = queueConfig(dir.path);
    cfg.leaseTtl = 0.3;  // a pulse every 0.1 s
    WorkQueue worker(cfg, "w1");
    WorkQueue supervisor(cfg, "supervisor");
    const std::vector<std::string> hashes = {
        "000000000000000a", "000000000000000b", "000000000000000c"};
    std::vector<Claim> claims;
    for (const std::string &hash : hashes) {
        Result<Claim> claim = worker.tryClaim(hash);
        ASSERT_TRUE(claim.ok() && claim.value().claimed);
        claims.push_back(claim.value());
    }

    // Job a's first file blocks on the publisher. Job b finishes
    // behind it, and job c is the one the worker thread is on when it
    // stops to wait for the publisher (in post() or drain()).
    Heartbeat heartbeat(worker);
    Publisher publisher;
    Gate gate;
    heartbeat.work(hashes[0], claims[0].nonce);
    publisher.post([&gate] { gate.latch.wait(); });
    for (std::size_t i = 0; i < 2; ++i) {
        const AttemptEnd end =
            okEnd(hashes[i], "key|" + hashes[i], claims[i], 1.0);
        publisher.post([&worker, &heartbeat, end] {
            finishAttempt(worker, heartbeat, end);
        });
        heartbeat.work(hashes[i + 1], claims[i + 1].nonce);
    }

    // The watchdog sees the epoch frozen on job a, the job whose
    // publish is stuck, not on the job being simulated and not idle.
    StallTracker stall(0.5);
    std::string tripped;
    const auto start = std::chrono::steady_clock::now();
    while (tripped.empty() &&
           std::chrono::steady_clock::now() - start <
               std::chrono::seconds(10)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        std::uint64_t epoch = 0;
        std::string job;
        if (!supervisor.readPulse("w1", epoch, job))
            continue;
        const double now = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
        if (stall.observe(1, epoch, job, now))
            tripped = job;
    }
    EXPECT_EQ(tripped, hashes[0]);

    // Once a and b land, the pulse names c, still simulating.
    gate.release();
    publisher.drain();
    EXPECT_EQ(worker.state(hashes[0]), JobState::Done);
    EXPECT_EQ(worker.state(hashes[1]), JobState::Done);
    std::string named;
    for (int beat = 0; beat < 50 && named != hashes[2]; ++beat) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        std::uint64_t epoch = 0;
        supervisor.readPulse("w1", epoch, named);
    }
    EXPECT_EQ(named, hashes[2]);
}

TEST_F(CampaignTest, WarmNospaceIsChargedToItsOwnJobOnly)
{
    EnvGuard ttl("IPCP_LEASE_TTL", nullptr);
    EnvGuard warm_dir("IPCP_WARM_DIR", nullptr);
    EnvGuard warm("IPCP_WARM", nullptr);
    TempDir dir;
    const CampaignPaths paths(dir.file("camp"));
    ASSERT_TRUE(initCampaignDirs(paths).ok());
    CampaignSpec spec = tinySpec(false);
    spec.jobs.push_back(CampaignJob{"619.lbm_s-2676B", "none"});
    ASSERT_TRUE(writeManifest(paths, spec).ok());

    // Fail only job 1's warm-state file; it is written on the
    // publisher thread while job 2 may already be simulating.
    const ExperimentConfig cfg = campaignConfig(paths, spec);
    const CampaignJob &victim = spec.jobs[1];
    const std::string warm_key =
        warmupKey({findTrace(victim.trace)}, victim.combo,
                  cfg.warmupInstrs, tableIISystem(cfg.system, 1));
    const std::string warm_file = "warm-" + keyHash(warm_key);
    ASSERT_TRUE(FaultRegistry::instance()
                    .configure("warm.nospace~" + warm_file + "@1+")
                    .ok());
    ASSERT_EQ(runWorker(paths.root), 0);

    WorkQueue queue(queueConfig(paths.queueDir()), "test");
    for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
        const std::string hash = keyHash(keyOf(spec.jobs[i], cfg));
        EXPECT_EQ(queue.state(hash), JobState::Done) << i;
        const std::vector<std::string> lines = queue.history(hash);
        if (i == 1) {
            EXPECT_EQ(lines,
                      (std::vector<std::string>{
                          "degraded store=0 warm=1 ckpt=0 stats=0"}));
        } else {
            EXPECT_TRUE(lines.empty()) << i << ": " << lines.front();
        }
    }
    EXPECT_FALSE(std::filesystem::exists(paths.warmDir() + "/" +
                                         warm_file + ".ckpt"));
}

TEST_F(CampaignTest, ShutdownDrainLandsEveryFinishedJob)
{
    EnvGuard ttl("IPCP_LEASE_TTL", nullptr);
    TempDir dir;
    const CampaignPaths paths(dir.file("camp"));
    ASSERT_TRUE(initCampaignDirs(paths).ok());
    CampaignSpec spec = tinySpec(false);
    for (const char *trace : {"605.mcf_s-472B", "619.lbm_s-2676B"}) {
        spec.jobs.push_back(CampaignJob{trace, "none"});
        spec.jobs.push_back(CampaignJob{trace, "ipcp"});
    }
    ASSERT_TRUE(writeManifest(paths, spec).ok());

    // Ask for a drain as soon as the first job's stats JSON lands,
    // while later jobs are queued or simulating.
    std::atomic<bool> stop_watching{false};
    std::thread watcher([&] {
        while (!stop_watching.load()) {
            for (const std::string &name : listDir(paths.statsDir())) {
                if (name.rfind("stats-", 0) == 0) {
                    requestShutdown();
                    return;
                }
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });
    const int rc = runWorker(paths.root);
    stop_watching = true;
    watcher.join();
    ASSERT_EQ(rc, 0);
    ASSERT_TRUE(shutdownRequested());

    // Every job that finished simulating (its stats JSON exists) has
    // its done file, and the worker left no lease behind.
    const ExperimentConfig cfg = campaignConfig(paths, spec);
    WorkQueue queue(queueConfig(paths.queueDir()), "test");
    std::size_t finished = 0;
    for (const CampaignJob &job : spec.jobs) {
        const std::string hash = keyHash(keyOf(job, cfg));
        if (!std::filesystem::exists(paths.statsDir() + "/stats-" +
                                     hash + ".json"))
            continue;
        ++finished;
        EXPECT_EQ(queue.state(hash), JobState::Done) << job.trace;
    }
    EXPECT_GE(finished, 1u);
    for (const std::string &name : listDir(paths.queueDir()))
        EXPECT_NE(name.rfind("lease-", 0), 0u) << name;
}

// ---- multi-process contention (real forked workers) ----

/**
 * One forked worker: claim jobs through the queue, compute each
 * claimed job (logging the compute through an O_APPEND write), and
 * publish the outcome as its done file. Exits 0 once every job is
 * terminal; nonzero on any protocol violation.
 */
int
contentionChild(const std::string &queue_dir,
                const std::string &log_path,
                const std::vector<std::string> &keys,
                const std::vector<std::string> &hashes)
{
    WorkQueue queue(queueConfig(queue_dir),
                    "c" + std::to_string(::getpid()));
    for (unsigned pass = 0; pass < 200'000; ++pass) {
        std::size_t terminal = 0;
        for (std::size_t i = 0; i < keys.size(); ++i) {
            if (queue.isTerminal(hashes[i])) {
                ++terminal;
                continue;
            }
            Result<Claim> claim = queue.tryClaim(hashes[i]);
            if (!claim.ok())
                return 3;
            if (!claim.value().claimed)
                continue;
            const std::string line = "compute " + keys[i] + "\n";
            const int fd = ::open(log_path.c_str(),
                                  O_CREAT | O_WRONLY | O_APPEND, 0644);
            if (fd < 0)
                return 4;
            (void)!::write(fd, line.data(), line.size());
            ::close(fd);
            if (!queue
                     .publishDone(
                         hashes[i], keys[i], claim.value().nonce,
                         fakeOutcome(static_cast<double>(i + 1)))
                     .ok()) {
                queue.release(hashes[i], claim.value().nonce);
                return 5;
            }
        }
        if (terminal == keys.size())
            return 0;
    }
    return 2;  // livelock
}

TEST_F(CampaignTest, FourProcessesComputeEachKeyExactlyOnce)
{
    TempDir dir;
    const std::string queue_dir = dir.file("queue");
    ASSERT_EQ(::mkdir(queue_dir.c_str(), 0777), 0);
    const std::string log_path = dir.file("computes.log");

    std::vector<std::string> keys;
    std::vector<std::string> hashes;
    for (int i = 0; i < 8; ++i) {
        keys.push_back("trace-" + std::to_string(i) + "|ipcp|contend");
        hashes.push_back(keyHash(keys.back()));
    }

    constexpr int kWorkers = 4;
    std::vector<pid_t> children;
    for (int w = 0; w < kWorkers; ++w) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            // Child: plain worker process, no gtest machinery.
            ::_exit(contentionChild(queue_dir, log_path, keys, hashes));
        }
        children.push_back(pid);
    }
    for (const pid_t pid : children) {
        int wstatus = 0;
        ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
        ASSERT_TRUE(WIFEXITED(wstatus));
        EXPECT_EQ(WEXITSTATUS(wstatus), 0);
    }

    // Exactly one compute line per key, in any order.
    std::vector<unsigned> computes(keys.size(), 0);
    {
        std::ifstream log(log_path);
        std::string line;
        while (std::getline(log, line)) {
            bool matched = false;
            for (std::size_t i = 0; i < keys.size(); ++i) {
                if (line == "compute " + keys[i]) {
                    ++computes[i];
                    matched = true;
                    break;
                }
            }
            EXPECT_TRUE(matched) << "torn log line: " << line;
        }
    }
    for (std::size_t i = 0; i < keys.size(); ++i)
        EXPECT_EQ(computes[i], 1u) << keys[i];

    // Every done file holds its key's deterministic value, intact.
    WorkQueue queue(queueConfig(queue_dir), "parent");
    for (std::size_t i = 0; i < keys.size(); ++i) {
        Result<Outcome> out = queue.readDone(hashes[i], keys[i]);
        ASSERT_TRUE(out.ok()) << keys[i] << ": " << out.error().message;
        EXPECT_DOUBLE_EQ(out.value().ipc, static_cast<double>(i + 1));
    }
    EXPECT_EQ(queue.scan(hashes).done, keys.size());
}

// ---- done files ----

class DoneFileTest : public CampaignTest
{
};

TEST_F(DoneFileTest, RealOutcomeRoundTripsFieldForField)
{
    TempDir dir;
    WorkQueue queue(queueConfig(dir.path), "alpha");
    ExperimentConfig cfg;
    cfg.warmupInstrs = 4'000;
    cfg.simInstrs = 20'000;
    Outcome out = runSingleCore(findTrace("603.bwaves_s-891B"),
                                [](System &s) { applyCombo(s, "ipcp"); },
                                cfg);
    ASSERT_GT(out.l1d.demandAccesses(), 0u);
    ASSERT_GT(out.dram.reads, 0u);
    // Provenance is off in a plain run; set it so it round-trips too.
    out.resumed = true;
    out.ckptCycle = 12'345;
    out.warmStart = true;

    const std::string key = "603.bwaves_s-891B|ipcp|round-trip";
    const std::string hash = keyHash(key);
    Result<Claim> claim = queue.tryClaim(hash);
    ASSERT_TRUE(claim.ok() && claim.value().claimed);
    ASSERT_TRUE(
        queue.publishDone(hash, key, claim.value().nonce, out).ok());
    EXPECT_EQ(queue.state(hash), JobState::Done);

    Result<Outcome> back = queue.readDone(hash, key);
    ASSERT_TRUE(back.ok()) << back.error().message;
    const Outcome &got = back.value();
    EXPECT_EQ(got.ipc, out.ipc);
    EXPECT_EQ(got.instructions, out.instructions);
    EXPECT_EQ(got.cycles, out.cycles);
    for (const auto &[a, b] :
         {std::pair{&got.l1i, &out.l1i}, std::pair{&got.l1d, &out.l1d},
          std::pair{&got.l2, &out.l2}, std::pair{&got.llc, &out.llc}})
        EXPECT_EQ(std::memcmp(a, b, sizeof(CacheStats)), 0);
    EXPECT_EQ(std::memcmp(&got.dram, &out.dram, sizeof(Dram::Stats)), 0);
    EXPECT_EQ(got.dramBytes, out.dramBytes);
    EXPECT_EQ(got.ticksExecuted, out.ticksExecuted);
    EXPECT_EQ(got.skippedCycles, out.skippedCycles);
    EXPECT_EQ(got.resumed, out.resumed);
    EXPECT_EQ(got.ckptCycle, out.ckptCycle);
    EXPECT_EQ(got.warmStart, out.warmStart);

    // The file answers only for the key it was written for.
    EXPECT_FALSE(queue.readDone(hash, "another|key").ok());
}

TEST_F(DoneFileTest, DamagedFileReadsIncompleteAndFailsScoring)
{
    EnvGuard ttl("IPCP_LEASE_TTL", nullptr);
    EnvGuard warm_dir("IPCP_WARM_DIR", nullptr);
    EnvGuard warm("IPCP_WARM", nullptr);
    const std::string trace = "603.bwaves_s-891B";
    for (const bool truncate : {true, false}) {
        SCOPED_TRACE(truncate ? "truncated" : "bit-flipped");
        TempDir dir;
        dse::DseOptions opts;
        opts.root = dir.file("search");
        opts.traces = {trace};
        opts.space.knobs.push_back({"ipEntries", {"32"}});
        opts.rungInstrs = {5'000};
        opts.warmupInstrs = 1'000;
        opts.progress = false;
        Result<dse::DseReport> first = dse::runSearch(opts);
        ASSERT_TRUE(first.ok()) << first.error().message;

        const CampaignPaths paths(opts.root + "/rung-1");
        Result<CampaignSpec> spec = readManifest(paths);
        ASSERT_TRUE(spec.ok());
        const std::string key = keyOf(CampaignJob{trace, "ipcp"},
                                      campaignConfig(paths, spec.value()));
        const std::string done =
            WorkQueue(queueConfig(paths.queueDir()), "test")
                .donePath(keyHash(key));
        const auto size = std::filesystem::file_size(done);
        if (truncate) {
            std::filesystem::resize_file(done, size / 2);
        } else {
            std::fstream f(done, std::ios::in | std::ios::out |
                                     std::ios::binary);
            f.seekg(static_cast<std::streamoff>(size - 1));
            const char last = static_cast<char>(f.get());
            f.seekp(static_cast<std::streamoff>(size - 1));
            f.put(static_cast<char>(last ^ 0x10));
        }

        // The resumed search finds every job terminal, writes the
        // rung report, and stops at scoring with the job's name.
        Result<dse::DseReport> again = dse::runSearch(opts);
        ASSERT_FALSE(again.ok());
        EXPECT_NE(again.error().message.find(trace + " under ipcp "),
                  std::string::npos)
            << again.error().message;

        const std::string report = readAll(paths.reportFile());
        const std::size_t at = report.find(keyHash(key));
        ASSERT_NE(at, std::string::npos);
        const std::size_t incomplete = report.find("\"incomplete\"");
        EXPECT_NE(incomplete, std::string::npos);
        EXPECT_LT(at, incomplete);
        EXPECT_EQ(report.find("\"incomplete\"", incomplete + 1),
                  std::string::npos)
            << "only the damaged job is incomplete";
    }
}

} // namespace
} // namespace bouquet::campaign
