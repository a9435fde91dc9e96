/**
 * @file
 * Warm-state memoization tests (DESIGN.md §5h):
 * warmup-key hygiene (every warmup-affecting knob changes the key),
 * WarmStore publish/fetch across instances, self-healing of stale,
 * truncated, zero-byte and corrupt warm files, the core §5h contract —
 * a warm-started run is byte-identical to a cold one, across different
 * measurement lengths — and a two-campaign end-to-end run proving
 * the second fleet warm-hits and still emits an identical report.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/aggregate.hh"
#include "campaign/campaign.hh"
#include "campaign/worker.hh"
#include "common/stateio.hh"
#include "common/statsink.hh"
#include "harness/experiment.hh"
#include "harness/factory.hh"
#include "harness/warmstore.hh"
#include "trace/suite.hh"
#include "trace/trace_io.hh"
#include "tests/test_support.hh"

namespace bouquet
{
namespace
{

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

std::string
readAll(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream body;
    body << is.rdbuf();
    return body.str();
}

void
writeAll(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << bytes;
}

// ---- warmup-key hygiene ----

TEST(WarmupKey, EveryWarmupAffectingKnobChangesTheKey)
{
    const TraceSpec base_spec = findTrace("605.mcf_s-472B");
    const SystemConfig base_sys;
    const std::string base =
        warmupKey({base_spec}, "ipcp", 10'000, base_sys);

    // Identical inputs reproduce the identical key.
    EXPECT_EQ(base, warmupKey({base_spec}, "ipcp", 10'000, base_sys));

    std::vector<std::string> variants;

    variants.push_back(warmupKey({findTrace("619.lbm_s-2676B")},
                                 "ipcp", 10'000, base_sys));

    TraceSpec reseeded = base_spec;
    reseeded.seed += 1;
    variants.push_back(warmupKey({reseeded}, "ipcp", 10'000, base_sys));

    TraceSpec intensity = base_spec;
    intensity.intensity *= 0.5;
    variants.push_back(
        warmupKey({intensity}, "ipcp", 10'000, base_sys));

    // The attach combo: prefetchers train during warmup.
    variants.push_back(warmupKey({base_spec}, "none", 10'000, base_sys));

    variants.push_back(warmupKey({base_spec}, "ipcp", 20'000, base_sys));

    // Adding a core's workload (mix shape).
    variants.push_back(warmupKey(
        {base_spec, findTrace("619.lbm_s-2676B")}, "ipcp", 10'000,
        base_sys));

    SystemConfig frame = base_sys;
    frame.frameBits += 1;
    variants.push_back(warmupKey({base_spec}, "ipcp", 10'000, frame));

    SystemConfig seeded = base_sys;
    seeded.seed += 1;
    variants.push_back(warmupKey({base_spec}, "ipcp", 10'000, seeded));

    SystemConfig geometry = base_sys;
    geometry.l2.sets *= 2;
    variants.push_back(
        warmupKey({base_spec}, "ipcp", 10'000, geometry));

    SystemConfig channels = base_sys;
    channels.dram.channels = 2;
    variants.push_back(
        warmupKey({base_spec}, "ipcp", 10'000, channels));

    for (std::size_t i = 0; i < variants.size(); ++i) {
        EXPECT_NE(base, variants[i]) << "variant " << i;
        for (std::size_t j = i + 1; j < variants.size(); ++j)
            EXPECT_NE(variants[i], variants[j])
                << "variants " << i << " and " << j;
    }
}

// ---- store round trip and self-healing ----

TEST(WarmStore, PublishThenFetchAcrossInstances)
{
    TempDir dir;
    const std::string key = "k|test";
    std::vector<std::uint8_t> payload(4096);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i * 7);

    WarmStore writer(dir.file("warm"));
    ASSERT_TRUE(writer.publish(key, 0xabcd, payload).ok());
    EXPECT_EQ(writer.publishes(), 1u);
    ASSERT_TRUE(std::filesystem::exists(writer.pathFor(key)));

    // In-process (memory) hit on the publishing store.
    WarmStore::Payload mem = writer.fetch(key, 0xabcd);
    ASSERT_NE(mem, nullptr);
    EXPECT_TRUE(*mem == payload);
    EXPECT_EQ(writer.hits(), 1u);

    // A fresh store (another process, conceptually) reads the file.
    WarmStore reader(dir.file("warm"));
    WarmStore::Payload disk = reader.fetch(key, 0xabcd);
    ASSERT_NE(disk, nullptr);
    EXPECT_TRUE(*disk == payload);
    EXPECT_EQ(reader.hits(), 1u);
    EXPECT_EQ(reader.misses(), 0u);

    // Absent key: a plain miss, no heal.
    EXPECT_EQ(reader.fetch("k|other", 0xabcd), nullptr);
    EXPECT_EQ(reader.misses(), 1u);
    EXPECT_EQ(reader.heals(), 0u);
}

TEST(WarmStore, PublishIntoDirectoryNotYetMadeLandsOnDisk)
{
    // IPCP_WARM_DIR may name a directory nobody has made: opening the
    // store makes it, and its lock file, before the first publish.
    TempDir dir;
    const std::string warm = dir.file("warm");
    ASSERT_FALSE(std::filesystem::exists(warm));
    const std::vector<std::uint8_t> payload(256, 0x42);
    {
        WarmStore store(warm);
        ASSERT_TRUE(store.publish("k|new-dir", 9, payload).ok());
        EXPECT_TRUE(std::filesystem::exists(store.pathFor("k|new-dir")));
    }
    EXPECT_TRUE(std::filesystem::exists(warm + "/" + WarmStore::kLockFile));
    WarmStore reader(warm);
    WarmStore::Payload got = reader.fetch("k|new-dir", 9);
    ASSERT_NE(got, nullptr);
    EXPECT_TRUE(*got == payload);
}

TEST(WarmStore, PublishUnderMissingParentsLandsOnDisk)
{
    // Opening the store makes every missing ancestor too (mkdir -p).
    TempDir dir;
    const std::string warm = dir.file("a/b/warm");
    ASSERT_FALSE(std::filesystem::exists(dir.file("a")));
    const std::vector<std::uint8_t> payload(256, 0x17);
    {
        WarmStore store(warm);
        ASSERT_TRUE(store.publish("k|deep", 5, payload).ok());
    }
    WarmStore reader(warm);
    WarmStore::Payload got = reader.fetch("k|deep", 5);
    ASSERT_NE(got, nullptr);
    EXPECT_TRUE(*got == payload);
}

TEST(WarmStore, ConcurrentPublishesLeaveOneCompleteFilePerKey)
{
    TempDir dir;
    WarmStore store(dir.file("warm"));
    const std::vector<std::uint8_t> payload(8192, 0x3c);
    // Two threads per key: same-key writers race, and every key's
    // fsyncs run alongside the others'.
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 8; ++t)
        threads.emplace_back([&store, &payload, t] {
            EXPECT_TRUE(
                store.publish("k|" + std::to_string(t % 4), 5, payload)
                    .ok());
        });
    for (std::thread &t : threads)
        t.join();

    std::size_t warm_files = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir.file("warm"))) {
        const std::string name = entry.path().filename().string();
        if (name == WarmStore::kLockFile)
            continue;
        EXPECT_EQ(name.rfind("warm-", 0), 0u) << name;
        ++warm_files;
    }
    EXPECT_EQ(warm_files, 4u);
    WarmStore reader(dir.file("warm"));
    for (unsigned k = 0; k < 4; ++k) {
        WarmStore::Payload got =
            reader.fetch("k|" + std::to_string(k), 5);
        ASSERT_NE(got, nullptr) << k;
        EXPECT_TRUE(*got == payload) << k;
    }
    EXPECT_EQ(reader.heals(), 0u);
}

TEST(WarmStore, PublishReplacesZeroByteResidue)
{
    TempDir dir;
    const std::string key = "k|residue";
    const std::vector<std::uint8_t> payload(512, 0x11);
    WarmStore store(dir.file("warm"));
    std::filesystem::create_directories(dir.file("warm"));
    writeAll(store.pathFor(key), "");
    ASSERT_TRUE(store.publish(key, 3, payload).ok());
    WarmStore reader(dir.file("warm"));
    WarmStore::Payload got = reader.fetch(key, 3);
    ASSERT_NE(got, nullptr);
    EXPECT_TRUE(*got == payload);
}

TEST(WarmStore, OpeningRemovesPerKeyLockSidecars)
{
    TempDir dir;
    const std::string warm = dir.file("warm");
    std::filesystem::create_directories(warm);
    writeAll(warm + "/warm-00000000deadbeef.ckpt.lock", "");
    writeAll(warm + "/other.lock", "");
    WarmStore store(warm);
    EXPECT_FALSE(std::filesystem::exists(
        warm + "/warm-00000000deadbeef.ckpt.lock"));
    EXPECT_TRUE(std::filesystem::exists(warm + "/other.lock"));
}

TEST(WarmStore, UnusableWarmFilesHealToMiss)
{
    TempDir dir;
    const std::string key = "k|heal";
    const std::vector<std::uint8_t> payload(1024, 0x5a);

    WarmStore seed(dir.file("warm"));
    ASSERT_TRUE(seed.publish(key, 7, payload).ok());
    const std::string path = seed.pathFor(key);
    const std::string good = readAll(path);
    ASSERT_FALSE(good.empty());

    const auto expect_heal = [&](const std::string &what) {
        WarmStore store(dir.file("warm"));
        EXPECT_EQ(store.fetch(key, 7), nullptr) << what;
        EXPECT_EQ(store.misses(), 1u) << what;
        EXPECT_EQ(store.heals(), 1u) << what;
        EXPECT_FALSE(std::filesystem::exists(path))
            << what << ": unusable file not unlinked";
        // Healed means the next publish repopulates cleanly.
        WarmStore republish(dir.file("warm"));
        ASSERT_TRUE(republish.publish(key, 7, payload).ok()) << what;
        WarmStore verify(dir.file("warm"));
        ASSERT_NE(verify.fetch(key, 7), nullptr) << what;
    };

    // Truncated (a torn copy the atomic rename normally prevents).
    writeAll(path, good.substr(0, good.size() / 2));
    expect_heal("truncated");

    // Zero-byte crash residue.
    writeAll(path, "");
    expect_heal("zero-byte");

    // Garbage bytes.
    writeAll(path, "this is not a checkpoint container at all");
    expect_heal("garbage");

    // Stale: written for a different system configuration. (Remove
    // the healthy file first — publish skips when one exists.)
    {
        std::filesystem::remove(path);
        WarmStore foreign(dir.file("warm"));
        ASSERT_TRUE(foreign.publish(key, 999, payload).ok());
        WarmStore store(dir.file("warm"));
        EXPECT_EQ(store.fetch(key, 7), nullptr);
        EXPECT_EQ(store.heals(), 1u);
        EXPECT_FALSE(std::filesystem::exists(path));
    }
}

TEST(WarmStore, PreviousFormatVersionHealsToMiss)
{
    TempDir dir;
    const std::string key = "k|v4";
    WarmStore seed(dir.file("warm"));
    ASSERT_TRUE(
        seed.publish(key, 7, std::vector<std::uint8_t>(512, 0x11)).ok());
    const std::string path = seed.pathFor(key);

    // Stamp the container with format version 4 (header bytes 8-11),
    // the last one before sequences were run-length encoded.
    std::string image = readAll(path);
    ASSERT_GT(image.size(), 12u);
    image.replace(8, 4, std::string("\x04\0\0\0", 4));
    writeAll(path, image);
    Result<std::vector<std::uint8_t>> direct = readCheckpointFile(path, 7);
    ASSERT_FALSE(direct.ok());
    EXPECT_EQ(direct.error().code, Errc::bad_version);

    WarmStore store(dir.file("warm"));
    EXPECT_EQ(store.fetch(key, 7), nullptr);
    EXPECT_EQ(store.misses(), 1u);
    EXPECT_EQ(store.heals(), 1u);
    EXPECT_FALSE(std::filesystem::exists(path));
}

// ---- the §5h contract: warm-started == cold, byte for byte ----

Outcome
runOnce(const TempDir &dir, const std::string &warm_dir,
        std::uint64_t sim_instrs, const std::string &stats_name)
{
    ExperimentConfig cfg;
    cfg.warmupInstrs = 4'000;
    cfg.simInstrs = sim_instrs;
    cfg.warmDir = warm_dir;
    cfg.warmLabel = warm_dir.empty() ? "" : "ipcp";
    cfg.statsJsonPath = dir.file(stats_name);
    return runSingleCore(findTrace("605.mcf_s-472B"),
                         [](System &s) { applyCombo(s, "ipcp"); },
                         cfg);
}

void
expectSameSimulatedOutcome(const Outcome &a, const Outcome &b,
                           const char *what)
{
    EXPECT_EQ(a.ipc, b.ipc) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.l1d.demandMisses(), b.l1d.demandMisses()) << what;
    EXPECT_EQ(a.l2.demandMisses(), b.l2.demandMisses()) << what;
    EXPECT_EQ(a.llc.demandMisses(), b.llc.demandMisses()) << what;
    EXPECT_EQ(a.dramBytes, b.dramBytes) << what;
}

TEST(WarmStore, WarmStartIsByteIdenticalToColdAcrossSimLengths)
{
    TempDir dir;
    const std::string warm = dir.file("warm");

    const Outcome cold = runOnce(dir, "", 20'000, "cold.json");
    EXPECT_FALSE(cold.warmStart);

    // First warm-enabled run misses and publishes.
    const Outcome publish = runOnce(dir, warm, 20'000, "publish.json");
    EXPECT_FALSE(publish.warmStart);
    expectSameSimulatedOutcome(cold, publish, "publish-vs-cold");

    // Second run fast-forwards — and every simulated byte matches.
    const Outcome hit = runOnce(dir, warm, 20'000, "hit.json");
    EXPECT_TRUE(hit.warmStart);
    expectSameSimulatedOutcome(cold, hit, "hit-vs-cold");
    EXPECT_EQ(readAll(dir.file("cold.json")),
              readAll(dir.file("hit.json")))
        << "stats JSON differs between warm and cold";

    // The warm state is measurement-length agnostic: the same prefix
    // serves a longer measured region, still byte-identically.
    const Outcome cold_long =
        runOnce(dir, "", 40'000, "cold40.json");
    const Outcome hit_long = runOnce(dir, warm, 40'000, "hit40.json");
    EXPECT_TRUE(hit_long.warmStart);
    expectSameSimulatedOutcome(cold_long, hit_long, "40k-vs-cold");
    EXPECT_EQ(readAll(dir.file("cold40.json")),
              readAll(dir.file("hit40.json")));
}

TEST(WarmStore, UnloadableWarmStateIsReplacedByTheNextPublish)
{
    // A container whose payload no longer loads (its layout changed
    // under an unchanged format version) passes fetch(). The run then
    // simulates its warmup, and its publish must replace the file
    // rather than skip it as already written.
    TempDir dir;
    const std::string seed = dir.file("seed");
    const Outcome cold = runOnce(dir, seed, 20'000, "cold.json");
    EXPECT_FALSE(cold.warmStart);

    std::string name;
    for (const auto &entry : std::filesystem::directory_iterator(seed))
        if (entry.path().filename().string().rfind("warm-", 0) == 0)
            name = entry.path().filename().string();
    ASSERT_FALSE(name.empty());
    // The config hash is header bytes 16-23, little-endian.
    const std::string image = readAll(seed + "/" + name);
    ASSERT_GT(image.size(), 24u);
    std::uint64_t hash = 0;
    for (unsigned i = 0; i < 8; ++i)
        hash |= std::uint64_t(std::uint8_t(image[16 + i])) << (8 * i);
    Result<std::vector<std::uint8_t>> good =
        readCheckpointFile(seed + "/" + name, hash);
    ASSERT_TRUE(good.ok());

    // A second directory, so its store reads the file from disk.
    const std::string warm = dir.file("warm");
    std::filesystem::create_directories(warm);
    const std::string path = warm + "/" + name;
    std::vector<std::uint8_t> stale = good.value();
    stale.push_back(0);  // one byte the reader does not expect
    ASSERT_TRUE(writeCheckpointFile(path, hash, stale).ok());

    const Outcome healed = runOnce(dir, warm, 20'000, "healed.json");
    EXPECT_FALSE(healed.warmStart);
    expectSameSimulatedOutcome(cold, healed, "healed-vs-cold");
    Result<std::vector<std::uint8_t>> now = readCheckpointFile(path, hash);
    ASSERT_TRUE(now.ok());
    EXPECT_TRUE(now.value() == good.value())
        << "the unloadable warm file was not replaced";
}

// ---- harness-level cache counters ----

TEST(WarmStore, HarnessCacheStatsExposeWarmAndPoolCounters)
{
    const auto snap = harnessCacheStats().snapshot();
    for (const char *path :
         {"campaign.warm.hit", "campaign.warm.miss",
          "campaign.warm.publish", "campaign.warm.heal"})
        EXPECT_TRUE(snap.count(path) == 1) << path;
}

// ---- campaign end to end: two fleets share one warm dir ----

TEST(WarmCampaign, SecondCampaignWarmHitsWithIdenticalReport)
{
    using namespace campaign;
    TempDir dir;
    const std::string shared_warm = dir.file("warmshared");
    EnvGuard warm_dir("IPCP_WARM_DIR", shared_warm.c_str());
    EnvGuard warm_on("IPCP_WARM", nullptr);
    EnvGuard ttl("IPCP_LEASE_TTL", nullptr);

    const std::string trace_file = dir.file("t.trace");
    {
        GeneratorPtr gen = makeWorkload(findTrace("605.mcf_s-472B"));
        ASSERT_TRUE(writeTrace(trace_file, *gen, 3'000).ok());
    }

    CampaignSpec spec;
    spec.simInstrs = 20'000;
    spec.warmupInstrs = 4'000;
    spec.jobs.push_back(CampaignJob{"605.mcf_s-472B", "ipcp"});
    spec.jobs.push_back(CampaignJob{"file:" + trace_file, "none"});

    const auto runCampaign = [&](const std::string &root) {
        const CampaignPaths paths(root);
        EXPECT_TRUE(initCampaignDirs(paths).ok());
        EXPECT_TRUE(writeManifest(paths, spec).ok());
        EXPECT_EQ(runWorker(paths.root), 0);
        EXPECT_TRUE(writeReport(paths, spec).ok());
        Result<CampaignTotals> totals = writeSummary(paths, spec);
        EXPECT_TRUE(totals.ok());
        return totals.take();
    };

    const CampaignTotals a = runCampaign(dir.file("campA"));
    EXPECT_EQ(a.done, 2u);
    EXPECT_EQ(a.warmHits, 0u);
    EXPECT_EQ(a.warmMisses, 2u);

    const CampaignTotals b = runCampaign(dir.file("campB"));
    EXPECT_EQ(b.done, 2u);
    EXPECT_EQ(b.warmHits, 2u) << "second fleet did not warm-start";
    EXPECT_EQ(b.warmMisses, 0u);

    // The deterministic report must not betray who warm-started.
    EXPECT_EQ(readAll(CampaignPaths(dir.file("campA")).reportFile()),
              readAll(CampaignPaths(dir.file("campB")).reportFile()));
}

} // namespace
} // namespace bouquet
