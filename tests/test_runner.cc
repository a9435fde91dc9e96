/**
 * @file
 * Tests for the parallel experiment runner: serial/parallel outcome
 * determinism, in-batch deduplication and cache hooks, and the
 * versioned on-disk outcome store's corruption handling and
 * concurrent access (meaningful under -fsanitize=thread).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "common/stateio.hh"
#include "harness/runner.hh"
#include "tests/test_support.hh"

namespace bouquet
{
namespace
{

using bench::OutcomeStore;

ExperimentConfig
tinyConfig()
{
    ExperimentConfig cfg;
    cfg.warmupInstrs = 4'000;
    cfg.simInstrs = 20'000;
    return cfg;
}

AttachFn
comboAttach(const std::string &name)
{
    return [name](System &s) { applyCombo(s, name); };
}

std::vector<Job>
sampleBatch(const ExperimentConfig &cfg)
{
    std::vector<Job> jobs;
    for (const char *trace :
         {"603.bwaves_s-891B", "619.lbm_s-2676B", "605.mcf_s-994B"}) {
        for (const char *combo : {"none", "ipcp"}) {
            jobs.push_back(Job{findTrace(trace), combo,
                               comboAttach(combo), cfg});
        }
    }
    return jobs;
}

/** Outcome equality across every field a table could be built from. */
void
expectSameOutcome(const Outcome &a, const Outcome &b)
{
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l1d.demandMisses(), b.l1d.demandMisses());
    EXPECT_EQ(a.l2.demandMisses(), b.l2.demandMisses());
    EXPECT_EQ(a.llc.demandMisses(), b.llc.demandMisses());
    EXPECT_EQ(a.l1d.pfFills, b.l1d.pfFills);
    EXPECT_EQ(a.l1d.pfUseful, b.l1d.pfUseful);
    EXPECT_EQ(a.dramBytes, b.dramBytes);
    EXPECT_EQ(a.dram.reads, b.dram.reads);
    EXPECT_EQ(a.dram.writes, b.dram.writes);
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

/** Every Outcome field, as the bytes a campaign done file stores. */
std::vector<std::uint8_t>
outcomeBytes(Outcome o)
{
    StateIO io = StateIO::writer();
    io.io(o);
    return io.takeBuffer();
}

void
expectSameMix(const MixOutcome &a, const MixOutcome &b)
{
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.traces, b.traces);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(outcomeBytes(a.system), outcomeBytes(b.system));
}

TEST(Experiment, OneCoreMixEqualsSingleCore)
{
    const ExperimentConfig cfg = tinyConfig();
    const TraceSpec &spec = findTrace("603.bwaves_s-891B");
    for (const char *combo : {"none", "ipcp"}) {
        SCOPED_TRACE(combo);
        const MixOutcome mix = runMix({spec}, comboAttach(combo), cfg);
        const Outcome single =
            runSingleCore(spec, comboAttach(combo), cfg);
        ASSERT_EQ(mix.ipc.size(), 1u);
        EXPECT_EQ(mix.ipc[0], single.ipc);
        EXPECT_EQ(mix.instructions[0], single.instructions);
        EXPECT_EQ(mix.cycles[0], single.cycles);
        EXPECT_EQ(outcomeBytes(mix.system), outcomeBytes(single));
        EXPECT_GT(single.dram.reads, 0u);
    }
}

TEST(Runner, MixBatchMatchesDirectRunMix)
{
    const ExperimentConfig cfg = tinyConfig();
    const TraceSpec &a = findTrace("603.bwaves_s-891B");
    const TraceSpec &b = findTrace("605.mcf_s-994B");
    std::vector<MixJob> jobs;
    std::vector<MixOutcome> direct;
    for (const std::vector<TraceSpec> &specs :
         {std::vector<TraceSpec>{a}, std::vector<TraceSpec>{a, b, a, b}}) {
        for (const char *combo : {"none", "ipcp"}) {
            jobs.push_back(MixJob{specs, combo, comboAttach(combo), cfg});
            direct.push_back(runMix(specs, comboAttach(combo), cfg));
        }
    }

    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        Runner r(threads);
        const std::vector<MixJobOutcome> outs = r.runMixes(jobs);
        ASSERT_EQ(outs.size(), jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            ASSERT_TRUE(outs[i].ok) << outs[i].error;
            expectSameMix(outs[i].outcome, direct[i]);
        }
        EXPECT_EQ(r.lastBatch().executed, jobs.size());
        EXPECT_EQ(r.lastBatch().failed, 0u);
    }
}

TEST(Runner, MixKeysNameTheSimulatedChannelCount)
{
    // runMix gives a multi-core machine Table II's two DRAM channels;
    // the job key and the stats JSON's job_key must say so.
    test::TempDir dir;
    ExperimentConfig cfg = tinyConfig();
    cfg.statsJsonPath = dir.path + "/mix.json";
    const TraceSpec &a = findTrace("603.bwaves_s-891B");
    const TraceSpec &b = findTrace("605.mcf_s-994B");
    Runner r(1);
    ASSERT_TRUE(r.runMixes({MixJob{{a, b}, "none", comboAttach("none"),
                                   cfg}})[0]
                    .ok);
    const std::string key = r.lastBatch().perJob[0].key;
    EXPECT_NE(key.find(".d2."), std::string::npos) << key;
    EXPECT_EQ(key, jobKey(mixName({a, b}), "none", cfg, 2));

    std::ifstream in(cfg.statsJsonPath);
    std::ostringstream json;
    json << in.rdbuf();
    EXPECT_NE(json.str().find("\"job_key\": \"" + key + "\""),
              std::string::npos)
        << json.str().substr(0, 300);

    // One-core keys are unchanged: one channel.
    EXPECT_NE(jobKey(a.name, "none", cfg).find(".d1."), std::string::npos);
}

TEST(Runner, ParallelMatchesSerialBitForBit)
{
    const ExperimentConfig cfg = tinyConfig();
    const std::vector<Job> jobs = sampleBatch(cfg);

    Runner serial(1);
    Runner parallel(4);
    const std::vector<JobOutcome> a = serial.run(jobs);
    const std::vector<JobOutcome> b = parallel.run(jobs);

    ASSERT_EQ(a.size(), jobs.size());
    ASSERT_EQ(b.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_TRUE(a[i].ok) << a[i].error;
        ASSERT_TRUE(b[i].ok) << b[i].error;
        expectSameOutcome(a[i].outcome, b[i].outcome);
    }
    EXPECT_EQ(serial.lastBatch().executed, jobs.size());
    EXPECT_EQ(parallel.lastBatch().executed, jobs.size());
    EXPECT_GT(parallel.lastBatch().simInstrs, 0u);
}

TEST(Runner, DeduplicatesIdenticalJobsBeforeDispatch)
{
    const ExperimentConfig cfg = tinyConfig();
    const Job job{findTrace("603.bwaves_s-891B"), "none",
                  comboAttach("none"), cfg};
    const Job other{findTrace("619.lbm_s-2676B"), "none",
                    comboAttach("none"), cfg};
    const std::vector<Job> jobs{job, other, job, job};

    Runner r(2);
    const std::vector<JobOutcome> outs = r.run(jobs);
    EXPECT_EQ(r.lastBatch().jobs, 4u);
    EXPECT_EQ(r.lastBatch().executed, 2u);
    EXPECT_EQ(r.lastBatch().deduped, 2u);
    ASSERT_TRUE(outs[0].ok && outs[2].ok && outs[3].ok);
    expectSameOutcome(outs[0].outcome, outs[2].outcome);
    expectSameOutcome(outs[0].outcome, outs[3].outcome);
    EXPECT_NE(outs[0].outcome.instructions + outs[0].outcome.cycles,
              0u);
}

TEST(Runner, FetchAndStoreHooksBackTheBatch)
{
    const ExperimentConfig cfg = tinyConfig();
    const std::vector<Job> jobs = sampleBatch(cfg);
    const std::string served = jobKey(jobs[0]);

    std::mutex mutex;
    std::vector<std::string> stored;
    auto fetch = [&](const Job &j, Outcome &out) {
        if (jobKey(j) != served)
            return false;
        out = fakeOutcome(3.25);
        return true;
    };
    auto store = [&](const Job &j, const Outcome &) {
        std::lock_guard<std::mutex> lock(mutex);
        stored.push_back(jobKey(j));
    };

    Runner r(4);
    const std::vector<JobOutcome> outs = r.run(jobs, fetch, store);
    ASSERT_TRUE(outs[0].ok);
    // served from the "cache"
    EXPECT_DOUBLE_EQ(outs[0].outcome.ipc, 3.25);
    EXPECT_EQ(r.lastBatch().cached, 1u);
    EXPECT_EQ(r.lastBatch().executed, jobs.size() - 1);
    EXPECT_EQ(stored.size(), jobs.size() - 1);  // only simulated jobs
    for (const std::string &key : stored)
        EXPECT_NE(key, served);
}

class OutcomeStoreTest : public ::testing::Test
{
  protected:
    test::TempDir dir_;
    std::string path_ = dir_.file("bouquet_runner_cache.bin");
};

TEST_F(OutcomeStoreTest, RoundTripsThroughDisk)
{
    {
        OutcomeStore store(path_);
        EXPECT_TRUE(store.put("a|none|1", fakeOutcome(1.5)).ok());
        EXPECT_TRUE(store.put("b|ipcp|1", fakeOutcome(2.5)).ok());
    }
    OutcomeStore reloaded(path_);
    EXPECT_EQ(reloaded.size(), 2u);
    EXPECT_EQ(reloaded.corruptRecords(), 0u);
    Outcome out;
    ASSERT_TRUE(reloaded.get("a|none|1", out));
    EXPECT_DOUBLE_EQ(out.ipc, 1.5);
    ASSERT_TRUE(reloaded.get("b|ipcp|1", out));
    EXPECT_DOUBLE_EQ(out.ipc, 2.5);
}

TEST_F(OutcomeStoreTest, ZeroByteFileHealsToMiss)
{
    // A writer that crashed between creating the cache file and its
    // first atomic publish leaves zero bytes: a miss, not corruption.
    {
        std::ofstream f(path_, std::ios::binary);
    }
    ASSERT_TRUE(std::filesystem::exists(path_));

    OutcomeStore store(path_);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.corruptRecords(), 0u);
    // The empty husk is evicted so the entry is recomputed cleanly.
    EXPECT_FALSE(std::filesystem::exists(path_));

    Outcome out;
    EXPECT_FALSE(store.get("a|none|1", out));
    EXPECT_TRUE(store.put("a|none|1", fakeOutcome(1.25)).ok());
    OutcomeStore reloaded(path_);
    ASSERT_TRUE(reloaded.get("a|none|1", out));
    EXPECT_DOUBLE_EQ(out.ipc, 1.25);
    EXPECT_EQ(reloaded.corruptRecords(), 0u);
}

TEST_F(OutcomeStoreTest, GarbageFileIsDetectedAndRegenerated)
{
    {
        std::ofstream f(path_, std::ios::binary);
        f << "this is not a cache file at all, but it is long enough "
             "to look like one if nobody checks the magic";
    }
    OutcomeStore store(path_);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_GE(store.corruptRecords(), 1u);
    Outcome out;
    EXPECT_FALSE(store.get("a|none|1", out));

    // A put regenerates a clean file in place of the garbage.
    EXPECT_TRUE(store.put("a|none|1", fakeOutcome(1.25)).ok());
    OutcomeStore reloaded(path_);
    EXPECT_EQ(reloaded.size(), 1u);
    EXPECT_EQ(reloaded.corruptRecords(), 0u);
    ASSERT_TRUE(reloaded.get("a|none|1", out));
    EXPECT_DOUBLE_EQ(out.ipc, 1.25);
}

TEST_F(OutcomeStoreTest, TruncatedFileKeepsOnlyValidPrefix)
{
    {
        OutcomeStore store(path_);
        EXPECT_TRUE(store.put("a|none|1", fakeOutcome(1.5)).ok());
        EXPECT_TRUE(store.put("b|ipcp|1", fakeOutcome(2.5)).ok());
    }
    // Chop the tail off the last record: a torn concurrent write.
    std::ifstream in(path_, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    {
        std::ofstream out(path_, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size() - 10));
    }

    OutcomeStore store(path_);
    EXPECT_EQ(store.size(), 1u);  // valid prefix survives
    EXPECT_GE(store.corruptRecords(), 1u);
    Outcome out;
    EXPECT_TRUE(store.get("a|none|1", out));
    EXPECT_FALSE(store.get("b|ipcp|1", out));
}

TEST_F(OutcomeStoreTest, ChecksumMismatchRejectsRecord)
{
    {
        OutcomeStore store(path_);
        EXPECT_TRUE(store.put("a|none|1", fakeOutcome(1.5)).ok());
    }
    // Flip one byte inside the record payload.
    std::fstream f(path_, std::ios::binary | std::ios::in |
                              std::ios::out);
    f.seekp(24);  // past header + key length, inside the key/outcome
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(24);
    byte = static_cast<char>(byte ^ 0x5a);
    f.write(&byte, 1);
    f.close();

    OutcomeStore store(path_);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_GE(store.corruptRecords(), 1u);
}

TEST_F(OutcomeStoreTest, StaleFormatVersionIsNotTrusted)
{
    {
        OutcomeStore store(path_);
        EXPECT_TRUE(store.put("a|none|1", fakeOutcome(1.5)).ok());
    }
    // Corrupt the version field (bytes 8..11, after the magic).
    std::fstream f(path_, std::ios::binary | std::ios::in |
                              std::ios::out);
    f.seekp(8);
    const std::uint32_t bogus = 0xdeadbeef;
    f.write(reinterpret_cast<const char *>(&bogus), sizeof(bogus));
    f.close();

    OutcomeStore store(path_);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_GE(store.corruptRecords(), 1u);
}

TEST_F(OutcomeStoreTest, ConcurrentPutsAndGetsAreSafe)
{
    OutcomeStore store(path_);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
            for (unsigned i = 0; i < 8; ++i) {
                const std::string key = "k" + std::to_string(t) + "." +
                                        std::to_string(i);
                EXPECT_TRUE(store.put(key, fakeOutcome(0.5 + t + i)).ok());
                Outcome out;
                EXPECT_TRUE(store.get(key, out));
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(store.size(), 64u);

    OutcomeStore reloaded(path_);
    EXPECT_EQ(reloaded.size(), 64u);
    EXPECT_EQ(reloaded.corruptRecords(), 0u);
}

TEST_F(OutcomeStoreTest, SecondStoreSeesEntriesCompletedElsewhere)
{
    // Two stores on one file model two concurrent bench processes.
    OutcomeStore first(path_);
    OutcomeStore second(path_);
    EXPECT_TRUE(first.put("shared|key", fakeOutcome(2.0)).ok());
    Outcome out;
    // The get must re-read the file rather than recompute.
    EXPECT_TRUE(second.get("shared|key", out));
    EXPECT_DOUBLE_EQ(out.ipc, 2.0);

    // And a put from the second store must not drop the first's entry.
    EXPECT_TRUE(second.put("other|key", fakeOutcome(3.0)).ok());
    OutcomeStore reloaded(path_);
    EXPECT_EQ(reloaded.size(), 2u);
}

} // namespace
} // namespace bouquet
