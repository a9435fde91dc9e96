/**
 * @file
 * Tests for the deterministic fault-injection layer and the harness's
 * failure containment: spec parsing, per-clause hit counting, the
 * runner's per-job capture / retry / watchdog policy, outcome-store
 * recovery under injected I/O faults, and cache-fill fault
 * containment. The registry-hammering test is meaningful under
 * -fsanitize=thread.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "common/faultinject.hh"
#include "harness/factory.hh"
#include "harness/runner.hh"
#include "trace/trace_io.hh"
#include "trace/workloads.hh"
#include "tests/test_support.hh"

namespace bouquet
{
namespace
{

using bench::OutcomeStore;

/** Every test starts and ends with an empty fault table. */
class FaultTest : public ::testing::Test
{
  protected:
    void SetUp() override { FaultRegistry::instance().clear(); }
    void TearDown() override { FaultRegistry::instance().clear(); }
};

ExperimentConfig
tinyConfig()
{
    ExperimentConfig cfg;
    cfg.warmupInstrs = 2'000;
    cfg.simInstrs = 10'000;
    return cfg;
}

AttachFn
comboAttach(const std::string &name)
{
    return [name](System &s) { applyCombo(s, name); };
}

std::vector<Job>
threeJobs(const ExperimentConfig &cfg)
{
    std::vector<Job> jobs;
    for (const char *trace :
         {"603.bwaves_s-891B", "619.lbm_s-2676B", "605.mcf_s-994B"}) {
        jobs.push_back(
            Job{findTrace(trace), "none", comboAttach("none"), cfg});
    }
    return jobs;
}

/** Every stdout-visible field a bench table is built from. */
std::string
formatOutcome(const Outcome &o)
{
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "ipc=%.17g instrs=%llu cycles=%llu l1m=%llu l2m=%llu "
                  "llcm=%llu dram=%llu",
                  o.ipc,
                  static_cast<unsigned long long>(o.instructions),
                  static_cast<unsigned long long>(o.cycles),
                  static_cast<unsigned long long>(o.l1d.demandMisses()),
                  static_cast<unsigned long long>(o.l2.demandMisses()),
                  static_cast<unsigned long long>(o.llc.demandMisses()),
                  static_cast<unsigned long long>(o.dramBytes));
    return buf;
}

Outcome
fakeOutcome(double ipc)
{
    Outcome o;
    o.ipc = ipc;
    o.instructions = 1000;
    o.cycles = 500;
    return o;
}

using test::TempDir;

// ---- spec parsing ----

TEST_F(FaultTest, ParsesFullGrammar)
{
    std::vector<FaultClause> clauses;
    ASSERT_TRUE(parseFaultSpec("job.body@1", clauses).ok());
    ASSERT_EQ(clauses.size(), 1u);
    EXPECT_EQ(clauses[0].point, "job.body");
    EXPECT_EQ(clauses[0].from, 1u);
    EXPECT_EQ(clauses[0].to, 1u);
    EXPECT_EQ(clauses[0].action, FaultClause::Action::Fail);

    ASSERT_TRUE(
        parseFaultSpec("trace.read~mcf@2-4=fatal,store.write@3+=sleep:50",
                       clauses)
            .ok());
    ASSERT_EQ(clauses.size(), 2u);
    EXPECT_EQ(clauses[0].point, "trace.read");
    EXPECT_EQ(clauses[0].match, "mcf");
    EXPECT_EQ(clauses[0].from, 2u);
    EXPECT_EQ(clauses[0].to, 4u);
    EXPECT_EQ(clauses[0].action, FaultClause::Action::Fatal);
    EXPECT_EQ(clauses[1].point, "store.write");
    EXPECT_EQ(clauses[1].from, 3u);
    EXPECT_EQ(clauses[1].to, UINT64_MAX);
    EXPECT_EQ(clauses[1].action, FaultClause::Action::Sleep);
    EXPECT_EQ(clauses[1].sleepMs, 50u);
}

TEST_F(FaultTest, RejectsMalformedSpecs)
{
    std::vector<FaultClause> clauses;
    EXPECT_FALSE(parseFaultSpec("job.body", clauses).ok());       // no @
    EXPECT_FALSE(parseFaultSpec("@1", clauses).ok());             // no point
    EXPECT_FALSE(parseFaultSpec("job.body@0", clauses).ok());     // 1-based
    EXPECT_FALSE(parseFaultSpec("job.body@5-2", clauses).ok());   // inverted
    EXPECT_FALSE(parseFaultSpec("job.body@x", clauses).ok());     // NaN
    EXPECT_FALSE(parseFaultSpec("job.body@1=explode", clauses).ok());
    EXPECT_FALSE(parseFaultSpec("job.body@1=sleep:", clauses).ok());
    EXPECT_TRUE(clauses.empty());

    // A bad spec never half-configures the registry.
    EXPECT_FALSE(FaultRegistry::instance().configure("bogus").ok());
    EXPECT_FALSE(FaultRegistry::instance().active());
}

// ---- deterministic firing ----

TEST_F(FaultTest, FiresOnExactHitAndCounts)
{
    auto &reg = FaultRegistry::instance();
    ASSERT_TRUE(reg.configure("job.body@2").ok());
    EXPECT_FALSE(reg.check("job.body", "k").has_value());
    const auto err = reg.check("job.body", "k");
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->code, Errc::injected);
    EXPECT_TRUE(err->transient);  // 'fail' action is retry-eligible
    EXPECT_FALSE(reg.check("job.body", "k").has_value());
    EXPECT_EQ(reg.hitCount("job.body"), 3u);
    EXPECT_EQ(reg.firedCount("job.body"), 1u);
    // Other points are untouched.
    EXPECT_FALSE(reg.check("trace.read", "k").has_value());
    EXPECT_EQ(reg.firedCount(), 1u);
}

TEST_F(FaultTest, CheckpointFaultPointsFireAtTheirHits)
{
    auto &reg = FaultRegistry::instance();
    ASSERT_TRUE(reg.configure("ckpt.write@1,ckpt.read@2").ok());

    // First write fails (transient, so a later periodic save can
    // succeed after a retry-style second attempt), later ones pass.
    const auto werr = faultCheck(faults::kCkptWrite, "/tmp/a.ckpt");
    ASSERT_TRUE(werr.has_value());
    EXPECT_EQ(werr->code, Errc::injected);
    EXPECT_TRUE(werr->transient);
    EXPECT_FALSE(faultCheck(faults::kCkptWrite, "/tmp/a.ckpt")
                     .has_value());

    // The read clause fires on exactly its second hit.
    EXPECT_FALSE(faultCheck(faults::kCkptRead, "/tmp/a.ckpt")
                     .has_value());
    const auto rerr = faultCheck(faults::kCkptRead, "/tmp/a.ckpt");
    ASSERT_TRUE(rerr.has_value());
    EXPECT_EQ(rerr->code, Errc::injected);
    EXPECT_EQ(reg.firedCount("ckpt.write"), 1u);
    EXPECT_EQ(reg.firedCount("ckpt.read"), 1u);
}

TEST_F(FaultTest, ContextFilterCountsOnlyMatchingHits)
{
    auto &reg = FaultRegistry::instance();
    ASSERT_TRUE(reg.configure("job.body~mcf@1=fatal").ok());
    EXPECT_FALSE(reg.check("job.body", "603.bwaves|none").has_value());
    EXPECT_EQ(reg.hitCount(), 0u);  // non-matching hits are not counted
    const auto err = reg.check("job.body", "605.mcf_s-994B|none");
    ASSERT_TRUE(err.has_value());
    EXPECT_FALSE(err->transient);  // fatal: never retried
    EXPECT_EQ(reg.hitCount(), 1u);
}

TEST_F(FaultTest, RegistryIsThreadSafe)
{
    auto &reg = FaultRegistry::instance();
    // In range-never territory: counts hits, never fires.
    ASSERT_TRUE(reg.configure("job.body@1000000").ok());
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 8; ++t) {
        threads.emplace_back([&] {
            for (unsigned i = 0; i < 100; ++i) {
                EXPECT_FALSE(faultCheck(faults::kJobBody, "ctx"));
                EXPECT_FALSE(faultCheck(faults::kStoreRead, "ctx"));
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(reg.hitCount("job.body"), 800u);
    EXPECT_EQ(reg.firedCount(), 0u);
}

// ---- trace read faults ----

TEST_F(FaultTest, TraceReadFaultFailsOnceThenLoads)
{
    TempDir tmp;
    const std::string path = tmp.file("w.trace");
    ConstantStrideParams p;
    ConstantStrideGen gen("w", 7, p);
    ASSERT_TRUE(writeTrace(path, gen, 10).ok());

    ASSERT_TRUE(
        FaultRegistry::instance().configure("trace.read@1").ok());
    auto first = TraceFileGenerator::load(path);
    ASSERT_FALSE(first.ok());
    EXPECT_EQ(first.error().code, Errc::injected);
    auto second = TraceFileGenerator::load(path);
    ASSERT_TRUE(second.ok()) << second.error().message;
    EXPECT_EQ(second.value()->size(), 10u);
}

// ---- runner containment ----

TEST_F(FaultTest, RunnerContainsSingleJobFault)
{
    const ExperimentConfig cfg = tinyConfig();
    const std::vector<Job> jobs = threeJobs(cfg);

    // Fault-free reference run.
    Runner clean(2);
    clean.setMaxAttempts(1);
    const std::vector<JobOutcome> ref = clean.run(jobs);
    for (const JobOutcome &jo : ref)
        ASSERT_TRUE(jo.ok) << jo.error;

    // Inject a permanent fault into the mcf job only; collect what
    // the store hook persists.
    ASSERT_TRUE(FaultRegistry::instance()
                    .configure("job.body~605.mcf@1=fatal")
                    .ok());
    std::mutex mutex;
    std::vector<std::string> stored;
    auto store = [&](const Job &j, const Outcome &) {
        std::lock_guard<std::mutex> lock(mutex);
        stored.push_back(jobKey(j));
    };
    Runner r(2);
    r.setMaxAttempts(2);
    r.setRetryBackoffMs(0);
    const std::vector<JobOutcome> outs = r.run(jobs, {}, store);

    // The other N-1 jobs completed, were stored, and are
    // byte-identical to the fault-free run.
    ASSERT_EQ(outs.size(), 3u);
    for (std::size_t i = 0; i < outs.size(); ++i) {
        if (jobs[i].spec.name.find("605.mcf") != std::string::npos) {
            EXPECT_FALSE(outs[i].ok);
            EXPECT_EQ(outs[i].attempts, 1u);  // fatal: no retry
            EXPECT_NE(outs[i].error.find("injected"),
                      std::string::npos);
        } else {
            ASSERT_TRUE(outs[i].ok) << outs[i].error;
            EXPECT_EQ(formatOutcome(outs[i].outcome),
                      formatOutcome(ref[i].outcome));
        }
    }
    EXPECT_EQ(stored.size(), 2u);
    for (const std::string &key : stored)
        EXPECT_EQ(key.find("605.mcf"), std::string::npos);

    // The batch summary names the failed job and its error.
    const BatchStats &stats = r.lastBatch();
    EXPECT_EQ(stats.failed, 1u);
    ASSERT_EQ(stats.failures.size(), 1u);
    EXPECT_NE(stats.failures[0].key.find("605.mcf"), std::string::npos);
    EXPECT_NE(stats.failures[0].error.find("injected"),
              std::string::npos);
}

TEST_F(FaultTest, TransientFaultSucceedsOnRetry)
{
    const ExperimentConfig cfg = tinyConfig();
    const std::vector<Job> jobs = threeJobs(cfg);
    // Transient fault on the very first job-body attempt; the retry is
    // hit 2 and succeeds.
    ASSERT_TRUE(FaultRegistry::instance().configure("job.body@1").ok());
    Runner r(1);  // serial: the faulted attempt is job 0's
    r.setMaxAttempts(2);
    r.setRetryBackoffMs(0);
    const std::vector<JobOutcome> outs = r.run(jobs);
    ASSERT_TRUE(outs[0].ok) << outs[0].error;
    EXPECT_EQ(outs[0].attempts, 2u);
    EXPECT_TRUE(outs[1].ok && outs[2].ok);
    EXPECT_EQ(outs[1].attempts, 1u);
    EXPECT_EQ(r.lastBatch().failed, 0u);
    EXPECT_EQ(r.lastBatch().retried, 1u);
}

TEST_F(FaultTest, TransientFaultExhaustsAttemptBudget)
{
    const ExperimentConfig cfg = tinyConfig();
    const std::vector<Job> jobs = threeJobs(cfg);
    // Every attempt of the mcf job faults.
    ASSERT_TRUE(FaultRegistry::instance()
                    .configure("job.body~605.mcf@1+")
                    .ok());
    Runner r(2);
    r.setMaxAttempts(3);
    r.setRetryBackoffMs(0);
    const std::vector<JobOutcome> outs = r.run(jobs);
    ASSERT_FALSE(outs[2].ok);
    EXPECT_EQ(outs[2].attempts, 3u);
    EXPECT_TRUE(outs[0].ok && outs[1].ok);
}

TEST_F(FaultTest, WatchdogFailsOverrunWithoutRetry)
{
    const ExperimentConfig cfg = tinyConfig();
    const std::vector<Job> jobs = threeJobs(cfg);
    // The budget comes from timing the two jobs that must pass, in
    // this build and on this host: ten times the slower of them (a
    // fixed budget was overrun by those jobs under IPCP_AUDIT=1).
    Runner timing(1);
    timing.run({jobs[1], jobs[2]});
    const double slowest = std::max(timing.lastBatch().perJob[0].seconds,
                                    timing.lastBatch().perJob[1].seconds);
    const double budget = std::max(10.0 * slowest, 0.02);
    // Job 0's first attempt sleeps three budgets, so its overrun is
    // certain; the overrun must fail the job and must not be retried.
    const auto sleep_ms = static_cast<unsigned>(3000.0 * budget) + 1;
    ASSERT_TRUE(FaultRegistry::instance()
                    .configure("job.body@1=sleep:" +
                               std::to_string(sleep_ms))
                    .ok());
    Runner r(1);
    r.setMaxAttempts(2);
    r.setRetryBackoffMs(0);
    r.setJobTimeout(budget);
    const std::vector<JobOutcome> outs = r.run(jobs);
    ASSERT_FALSE(outs[0].ok);
    EXPECT_TRUE(outs[0].timedOut);
    EXPECT_EQ(outs[0].attempts, 1u);
    EXPECT_NE(outs[0].error.find("watchdog"), std::string::npos);
    EXPECT_TRUE(outs[1].ok && outs[2].ok);
    EXPECT_EQ(r.lastBatch().timedOut, 1u);
}

TEST_F(FaultTest, UnknownComboFailsOneJobNotTheProcess)
{
    const ExperimentConfig cfg = tinyConfig();
    std::vector<Job> jobs = threeJobs(cfg);
    jobs[1].label = "bogus-combo";
    jobs[1].attach = comboAttach("bogus-combo");
    Runner r(2);
    r.setMaxAttempts(2);
    r.setRetryBackoffMs(0);
    const std::vector<JobOutcome> outs = r.run(jobs);
    ASSERT_FALSE(outs[1].ok);
    EXPECT_EQ(outs[1].attempts, 1u);  // permanent: not retried
    EXPECT_NE(outs[1].error.find("unknown combo"), std::string::npos);
    EXPECT_TRUE(outs[0].ok && outs[2].ok);
}

TEST_F(FaultTest, CacheFillFaultFailsOnlyItsJob)
{
    const ExperimentConfig cfg = tinyConfig();
    const std::vector<Job> jobs = threeJobs(cfg);
    // The first cache fill of the batch throws deep inside the
    // simulation; the exception unwinds into the per-job capture.
    ASSERT_TRUE(FaultRegistry::instance()
                    .configure("cache.fill@1=fatal")
                    .ok());
    Runner r(1);  // serial: the first fill belongs to job 0
    r.setMaxAttempts(1);
    const std::vector<JobOutcome> outs = r.run(jobs);
    ASSERT_FALSE(outs[0].ok);
    EXPECT_NE(outs[0].error.find("cache.fill"), std::string::npos);
    EXPECT_TRUE(outs[1].ok && outs[2].ok);
}

// ---- outcome store under injected faults ----

TEST_F(FaultTest, StoreWriteFaultKeepsEntryInMemory)
{
    TempDir tmp;
    const std::string path = tmp.file("store.bin");
    OutcomeStore store(path);
    ASSERT_TRUE(
        FaultRegistry::instance().configure("store.write@1").ok());

    const Status failed = store.put("a|none|1", fakeOutcome(1.5));
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.error().code, Errc::injected);
    Outcome out;
    EXPECT_TRUE(store.get("a|none|1", out));  // survives in memory

    // The next persist (hit 2: no fault) rewrites the whole store,
    // recovering the entry that failed to land.
    EXPECT_TRUE(store.put("b|ipcp|1", fakeOutcome(2.5)).ok());
    FaultRegistry::instance().clear();
    OutcomeStore reloaded(path);
    EXPECT_EQ(reloaded.size(), 2u);
    EXPECT_TRUE(reloaded.get("a|none|1", out));
    EXPECT_DOUBLE_EQ(out.ipc, 1.5);
}

TEST_F(FaultTest, StoreFlockFaultFallsBackToUnlockedWrite)
{
    TempDir tmp;
    const std::string path = tmp.file("store.bin");
    OutcomeStore store(path);
    ASSERT_TRUE(
        FaultRegistry::instance().configure("store.flock@1").ok());
    EXPECT_TRUE(store.put("a|none|1", fakeOutcome(1.5)).ok());
    EXPECT_EQ(store.lockFailures(), 1u);
    FaultRegistry::instance().clear();
    OutcomeStore reloaded(path);  // atomic rename still published
    Outcome out;
    EXPECT_TRUE(reloaded.get("a|none|1", out));
    EXPECT_DOUBLE_EQ(out.ipc, 1.5);
}

TEST_F(FaultTest, StoreReadFaultDegradesToEmptyCache)
{
    TempDir tmp;
    const std::string path = tmp.file("store.bin");
    {
        OutcomeStore store(path);
        ASSERT_TRUE(store.put("a|none|1", fakeOutcome(1.5)).ok());
    }
    ASSERT_TRUE(
        FaultRegistry::instance().configure("store.read@1").ok());
    OutcomeStore store(path);  // load faulted: starts empty
    EXPECT_EQ(store.size(), 0u);
    // A memory miss re-reads the file (hit 2: no fault) and finds the
    // entry instead of forcing a re-simulation.
    Outcome out;
    EXPECT_TRUE(store.get("a|none|1", out));
    EXPECT_DOUBLE_EQ(out.ipc, 1.5);
}

} // namespace
} // namespace bouquet
