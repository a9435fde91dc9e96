#include "campaign/aggregate.hh"

#include <cctype>
#include <sstream>

#include "campaign/queue.hh"
#include "common/env.hh"
#include "common/stateio.hh"

namespace bouquet::campaign
{

namespace
{

constexpr std::uint64_t kReportSchemaVersion = 1;

/** Parse `<field>=<u64>` out of a history line; 0 when absent or
 *  malformed. The value runs to the next whitespace, so extract the
 *  token before handing it to the strict full-string parser. */
std::uint64_t
lineField(const std::string &line, const std::string &field)
{
    const std::string needle = field + "=";
    const std::size_t pos = line.find(needle);
    if (pos == std::string::npos)
        return 0;
    const std::size_t start = pos + needle.size();
    std::size_t end = start;
    while (end < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[end])))
        ++end;
    std::uint64_t out = 0;
    if (!parseU64(line.substr(start, end - start), out))
        return 0;
    return out;
}

const char *
stateName(JobState state)
{
    switch (state) {
    case JobState::Pending: return "pending";
    case JobState::Leased: return "leased";
    case JobState::Orphaned: return "orphaned";
    case JobState::Done: return "done";
    case JobState::Quarantined: return "quarantined";
    }
    return "unknown";
}

} // namespace

Status
publishJson(const std::string &path,
            const std::function<void(JsonWriter &)> &body)
{
    std::ostringstream os;
    JsonWriter json(os, JsonWriter::Style::Pretty);
    body(json);
    os << "\n";
    return publishFile(path, os.str());
}

Status
writeReport(const CampaignPaths &paths, const CampaignSpec &spec)
{
    const ExperimentConfig cfg = campaignConfig(paths, spec);
    WorkQueue queue(QueueConfig::fromEnv(paths.queueDir()),
                    "aggregate");

    return publishJson(paths.reportFile(), [&](JsonWriter &json) {
        json.beginObject();
        json.key("schema_version");
        json.value(kReportSchemaVersion);
        json.key("sim_instrs");
        json.value(spec.simInstrs);
        json.key("warmup_instrs");
        json.value(spec.warmupInstrs);
        json.key("jobs");
        json.beginArray();
        for (const CampaignJob &job : spec.jobs) {
            const std::string key = keyOf(job, cfg);
            const std::string hash = keyHash(key);
            json.beginObject();
            json.key("trace");
            json.value(job.trace);
            json.key("combo");
            json.value(job.combo);
            json.key("key_hash");
            json.value(hash);
            // Only simulated fields below: resumed/attempt/host
            // counters would break chaos-vs-serial byte identity.
            // An unreadable done file reads as incomplete.
            if (Result<Outcome> done = queue.readDone(hash, key);
                done.ok()) {
                const Outcome &out = done.value();
                json.key("status");
                json.value("done");
                json.key("ipc");
                json.value(out.ipc);
                json.key("instructions");
                json.value(out.instructions);
                json.key("cycles");
                json.value(static_cast<std::uint64_t>(out.cycles));
                json.key("l1d_demand_misses");
                json.value(out.l1d.demandMisses());
                json.key("l2_demand_misses");
                json.value(out.l2.demandMisses());
                json.key("llc_demand_misses");
                json.value(out.llc.demandMisses());
                json.key("dram_bytes");
                json.value(out.dramBytes);
            } else {
                json.key("status");
                json.value(queue.state(hash) == JobState::Quarantined
                               ? "quarantined"
                               : "incomplete");
            }
            json.endObject();
        }
        json.endArray();
        json.endObject();
    });
}

Result<CampaignTotals>
writeSummary(const CampaignPaths &paths, const CampaignSpec &spec)
{
    const ExperimentConfig cfg = campaignConfig(paths, spec);
    WorkQueue queue(QueueConfig::fromEnv(paths.queueDir()),
                    "aggregate");

    CampaignTotals totals;
    totals.jobs = spec.jobs.size();

    Status status = publishJson(
        paths.summaryFile(), [&](JsonWriter &json) {
            json.beginObject();
            json.key("jobs");
            json.beginArray();
            for (const CampaignJob &job : spec.jobs) {
                const std::string key = keyOf(job, cfg);
                const std::string hash = keyHash(key);
                const JobState state = queue.state(hash);
                std::uint64_t attempts = 0;
                std::uint64_t reclaims = 0;
                std::uint64_t resumes = 0;
                std::uint64_t warm_hits = 0;
                std::uint64_t warm_misses = 0;
                std::uint64_t degraded = 0;
                const std::vector<std::string> lines =
                    queue.history(hash);
                for (const std::string &line : lines) {
                    if (line.rfind("attempt ", 0) == 0)
                        ++attempts;
                    else if (line.rfind("orphaned ", 0) == 0)
                        ++reclaims;
                    else if (line.rfind("resumed ", 0) == 0)
                        ++resumes;
                    else if (line.rfind("degraded ", 0) == 0) {
                        const std::uint64_t store_d =
                            lineField(line, "store");
                        const std::uint64_t warm_d =
                            lineField(line, "warm");
                        const std::uint64_t ckpt_d =
                            lineField(line, "ckpt");
                        const std::uint64_t stats_d =
                            lineField(line, "stats");
                        totals.degradedStore += store_d;
                        totals.degradedWarm += warm_d;
                        totals.degradedCkpt += ckpt_d;
                        totals.degradedStats += stats_d;
                        degraded +=
                            store_d + warm_d + ckpt_d + stats_d;
                    }
                }
                // The history charges only attempts that did not
                // succeed. A done job's successful attempt is its
                // done file, which also says whether it warm-started;
                // a lease still held or orphaned is one more started
                // attempt that nobody has charged yet.
                if (state == JobState::Done) {
                    ++attempts;
                    if (Result<Outcome> done = queue.readDone(hash, key);
                        done.ok())
                        ++(done.value().warmStart ? warm_hits
                                                  : warm_misses);
                } else if (state == JobState::Leased ||
                           state == JobState::Orphaned) {
                    ++attempts;
                }
                switch (state) {
                case JobState::Done: ++totals.done; break;
                case JobState::Quarantined:
                    ++totals.quarantined;
                    break;
                default: ++totals.incomplete; break;
                }
                totals.attempts += attempts;
                totals.reclaims += reclaims;
                totals.resumed += resumes;
                totals.warmHits += warm_hits;
                totals.warmMisses += warm_misses;

                json.beginObject();
                json.key("trace");
                json.value(job.trace);
                json.key("combo");
                json.value(job.combo);
                json.key("key_hash");
                json.value(hash);
                json.key("status");
                json.value(stateName(state));
                json.key("attempts");
                json.value(attempts);
                json.key("reclaims");
                json.value(reclaims);
                json.key("resumes");
                json.value(resumes);
                json.key("warm_hits");
                json.value(warm_hits);
                json.key("degraded_writes");
                json.value(degraded);
                if (state == JobState::Quarantined) {
                    json.key("history");
                    json.beginArray();
                    for (const std::string &line : lines)
                        json.value(line);
                    json.endArray();
                }
                json.endObject();
            }
            json.endArray();
            json.key("totals");
            json.beginObject();
            json.key("jobs");
            json.value(static_cast<std::uint64_t>(totals.jobs));
            json.key("done");
            json.value(static_cast<std::uint64_t>(totals.done));
            json.key("quarantined");
            json.value(
                static_cast<std::uint64_t>(totals.quarantined));
            json.key("incomplete");
            json.value(
                static_cast<std::uint64_t>(totals.incomplete));
            json.key("attempts");
            json.value(totals.attempts);
            json.key("reclaims");
            json.value(totals.reclaims);
            json.key("resumes");
            json.value(totals.resumed);
            json.key("warm_hits");
            json.value(totals.warmHits);
            json.key("warm_misses");
            json.value(totals.warmMisses);
            json.key("degraded_store_writes");
            json.value(totals.degradedStore);
            json.key("degraded_warm_writes");
            json.value(totals.degradedWarm);
            json.key("degraded_ckpt_writes");
            json.value(totals.degradedCkpt);
            json.key("degraded_stats_writes");
            json.value(totals.degradedStats);
            json.endObject();
            json.endObject();
        });
    if (!status.ok())
        return status.error();
    return totals;
}

} // namespace bouquet::campaign
