#include "harness/statsjson.hh"

#include <cstdio>
#include <sstream>

#include "common/json.hh"
#include "common/stateio.hh"
#include "common/tracer.hh"

namespace bouquet
{

std::string
formatSystemStatsJson(System &sys, const std::string &job_key)
{
    std::ostringstream os;
    JsonWriter w(os, JsonWriter::Style::Pretty);
    w.beginObject();
    w.key("schema_version");
    w.value(kStatsJsonSchemaVersion);
    char hex[19];
    std::snprintf(hex, sizeof(hex), "0x%016llx",
                  static_cast<unsigned long long>(sys.configHash()));
    w.key("config_hash");
    w.value(hex);
    w.key("job_key");
    w.value(job_key);
    w.key("workloads");
    w.beginArray();
    for (unsigned c = 0; c < sys.numCores(); ++c)
        w.value(sys.workloadName(c));
    w.endArray();
    w.key("stats");
    sys.statRegistry().writeJson(w);
    w.endObject();
    os << '\n';
    return std::move(os).str();
}

Status
writeTraceEvents(System &sys, const std::string &path)
{
    EventTracer *t = sys.tracer();
    if (t == nullptr)
        return Status(makeError(
            Errc::failed, "event tracing was not enabled on this run"));
    std::ostringstream os;
    t->writeChromeJson(os);
    return publishFile(path, os.str());
}

} // namespace bouquet
