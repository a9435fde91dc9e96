#include "common/faultinject.hh"

#include <cstdlib>
#include <iostream>

namespace bouquet
{

namespace
{

/** Parse a base-10 number; false on empty/garbage/overflow. */
bool
parseU64(std::string_view text, std::uint64_t &out)
{
    if (text.empty())
        return false;
    std::uint64_t value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return false;
        const std::uint64_t next = value * 10 + (c - '0');
        if (next < value)
            return false;
        value = next;
    }
    out = value;
    return true;
}

Status
parseClause(std::string_view text, FaultClause &clause)
{
    auto fail = [&](const std::string &why) {
        return Status(makeError(
            Errc::failed,
            "bad IPCP_FAULTS clause '" + std::string(text) + "': " + why));
    };

    // Split off the '=action' suffix first.
    std::string_view body = text;
    std::string_view action;
    if (const std::size_t eq = body.find('='); eq != std::string_view::npos) {
        action = body.substr(eq + 1);
        body = body.substr(0, eq);
    }

    const std::size_t at = body.find('@');
    if (at == std::string_view::npos)
        return fail("missing '@hit'");

    std::string_view name = body.substr(0, at);
    std::string_view range = body.substr(at + 1);
    if (const std::size_t tilde = name.find('~');
        tilde != std::string_view::npos) {
        clause.match = std::string(name.substr(tilde + 1));
        name = name.substr(0, tilde);
    }
    if (name.empty())
        return fail("empty point name");
    clause.point = std::string(name);

    if (range.empty())
        return fail("empty hit range");
    if (range.back() == '+') {
        if (!parseU64(range.substr(0, range.size() - 1), clause.from))
            return fail("bad open range");
        clause.to = UINT64_MAX;
    } else if (const std::size_t dash = range.find('-');
               dash != std::string_view::npos) {
        if (!parseU64(range.substr(0, dash), clause.from) ||
            !parseU64(range.substr(dash + 1), clause.to))
            return fail("bad hit range");
    } else {
        if (!parseU64(range, clause.from))
            return fail("bad hit number");
        clause.to = clause.from;
    }
    if (clause.from == 0 || clause.to < clause.from)
        return fail("hits are 1-based and from <= to");

    if (action.empty() || action == "fail") {
        clause.action = FaultClause::Action::Fail;
    } else if (action == "fatal") {
        clause.action = FaultClause::Action::Fatal;
    } else {
        return fail("unknown action '" + std::string(action) + "'");
    }
    return Status();
}

} // namespace

Status
parseFaultSpec(const std::string &spec, std::vector<FaultClause> &out)
{
    out.clear();
    for (std::size_t pos = 0; pos <= spec.size();) {
        const std::size_t comma = spec.find(',', pos);
        const std::size_t end =
            comma == std::string::npos ? spec.size() : comma;
        if (end > pos) {
            FaultClause clause;
            if (Status s = parseClause(
                    std::string_view(spec).substr(pos, end - pos), clause);
                !s.ok()) {
                out.clear();
                return s;
            }
            out.push_back(std::move(clause));
        }
        pos = end + 1;
    }
    return Status();
}

FaultRegistry::FaultRegistry()
{
    if (const char *env = std::getenv("IPCP_FAULTS");
        env != nullptr && *env != '\0') {
        if (Status s = configure(env); !s.ok())
            std::cerr << "[faults] ignoring IPCP_FAULTS: "
                      << s.error().message << "\n";
    }
}

FaultRegistry &
FaultRegistry::instance()
{
    static FaultRegistry registry;
    return registry;
}

Status
FaultRegistry::configure(const std::string &spec)
{
    std::vector<FaultClause> clauses;
    if (Status s = parseFaultSpec(spec, clauses); !s.ok())
        return s;
    std::lock_guard<std::mutex> lock(mutex_);
    clauses_ = std::move(clauses);
    active_.store(!clauses_.empty(), std::memory_order_relaxed);
    return Status();
}

void
FaultRegistry::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    clauses_.clear();
    active_.store(false, std::memory_order_relaxed);
}

std::optional<Error>
FaultRegistry::check(std::string_view point, std::string_view context)
{
    std::optional<Error> err;
    std::lock_guard<std::mutex> lock(mutex_);
    for (FaultClause &c : clauses_) {
        if (c.point != point)
            continue;
        if (!c.match.empty() &&
            context.find(c.match) == std::string_view::npos)
            continue;
        ++c.hits;
        if (c.hits < c.from || c.hits > c.to)
            continue;
        ++c.fired;
        if (!err) {
            std::string what = "injected fault at " + std::string(point);
            if (!context.empty())
                what += " (" + std::string(context) + ")";
            err = makeError(Errc::injected, std::move(what),
                            c.action == FaultClause::Action::Fail);
        }
    }
    return err;
}

std::uint64_t
FaultRegistry::firedCount(std::string_view point) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const FaultClause &c : clauses_) {
        if (point.empty() || c.point == point)
            total += c.fired;
    }
    return total;
}

std::uint64_t
FaultRegistry::hitCount(std::string_view point) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const FaultClause &c : clauses_) {
        if (point.empty() || c.point == point)
            total += c.hits;
    }
    return total;
}

} // namespace bouquet
