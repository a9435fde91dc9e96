#include "common/degrade.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>

namespace bouquet
{

namespace
{

std::atomic<std::uint64_t> counts[kDegradeKinds];
thread_local std::uint64_t threadCounts[kDegradeKinds];
std::atomic<bool> warned[kDegradeKinds];
std::atomic<std::uint64_t> epoch{0};

} // namespace

const char *
degradeKindName(DegradeKind kind)
{
    switch (kind) {
    case DegradeKind::store: return "store";
    case DegradeKind::warm: return "warm";
    case DegradeKind::ckpt: return "ckpt";
    case DegradeKind::stats: return "stats";
    }
    return "unknown";
}

void
noteDegraded(DegradeKind kind, const Error &err)
{
    const auto k = static_cast<unsigned>(kind);
    counts[k].fetch_add(1, std::memory_order_relaxed);
    ++threadCounts[k];
    if (!warned[k].exchange(true, std::memory_order_relaxed)) {
        std::fprintf(stderr,
                     "warning: %s publish degraded to pass-through "
                     "(%s: %s); further %s degradations are counted "
                     "silently\n",
                     degradeKindName(kind), errcName(err.code),
                     err.message.c_str(), degradeKindName(kind));
    }
}

std::uint64_t
degradedCount(DegradeKind kind)
{
    return counts[static_cast<unsigned>(kind)].load(
        std::memory_order_relaxed);
}

std::uint64_t
degradedCountOnThread(DegradeKind kind)
{
    return threadCounts[static_cast<unsigned>(kind)];
}

bool
isNoSpaceErrno(int saved_errno)
{
    return saved_errno == ENOSPC || saved_errno == EDQUOT;
}

Error
classifyWriteErrno(int saved_errno, std::string message)
{
    return makeError(isNoSpaceErrno(saved_errno) ? Errc::no_space
                                                 : Errc::io,
                     std::move(message), true);
}

std::uint64_t
progressEpoch()
{
    return epoch.load(std::memory_order_relaxed);
}

void
bumpProgressEpoch()
{
    epoch.fetch_add(1, std::memory_order_relaxed);
}

} // namespace bouquet
