#include "harness/diskbudget.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/env.hh"

namespace bouquet
{

namespace
{

std::atomic<std::uint64_t> evicted[2];
thread_local std::uint64_t threadEvicted;

struct Candidate
{
    std::string path;
    std::uint64_t bytes = 0;
    std::int64_t lastUse = 0;
};

bool
matches(const std::string &name, const std::string &prefix,
        const std::string &suffix)
{
    if (name.size() < prefix.size() + suffix.size())
        return false;
    return name.compare(0, prefix.size(), prefix) == 0 &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

} // namespace

DiskBudget::DiskBudget(std::string dir, std::string prefix,
                       std::string suffix, std::uint64_t budget_bytes,
                       BudgetKind kind)
    : dir_(std::move(dir)), prefix_(std::move(prefix)),
      suffix_(std::move(suffix)), budgetBytes_(budget_bytes),
      kind_(kind)
{
}

void
DiskBudget::sweep(std::uint64_t incoming_bytes) const
{
    if (!enabled())
        return;

    std::vector<Candidate> files;
    std::uint64_t total = 0;
    // EMFILE (or a not-yet-created dir) degrades to a skipped pass:
    // the next sweep retries with whatever descriptors are free.
    DIR *dir = ::opendir(dir_.c_str());
    if (dir == nullptr)
        return;
    while (const dirent *entry = ::readdir(dir)) {
        const std::string name = entry->d_name;
        if (!matches(name, prefix_, suffix_))
            continue;
        Candidate c;
        c.path = dir_ + "/" + name;
        struct stat st;
        if (::stat(c.path.c_str(), &st) != 0)
            continue;
        c.bytes = static_cast<std::uint64_t>(st.st_size);
        // Last use is the newer of atime and mtime: relatime mounts
        // keep atime honest enough for LRU, and the mtime floor makes
        // a noatime mount degrade to least-recently-written.
        c.lastUse = std::max<std::int64_t>(st.st_atim.tv_sec,
                                           st.st_mtim.tv_sec);
        total += c.bytes;
        files.push_back(std::move(c));
    }
    ::closedir(dir);

    if (total + incoming_bytes <= budgetBytes_)
        return;

    std::sort(files.begin(), files.end(),
              [](const Candidate &a, const Candidate &b) {
                  return a.lastUse < b.lastUse;
              });
    for (const Candidate &victim : files) {
        if (total + incoming_bytes <= budgetBytes_)
            break;
        // Re-stat: a concurrent reader may have healed (unlinked) it
        // already, or a publisher replaced it.
        struct stat st;
        if (::stat(victim.path.c_str(), &st) != 0)
            continue;
        if (::unlink(victim.path.c_str()) != 0)
            continue;
        total -= std::min<std::uint64_t>(
            total, static_cast<std::uint64_t>(st.st_size));
        noteGcEvicted(kind_, 1);
    }
}

std::uint64_t
envBudgetBytes(const char *env_name)
{
    const double mb = envDouble(env_name, 0.0);
    if (mb <= 0.0)
        return 0;
    return static_cast<std::uint64_t>(mb * 1024.0 * 1024.0);
}

std::uint64_t
gcEvicted(BudgetKind kind)
{
    return evicted[static_cast<unsigned>(kind)].load(
        std::memory_order_relaxed);
}

std::uint64_t
gcEvictedOnThread()
{
    return threadEvicted;
}

void
noteGcEvicted(BudgetKind kind, std::uint64_t n)
{
    evicted[static_cast<unsigned>(kind)].fetch_add(
        n, std::memory_order_relaxed);
    threadEvicted += n;
}

} // namespace bouquet
