#include "harness/warmstore.hh"

#include <cstdio>
#include <cstdlib>

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/degrade.hh"
#include "common/faultinject.hh"
#include "common/stateio.hh"
#include "common/statsink.hh"
#include "harness/experiment.hh"
#include "trace/suite.hh"

namespace bouquet
{

namespace
{

std::mutex &
storesMutex()
{
    static std::mutex mutex;
    return mutex;
}

std::map<std::string, std::unique_ptr<WarmStore>> &
stores()
{
    static std::map<std::string, std::unique_ptr<WarmStore>> map;
    return map;
}

/** Sum one WarmStore counter across every store opened so far. */
std::uint64_t
sumStores(std::uint64_t (WarmStore::*counter)() const)
{
    std::lock_guard<std::mutex> lock(storesMutex());
    std::uint64_t total = 0;
    for (const auto &[dir, store] : stores())
        total += (*store.*counter)();
    return total;
}

/** File size, or -1 when it cannot be stat'ed. */
long
fileBytes(const std::string &path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return -1;
    return static_cast<long>(st.st_size);
}

/**
 * Remove the per-key `warm-<hex>.ckpt.lock` sidecars that builds
 * before the one store lock left beside their warm files; nothing
 * else would ever delete them.
 */
void
removeKeyLockSidecars(const std::string &dir)
{
    DIR *d = ::opendir(dir.c_str());
    if (d == nullptr)
        return;
    const std::string suffix = ".ckpt.lock";
    while (const dirent *entry = ::readdir(d)) {
        const std::string name = entry->d_name;
        if (name.rfind("warm-", 0) == 0 && name.size() > suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
}

} // namespace

/**
 * The store's critical section for heals, the one operation that
 * unlinks: lockMutex_ within the process, flock on the directory's one
 * lock file across processes. Publishes write outside it (their
 * tmp+rename is atomic), so a heal can at worst remove a
 * just-published complete file, costing a re-publish, not
 * correctness; the same holds when the lock file could not be opened
 * or flocked.
 */
class WarmStore::Lock
{
  public:
    explicit Lock(WarmStore &store) : guard_(store.lockMutex_)
    {
        if (store.lockFd_ >= 0 && ::flock(store.lockFd_, LOCK_EX) == 0)
            fd_ = store.lockFd_;
    }

    ~Lock()
    {
        if (fd_ >= 0)
            ::flock(fd_, LOCK_UN);
    }

    Lock(const Lock &) = delete;
    Lock &operator=(const Lock &) = delete;

  private:
    std::lock_guard<std::mutex> guard_;
    int fd_ = -1;
};

std::string
warmupKey(const std::vector<TraceSpec> &specs,
          const std::string &attach_label, std::uint64_t warmup_instrs,
          const SystemConfig &sys)
{
    std::string key = "warm1|";
    for (const TraceSpec &s : specs) {
        char spec[64];
        std::snprintf(spec, sizeof(spec), "#%llu@%.6f,",
                      static_cast<unsigned long long>(s.seed),
                      s.intensity);
        key += s.name;
        key += spec;
    }
    key += "|";
    key += attach_label;
    char tail[96];
    std::snprintf(tail, sizeof(tail), "|w%llu|n%zu|f%u|s%llu|",
                  static_cast<unsigned long long>(warmup_instrs),
                  specs.size(), sys.frameBits,
                  static_cast<unsigned long long>(sys.seed));
    key += tail;
    key += systemFingerprint(sys);
    return key;
}

WarmStore::WarmStore(std::string dir) : dir_(std::move(dir))
{
    // publishFile writes into dir_ and does not create it. Best
    // effort: without the directory every fetch misses and every
    // publish warns.
    (void)ensureDir(dir_);
    lockFd_ = ::open((dir_ + "/" + kLockFile).c_str(),
                     O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    removeKeyLockSidecars(dir_);
}

WarmStore::~WarmStore()
{
    if (lockFd_ >= 0)
        ::close(lockFd_);
}

std::string
WarmStore::pathFor(const std::string &key) const
{
    return dir_ + "/warm-" + keyHash(key) + ".ckpt";
}

void
WarmStore::remember(const std::string &key, std::uint64_t config_hash,
                    Payload payload)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (mem_.size() >= kMemEntries && mem_.find(key) == mem_.end())
        return;  // beyond the cap the disk still serves
    mem_[key] = Entry{config_hash, std::move(payload)};
}

WarmStore::Payload
WarmStore::fetch(const std::string &key, std::uint64_t config_hash)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = mem_.find(key);
        if (it != mem_.end() && it->second.configHash == config_hash) {
            hits_.fetch_add(1);
            return it->second.payload;
        }
    }

    const std::string path = pathFor(key);
    Result<std::vector<std::uint8_t>> r =
        readCheckpointFile(path, config_hash);
    if (!r.ok() && r.error().code != Errc::io) {
        // Unusable bytes under the warm path (truncated publish the
        // atomic rename never covered, stale format version, foreign
        // config): heal by unlinking so the next run publishes fresh.
        // Revalidated under the store lock so a concurrent
        // publisher's just-renamed complete file is not the one
        // removed.
        Lock lock(*this);
        r = readCheckpointFile(path, config_hash);
        if (!r.ok()) {
            if (r.error().code != Errc::io) {
                ::unlink(path.c_str());
                heals_.fetch_add(1);
            }
            misses_.fetch_add(1);
            return nullptr;
        }
    }
    if (!r.ok()) {
        misses_.fetch_add(1);  // no file yet: the common first-run miss
        return nullptr;
    }

    auto payload = std::make_shared<const std::vector<std::uint8_t>>(
        std::move(r.value()));
    remember(key, config_hash, payload);
    hits_.fetch_add(1);
    return payload;
}

void
WarmStore::discard(const std::string &key, std::uint64_t config_hash,
                   const Payload &payload)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = mem_.find(key);
        if (it != mem_.end() && it->second.payload == payload)
            mem_.erase(it);
    }
    // Revalidated under the store lock, as fetch() heals: a file
    // another process has since replaced is not the one removed.
    const std::string path = pathFor(key);
    Lock lock(*this);
    Result<std::vector<std::uint8_t>> r =
        readCheckpointFile(path, config_hash);
    if (r.ok() && r.value() == *payload) {
        ::unlink(path.c_str());
        heals_.fetch_add(1);
    }
}

Status
WarmStore::publish(const std::string &key, std::uint64_t config_hash,
                   std::vector<std::uint8_t> payload)
{
    return publish(key, config_hash,
                   std::make_shared<const std::vector<std::uint8_t>>(
                       std::move(payload)));
}

Status
WarmStore::publish(const std::string &key, std::uint64_t config_hash,
                   Payload shared)
{
    remember(key, config_hash, shared);
    publishes_.fetch_add(1);

    const std::string path = pathFor(key);
    if (fileBytes(path) > 0)
        return Status();  // racing publisher already wrote these bytes
    {
        // publishFile's temp name is unique per process, not per
        // thread: one thread here writes a key, and a racing thread
        // leaves it to that one, which writes the same bytes.
        std::lock_guard<std::mutex> lock(mutex_);
        if (!writing_.insert(key).second)
            return Status();
    }
    // The rename replaces a zero-byte crash residue, and both fsyncs
    // run outside every lock, in parallel with other publishes.
    Status st = Status();
    if (faultCheck(faults::kWarmNospace, path))
        st = Status(makeError(Errc::no_space,
                              "injected ENOSPC writing " + path,
                              true));
    else
        st = writeCheckpointFile(path, config_hash, *shared);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        writing_.erase(key);
    }
    if (!st.ok())
        noteDegraded(DegradeKind::warm, st.error());
    return st;
}

WarmStore &
warmStoreFor(const std::string &dir)
{
    std::lock_guard<std::mutex> lock(storesMutex());
    auto &slot = stores()[dir];
    if (!slot)
        slot = std::make_unique<WarmStore>(dir);
    return *slot;
}

StatRegistry &
harnessCacheStats()
{
    static StatRegistry *reg = [] {
        auto *r = new StatRegistry();
        r->addCounter("campaign.warm.hit",
                      [] { return sumStores(&WarmStore::hits); });
        r->addCounter("campaign.warm.miss",
                      [] { return sumStores(&WarmStore::misses); });
        r->addCounter("campaign.warm.publish",
                      [] { return sumStores(&WarmStore::publishes); });
        r->addCounter("campaign.warm.heal",
                      [] { return sumStores(&WarmStore::heals); });
        r->addCounter("ipcp.degraded.store.writes", [] {
            return degradedCount(DegradeKind::store);
        });
        r->addCounter("ipcp.degraded.warm.writes", [] {
            return degradedCount(DegradeKind::warm);
        });
        r->addCounter("ipcp.degraded.ckpt.writes", [] {
            return degradedCount(DegradeKind::ckpt);
        });
        r->addCounter("ipcp.degraded.stats.writes", [] {
            return degradedCount(DegradeKind::stats);
        });
        return r;
    }();
    return *reg;
}

} // namespace bouquet
