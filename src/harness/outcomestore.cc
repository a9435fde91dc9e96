#include "harness/outcomestore.hh"

#include <cstdio>
#include <cstdlib>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/degrade.hh"
#include "common/faultinject.hh"
#include "common/stateio.hh"

namespace bouquet
{

namespace
{

constexpr std::uint64_t kMagic = 0x4950'4350'4341'4348ull;  // "IPCPCACH"
constexpr std::uint32_t kMaxKeyLen = 4096;

std::uint64_t
fnv1a(const void *data, std::size_t n,
      std::uint64_t h = 14695981039346656037ull)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t
recordChecksum(const std::string &key, const Outcome &o)
{
    return fnv1a(&o, sizeof(Outcome), fnv1a(key.data(), key.size()));
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
 * Serialize one cross-process critical section on the cache file.
 * Failure to take the lock is survivable — the atomic rename in
 * mergeAndPersistLocked() still gives readers a complete file — so
 * the constructor never throws; callers consult locked().
 */
class FileLock
{
  public:
    explicit FileLock(const std::string &path)
    {
        if (faultCheck(faults::kStoreFlock, path))
            return;  // injected lock failure: proceed unlocked
        fd_ = ::open((path + ".lock").c_str(), O_CREAT | O_RDWR, 0644);
        if (fd_ >= 0 && ::flock(fd_, LOCK_EX) == 0)
            locked_ = true;
    }

    ~FileLock()
    {
        if (locked_)
            ::flock(fd_, LOCK_UN);
        if (fd_ >= 0)
            ::close(fd_);
    }

    FileLock(const FileLock &) = delete;
    FileLock &operator=(const FileLock &) = delete;

    bool locked() const { return locked_; }

  private:
    int fd_ = -1;
    bool locked_ = false;
};

} // namespace

OutcomeStore::OutcomeStore(std::string path) : path_(std::move(path))
{
    if (path_.empty())
        return;
    if (fileBytes(path_) == 0)
        evictEmptyFile();
    cache_ = readDisk(&corrupt_);
}

void
OutcomeStore::evictEmptyFile()
{
    // A zero-byte store is a writer that crashed before its first
    // write ever reached the atomic-rename publish: nothing was lost,
    // so heal by removing it rather than reporting corruption. The
    // size is re-checked under the lock so a concurrent writer's
    // just-renamed complete file is never the one unlinked.
    FileLock lock(path_);
    if (fileBytes(path_) == 0)
        ::unlink(path_.c_str());
}

std::map<std::string, Outcome>
OutcomeStore::readDisk(std::size_t *corrupt) const
{
    std::map<std::string, Outcome> entries;
    if (faultCheck(faults::kStoreRead, path_))
        return entries;  // injected read failure: treat as no cache
    std::FILE *f = std::fopen(path_.c_str(), "rb");
    if (f == nullptr)
        return entries;

    auto reject = [&](std::size_t n) {
        if (corrupt != nullptr)
            *corrupt += n;
        std::fclose(f);
        return entries;
    };

    std::uint64_t magic = 0;
    std::uint32_t version = 0;
    std::uint32_t record_bytes = 0;
    if (std::fread(&magic, sizeof(magic), 1, f) != 1) {
        // Zero bytes readable: an empty file is a miss, not corruption
        // (see evictEmptyFile); anything else short is a torn header.
        if (std::feof(f) != 0 && std::ftell(f) == 0) {
            std::fclose(f);
            return entries;
        }
        return reject(1);
    }
    if (std::fread(&version, sizeof(version), 1, f) != 1 ||
        std::fread(&record_bytes, sizeof(record_bytes), 1, f) != 1 ||
        magic != kMagic || version != kFormatVersion ||
        record_bytes != sizeof(Outcome)) {
        // Wrong magic, stale format version, or mismatched record
        // layout: nothing in the file can be trusted.
        return reject(1);
    }

    for (;;) {
        std::uint32_t len = 0;
        const std::size_t got = std::fread(&len, sizeof(len), 1, f);
        if (got != 1)
            break;  // clean EOF (or short header of a torn record)
        if (len == 0 || len > kMaxKeyLen)
            return reject(1);
        std::string key(len, '\0');
        Outcome o;
        std::uint64_t checksum = 0;
        if (std::fread(key.data(), 1, len, f) != len ||
            std::fread(&o, sizeof(Outcome), 1, f) != 1 ||
            std::fread(&checksum, sizeof(checksum), 1, f) != 1)
            return reject(1);  // short record: file was truncated
        if (checksum != recordChecksum(key, o))
            return reject(1);  // bit rot / interleaved write
        entries[key] = o;
    }
    std::fclose(f);
    return entries;
}

Status
OutcomeStore::mergeAndPersistLocked()
{
    FileLock lock(path_);
    if (!lock.locked())
        ++lockFailures_;  // caller holds mutex_

    // Pick up entries other processes completed since our last read so
    // the rewrite below never drops them.
    for (auto &[key, outcome] : readDisk(nullptr))
        cache_.emplace(key, outcome);

    if (auto fault = faultCheck(faults::kStoreWrite, path_))
        return *fault;
    if (faultCheck(faults::kStoreNospace, path_))
        return makeError(Errc::no_space,
                         "injected ENOSPC writing " + path_, true);

    const auto append = [](std::string &out, const void *p,
                           std::size_t n) {
        out.append(static_cast<const char *>(p), n);
    };
    const std::uint32_t version = kFormatVersion;
    const std::uint32_t record_bytes = sizeof(Outcome);
    std::string image;
    append(image, &kMagic, sizeof(kMagic));
    append(image, &version, sizeof(version));
    append(image, &record_bytes, sizeof(record_bytes));
    for (const auto &[key, outcome] : cache_) {
        const auto len = static_cast<std::uint32_t>(key.size());
        const std::uint64_t checksum = recordChecksum(key, outcome);
        append(image, &len, sizeof(len));
        append(image, key.data(), len);
        append(image, &outcome, sizeof(Outcome));
        append(image, &checksum, sizeof(checksum));
    }
    return publishFile(path_, image);
}

bool
OutcomeStore::get(const std::string &key, Outcome &out)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = cache_.find(key);
    if (it == cache_.end() && !path_.empty()) {
        // Memory miss: a concurrent process may have completed this
        // entry — re-read the (small) file rather than re-simulate.
        for (auto &[k, o] : readDisk(nullptr))
            cache_.emplace(k, o);
        it = cache_.find(key);
    }
    if (it == cache_.end())
        return false;
    out = it->second;
    return true;
}

Status
OutcomeStore::put(const std::string &key, const Outcome &out)
{
    std::lock_guard<std::mutex> lock(mutex_);
    cache_[key] = out;
    if (path_.empty())
        return Status();
    // On failure the entry stays in cache_, so the next successful
    // persist (which rewrites the whole store) recovers it. The
    // degradation ledger counts it so campaigns can report how much
    // of the cache went non-durable.
    Status st = mergeAndPersistLocked();
    if (!st.ok())
        noteDegraded(DegradeKind::store, st.error());
    return st;
}

std::size_t
OutcomeStore::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return cache_.size();
}

std::size_t
OutcomeStore::lockFailures() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lockFailures_;
}

} // namespace bouquet
