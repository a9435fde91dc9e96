#include "campaign/queue.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/env.hh"
#include "common/faultinject.hh"
#include "common/stateio.hh"

namespace bouquet::campaign
{

namespace
{

/** Seconds since the file's last mtime update; -1 if it is gone. */
double
fileAge(const std::string &path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return -1.0;
    struct timespec now;
    ::clock_gettime(CLOCK_REALTIME, &now);
    const double age =
        static_cast<double>(now.tv_sec - st.st_mtim.tv_sec) +
        static_cast<double>(now.tv_nsec - st.st_mtim.tv_nsec) * 1e-9;
    if (age < 0.0) {
        // Clock skew: a lease stamped by a host whose clock runs ahead
        // of ours would otherwise read as "fresh" until our clock
        // catches up — a dead owner's job stuck unreclaimable for the
        // whole skew. Clamp the mtime to our now (one utimensat; after
        // it the file ages normally) and report a fresh file.
        ::utimensat(AT_FDCWD, path.c_str(), nullptr, 0);
        return 0.0;
    }
    return age;
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

/** O_EXCL create-and-fill; false when the path already exists. */
bool
createExclusive(const std::string &path, const std::string &content)
{
    const int fd =
        ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd < 0)
        return false;
    std::size_t off = 0;
    while (off < content.size()) {
        const ssize_t n =
            ::write(fd, content.data() + off, content.size() - off);
        if (n <= 0)
            break;
        off += static_cast<std::size_t>(n);
    }
    ::close(fd);
    return true;
}

/** Parse "owner=<o> ... nonce=<n>" k=v lines out of a lease file. */
bool
readLease(const std::string &path, std::string &owner,
          std::string &nonce)
{
    std::ifstream is(path);
    if (!is)
        return false;
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("owner=", 0) == 0)
            owner = line.substr(6);
        else if (line.rfind("nonce=", 0) == 0)
            nonce = line.substr(6);
    }
    return !nonce.empty();
}

/** History lines are single-line records; flatten embedded newlines. */
std::string
sanitize(std::string text)
{
    for (char &c : text) {
        if (c == '\n' || c == '\r')
            c = ' ';
    }
    return text;
}

} // namespace

QueueConfig
QueueConfig::fromEnv(std::string dir)
{
    QueueConfig cfg;
    cfg.dir = std::move(dir);
    const double ttl = envDouble("IPCP_LEASE_TTL", cfg.leaseTtl);
    if (ttl > 0.0)
        cfg.leaseTtl = ttl;
    const unsigned after =
        envUnsigned("IPCP_QUARANTINE_AFTER", cfg.quarantineAfter);
    if (after > 0)
        cfg.quarantineAfter = after;
    return cfg;
}

WorkQueue::WorkQueue(QueueConfig cfg, std::string owner)
    : cfg_(std::move(cfg)), owner_(std::move(owner))
{
}

std::string
WorkQueue::leasePath(const std::string &hash) const
{
    return cfg_.dir + "/lease-" + hash;
}

std::string
WorkQueue::attemptsPath(const std::string &hash) const
{
    return cfg_.dir + "/attempts-" + hash;
}

std::string
WorkQueue::donePath(const std::string &hash) const
{
    return cfg_.dir + "/done-" + hash;
}

std::string
WorkQueue::quarantinePath(const std::string &hash) const
{
    return cfg_.dir + "/quarantine-" + hash;
}

JobState
WorkQueue::state(const std::string &hash) const
{
    if (fileExists(quarantinePath(hash)))
        return JobState::Quarantined;
    if (fileExists(donePath(hash)))
        return JobState::Done;
    const double age = fileAge(leasePath(hash));
    if (age < 0.0)
        return JobState::Pending;
    return age <= cfg_.leaseTtl ? JobState::Leased
                                : JobState::Orphaned;
}

bool
WorkQueue::isTerminal(const std::string &hash) const
{
    return fileExists(donePath(hash)) ||
           fileExists(quarantinePath(hash));
}

bool
WorkQueue::holds(const std::string &hash, const std::string &nonce) const
{
    std::string owner;
    std::string current;
    return readLease(leasePath(hash), owner, current) &&
           current == nonce;
}

std::string
WorkQueue::freshNonce() const
{
    static std::atomic<std::uint64_t> counter{0};
    const auto ticks = std::chrono::steady_clock::now()
                           .time_since_epoch()
                           .count();
    return owner_ + "." + std::to_string(::getpid()) + "." +
           std::to_string(counter.fetch_add(1)) + "." +
           std::to_string(static_cast<std::uint64_t>(ticks));
}

void
WorkQueue::appendHistory(const std::string &hash,
                         const std::string &line) const
{
    const int fd = ::open(attemptsPath(hash).c_str(),
                          O_CREAT | O_WRONLY | O_APPEND, 0644);
    if (fd < 0)
        return;
    const std::string record = line + "\n";
    // One short O_APPEND write: atomic enough that concurrent
    // appenders never interleave within a record.
    (void)!::write(fd, record.data(), record.size());
    ::close(fd);
}

Result<Claim>
WorkQueue::tryClaim(const std::string &hash)
{
    if (auto fault = faultCheck(faults::kQueueClaim, hash))
        return *fault;
    if (isTerminal(hash))
        return Claim{};
    if (quarantineIfSpent(hash))
        return Claim{};

    const std::string lease = leasePath(hash);
    Claim claim;
    claim.nonce = freshNonce();
    const std::string content =
        "owner=" + owner_ + "\npid=" + std::to_string(::getpid()) +
        "\nnonce=" + claim.nonce + "\n";

    // A finishing owner renames its done file in before it unlinks
    // its lease, so a lease created after that unlink still finds the
    // job terminal here, and is given straight back.
    const auto hold = [&](Claim won) {
        if (isTerminal(hash)) {
            ::unlink(lease.c_str());
            return Claim{};
        }
        won.claimed = true;
        return won;
    };
    if (createExclusive(lease, content))
        return hold(claim);

    // The lease exists. Claimable only once its heartbeat expired.
    std::string prior_owner;
    std::string prior_nonce;
    if (!readLease(lease, prior_owner, prior_nonce))
        return Claim{};  // vanished or torn mid-create: next pass
    const double age = fileAge(lease);
    if (age < 0.0 || age <= cfg_.leaseTtl)
        return Claim{};

    if (auto fault = faultCheck(faults::kQueueReclaim, hash))
        return *fault;

    // Reclaim: rename to a reclaimer-unique corpse — exactly one
    // racer's rename succeeds — then verify we renamed the lease we
    // examined, not one recreated in the window since.
    const std::string corpse =
        cfg_.dir + "/rip-" + hash + "-" + claim.nonce;
    if (::rename(lease.c_str(), corpse.c_str()) != 0)
        return Claim{};  // lost the reclaim race
    std::string corpse_owner;
    std::string corpse_nonce;
    if (!readLease(corpse, corpse_owner, corpse_nonce) ||
        corpse_nonce != prior_nonce) {
        ::rename(corpse.c_str(), lease.c_str());  // give it back
        return Claim{};
    }
    ::unlink(corpse.c_str());
    // The dead owner never charged its attempt; charge it here, and
    // park the job if that was the last one the budget allowed.
    appendHistory(hash, "orphaned prior=" + prior_owner);
    recordAttempt(hash, true, prior_owner);
    if (quarantineIfSpent(hash))
        return Claim{};

    if (!createExclusive(lease, content))
        return Claim{};  // a fresh claimant slipped in; it wins
    return hold(claim);
}

Status
WorkQueue::heartbeat(const std::string &hash,
                     const std::string &nonce) const
{
    if (auto fault = faultCheck(faults::kQueueHeartbeat, hash))
        return *fault;
    if (!holds(hash, nonce))
        return makeError(Errc::lock_failed,
                         "lease " + hash + " lost (reclaimed)");
    if (::utimensat(AT_FDCWD, leasePath(hash).c_str(), nullptr, 0) != 0)
        return makeError(Errc::io,
                         "cannot renew lease " + hash, true);
    return Status();
}

void
WorkQueue::recordAttempt(const std::string &hash, bool reclaimed,
                         const std::string &prior_owner) const
{
    appendHistory(hash, reclaimed
                            ? "attempt owner=" + owner_ +
                                  " kind=reclaim prior=" + prior_owner
                            : "attempt owner=" + owner_ +
                                  " kind=claim");
}

bool
WorkQueue::chargeAttempt(const std::string &hash,
                         const std::string &nonce) const
{
    if (!holds(hash, nonce))
        return false;
    recordAttempt(hash, false, "");
    return true;
}

void
WorkQueue::recordFailure(const std::string &hash,
                         const std::string &error) const
{
    appendHistory(hash,
                  "fail owner=" + owner_ + " err=" + sanitize(error));
}

void
WorkQueue::recordResume(const std::string &hash,
                        std::uint64_t ckpt_cycle) const
{
    appendHistory(hash, "resumed owner=" + owner_ + " cycle=" +
                            std::to_string(ckpt_cycle));
}

void
WorkQueue::recordDegraded(const std::string &hash,
                          std::uint64_t store, std::uint64_t warm,
                          std::uint64_t ckpt, std::uint64_t stats,
                          std::uint64_t evicted) const
{
    appendHistory(hash, "degraded store=" + std::to_string(store) +
                            " warm=" + std::to_string(warm) +
                            " ckpt=" + std::to_string(ckpt) +
                            " stats=" + std::to_string(stats) +
                            " evicted=" + std::to_string(evicted));
}

unsigned
WorkQueue::attemptCount(const std::string &hash) const
{
    std::ifstream is(attemptsPath(hash));
    if (!is)
        return 0;
    unsigned count = 0;
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("attempt ", 0) == 0)
            ++count;
    }
    return count;
}

Status
WorkQueue::publishDone(const std::string &hash, const std::string &key,
                       const std::string &nonce,
                       const Outcome &outcome) const
{
    if (!holds(hash, nonce))
        return makeError(Errc::lock_failed,
                         "lease " + hash +
                             " lost before publish (reclaimed)");
    StateIO io = StateIO::writer();
    std::string stored_key = key;
    Outcome stored = outcome;
    io.io(stored_key);
    io.io(stored);
    if (Status s = publishContainer(donePath(hash), fnv1a(key),
                                    io.takeBuffer());
        !s.ok())
        return s;
    // Done is in place before the lease goes (see tryClaim).
    ::unlink(leasePath(hash).c_str());
    return Status();
}

Result<Outcome>
WorkQueue::readDone(const std::string &hash,
                    const std::string &key) const
{
    Result<std::vector<std::uint8_t>> payload =
        readContainer(donePath(hash), fnv1a(key));
    if (!payload.ok())
        return payload.error();
    try {
        StateIO io = StateIO::reader(payload.take());
        std::string stored_key;
        Outcome outcome;
        io.io(stored_key);
        io.io(outcome);
        io.expectEnd();
        if (stored_key != key)
            return makeError(Errc::corrupt,
                             donePath(hash) + " holds another key");
        return outcome;
    } catch (const ErrorException &e) {
        return e.error();
    }
}

void
WorkQueue::quarantine(const std::string &hash,
                      const std::string &reason) const
{
    appendHistory(hash, "quarantine reason=" + sanitize(reason));
    // Atomic park: the whole history (this reason included) becomes
    // the quarantine marker in one rename.
    ::rename(attemptsPath(hash).c_str(),
             quarantinePath(hash).c_str());
}

bool
WorkQueue::quarantineIfSpent(const std::string &hash) const
{
    if (attemptCount(hash) < cfg_.quarantineAfter)
        return false;
    quarantine(hash, "attempt budget exhausted (" +
                         std::to_string(cfg_.quarantineAfter) +
                         " started attempts)");
    return true;
}

void
WorkQueue::release(const std::string &hash,
                   const std::string &nonce) const
{
    if (holds(hash, nonce))
        ::unlink(leasePath(hash).c_str());
}

QueueCounts
WorkQueue::scan(const std::vector<std::string> &hashes) const
{
    QueueCounts counts;
    for (const std::string &hash : hashes) {
        switch (state(hash)) {
        case JobState::Pending: ++counts.pending; break;
        case JobState::Leased: ++counts.leased; break;
        case JobState::Orphaned: ++counts.orphaned; break;
        case JobState::Done:
            ++counts.done;
            // A crash between publishing done and dropping the lease
            // leaves a stale lease beside the marker; reap it.
            if (fileExists(leasePath(hash)))
                ::unlink(leasePath(hash).c_str());
            break;
        case JobState::Quarantined:
            ++counts.quarantined;
            // Symmetric with Done: quarantine can race a heartbeating
            // owner, whose lease is then litter beside the marker.
            if (fileAge(leasePath(hash)) > cfg_.leaseTtl)
                ::unlink(leasePath(hash).c_str());
            break;
        }
    }

    // Reap litter left by crashed processes. The opendir can itself
    // fail under resource exhaustion (EMFILE, ENOMEM); that only
    // defers the sweep to the next scan — a degraded pass, never an
    // error. Two families:
    //  - rip-* reclaim corpses (a reclaimer crashed between its
    //    rename and unlink; the job reads as pending, so the corpse
    //    is pure litter once its lease would have expired);
    //  - pulse-* progress beacons whose worker stopped beating (the
    //    worker died; the supervisor reads pulses by pid, so an old
    //    beacon is never consulted again);
    //  - hidden publish temps (`.done-<hash>.tmp.<pid>` from
    //    publishFile, `.tmp-done-*` from older workers) left by a
    //    worker killed mid-publish; a live publish renames its temp
    //    away long before 2×TTL.
    if (DIR *dir = ::opendir(cfg_.dir.c_str()); dir != nullptr) {
        while (const dirent *entry = ::readdir(dir)) {
            const std::string name = entry->d_name;
            const bool publish_temp =
                name[0] == '.' && name.find(".tmp") != std::string::npos;
            if (name.rfind("rip-", 0) != 0 &&
                name.rfind("pulse-", 0) != 0 && !publish_temp)
                continue;
            const std::string path = cfg_.dir + "/" + name;
            if (fileAge(path) > 2.0 * cfg_.leaseTtl)
                ::unlink(path.c_str());
        }
        ::closedir(dir);
    }
    return counts;
}

std::string
WorkQueue::pulsePath(const std::string &owner) const
{
    return cfg_.dir + "/pulse-" + owner;
}

void
WorkQueue::writePulse(std::uint64_t epoch,
                      const std::string &job_hash) const
{
    const std::string path = pulsePath(owner_);
    const std::string tmp = path + ".tmp";
    ::unlink(tmp.c_str());
    if (!createExclusive(tmp, "epoch=" + std::to_string(epoch) +
                                  "\nhash=" + job_hash + "\n"))
        return;  // best effort: a missed pulse is one beat of slack
    if (::rename(tmp.c_str(), path.c_str()) != 0)
        ::unlink(tmp.c_str());
}

bool
WorkQueue::readPulse(const std::string &owner, std::uint64_t &epoch,
                     std::string &job_hash) const
{
    std::ifstream is(pulsePath(owner));
    if (!is)
        return false;
    bool have_epoch = false;
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("epoch=", 0) == 0) {
            // A torn pulse (killed mid-rename fallback) must not read
            // as epoch 0 — that would look like a frozen simulation
            // to the stall watchdog. Malformed = no pulse.
            have_epoch = parseU64(line.c_str() + 6, epoch);
        } else if (line.rfind("hash=", 0) == 0) {
            job_hash = line.substr(5);
        }
    }
    return have_epoch;
}

std::vector<std::string>
WorkQueue::history(const std::string &hash) const
{
    std::vector<std::string> lines;
    std::ifstream is(quarantinePath(hash));
    if (!is)
        is.open(attemptsPath(hash));
    std::string line;
    while (is && std::getline(is, line))
        lines.push_back(line);
    return lines;
}

} // namespace bouquet::campaign
