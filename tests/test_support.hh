/**
 * @file
 * Shared test fixtures: a per-process-unique scratch directory, a
 * fake prefetch host that records issued prefetches, and a stub memory
 * that services cache requests after a fixed delay.
 */

#ifndef BOUQUET_TESTS_TEST_SUPPORT_HH
#define BOUQUET_TESTS_TEST_SUPPORT_HH

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/types.hh"
#include "mem/request.hh"
#include "prefetch/prefetcher.hh"

namespace bouquet::test
{

/**
 * RAII scratch directory, unique to this instance and process, removed
 * with its contents on destruction. ctest runs every test as its own
 * process, in parallel under `-j`, so a fixed file name under the
 * system temp directory would be shared by concurrent tests.
 */
struct TempDir
{
    TempDir()
    {
        std::string pattern =
            (std::filesystem::temp_directory_path() / "bouquet_XXXXXX")
                .string();
        if (::mkdtemp(pattern.data()) != nullptr)
            path = pattern;
    }

    ~TempDir()
    {
        if (!path.empty())
            std::filesystem::remove_all(path);
    }

    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    std::string
    file(const std::string &name) const
    {
        return path + "/" + name;
    }

    std::string path;
};

/** Records every prefetch a prefetcher under test issues. */
class FakeHost : public PrefetchHost
{
  public:
    struct Issued
    {
        Addr addr;
        CacheLevel fillLevel;
        std::uint32_t metadata;
        std::uint8_t pfClass;
    };

    explicit FakeHost(CacheLevel level = CacheLevel::L1D)
        : level_(level)
    {}

    bool
    issuePrefetch(Addr byte_addr, CacheLevel fill_level,
                  std::uint32_t metadata, std::uint8_t pf_class) override
    {
        if (issued.size() >= capacity)
            return false;
        issued.push_back({byte_addr, fill_level, metadata, pf_class});
        return true;
    }

    CacheLevel level() const override { return level_; }
    Cycle now() const override { return now_; }
    std::uint64_t demandMisses() const override { return misses; }
    std::uint64_t retiredInstructions() const override { return instrs; }

    /** True iff some issued prefetch targets this line address. */
    bool
    issuedLine(LineAddr line) const
    {
        for (const Issued &i : issued) {
            if (lineAddr(i.addr) == line)
                return true;
        }
        return false;
    }

    void clear() { issued.clear(); }

    std::vector<Issued> issued;
    std::size_t capacity = 1'000'000;  //!< shrink to emulate a full PQ
    std::uint64_t misses = 0;
    std::uint64_t instrs = 0;
    Cycle now_ = 0;

  private:
    CacheLevel level_;
};

/** A ReqSink that answers every read after a fixed delay. */
class StubMemory : public ReqSink, public Clocked
{
  public:
    explicit StubMemory(Cycle latency = 50) : latency_(latency) {}

    bool
    acceptRequest(const MemRequest &req) override
    {
        ++requests;
        if (req.type == AccessType::Writeback) {
            ++writebacks;
            return true;
        }
        pending_.push_back({req, now_ + latency_});
        return true;
    }

    void
    tick(Cycle cycle) override
    {
        now_ = cycle;
        for (std::size_t i = 0; i < pending_.size();) {
            if (pending_[i].ready <= now_) {
                MemRequest req = pending_[i].req;
                pending_[i] = pending_.back();
                pending_.pop_back();
                if (req.requester != nullptr)
                    req.requester->onResponse(req);
            } else {
                ++i;
            }
        }
    }

    std::size_t inflight() const { return pending_.size(); }

    std::uint64_t requests = 0;
    std::uint64_t writebacks = 0;

  private:
    struct Pending
    {
        MemRequest req;
        Cycle ready;
    };

    Cycle latency_;
    Cycle now_ = 0;
    std::vector<Pending> pending_;
};

/** Collects responses addressed to a test "core". */
class CaptureTarget : public RespTarget
{
  public:
    void
    onResponse(const MemRequest &req) override
    {
        responses.push_back(req);
    }

    bool
    sawId(std::uint64_t id) const
    {
        for (const MemRequest &r : responses) {
            if (r.id == id)
                return true;
        }
        return false;
    }

    std::vector<MemRequest> responses;
};

} // namespace bouquet::test

#endif // BOUQUET_TESTS_TEST_SUPPORT_HH
