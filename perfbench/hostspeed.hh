/**
 * @file
 * Host-speed reference. The benchmark host is shared: over a few
 * minutes the same simulation job took anywhere from 0.09 s to 0.19 s
 * as co-tenants came and went, which no amount of work per run can
 * average away. A fixed calibration kernel, interleaved with the
 * measured work, sees the same slowdowns: the ratio of job time to
 * kernel time over 10-second windows varied 4-6% where job time
 * alone varied 23% (README.md, "Host noise").
 *
 * The kernel is a set-associative LRU cache model over a pseudo-random
 * address stream: integer work, short data-dependent branches and a
 * 576 KB table, like the simulator's own tag lookups. It is part of the
 * benchmark, not of the program, so no change to the program moves it.
 */

#ifndef PERFBENCH_HOSTSPEED_HH
#define PERFBENCH_HOSTSPEED_HH

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench
{

/**
 * Kernel time, in ms, that defines a reference second: a time-based
 * metric measured while the kernel takes `calib_ms` is reported as if
 * the host ran at the speed at which it takes kReferenceMs.
 */
inline constexpr double kReferenceMs = 10.0;

/** `host_s` seconds measured at kernel time `calib_ms`, in reference s. */
inline double
referenceSeconds(double host_s, double calib_ms)
{
    return host_s * kReferenceMs / calib_ms;
}

class HostSpeed
{
  public:
    HostSpeed() : tags_(kSets * kWays, ~0ull), age_(kSets * kWays)
    {
        for (std::size_t i = 0; i < age_.size(); ++i)
            age_[i] = static_cast<std::uint8_t>(i % kWays);
    }

    /** Run the kernel once; its wall time in milliseconds. */
    double
    sampleMs()
    {
        const auto t0 = std::chrono::steady_clock::now();
        std::uint64_t x = 0x9e3779b97f4a7c15ull;
        for (unsigned i = 0; i < kIterations; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Alternate a cache-friendly and a thrashing footprint.
            const std::uint64_t span = (i & 1023) < 512 ? 40'000 : 400'000;
            access(x % span);
        }
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    }

  private:
    static constexpr unsigned kSets = 4096;
    static constexpr unsigned kWays = 16;
    static constexpr unsigned kIterations = 120'000;

    void
    access(std::uint64_t line)
    {
        std::uint64_t *tag = &tags_[(line % kSets) * kWays];
        std::uint8_t *age = &age_[(line % kSets) * kWays];
        const std::uint64_t t = line / kSets;
        unsigned way = kWays;
        for (unsigned w = 0; w < kWays; ++w)
            if (tag[w] == t) {
                way = w;
                break;
            }
        if (way == kWays) {
            way = 0;
            for (unsigned w = 1; w < kWays; ++w)
                if (age[w] < age[way])
                    way = w;
            tag[way] = t;
        }
        const std::uint8_t old = age[way];
        for (unsigned w = 0; w < kWays; ++w)
            if (age[w] > old)
                --age[w];
        age[way] = kWays - 1;
    }

    std::vector<std::uint64_t> tags_;
    std::vector<std::uint8_t> age_;
};

} // namespace perfbench

#endif // PERFBENCH_HOSTSPEED_HH
