/**
 * @file
 * google-benchmark microbenchmarks: per-operation cost of each
 * prefetcher's training/issue hook. Not a paper artifact — this checks
 * that the modeled structures stay cheap enough for the simulator's
 * per-access hot path (and gives a relative complexity ranking that
 * mirrors the paper's "tiny vs monolithic" argument).
 */

#include <benchmark/benchmark.h>

#include "common/rng.hh"
#include "ipcp/ipcp_l1.hh"
#include "ipcp/ipcp_l2.hh"
#include "prefetch/bingo.hh"
#include "prefetch/bop.hh"
#include "prefetch/mlop.hh"
#include "prefetch/ppf.hh"
#include "prefetch/simple.hh"
#include "prefetch/spp.hh"
#include "prefetch/tskid.hh"
#include "tests/test_support.hh"

namespace
{

using namespace bouquet;

/** Drive `operate` with a mixed strided/random access pattern. */
void
driveOperate(benchmark::State &state, Prefetcher &pf)
{
    test::FakeHost host;
    host.capacity = 0;  // measure training cost, not vector pushes
    pf.setHost(&host);
    Rng rng(42);
    Addr stride_cursor = 0x10000000;
    std::uint64_t i = 0;
    for (auto _ : state) {
        Addr addr;
        if ((i & 3) != 3) {
            stride_cursor += 3 * kLineSize;
            addr = stride_cursor;
        } else {
            addr = 0x40000000 + rng.below(1 << 28);
        }
        pf.operate(addr, 0x401000 + (i % 64) * 4, (i & 1) != 0,
                   AccessType::Load, 0);
        ++i;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(i));
}

void BM_IpcpL1(benchmark::State &state)
{
    IpcpL1 pf;
    driveOperate(state, pf);
}
BENCHMARK(BM_IpcpL1);

void BM_IpcpL2(benchmark::State &state)
{
    IpcpL2 pf;
    driveOperate(state, pf);
}
BENCHMARK(BM_IpcpL2);

void BM_NextLine(benchmark::State &state)
{
    NextLinePrefetcher pf;
    driveOperate(state, pf);
}
BENCHMARK(BM_NextLine);

void BM_IpStride(benchmark::State &state)
{
    IpStridePrefetcher pf;
    driveOperate(state, pf);
}
BENCHMARK(BM_IpStride);

void BM_Stream(benchmark::State &state)
{
    StreamPrefetcher pf;
    driveOperate(state, pf);
}
BENCHMARK(BM_Stream);

void BM_Bop(benchmark::State &state)
{
    BopPrefetcher pf;
    driveOperate(state, pf);
}
BENCHMARK(BM_Bop);

void BM_Spp(benchmark::State &state)
{
    SppPrefetcher pf;
    driveOperate(state, pf);
}
BENCHMARK(BM_Spp);

void BM_SppPpf(benchmark::State &state)
{
    PpfPrefetcher pf;
    driveOperate(state, pf);
}
BENCHMARK(BM_SppPpf);

void BM_Mlop(benchmark::State &state)
{
    MlopPrefetcher pf;
    driveOperate(state, pf);
}
BENCHMARK(BM_Mlop);

void BM_Bingo(benchmark::State &state)
{
    BingoPrefetcher pf;
    driveOperate(state, pf);
}
BENCHMARK(BM_Bingo);

void BM_Tskid(benchmark::State &state)
{
    TskidPrefetcher pf;
    driveOperate(state, pf);
}
BENCHMARK(BM_Tskid);

} // namespace

BENCHMARK_MAIN();
