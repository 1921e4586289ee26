/**
 * @file
 * Tests for the streaming replay path: the memo-key content hash
 * (golden values, stability, discrimination), the steady-state
 * allocation budget of the replay loop, and the memory shape of
 * recording, which must never hold a whole trace.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <vector>

#include "core/builder.hh"
#include "sim/core.hh"
#include "telemetry/counters.hh"
#include "trace/generator.hh"
#include "trace/genome.hh"

// ---------------------------------------------------------------------
// Counting global allocator: while auditing is armed, every operator
// new in the binary bumps the counter and raises the largest-block
// watermark. malloc-backed so behaviour is otherwise unchanged.
namespace {

std::atomic<bool> g_audit{false};
std::atomic<uint64_t> g_allocs{0};
std::atomic<size_t> g_largest{0};

void *
countedAlloc(std::size_t n)
{
    if (g_audit.load(std::memory_order_relaxed)) {
        g_allocs.fetch_add(1, std::memory_order_relaxed);
        size_t seen = g_largest.load(std::memory_order_relaxed);
        while (n > seen &&
               !g_largest.compare_exchange_weak(
                   seen, n, std::memory_order_relaxed))
        {}
    }
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

using namespace psca;

namespace {

const std::string &
memoDir()
{
    static const std::string dir =
        (std::filesystem::temp_directory_path() / "psca_replay_test")
            .string();
    return dir;
}

/**
 * Pin the memo cache root before anything touches the SimMemo
 * singleton (its directory is latched at first use), and start cold
 * so recording really simulates.
 */
class MemoDirEnv : public ::testing::Environment
{
  public:
    void
    SetUp() override
    {
        std::filesystem::remove_all(memoDir());
        setenv("PSCA_CACHE_DIR", memoDir().c_str(), 1);
    }
};

const auto *const g_env =
    ::testing::AddGlobalTestEnvironment(new MemoDirEnv);

Workload
categoryWorkload(AppCategory cat, uint64_t seed, uint64_t len)
{
    Workload w;
    w.genome = sampleGenome(cat, seed);
    w.inputSeed = 1;
    w.lengthInstr = len;
    w.name = w.genome.name;
    return w;
}

} // namespace

TEST(TraceContentHash, GoldenValues)
{
    // The memo key names the simmemo_* cache files, so changing the
    // hash orphans every memo entry already on disk. These constants
    // pin it to the value every earlier build computed.
    struct Case
    {
        AppCategory cat;
        uint64_t seed;
        uint64_t n;
        uint64_t hash;
    };
    const Case cases[] = {
        {AppCategory::HpcPerf, 11, 60000, 0xc42e5ab7b11d6a1dULL},
        {AppCategory::CloudSecurity, 5, 123457, 0xd2881a29c6ad06c7ULL},
        {AppCategory::GamesRendering, 42, 250000,
         0xccbdc86a93c7bce0ULL},
    };
    for (const Case &c : cases) {
        const Workload w = categoryWorkload(c.cat, c.seed, 1 << 22);
        EXPECT_EQ(traceContentHash(w, c.n), c.hash)
            << w.name << " n=" << c.n;
    }
}

TEST(TraceContentHash, StableAndDiscriminating)
{
    const Workload w =
        categoryWorkload(AppCategory::AiAnalytics, 3, 1 << 20);
    const uint64_t a = traceContentHash(w, 30000);
    EXPECT_EQ(traceContentHash(w, 30000), a);

    Workload other = w;
    other.inputSeed = 2;
    EXPECT_NE(traceContentHash(other, 30000), a);

    // Length matters too.
    EXPECT_NE(traceContentHash(w, 29999), a);
}

TEST(StreamingReplay, SteadyStateReplayAllocationBudget)
{
    // The reserve() audit: after warmup, replay may not allocate per
    // interval (single-phase kernel, so the generator reaches steady
    // state).
    AppGenome g;
    g.name = "alloc_audit";
    g.seed = 7;
    PhaseSpec p;
    p.kernel = {.kind = KernelKind::Stream,
                .workingSetBytes = 1 << 20, .computePerElem = 2};
    p.meanLenInstr = 1e9;
    g.phases = {p};
    Workload w;
    w.genome = g;
    w.inputSeed = 1;
    w.lengthInstr = 1 << 22;
    w.name = "alloc_audit";

    ClusteredCore core;
    core.reset();
    TraceGenerator gen(w);
    for (int t = 0; t < 3; ++t)
        core.run(gen, 10000); // warm: buffers reach final capacity

    g_allocs.store(0);
    g_audit.store(true);
    for (int t = 0; t < 10; ++t)
        core.run(gen, 10000);
    g_audit.store(false);
    EXPECT_LE(g_allocs.load(), 16u)
        << "streaming replay allocates in steady state";
}

TEST(StreamingReplay, RecordingNeverHoldsTheTrace)
{
    // Recording streams every pass from the generator, so its memory
    // does not grow with trace length. The largest block it may
    // allocate is the timing model's own fixed state: with the
    // default geometry that is one of the LLC's 512 KiB tag and
    // recency arrays. A buffer of the whole 450k-uop stream would be
    // several MiB.
    constexpr size_t kMiB = size_t{1} << 20;
    BuildConfig cfg;
    cfg.counterIds = {
        CounterRegistry::index(Ctr::InstRetired),
        CounterRegistry::index(Ctr::L1dMiss),
        CounterRegistry::index(Ctr::BranchMispred),
    };
    const Workload w =
        categoryWorkload(AppCategory::HpcPerf, 13, 400000);

    g_largest.store(0);
    g_audit.store(true);
    { ClusteredCore core(cfg.core); }
    g_audit.store(false);
    const size_t model_largest = g_largest.load();
    EXPECT_LE(model_largest, kMiB);

    g_largest.store(0);
    g_audit.store(true);
    const TraceRecord record = recordTrace(w, cfg, 0, 0);
    g_audit.store(false);
    EXPECT_EQ(record.numIntervals(), 40u);
    EXPECT_LE(g_largest.load(), model_largest)
        << "recording allocated a block larger than the core model";
}
