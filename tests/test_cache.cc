/**
 * @file
 * Tests for caches, TLBs, MSHR accounting, and the memory hierarchy.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "sim/cache.hh"

using namespace psca;

TEST(CacheLevel, HitAfterFill)
{
    CacheLevel cache({1024, 2, 64, 4});
    EXPECT_FALSE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1038, false).hit); // same line
    EXPECT_FALSE(cache.access(0x1040, false).hit); // next line
}

TEST(CacheLevel, LruEviction)
{
    // 2-way, 64B lines, 128B total -> 1 set of 2 ways.
    CacheLevel cache({128, 2, 64, 1});
    cache.access(0x0000, false);
    cache.access(0x1000, false);
    cache.access(0x0000, false);      // touch A; B becomes LRU
    const auto r = cache.access(0x2000, false);
    EXPECT_TRUE(r.evictedValid);
    EXPECT_TRUE(cache.contains(0x0000));
    EXPECT_FALSE(cache.contains(0x1000));
}

TEST(CacheLevel, DirtyEvictionTracked)
{
    CacheLevel cache({128, 2, 64, 1});
    cache.access(0x0000, true); // dirty
    cache.access(0x1000, false);
    cache.access(0x0000, false);
    const auto r = cache.access(0x2000, false); // evicts clean 0x1000
    EXPECT_TRUE(r.evictedValid);
    EXPECT_FALSE(r.evictedDirty);
    cache.access(0x1000, false); // evicts dirty 0x0000
    const auto r2 = cache.access(0x3000, false);
    (void)r2;
    // One of the two evictions above was the dirty line.
    EXPECT_FALSE(cache.contains(0x0000));
}

TEST(CacheLevel, ResetInvalidates)
{
    CacheLevel cache({1024, 2, 64, 4});
    cache.access(0x1000, false);
    cache.reset();
    EXPECT_FALSE(cache.access(0x1000, false).hit);
}

TEST(CacheLevel, WorkingSetLargerThanCacheMisses)
{
    CacheLevel cache({4096, 4, 64, 4});
    // Two passes over 4x the capacity: second pass must still miss.
    int second_pass_hits = 0;
    for (int pass = 0; pass < 2; ++pass) {
        for (uint64_t addr = 0; addr < 16384; addr += 64) {
            const bool hit = cache.access(addr, false).hit;
            if (pass == 1)
                second_pass_hits += hit ? 1 : 0;
        }
    }
    EXPECT_EQ(second_pass_hits, 0); // LRU thrashes a looped overflow
}

TEST(CacheLevel, TagsAreThirtyTwoBits)
{
    // One set of 64-byte lines: the tag is the address above bit 6.
    CacheLevel cache({128, 2, 64, 1});
    const uint64_t top = 0xfffffffeULL << 6; // largest storable tag
    EXPECT_FALSE(cache.access(top, false).hit);
    EXPECT_TRUE(cache.access(top, false).hit);
    EXPECT_FALSE(cache.contains(top - 64));

    // Re-exec: earlier tests may have started threads.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(cache.access(1ULL << 40, false),
                 "does not fit in 32 bits");
    EXPECT_DEATH(cache.access(0xffffffffULL << 6, false),
                 "does not fit in 32 bits");
}

TEST(Tlb, HitAfterFill)
{
    Tlb tlb(64, 4096);
    EXPECT_FALSE(tlb.access(0x10000));
    EXPECT_TRUE(tlb.access(0x10000));
    EXPECT_TRUE(tlb.access(0x10fff)); // same page
    EXPECT_FALSE(tlb.access(0x11000)); // next page
}

TEST(MshrPool, BoundsConcurrentMisses)
{
    MshrPool pool(2);
    EXPECT_EQ(pool.allocAt(100), 100u);
    pool.fill(300);
    EXPECT_EQ(pool.allocAt(100), 100u); // one slot left
    pool.fill(350);
    // Both slots busy until 300.
    EXPECT_EQ(pool.allocAt(100), 300u);
}

TEST(MshrPool, OccupancyAt)
{
    MshrPool pool(4);
    pool.fill(100);
    pool.fill(200);
    EXPECT_EQ(pool.occupancyAt(50), 2);
    EXPECT_EQ(pool.occupancyAt(150), 1);
    EXPECT_EQ(pool.occupancyAt(250), 0);
}

class HierarchyTest : public ::testing::Test
{
  protected:
    CoreConfig cfg;
    Counters ctr;
};

TEST_F(HierarchyTest, L1HitLatency)
{
    MemoryHierarchy mem(cfg);
    MshrPool mshrs(cfg.mshrsPerCluster);
    mem.dataAccess(0x1000, false, 0x400000, 1000, mshrs, ctr); // warm
    const uint64_t done =
        mem.dataAccess(0x1000, false, 0x400000, 2000, mshrs, ctr);
    EXPECT_EQ(done, 2000 + cfg.l1d.hitLatency);
    EXPECT_GE(ctr.value(Ctr::L1dHit), 1u);
}

TEST_F(HierarchyTest, ColdMissPaysDramLatency)
{
    MemoryHierarchy mem(cfg);
    MshrPool mshrs(cfg.mshrsPerCluster);
    const uint64_t done =
        mem.dataAccess(0x5000000, false, 0x400000, 1000, mshrs, ctr);
    EXPECT_GE(done, 1000 + cfg.memLatency);
    EXPECT_EQ(ctr.value(Ctr::LlcMiss), 1u);
    EXPECT_EQ(ctr.value(Ctr::MemReads), 1u);
}

TEST_F(HierarchyTest, StridePrefetchHidesLatency)
{
    MemoryHierarchy mem(cfg);
    MshrPool mshrs(cfg.mshrsPerCluster);
    const uint64_t pc = 0x400100;
    uint64_t t = 10000;
    uint64_t worst_late = 0;
    // Stream through DRAM-resident lines with constant stride.
    for (int i = 0; i < 64; ++i) {
        const uint64_t addr = 0x10000000ULL + 64ULL * i;
        const uint64_t done = mem.dataAccess(addr, false, pc, t,
                                             mshrs, ctr);
        if (i > 8)
            worst_late = std::max(worst_late, done - t);
        t = done + 10;
    }
    // Once the stride locks, per-access latency must be far below a
    // full memory round trip.
    EXPECT_LT(worst_late, static_cast<uint64_t>(cfg.memLatency / 2));
}

TEST_F(HierarchyTest, RandomAccessNotPrefetched)
{
    MemoryHierarchy mem(cfg);
    MshrPool mshrs(cfg.mshrsPerCluster);
    Rng rng(3);
    uint64_t total = 0;
    int misses = 0;
    uint64_t t = 10000;
    for (int i = 0; i < 32; ++i) {
        const uint64_t addr =
            0x10000000ULL + ((rng.next() & 0xffffff) & ~63ULL);
        const uint64_t before = ctr.value(Ctr::LlcMiss);
        const uint64_t done =
            mem.dataAccess(addr, false, 0x400200, t, mshrs, ctr);
        if (ctr.value(Ctr::LlcMiss) > before) {
            total += done - t;
            ++misses;
        }
        t = done + 200;
    }
    ASSERT_GT(misses, 10);
    EXPECT_GT(static_cast<double>(total) / misses,
              0.9 * cfg.memLatency);
}

TEST_F(HierarchyTest, InstFetchUopCacheHitIsFree)
{
    MemoryHierarchy mem(cfg);
    mem.instAccess(0x400000, ctr);
    const uint32_t lat = mem.instAccess(0x400000, ctr);
    EXPECT_EQ(lat, 0u);
    EXPECT_GE(ctr.value(Ctr::UopCacheHit), 1u);
}

TEST_F(HierarchyTest, DtlbMissCounted)
{
    MemoryHierarchy mem(cfg);
    MshrPool mshrs(cfg.mshrsPerCluster);
    for (int i = 0; i < 200; ++i) {
        mem.dataAccess(0x20000000ULL + 4096ULL * i, false, 0x400300,
                       1000 + i * 300, mshrs, ctr);
    }
    // 200 distinct pages through a 64-entry TLB: mostly misses.
    EXPECT_GT(ctr.value(Ctr::DtlbMiss), 150u);
}
