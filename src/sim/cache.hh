/**
 * @file
 * Cache hierarchy for the clustered core: set-associative LRU caches
 * (uop cache, L1I, L1D, L2, LLC), TLBs, a per-pc stride prefetcher,
 * and a shared DRAM bandwidth model. The hierarchy converts a probe
 * at a given cycle into a completion cycle and updates telemetry.
 */

#ifndef PSCA_SIM_CACHE_HH
#define PSCA_SIM_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "sim/bandwidth.hh"
#include "sim/config.hh"
#include "telemetry/counters.hh"

namespace psca {

/**
 * One set-associative, true-LRU, write-back cache level.
 *
 * Hot-path layout (DESIGN.md §9): tags live in a packed flat array —
 * one 64-byte line covers 8 ways — with validity encoded as a
 * sentinel tag, so the hit scan is a branch-light sweep of one array
 * and only touches recency/dirty state for the matched way. Victim
 * selection runs as a second sweep on the miss path only, and the
 * set/tag split uses shifts (the set count is asserted power-of-two),
 * never division.
 */
class CacheLevel
{
  public:
    explicit CacheLevel(const CacheConfig &cfg);

    /** Outcome of a lookup-with-fill. */
    struct Result
    {
        bool hit = false;
        bool evictedValid = false;
        bool evictedDirty = false;
    };

    /**
     * Probe for the line containing addr; on miss, fill it (evicting
     * LRU). Marks the line dirty when is_write.
     */
    Result access(uint64_t addr, bool is_write);

    /** Probe without fill or LRU update (used by tests). */
    bool contains(uint64_t addr) const;

    /** Invalidate everything. */
    void reset();

    uint32_t hitLatency() const { return cfg_.hitLatency; }

  private:
    /**
     * Empty-way marker. Tags are stored in 32 bits: the address bits
     * above the line and set fields. Generated addresses stay below
     * 2^41 (makeKernel gives instance ids < 4096 and 256 MiB data
     * regions at 0x10000000 * (id + 1)), and the smallest production
     * level (the uop cache) shifts 10 bits away, so every reachable
     * tag is below 2^31; access() asserts it stays below the marker.
     */
    static constexpr uint32_t kInvalidTag = ~0u;

    /** The 32-bit tag of a line address (asserted to fit). */
    uint32_t
    tagOf(uint64_t line_addr) const
    {
        const uint64_t tag = line_addr >> setShift_;
        PSCA_ASSERT(tag < kInvalidTag, "cache tag ", tag,
                    " does not fit in 32 bits");
        return static_cast<uint32_t>(tag);
    }

    CacheConfig cfg_;
    uint32_t numSets_;
    uint32_t lineShift_;
    uint32_t setShift_;           //!< log2(numSets_)
    std::vector<uint32_t> tags_;  //!< numSets x ways, packed
    std::vector<uint32_t> lastUse_;
    std::vector<uint8_t> dirty_;
    uint32_t useClock_ = 0;
};

/**
 * Small set-associative TLB over page numbers; same packed-tag,
 * sentinel-validity layout as CacheLevel.
 */
class Tlb
{
  public:
    Tlb(uint32_t entries, uint32_t page_bytes);

    /** Probe-and-fill; @return true on hit. */
    bool access(uint64_t addr);
    void reset();

  private:
    static constexpr uint64_t kInvalidVpn = ~0ULL;

    uint32_t sets_;
    uint32_t ways_;
    uint32_t pageShift_;
    std::vector<uint64_t> vpns_; //!< sets x ways, packed
    std::vector<uint32_t> lastUse_;
    uint32_t useClock_ = 0;
};

/**
 * Sliding window of outstanding-miss completion times, bounding the
 * memory-level parallelism of one memory execution unit.
 */
class MshrPool
{
  public:
    explicit MshrPool(int entries)
        : completions_(static_cast<size_t>(entries), 0)
    {}

    /** Earliest cycle >= t at which a new miss can allocate. */
    uint64_t
    allocAt(uint64_t t) const
    {
        return std::max(t, completions_[oldest_]);
    }

    /** Record the new miss's completion, retiring the oldest entry. */
    void
    fill(uint64_t completion)
    {
        completions_[oldest_] = completion;
        // Branch instead of modulo: the pool size is small and
        // runtime-configured, so % compiles to a hardware divide.
        if (++oldest_ == completions_.size())
            oldest_ = 0;
    }

    /** Outstanding misses at cycle t (for occupancy telemetry). */
    int
    occupancyAt(uint64_t t) const
    {
        int n = 0;
        for (uint64_t c : completions_)
            n += c > t ? 1 : 0;
        return n;
    }

    void
    reset()
    {
        std::fill(completions_.begin(), completions_.end(), 0);
        oldest_ = 0;
    }

  private:
    std::vector<uint64_t> completions_;
    size_t oldest_ = 0;
};

/**
 * The full data/instruction memory system shared by both clusters.
 * Data accesses model TLB, L1D, L2, LLC, DRAM latency and bandwidth,
 * and a per-pc stride prefetcher that hides DRAM latency (but not
 * DRAM bandwidth) for streaming access patterns.
 */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const CoreConfig &cfg);

    /**
     * Perform a data access.
     *
     * @param addr Effective address.
     * @param is_write True for stores.
     * @param pc Static pc (prefetcher training key).
     * @param t0 Cycle the access begins (post issue/ports).
     * @param mshrs The issuing cluster's MSHR pool (miss MLP bound).
     * @param ctr Telemetry to update.
     * @return Completion cycle of the access.
     */
    uint64_t dataAccess(uint64_t addr, bool is_write, uint64_t pc,
                        uint64_t t0, MshrPool &mshrs, Counters &ctr);

    /**
     * Fetch the line containing pc through uop cache then L1I/L2.
     * @return Added fetch latency in cycles (0 on uop-cache hit).
     */
    uint32_t instAccess(uint64_t pc, Counters &ctr);

    /** Invalidate all state (caches, TLBs, prefetcher, DRAM ring). */
    void reset();

  private:
    /** Fill one line from beyond L1D; returns completion cycle. */
    uint64_t fillLine(uint64_t addr, uint64_t pc, uint64_t t0,
                      Counters &ctr);

    const CoreConfig cfg_;
    // Registry indices resolved once; familyBase() behind a
    // singleton call is too slow for the per-access path.
    uint16_t strideHistBase_;
    uint16_t l1dMissRegionBase_;
    uint16_t l2MissRegionBase_;
    CacheLevel uopCache_;
    CacheLevel l1i_;
    CacheLevel l1d_;
    CacheLevel l2_;
    CacheLevel llc_;
    Tlb itlb_;
    Tlb dtlb_;
    BandwidthRing dram_;

    /** Per-pc stride prefetch training table. */
    struct StrideEntry
    {
        uint64_t pc = 0;
        uint64_t lastAddr = 0;
        int64_t stride = 0;
        uint8_t confidence = 0;
    };
    std::vector<StrideEntry> strideTable_;
};

} // namespace psca

#endif // PSCA_SIM_CACHE_HH
