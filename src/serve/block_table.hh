/**
 * @file
 * The serve loop's per-segment block table (DESIGN.md §9, §14.6).
 *
 * A serve segment replays its workload's trace in passes, each from
 * the top on a fresh core, generator and warm-up. Fault draws are
 * keyed by (trace key, sub-interval index) and carry-forward rows
 * depend only on earlier blocks of the same pass; nothing from the
 * predictor, guardrail, ring or drift detector reaches the replayer.
 * So block b of a pass is a pure function of (segment workload, build
 * config, k, fault spec, modes of blocks 0..b), and a later pass that
 * repeats an earlier pass's mode prefix repeats its blocks exactly.
 *
 * The table is a trie over those prefixes: one node per distinct
 * prefix, holding the block it produced. A block whose prefix is
 * stored is served from the table without simulating. At a pass's
 * first miss the table builds a replayer, catches it up over the
 * pass's earlier blocks (asserting each re-simulated block is
 * bit-identical to its stored node, so the purity premise is checked
 * at run time), then simulates, stores and advances. Once a pass has
 * missed it stays on its own replayer to the end of the pass.
 */

#ifndef PSCA_SERVE_BLOCK_TABLE_HH
#define PSCA_SERVE_BLOCK_TABLE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/controller.hh"

namespace psca {
namespace serve {

class BlockTable
{
  public:
    /**
     * @param k Sub-intervals per block (granularity / interval).
     */
    BlockTable(Workload workload, BuildConfig cfg, size_t k);
    ~BlockTable();

    /** Start a new pass from block 0 of the trace. */
    void newPass();

    /**
     * Block the current pass executes next, in @p mode: stored when
     * this pass's mode prefix has been seen, simulated otherwise.
     * The reference stays valid until the next call.
     */
    const BlockReplayer::Block &runBlock(CoreMode mode);

    /** Whether the last runBlock() came from the table. */
    bool lastReused() const { return lastReused_; }

  private:
    struct Node
    {
        BlockReplayer::Block block;
        CoreMode mode = CoreMode::HighPerf;
        /** Child per next-block mode (HighPerf, LowPower); 0 = none. */
        uint32_t next[2] = {0, 0};
    };

    Workload workload_;
    BuildConfig cfg_;
    size_t k_;
    /** nodes_[0] is the empty prefix (no block). */
    std::vector<Node> nodes_;
    /** Nodes of the current pass's blocks, in order. */
    std::vector<uint32_t> path_;
    /** Live only after the current pass's first miss. */
    std::unique_ptr<BlockReplayer> replayer_;
    bool lastReused_ = false;
};

} // namespace serve
} // namespace psca

#endif // PSCA_SERVE_BLOCK_TABLE_HH
