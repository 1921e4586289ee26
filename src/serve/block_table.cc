#include "serve/block_table.hh"

#include "common/logging.hh"

namespace psca {
namespace serve {

namespace {

size_t
modeSlot(CoreMode mode)
{
    return mode == CoreMode::LowPower ? 1 : 0;
}

} // namespace

BlockTable::BlockTable(Workload workload, BuildConfig cfg, size_t k)
    : workload_(std::move(workload)), cfg_(std::move(cfg)), k_(k),
      nodes_(1)
{}

BlockTable::~BlockTable() = default;

void
BlockTable::newPass()
{
    path_.clear();
    replayer_.reset();
}

const BlockReplayer::Block &
BlockTable::runBlock(CoreMode mode)
{
    const uint32_t parent = path_.empty() ? 0 : path_.back();
    const uint32_t hit = nodes_[parent].next[modeSlot(mode)];
    lastReused_ = hit != 0;
    if (lastReused_) {
        path_.push_back(hit);
        return nodes_[hit].block;
    }

    if (!replayer_) {
        replayer_ = std::make_unique<BlockReplayer>(workload_, cfg_, k_);
        for (uint32_t id : path_) {
            const Node &node = nodes_[id];
            PSCA_ASSERT(replayer_->runBlock(node.mode).identical(node.block),
                        "serve: re-simulated block differs from the "
                        "stored block of its mode prefix");
        }
    }
    const uint32_t id = static_cast<uint32_t>(nodes_.size());
    nodes_.push_back({replayer_->runBlock(mode), mode, {0, 0}});
    nodes_[parent].next[modeSlot(mode)] = id;
    path_.push_back(id);
    return nodes_[id].block;
}

} // namespace serve
} // namespace psca
