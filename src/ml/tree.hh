/**
 * @file
 * CART binary decision tree with entropy splits, and a bagged
 * random-forest ensemble — the paper's best adaptation model (Best
 * RF: 8 trees, depth 8, Sec. 6.3 / Table 3).
 *
 * Firmware cost accounting follows Listing 2: each level of a
 * branch-free tree traversal costs ~8 microcontroller operations, and
 * trees are padded to full depth with trivial comparisons so every
 * prediction costs the same; the ensemble vote adds a few ops per
 * tree. Memory is 10 bytes per node with 2^depth..2^(depth+1) nodes,
 * reproducing Table 3's footprints.
 */

#ifndef PSCA_ML_TREE_HH
#define PSCA_ML_TREE_HH

#include <memory>
#include <mutex>
#include <vector>

#include "common/rng.hh"
#include "common/serialize.hh"
#include "ml/model.hh"

namespace psca {

/** Decision-tree training configuration. */
struct TreeConfig
{
    int maxDepth = 8;
    size_t minSamplesLeaf = 4;
    /**
     * Features examined per split: 0 = all (single CART tree);
     * otherwise a random subset of this size (random-forest mode).
     */
    size_t featureSubset = 0;
    uint64_t seed = 1;
};

/** One trained CART decision tree. */
class DecisionTree : public Model
{
  public:
    /** Train a tree on (a bootstrap sample of) the data. */
    DecisionTree(const Dataset &data,
                 const std::vector<size_t> &sample_indices,
                 const TreeConfig &cfg);

    size_t numInputs() const override { return numInputs_; }
    double score(const float *x) const override; //!< leaf P(y=1)
    uint32_t opsPerInference() const override;
    size_t memoryFootprintBytes() const override;
    std::string describe() const override;
    void writeParams(BinaryWriter &out) const override
    {
        serialize(out);
    }

    int maxDepth() const { return cfg_.maxDepth; }

    /** Flattened node storage, exposed for the firmware compiler. */
    struct Node
    {
        int16_t feature = -1;   //!< -1 for leaves
        float threshold = 0.0f;
        float prob = 0.5f;      //!< P(y=1) at this node
        int32_t left = -1;      //!< child indices; -1 for leaves
        int32_t right = -1;
    };

    const std::vector<Node> &nodes() const { return nodes_; }

    /**
     * Serialize the trained tree for checkpoint/resume. Nodes are
     * written field by field (never as raw structs) so the byte
     * stream is identical across builds regardless of padding.
     */
    void serialize(BinaryWriter &w) const;

    /** Rebuild a trained tree from serialize() output. */
    static std::unique_ptr<DecisionTree> deserialize(BinaryReader &in);

  private:
    DecisionTree() = default; //!< deserialize() fills the members

    int32_t build(const Dataset &data, std::vector<size_t> &indices,
                  size_t begin, size_t end, int depth, Rng &rng);

    size_t numInputs_ = 0;
    TreeConfig cfg_;
    std::vector<Node> nodes_;
};

/** Random-forest training configuration. */
struct ForestConfig
{
    int numTrees = 8;
    int maxDepth = 8;
    size_t minSamplesLeaf = 4;
    /** 0 = sqrt(num_features). */
    size_t featureSubset = 0;
    uint64_t seed = 1;
};

/** Bagged ensemble of CART trees; score = mean leaf probability. */
class RandomForest : public Model
{
  public:
    RandomForest(const Dataset &data, const ForestConfig &cfg);

    /**
     * Build a forest from already-trained trees (used by the
     * post-silicon app-specific retraining flow of Sec. 7.3, which
     * combines general and application-specific trees).
     */
    explicit RandomForest(
        std::vector<std::unique_ptr<DecisionTree>> trees);

    size_t numInputs() const override;
    double score(const float *x) const override;

    /**
     * Batched scoring over a flattened, full-depth-padded SoA copy
     * of the ensemble: 8 samples walk each tree in lockstep with
     * branchless (cmov) steps, so the dependent-load chains of the
     * walks overlap instead of serializing. Leaves self-loop with a
     * +inf threshold, making the walk a fixed-trip-count loop while
     * visiting exactly the nodes score() visits; per-sample leaf
     * probabilities accumulate in tree order, so every result is
     * bit-identical to score() (DESIGN.md §13).
     */
    void scoreBatch(const float *X, int n, double *out) const override;

    uint32_t opsPerInference() const override;
    size_t memoryFootprintBytes() const override;
    std::string describe() const override;
    void writeParams(BinaryWriter &out) const override;

    const std::vector<std::unique_ptr<DecisionTree>> &trees() const
    {
        return trees_;
    }

    /** Move the trees out (for ensemble merging). */
    std::vector<std::unique_ptr<DecisionTree>> takeTrees();

  private:
    /**
     * Flattened node storage for scoreBatch(): one SoA array over
     * all trees, every leaf padded into a self-loop (feature 0,
     * threshold +inf, children = self) so a depth-bounded walk needs
     * no per-step leaf test. Built lazily on first batched call.
     */
    /**
     * One packed node: everything a traversal step reads sits in 16
     * bytes (a single cache-line touch), instead of four scattered
     * per-field arrays — the walk is load-bound, so this is what
     * buys the batched speedup.
     */
    struct alignas(16) FlatNode
    {
        int32_t feature;
        float threshold;
        int32_t left;
        int32_t right;
    };

    struct FlatNodes
    {
        std::vector<FlatNode> node;
        std::vector<float> prob;     //!< per node, read once at leaf
        std::vector<int32_t> roots;  //!< per-tree root index
        std::vector<int32_t> depths; //!< per-tree deepest leaf
    };

    void buildFlat() const;

    std::vector<std::unique_ptr<DecisionTree>> trees_;
    mutable FlatNodes flat_;
    mutable std::once_flag flatOnce_;
};

} // namespace psca

#endif // PSCA_ML_TREE_HH
