/**
 * @file
 * Multi-layer perceptron with ReLU hidden layers and a sigmoid
 * output, trained with mini-batch Adam on binary cross-entropy.
 * Mirrors the paper's MLP adaptation models (Listing 1, Table 3,
 * Sec. 6.3 hyperparameter search).
 *
 * Firmware cost accounting follows Listing 1: each filter evaluation
 * is fld/fmul/fadd per input (3 ops) plus ~6 ops of ReLU, so a layer
 * of F filters with N inputs costs F * (3N + 6) operations; the
 * single sigmoid-thresholded readout costs one more filter. This
 * reproduces the paper's Table 3 numbers to within a few percent.
 */

#ifndef PSCA_ML_MLP_HH
#define PSCA_ML_MLP_HH

#include <vector>

#include "common/rng.hh"
#include "ml/model.hh"

namespace psca {

/** MLP topology and training hyperparameters. */
struct MlpConfig
{
    /** Hidden layer widths, e.g. {8, 8, 4} for the paper's Best MLP. */
    std::vector<int> hiddenLayers{8, 8, 4};
    int epochs = 30;
    int batchSize = 64;
    double learningRate = 3e-3;
    double l2 = 1e-5;
    uint64_t seed = 1;
};

/** A trained MLP adaptation model. */
class MlpModel : public Model
{
  public:
    /** Construct an untrained model (He-initialized). */
    MlpModel(size_t num_inputs, const std::vector<int> &hidden_layers,
             uint64_t seed);

    size_t numInputs() const override { return numInputs_; }
    double score(const float *x) const override;

    /**
     * Lane-blocked forward pass: 8 samples per block in transposed
     * activation layout, dispatched to the AVX2 kernel when
     * available (see batch_kernels.hh). Per sample the accumulation
     * order matches score() exactly, so results are bit-identical
     * regardless of the active SIMD level (DESIGN.md §13).
     */
    void scoreBatch(const float *X, int n, double *out) const override;

    uint32_t opsPerInference() const override;
    size_t memoryFootprintBytes() const override;
    std::string describe() const override;
    void writeParams(BinaryWriter &out) const override;

    /** Layer widths, input first, output (1) last. */
    const std::vector<int> &layerSizes() const { return sizes_; }

    /** Weights of layer l (rows = filters, cols = fan-in). */
    const std::vector<float> &weights(size_t l) const { return w_[l]; }
    const std::vector<float> &biases(size_t l) const { return b_[l]; }

    /**
     * Train in place with Adam on binary cross-entropy.
     * @param data Normalized training data.
     * @param cfg Optimization hyperparameters.
     */
    void train(const Dataset &data, const MlpConfig &cfg);

  private:
    friend class MlpTrainer;

    size_t numInputs_;
    std::vector<int> sizes_; //!< [in, h1, ..., hk, 1]
    std::vector<std::vector<float>> w_; //!< per layer, row-major
    std::vector<std::vector<float>> b_;
};

/** Convenience: construct + train in one call. */
std::unique_ptr<MlpModel> trainMlp(const Dataset &data,
                                   const MlpConfig &cfg);

} // namespace psca

#endif // PSCA_ML_MLP_HH
