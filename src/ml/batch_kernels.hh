/**
 * @file
 * Lane-blocked MLP forward kernels behind the batched scoring path
 * (DESIGN.md §13). Eight samples flow through the network together
 * in transposed activation blocks (`act[neuron][lane]`); per lane
 * the accumulation order is exactly MlpModel::score() — sum starts
 * at the bias and adds `w[i] * act[i]` in ascending i — so the AVX2
 * and scalar kernels produce bit-identical logits. The AVX2 twin
 * lives in its own translation unit compiled with -mavx2 but without
 * FMA contraction, preserving that guarantee.
 */

#ifndef PSCA_ML_BATCH_KERNELS_HH
#define PSCA_ML_BATCH_KERNELS_HH

namespace psca {
namespace mlkern {

/** Samples per block; also the AVX2 float vector width. */
constexpr int kMlpLanes = 8;

/** Borrowed view of an MLP's layers for the forward kernels. */
struct MlpView
{
    int numLayers = 0;          //!< number of weight layers
    const int *sizes = nullptr; //!< numLayers + 1 widths, input first
    /** Per-layer row-major weights [fan_out x fan_in] and biases. */
    const float *const *weights = nullptr;
    const float *const *biases = nullptr;
};

/**
 * Forward kMlpLanes samples. @p xt holds the transposed input block
 * (`xt[i * kMlpLanes + lane]` = feature i of lane); @p scratch must
 * hold at least 2 * maxWidth * kMlpLanes floats; @p logits receives
 * the kMlpLanes pre-sigmoid outputs.
 */
void mlpForwardBlockScalar(const MlpView &m, const float *xt,
                           float *scratch, float *logits);

/**
 * AVX2 twin of mlpForwardBlockScalar(); bit-identical results.
 * Falls back to the scalar kernel in binaries built without AVX2.
 */
void mlpForwardBlockAvx2(const MlpView &m, const float *xt,
                         float *scratch, float *logits);

/** True when this binary carries the real AVX2 kernel. */
bool mlpForwardAvx2Compiled();

} // namespace mlkern
} // namespace psca

#endif // PSCA_ML_BATCH_KERNELS_HH
