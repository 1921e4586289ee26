/**
 * @file
 * AVX2 build of the blocked MLP forward kernel. This translation
 * unit is the only one compiled with -mavx2, and it is compiled with
 * FMA contraction disabled (-mno-fma -ffp-contract=off in
 * CMakeLists) so every lane performs the same mul-then-add sequence
 * as MlpModel::score() and the results stay bit-identical to the
 * scalar kernel (DESIGN.md §13).
 */

#include "ml/batch_kernels.hh"

#if defined(PSCA_HAVE_AVX2) && defined(__x86_64__)

#include <immintrin.h>

namespace psca {
namespace mlkern {

bool
mlpForwardAvx2Compiled()
{
    return true;
}

void
mlpForwardBlockAvx2(const MlpView &m, const float *xt, float *scratch,
                    float *logits)
{
    constexpr int W = kMlpLanes;
    int max_width = 0;
    for (int l = 0; l <= m.numLayers; ++l)
        max_width = max_width > m.sizes[l] ? max_width : m.sizes[l];

    float *act = scratch;
    float *next = scratch + static_cast<size_t>(max_width) * W;
    const int fan_in0 = m.sizes[0];
    for (int i = 0; i < fan_in0 * W; ++i)
        act[i] = xt[i];

    const __m256 zero = _mm256_setzero_ps();
    for (int l = 0; l < m.numLayers; ++l) {
        const int fan_in = m.sizes[l];
        const int fan_out = m.sizes[l + 1];
        const bool last = l + 1 == m.numLayers;
        for (int f = 0; f < fan_out; ++f) {
            const float *row =
                m.weights[l] + static_cast<size_t>(f) * fan_in;
            __m256 sum = _mm256_set1_ps(
                m.biases[l][static_cast<size_t>(f)]);
            for (int i = 0; i < fan_in; ++i) {
                const __m256 wi = _mm256_set1_ps(row[i]);
                const __m256 ai = _mm256_loadu_ps(
                    act + static_cast<size_t>(i) * W);
                sum = _mm256_add_ps(sum, _mm256_mul_ps(wi, ai));
            }
            // vmaxps(sum, 0) returns the second operand for NaN and
            // for the -0/+0 tie, matching std::max(0.0f, sum).
            if (!last)
                sum = _mm256_max_ps(sum, zero);
            _mm256_storeu_ps(next + static_cast<size_t>(f) * W, sum);
        }
        float *tmp = act;
        act = next;
        next = tmp;
    }
    for (int l = 0; l < W; ++l)
        logits[l] = act[l];
}

} // namespace mlkern
} // namespace psca

#else // !PSCA_HAVE_AVX2

namespace psca {
namespace mlkern {

bool
mlpForwardAvx2Compiled()
{
    return false;
}

void
mlpForwardBlockAvx2(const MlpView &m, const float *xt, float *scratch,
                    float *logits)
{
    mlpForwardBlockScalar(m, xt, scratch, logits);
}

} // namespace mlkern
} // namespace psca

#endif // PSCA_HAVE_AVX2
