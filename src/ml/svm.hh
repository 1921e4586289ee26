/**
 * @file
 * Budgeted chi-square kernel SVM, the "sophisticated kernel" entry of
 * Table 3. Trained with kernelized Pegasos subgradient descent under
 * a hard support-vector budget (the paper caps at 1,000 SVs). The
 * chi-square kernel operates on shifted-non-negative features, the
 * natural domain for counter data.
 *
 * Firmware cost: evaluating one support vector costs ~8 ops per
 * input dimension (sub, mul, add, div, accumulate per Listing-1-style
 * scalar code) plus ~25 ops for the exp; 12 inputs gives 121 ops per
 * SV and ~121k ops at the 1,000-SV budget, matching Table 3.
 */

#ifndef PSCA_ML_SVM_HH
#define PSCA_ML_SVM_HH

#include <vector>

#include "ml/model.hh"

namespace psca {

/** Chi-square SVM training configuration. */
struct Chi2SvmConfig
{
    size_t maxSupportVectors = 1000;
    double gamma = 0.5;    //!< kernel bandwidth
    double lambda = 1e-4;  //!< Pegasos regularization
    int epochs = 4;
    uint64_t seed = 1;
};

/** Budgeted chi-square kernel SVM. */
class Chi2Svm : public Model
{
  public:
    Chi2Svm(const Dataset &data, const Chi2SvmConfig &cfg);

    size_t numInputs() const override { return numInputs_; }
    double score(const float *x) const override;

    /**
     * Blocked scoring: 4 samples share each support-vector row while
     * it is hot in cache. Per sample every kernel evaluation and the
     * accumulation order match score() exactly, so results are
     * bit-identical (DESIGN.md §13).
     */
    void scoreBatch(const float *X, int n, double *out) const override;

    uint32_t opsPerInference() const override;
    size_t memoryFootprintBytes() const override;
    std::string describe() const override;
    void writeParams(BinaryWriter &out) const override;

    size_t numSupportVectors() const { return alphas_.size(); }

  private:
    double kernel(const float *a, const float *b) const;

    size_t numInputs_;
    Chi2SvmConfig cfg_;
    /** Per-feature shift making inputs non-negative. */
    std::vector<float> shift_;
    /** Support vectors, row-major (shifted feature space). */
    std::vector<float> sv_;
    std::vector<double> alphas_; //!< signed dual weights
    double bias_ = 0.0;
};

} // namespace psca

#endif // PSCA_ML_SVM_HH
