/**
 * @file
 * Linear adaptation models: logistic regression trained with L-BFGS
 * (the paper trains its LR/SRCH baselines with scikit-learn's L-BFGS)
 * and a bagged linear-SVM ensemble trained with Pegasos-style
 * subgradient descent on the hinge loss.
 *
 * Firmware cost convention: an inner product costs 3 ops per input
 * (fld/fmul/fadd, Listing 1), and a branch-free exp() evaluation
 * costs ~122 ops (math.h exp() is up to 60 ops with 12 branches; the
 * firmware version is unrolled). This makes LR on 12 counters cost
 * 158 ops and SRCH on 150 histogram features cost 572 ops — both
 * exactly the paper's Table 3 / Sec. 7 numbers.
 */

#ifndef PSCA_ML_LINEAR_HH
#define PSCA_ML_LINEAR_HH

#include <functional>
#include <vector>

#include "ml/model.hh"

namespace psca {

/** Ops for a branch-free firmware exp() (probability output). */
constexpr uint32_t kExpOps = 122;

/** Logistic-regression training configuration. */
struct LogRegConfig
{
    double l2 = 1e-4;
    int maxIterations = 200;
    int lbfgsMemory = 8;
    double tolerance = 1e-7;
};

/** Logistic regression: sigmoid(w . x + b). */
class LogisticRegression : public Model
{
  public:
    LogisticRegression(const Dataset &data, const LogRegConfig &cfg);

    size_t numInputs() const override { return w_.size(); }
    double score(const float *x) const override;

    /**
     * 8-lane blocked dot products; per lane the feature order (and
     * the double accumulation) matches score() exactly, so results
     * are bit-identical (DESIGN.md §13).
     */
    void scoreBatch(const float *X, int n, double *out) const override;

    uint32_t opsPerInference() const override;
    size_t memoryFootprintBytes() const override;
    std::string describe() const override;
    void writeParams(BinaryWriter &out) const override;

    const std::vector<double> &coefficients() const { return w_; }
    double bias() const { return b_; }

  private:
    std::vector<double> w_;
    double b_ = 0.0;
};

/** Linear-SVM ensemble configuration. */
struct LinearSvmConfig
{
    int ensembleSize = 5;
    double lambda = 1e-4;  //!< Pegasos regularization
    int epochs = 10;
    uint64_t seed = 1;
};

/**
 * Ensemble of linear SVMs trained on bootstrap samples; the score is
 * the fraction of members voting "gate".
 */
class LinearSvmEnsemble : public Model
{
  public:
    LinearSvmEnsemble(const Dataset &data, const LinearSvmConfig &cfg);

    size_t numInputs() const override { return numInputs_; }
    double score(const float *x) const override;

    /** 8-lane blocked member votes, bit-identical to score(). */
    void scoreBatch(const float *X, int n, double *out) const override;

    uint32_t opsPerInference() const override;
    size_t memoryFootprintBytes() const override;
    std::string describe() const override;
    void writeParams(BinaryWriter &out) const override;

  private:
    size_t numInputs_;
    /** Per member: numInputs weights then a bias. */
    std::vector<std::vector<double>> members_;
};

/**
 * Minimize a smooth function with L-BFGS (two-loop recursion and
 * backtracking Armijo line search). Exposed for reuse and testing.
 *
 * @param dim Parameter count.
 * @param eval Computes loss and gradient at a point: f(x, grad_out).
 * @param x In: initial point; out: the minimizer found.
 */
void lbfgsMinimize(
    size_t dim,
    const std::function<double(const std::vector<double> &,
                               std::vector<double> &)> &eval,
    std::vector<double> &x, int max_iterations = 200, int memory = 8,
    double tolerance = 1e-7);

} // namespace psca

#endif // PSCA_ML_LINEAR_HH
