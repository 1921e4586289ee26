#include "ml/svm.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/rng.hh"

namespace psca {

Chi2Svm::Chi2Svm(const Dataset &data, const Chi2SvmConfig &cfg)
    : numInputs_(data.numFeatures), cfg_(cfg),
      shift_(data.numFeatures, 0.0f)
{
    const size_t n = data.numSamples();
    if (n == 0)
        return;

    // Fit the non-negativity shift.
    for (size_t i = 0; i < n; ++i) {
        const float *x = data.row(i);
        for (size_t j = 0; j < numInputs_; ++j)
            shift_[j] = std::min(shift_[j], x[j]);
    }

    // Shifted copy of the training data.
    std::vector<float> shifted(n * numInputs_);
    for (size_t i = 0; i < n; ++i) {
        const float *x = data.row(i);
        for (size_t j = 0; j < numInputs_; ++j)
            shifted[i * numInputs_ + j] = x[j] - shift_[j];
    }

    // Kernelized Pegasos with a hard SV budget: on margin violation,
    // add the sample as a support vector; over budget, evict the
    // smallest-|alpha| vector.
    Rng rng(cfg.seed ^ 0xc41257e4ULL);
    std::vector<size_t> sv_index; // into `shifted`
    uint64_t t = 1;
    const uint64_t total_steps =
        static_cast<uint64_t>(cfg.epochs) * n;
    for (uint64_t step = 0; step < total_steps; ++step, ++t) {
        const size_t i = static_cast<size_t>(rng.below(n));
        const float *x = &shifted[i * numInputs_];
        const double y = data.y[i] ? 1.0 : -1.0;

        double z = bias_;
        for (size_t k = 0; k < sv_index.size(); ++k)
            z += alphas_[k] * kernel(x, &sv_[k * numInputs_]);

        const double scale =
            1.0 - 1.0 / static_cast<double>(t); // lambda decay
        for (auto &a : alphas_)
            a *= scale;
        bias_ *= scale;

        if (y * z < 1.0) {
            const double eta =
                1.0 / (cfg.lambda * static_cast<double>(t));
            sv_.insert(sv_.end(), x, x + numInputs_);
            sv_index.push_back(i);
            alphas_.push_back(eta * y * cfg.lambda);
            bias_ += eta * y * cfg.lambda * 0.1;

            if (alphas_.size() > cfg.maxSupportVectors) {
                size_t victim = 0;
                for (size_t k = 1; k < alphas_.size(); ++k)
                    if (std::abs(alphas_[k]) < std::abs(alphas_[victim]))
                        victim = k;
                alphas_.erase(alphas_.begin() +
                              static_cast<ptrdiff_t>(victim));
                sv_index.erase(sv_index.begin() +
                               static_cast<ptrdiff_t>(victim));
                sv_.erase(sv_.begin() + static_cast<ptrdiff_t>(
                              victim * numInputs_),
                          sv_.begin() + static_cast<ptrdiff_t>(
                              (victim + 1) * numInputs_));
            }
        }
    }
}

double
Chi2Svm::kernel(const float *a, const float *b) const
{
    double chi2 = 0.0;
    for (size_t j = 0; j < numInputs_; ++j) {
        const double num = static_cast<double>(a[j]) - b[j];
        const double den =
            static_cast<double>(a[j]) + b[j] + 1e-3;
        chi2 += num * num / den;
    }
    return std::exp(-cfg_.gamma * chi2);
}

double
Chi2Svm::score(const float *x) const
{
    if (alphas_.empty())
        return 0.0;
    std::vector<float> shifted(numInputs_);
    for (size_t j = 0; j < numInputs_; ++j)
        shifted[j] = x[j] - shift_[j];
    double z = bias_;
    for (size_t k = 0; k < alphas_.size(); ++k)
        z += alphas_[k] * kernel(shifted.data(), &sv_[k * numInputs_]);
    // Squash the margin so the common >=0.5 threshold applies.
    return 1.0 / (1.0 + std::exp(-z));
}

void
Chi2Svm::scoreBatch(const float *X, int n, double *out) const
{
    if (n <= 0)
        return;
    if (alphas_.empty()) {
        for (int i = 0; i < n; ++i)
            out[i] = 0.0;
        return;
    }
    constexpr int kLanes = 4;
    const size_t stride = numInputs_;
    std::vector<float> shifted(kLanes * stride);
    int i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        for (int l = 0; l < kLanes; ++l) {
            const float *x = X + static_cast<size_t>(i + l) * stride;
            float *s = shifted.data() + static_cast<size_t>(l) * stride;
            for (size_t j = 0; j < stride; ++j)
                s[j] = x[j] - shift_[j];
        }
        double z[kLanes];
        for (int l = 0; l < kLanes; ++l)
            z[l] = bias_;
        for (size_t k = 0; k < alphas_.size(); ++k) {
            const float *sv = &sv_[k * stride];
            for (int l = 0; l < kLanes; ++l)
                z[l] += alphas_[k] *
                    kernel(shifted.data() +
                               static_cast<size_t>(l) * stride,
                           sv);
        }
        for (int l = 0; l < kLanes; ++l)
            out[i + l] = 1.0 / (1.0 + std::exp(-z[l]));
    }
    for (; i < n; ++i)
        out[i] = score(X + static_cast<size_t>(i) * stride);
}

uint32_t
Chi2Svm::opsPerInference() const
{
    return static_cast<uint32_t>(alphas_.size()) *
        (8u * static_cast<uint32_t>(numInputs_) + 25u);
}

size_t
Chi2Svm::memoryFootprintBytes() const
{
    return sv_.size() * sizeof(float) + alphas_.size() * sizeof(float);
}

std::string
Chi2Svm::describe() const
{
    std::ostringstream os;
    os << "Chi2SVM " << alphas_.size() << " SVs";
    return os.str();
}

void
Chi2Svm::writeParams(BinaryWriter &out) const
{
    out.put<uint64_t>(numInputs_);
    out.put(cfg_.gamma);
    out.putVector(shift_);
    out.putVector(sv_);
    out.putVector(alphas_);
    out.put(bias_);
}

} // namespace psca
