#include "ml/linear.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <sstream>

#include "common/rng.hh"

namespace psca {

namespace {

double
sigmoid(double z)
{
    return 1.0 / (1.0 + std::exp(-z));
}

double
dot(const std::vector<double> &a, const std::vector<double> &b)
{
    double s = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        s += a[i] * b[i];
    return s;
}

} // namespace

void
lbfgsMinimize(
    size_t dim,
    const std::function<double(const std::vector<double> &,
                               std::vector<double> &)> &eval,
    std::vector<double> &x, int max_iterations, int memory,
    double tolerance)
{
    PSCA_ASSERT(x.size() == dim, "initial point has wrong dimension");
    std::vector<double> grad(dim), new_grad(dim);
    double fx = eval(x, grad);

    std::vector<std::vector<double>> s_hist, y_hist;
    std::vector<double> rho_hist;

    for (int iter = 0; iter < max_iterations; ++iter) {
        double gnorm = std::sqrt(dot(grad, grad));
        if (gnorm < tolerance)
            break;

        // Two-loop recursion for the search direction d = -H * g.
        std::vector<double> d = grad;
        std::vector<double> alpha(s_hist.size());
        for (size_t k = s_hist.size(); k-- > 0;) {
            alpha[k] = rho_hist[k] * dot(s_hist[k], d);
            for (size_t i = 0; i < dim; ++i)
                d[i] -= alpha[k] * y_hist[k][i];
        }
        if (!s_hist.empty()) {
            const auto &s = s_hist.back();
            const auto &y = y_hist.back();
            const double gamma = dot(s, y) / std::max(dot(y, y), 1e-300);
            for (auto &v : d)
                v *= gamma;
        }
        for (size_t k = 0; k < s_hist.size(); ++k) {
            const double beta = rho_hist[k] * dot(y_hist[k], d);
            for (size_t i = 0; i < dim; ++i)
                d[i] += (alpha[k] - beta) * s_hist[k][i];
        }
        for (auto &v : d)
            v = -v;

        // Backtracking Armijo line search.
        const double dg = dot(d, grad);
        if (dg >= 0.0)
            break; // not a descent direction; numerical breakdown
        double step = 1.0;
        std::vector<double> new_x(dim);
        double new_fx = fx;
        bool accepted = false;
        for (int ls = 0; ls < 32; ++ls) {
            for (size_t i = 0; i < dim; ++i)
                new_x[i] = x[i] + step * d[i];
            new_fx = eval(new_x, new_grad);
            if (new_fx <= fx + 1e-4 * step * dg) {
                accepted = true;
                break;
            }
            step *= 0.5;
        }
        if (!accepted)
            break;

        // Curvature pair.
        std::vector<double> s(dim), yv(dim);
        for (size_t i = 0; i < dim; ++i) {
            s[i] = new_x[i] - x[i];
            yv[i] = new_grad[i] - grad[i];
        }
        const double sy = dot(s, yv);
        if (sy > 1e-12) {
            s_hist.push_back(std::move(s));
            y_hist.push_back(std::move(yv));
            rho_hist.push_back(1.0 / sy);
            if (static_cast<int>(s_hist.size()) > memory) {
                s_hist.erase(s_hist.begin());
                y_hist.erase(y_hist.begin());
                rho_hist.erase(rho_hist.begin());
            }
        }

        if (std::abs(fx - new_fx) <
            tolerance * std::max(1.0, std::abs(fx)))
        {
            x = new_x;
            grad = new_grad;
            break;
        }
        x = new_x;
        grad = new_grad;
        fx = new_fx;
    }
}

LogisticRegression::LogisticRegression(const Dataset &data,
                                       const LogRegConfig &cfg)
    : w_(data.numFeatures, 0.0)
{
    const size_t n = data.numSamples();
    const size_t dim = data.numFeatures + 1; // weights + bias

    auto eval = [&](const std::vector<double> &p,
                    std::vector<double> &grad) {
        std::fill(grad.begin(), grad.end(), 0.0);
        double loss = 0.0;
        for (size_t i = 0; i < n; ++i) {
            const float *x = data.row(i);
            double z = p[data.numFeatures];
            for (size_t j = 0; j < data.numFeatures; ++j)
                z += p[j] * x[j];
            const double prob = sigmoid(z);
            const double y = data.y[i];
            loss += -(y * std::log(std::max(prob, 1e-12)) +
                      (1 - y) * std::log(std::max(1 - prob, 1e-12)));
            const double d = prob - y;
            for (size_t j = 0; j < data.numFeatures; ++j)
                grad[j] += d * x[j];
            grad[data.numFeatures] += d;
        }
        const double inv_n = n ? 1.0 / static_cast<double>(n) : 1.0;
        loss *= inv_n;
        for (auto &g : grad)
            g *= inv_n;
        for (size_t j = 0; j < data.numFeatures; ++j) {
            loss += 0.5 * cfg.l2 * p[j] * p[j];
            grad[j] += cfg.l2 * p[j];
        }
        return loss;
    };

    std::vector<double> params(dim, 0.0);
    if (n > 0) {
        lbfgsMinimize(dim, eval, params, cfg.maxIterations,
                      cfg.lbfgsMemory, cfg.tolerance);
    }
    std::copy(params.begin(),
              params.begin() + static_cast<ptrdiff_t>(data.numFeatures),
              w_.begin());
    b_ = params[data.numFeatures];
}

double
LogisticRegression::score(const float *x) const
{
    double z = b_;
    for (size_t j = 0; j < w_.size(); ++j)
        z += w_[j] * x[j];
    return sigmoid(z);
}

void
LogisticRegression::scoreBatch(const float *X, int n,
                               double *out) const
{
    constexpr int kLanes = 8;
    const size_t stride = w_.size();
    int i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        const float *base = X + static_cast<size_t>(i) * stride;
        double z[kLanes];
        for (int l = 0; l < kLanes; ++l)
            z[l] = b_;
        for (size_t j = 0; j < stride; ++j) {
            const double wj = w_[j];
            for (int l = 0; l < kLanes; ++l)
                z[l] += wj * base[static_cast<size_t>(l) * stride + j];
        }
        for (int l = 0; l < kLanes; ++l)
            out[i + l] = sigmoid(z[l]);
    }
    for (; i < n; ++i)
        out[i] = score(X + static_cast<size_t>(i) * stride);
}

uint32_t
LogisticRegression::opsPerInference() const
{
    return 3u * static_cast<uint32_t>(w_.size()) + kExpOps;
}

size_t
LogisticRegression::memoryFootprintBytes() const
{
    return (w_.size() + 1) * sizeof(float);
}

std::string
LogisticRegression::describe() const
{
    return "LogisticRegression";
}

void
LogisticRegression::writeParams(BinaryWriter &out) const
{
    out.putVector(w_);
    out.put(b_);
}

LinearSvmEnsemble::LinearSvmEnsemble(const Dataset &data,
                                     const LinearSvmConfig &cfg)
    : numInputs_(data.numFeatures)
{
    const size_t n = data.numSamples();
    Rng rng(cfg.seed ^ 0x57a91e4aULL);

    for (int m = 0; m < cfg.ensembleSize; ++m) {
        std::vector<double> w(numInputs_ + 1, 0.0);
        if (n > 0) {
            // Pegasos: SGD on the hinge loss with 1/(lambda t) steps.
            uint64_t t = 1;
            for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
                for (size_t step = 0; step < n; ++step, ++t) {
                    const size_t i = static_cast<size_t>(rng.below(n));
                    const float *x = data.row(i);
                    const double y = data.y[i] ? 1.0 : -1.0;
                    double z = w[numInputs_];
                    for (size_t j = 0; j < numInputs_; ++j)
                        z += w[j] * x[j];
                    const double eta =
                        1.0 / (cfg.lambda * static_cast<double>(t));
                    for (size_t j = 0; j < numInputs_; ++j)
                        w[j] *= 1.0 - eta * cfg.lambda;
                    if (y * z < 1.0) {
                        for (size_t j = 0; j < numInputs_; ++j)
                            w[j] += eta * y * x[j];
                        w[numInputs_] += eta * y * 0.1;
                    }
                }
            }
        }
        members_.push_back(std::move(w));
    }
}

double
LinearSvmEnsemble::score(const float *x) const
{
    int votes = 0;
    for (const auto &w : members_) {
        double z = w[numInputs_];
        for (size_t j = 0; j < numInputs_; ++j)
            z += w[j] * x[j];
        votes += z >= 0.0 ? 1 : 0;
    }
    return static_cast<double>(votes) /
        static_cast<double>(members_.size());
}

void
LinearSvmEnsemble::scoreBatch(const float *X, int n, double *out) const
{
    constexpr int kLanes = 8;
    const size_t stride = numInputs_;
    int i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        const float *base = X + static_cast<size_t>(i) * stride;
        int votes[kLanes] = {};
        for (const auto &w : members_) {
            double z[kLanes];
            for (int l = 0; l < kLanes; ++l)
                z[l] = w[numInputs_];
            for (size_t j = 0; j < stride; ++j) {
                const double wj = w[j];
                for (int l = 0; l < kLanes; ++l)
                    z[l] +=
                        wj * base[static_cast<size_t>(l) * stride + j];
            }
            for (int l = 0; l < kLanes; ++l)
                votes[l] += z[l] >= 0.0 ? 1 : 0;
        }
        for (int l = 0; l < kLanes; ++l)
            out[i + l] = static_cast<double>(votes[l]) /
                static_cast<double>(members_.size());
    }
    for (; i < n; ++i)
        out[i] = score(X + static_cast<size_t>(i) * stride);
}

uint32_t
LinearSvmEnsemble::opsPerInference() const
{
    // 3 ops per input per member plus per-member compare/vote.
    return static_cast<uint32_t>(members_.size()) *
        (3u * static_cast<uint32_t>(numInputs_) + 8u) +
        4u;
}

size_t
LinearSvmEnsemble::memoryFootprintBytes() const
{
    return members_.size() * (numInputs_ + 1) * sizeof(float);
}

std::string
LinearSvmEnsemble::describe() const
{
    std::ostringstream os;
    os << "LinearSVM x" << members_.size();
    return os.str();
}

void
LinearSvmEnsemble::writeParams(BinaryWriter &out) const
{
    out.put<uint64_t>(numInputs_);
    for (const auto &member : members_)
        out.putVector(member);
}

} // namespace psca
