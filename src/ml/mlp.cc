#include "ml/mlp.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/simd.hh"
#include "ml/batch_kernels.hh"

namespace psca {

namespace {

double
sigmoid(double z)
{
    return 1.0 / (1.0 + std::exp(-z));
}

} // namespace

MlpModel::MlpModel(size_t num_inputs,
                   const std::vector<int> &hidden_layers, uint64_t seed)
    : numInputs_(num_inputs)
{
    PSCA_ASSERT(num_inputs > 0, "MLP needs at least one input");
    sizes_.push_back(static_cast<int>(num_inputs));
    for (int h : hidden_layers) {
        PSCA_ASSERT(h > 0, "hidden layer width must be positive");
        sizes_.push_back(h);
    }
    sizes_.push_back(1);

    Rng rng(seed);
    for (size_t l = 0; l + 1 < sizes_.size(); ++l) {
        const int fan_in = sizes_[l];
        const int fan_out = sizes_[l + 1];
        const double scale = std::sqrt(2.0 / fan_in); // He init
        std::vector<float> w(static_cast<size_t>(fan_in) * fan_out);
        for (auto &v : w)
            v = static_cast<float>(rng.gaussian(0.0, scale));
        w_.push_back(std::move(w));
        b_.emplace_back(static_cast<size_t>(fan_out), 0.0f);
    }
}

double
MlpModel::score(const float *x) const
{
    std::vector<float> act(x, x + numInputs_);
    std::vector<float> next;
    for (size_t l = 0; l < w_.size(); ++l) {
        const int fan_in = sizes_[l];
        const int fan_out = sizes_[l + 1];
        next.assign(static_cast<size_t>(fan_out), 0.0f);
        const bool last = l + 1 == w_.size();
        for (int f = 0; f < fan_out; ++f) {
            const float *row = w_[l].data() +
                static_cast<size_t>(f) * fan_in;
            float sum = b_[l][static_cast<size_t>(f)];
            for (int i = 0; i < fan_in; ++i)
                sum += row[i] * act[static_cast<size_t>(i)];
            next[static_cast<size_t>(f)] =
                last ? sum : std::max(0.0f, sum); // ReLU
        }
        act.swap(next);
    }
    return sigmoid(act[0]);
}

namespace mlkern {

void
mlpForwardBlockScalar(const MlpView &m, const float *xt,
                      float *scratch, float *logits)
{
    constexpr int W = kMlpLanes;
    int max_width = 0;
    for (int l = 0; l <= m.numLayers; ++l)
        max_width = std::max(max_width, m.sizes[l]);

    float *act = scratch;
    float *next = scratch + static_cast<size_t>(max_width) * W;
    const int fan_in0 = m.sizes[0];
    for (int i = 0; i < fan_in0 * W; ++i)
        act[i] = xt[i];

    for (int l = 0; l < m.numLayers; ++l) {
        const int fan_in = m.sizes[l];
        const int fan_out = m.sizes[l + 1];
        const bool last = l + 1 == m.numLayers;
        for (int f = 0; f < fan_out; ++f) {
            const float *row =
                m.weights[l] + static_cast<size_t>(f) * fan_in;
            const float bias = m.biases[l][static_cast<size_t>(f)];
            float sum[W];
            for (int w = 0; w < W; ++w)
                sum[w] = bias;
            for (int i = 0; i < fan_in; ++i) {
                const float wi = row[i];
                const float *ai = act + static_cast<size_t>(i) * W;
                for (int w = 0; w < W; ++w)
                    sum[w] += wi * ai[w];
            }
            float *nf = next + static_cast<size_t>(f) * W;
            for (int w = 0; w < W; ++w)
                nf[w] = last ? sum[w] : std::max(0.0f, sum[w]);
        }
        std::swap(act, next);
    }
    for (int l = 0; l < W; ++l)
        logits[l] = act[l];
}

} // namespace mlkern

void
MlpModel::scoreBatch(const float *X, int n, double *out) const
{
    if (n <= 0)
        return;
    constexpr int W = mlkern::kMlpLanes;
    std::vector<const float *> wp, bp;
    for (size_t l = 0; l < w_.size(); ++l) {
        wp.push_back(w_[l].data());
        bp.push_back(b_[l].data());
    }
    mlkern::MlpView view;
    view.numLayers = static_cast<int>(w_.size());
    view.sizes = sizes_.data();
    view.weights = wp.data();
    view.biases = bp.data();

    const int max_width =
        *std::max_element(sizes_.begin(), sizes_.end());
    std::vector<float> xt(numInputs_ * W);
    std::vector<float> scratch(2 * static_cast<size_t>(max_width) * W);
    float logits[W];
    const bool avx2 =
        simd::useAvx2() && mlkern::mlpForwardAvx2Compiled();

    for (int i = 0; i < n; i += W) {
        const int lanes = std::min(W, n - i);
        // Transpose the block; short tail blocks pad with zeros
        // (padded lanes are computed and discarded).
        for (size_t j = 0; j < numInputs_; ++j)
            for (int l = 0; l < W; ++l)
                xt[j * W + static_cast<size_t>(l)] =
                    l < lanes
                        ? X[static_cast<size_t>(i + l) * numInputs_ + j]
                        : 0.0f;
        (avx2 ? mlkern::mlpForwardBlockAvx2
              : mlkern::mlpForwardBlockScalar)(
            view, xt.data(), scratch.data(), logits);
        for (int l = 0; l < lanes; ++l)
            out[i + l] = sigmoid(static_cast<double>(logits[l]));
    }
}

uint32_t
MlpModel::opsPerInference() const
{
    // The paper's Table 3 accounting: each hidden filter costs
    // 3 * fan_in (fld/fmul/fadd per input) + 5 (activation) ops; the
    // scalar readout is folded into the final layer at +2 ops. This
    // reproduces 292 / 678 / 6,162 ops for the paper's three MLP
    // configurations exactly.
    uint32_t ops = 2;
    for (size_t l = 0; l + 2 < sizes_.size(); ++l) {
        ops += static_cast<uint32_t>(sizes_[l + 1]) *
            (3u * static_cast<uint32_t>(sizes_[l]) + 5u);
    }
    return ops;
}

size_t
MlpModel::memoryFootprintBytes() const
{
    size_t params = 0;
    for (size_t l = 0; l < w_.size(); ++l)
        params += w_[l].size() + b_[l].size();
    return params * sizeof(float);
}

std::string
MlpModel::describe() const
{
    std::ostringstream os;
    os << "MLP";
    for (size_t l = 1; l + 1 < sizes_.size(); ++l)
        os << (l == 1 ? " " : "/") << sizes_[l];
    return os.str();
}

void
MlpModel::writeParams(BinaryWriter &out) const
{
    out.putVector(sizes_);
    for (size_t l = 0; l < w_.size(); ++l) {
        out.putVector(w_[l]);
        out.putVector(b_[l]);
    }
}

void
MlpModel::train(const Dataset &data, const MlpConfig &cfg)
{
    PSCA_ASSERT(data.numFeatures == numInputs_,
                "dataset feature count mismatch");
    const size_t n = data.numSamples();
    if (n == 0)
        return;

    // Adam state per layer.
    const size_t num_layers = w_.size();
    std::vector<std::vector<float>> mw(num_layers), vw(num_layers);
    std::vector<std::vector<float>> mb(num_layers), vb(num_layers);
    std::vector<std::vector<float>> gw(num_layers), gb(num_layers);
    for (size_t l = 0; l < num_layers; ++l) {
        mw[l].assign(w_[l].size(), 0.0f);
        vw[l].assign(w_[l].size(), 0.0f);
        mb[l].assign(b_[l].size(), 0.0f);
        vb[l].assign(b_[l].size(), 0.0f);
        gw[l].resize(w_[l].size());
        gb[l].resize(b_[l].size());
    }

    // Per-layer activations for one sample (forward scratch).
    std::vector<std::vector<float>> act(num_layers + 1);
    std::vector<std::vector<float>> delta(num_layers + 1);
    for (size_t l = 0; l <= num_layers; ++l) {
        act[l].resize(static_cast<size_t>(sizes_[l]));
        delta[l].resize(static_cast<size_t>(sizes_[l]));
    }

    const double beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
    double beta1_t = 1.0, beta2_t = 1.0;

    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    Rng rng(cfg.seed ^ 0xada3adaULL);

    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
        rng.shuffle(order);
        size_t pos = 0;
        while (pos < n) {
            const size_t batch_end =
                std::min(n, pos + static_cast<size_t>(cfg.batchSize));
            const double inv_batch =
                1.0 / static_cast<double>(batch_end - pos);
            for (size_t l = 0; l < num_layers; ++l) {
                std::fill(gw[l].begin(), gw[l].end(), 0.0f);
                std::fill(gb[l].begin(), gb[l].end(), 0.0f);
            }

            for (size_t s = pos; s < batch_end; ++s) {
                const size_t idx = order[s];
                const float *x = data.row(idx);
                std::copy(x, x + numInputs_, act[0].begin());

                // Forward.
                for (size_t l = 0; l < num_layers; ++l) {
                    const int fan_in = sizes_[l];
                    const int fan_out = sizes_[l + 1];
                    const bool last = l + 1 == num_layers;
                    for (int f = 0; f < fan_out; ++f) {
                        const float *row = w_[l].data() +
                            static_cast<size_t>(f) * fan_in;
                        float sum = b_[l][static_cast<size_t>(f)];
                        for (int i = 0; i < fan_in; ++i)
                            sum += row[i] * act[l][static_cast<size_t>(i)];
                        act[l + 1][static_cast<size_t>(f)] =
                            last ? sum : std::max(0.0f, sum);
                    }
                }

                // Backward (BCE with sigmoid output: dL/dz = p - y).
                const double p = sigmoid(act[num_layers][0]);
                delta[num_layers][0] = static_cast<float>(
                    p - static_cast<double>(data.y[idx]));
                for (size_t l = num_layers; l-- > 0;) {
                    const int fan_in = sizes_[l];
                    const int fan_out = sizes_[l + 1];
                    std::fill(delta[l].begin(), delta[l].end(), 0.0f);
                    for (int f = 0; f < fan_out; ++f) {
                        const float d =
                            delta[l + 1][static_cast<size_t>(f)];
                        if (d == 0.0f)
                            continue;
                        float *grow = gw[l].data() +
                            static_cast<size_t>(f) * fan_in;
                        const float *wrow = w_[l].data() +
                            static_cast<size_t>(f) * fan_in;
                        for (int i = 0; i < fan_in; ++i) {
                            grow[i] += d * act[l][static_cast<size_t>(i)];
                            delta[l][static_cast<size_t>(i)] +=
                                d * wrow[i];
                        }
                        gb[l][static_cast<size_t>(f)] += d;
                    }
                    // ReLU derivative on the pre-activation sign,
                    // equivalent to gating on the activation value.
                    if (l > 0) {
                        for (int i = 0; i < fan_in; ++i) {
                            if (act[l][static_cast<size_t>(i)] <= 0.0f)
                                delta[l][static_cast<size_t>(i)] = 0.0f;
                        }
                    }
                }
            }

            // Adam update.
            beta1_t *= beta1;
            beta2_t *= beta2;
            const double lr = cfg.learningRate *
                std::sqrt(1.0 - beta2_t) / (1.0 - beta1_t);
            for (size_t l = 0; l < num_layers; ++l) {
                for (size_t k = 0; k < w_[l].size(); ++k) {
                    const double g = gw[l][k] * inv_batch +
                        cfg.l2 * w_[l][k];
                    mw[l][k] = static_cast<float>(
                        beta1 * mw[l][k] + (1 - beta1) * g);
                    vw[l][k] = static_cast<float>(
                        beta2 * vw[l][k] + (1 - beta2) * g * g);
                    w_[l][k] -= static_cast<float>(
                        lr * mw[l][k] / (std::sqrt(vw[l][k]) + eps));
                }
                for (size_t k = 0; k < b_[l].size(); ++k) {
                    const double g = gb[l][k] * inv_batch;
                    mb[l][k] = static_cast<float>(
                        beta1 * mb[l][k] + (1 - beta1) * g);
                    vb[l][k] = static_cast<float>(
                        beta2 * vb[l][k] + (1 - beta2) * g * g);
                    b_[l][k] -= static_cast<float>(
                        lr * mb[l][k] / (std::sqrt(vb[l][k]) + eps));
                }
            }
            pos = batch_end;
        }
    }
}

std::unique_ptr<MlpModel>
trainMlp(const Dataset &data, const MlpConfig &cfg)
{
    auto model = std::make_unique<MlpModel>(
        data.numFeatures, cfg.hiddenLayers, cfg.seed);
    model->train(data, cfg);
    return model;
}

} // namespace psca
