#include "ml/srch.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace psca {

HistogramEncoder
HistogramEncoder::fit(const Dataset &data)
{
    HistogramEncoder enc;
    const size_t n = data.numSamples();
    enc.edges_.resize(data.numFeatures);
    std::vector<float> column(n);
    for (size_t j = 0; j < data.numFeatures; ++j) {
        for (size_t i = 0; i < n; ++i)
            column[i] = data.row(i)[j];
        std::sort(column.begin(), column.end());
        auto &edges = enc.edges_[j];
        edges.resize(kBuckets - 1);
        for (int k = 1; k < kBuckets; ++k) {
            const size_t pos = std::min(
                n ? n - 1 : 0,
                static_cast<size_t>(static_cast<double>(k) /
                                    kBuckets *
                                    static_cast<double>(n)));
            edges[static_cast<size_t>(k - 1)] =
                n ? column[pos] : static_cast<float>(k);
        }
    }
    return enc;
}

int
HistogramEncoder::bucketOf(size_t counter, float value) const
{
    const auto &edges = edges_[counter];
    const auto it =
        std::upper_bound(edges.begin(), edges.end(), value);
    return static_cast<int>(it - edges.begin());
}

void
HistogramEncoder::writeParams(BinaryWriter &out) const
{
    out.put<uint64_t>(edges_.size());
    for (const auto &edges : edges_)
        out.putVector(edges);
}

void
HistogramEncoder::encode(const std::vector<const float *> &rows,
                         float *out) const
{
    std::fill(out, out + numFeatures(), 0.0f);
    if (rows.empty())
        return;
    const float weight = 1.0f / static_cast<float>(rows.size());
    for (const float *row : rows) {
        for (size_t j = 0; j < edges_.size(); ++j) {
            out[j * kBuckets +
                static_cast<size_t>(bucketOf(j, row[j]))] += weight;
        }
    }
}

Dataset
encodeHistogramDataset(const Dataset &per_interval,
                       const HistogramEncoder &encoder, int window)
{
    PSCA_ASSERT(window >= 1, "window must be positive");
    Dataset out;
    out.numFeatures = encoder.numFeatures();

    const size_t n = per_interval.numSamples();
    std::vector<float> features(out.numFeatures);
    std::vector<const float *> rows;

    size_t begin = 0;
    while (begin < n) {
        // Find the end of this trace's run.
        size_t end = begin;
        while (end < n &&
               per_interval.traceId[end] == per_interval.traceId[begin])
            ++end;
        for (size_t w = begin; w + static_cast<size_t>(window) <= end;
             w += static_cast<size_t>(window)) {
            rows.clear();
            for (int k = 0; k < window; ++k)
                rows.push_back(per_interval.row(w +
                                                static_cast<size_t>(k)));
            encoder.encode(rows, features.data());
            const size_t last = w + static_cast<size_t>(window) - 1;
            out.addSample(features.data(), per_interval.y[last],
                          per_interval.appId[last],
                          per_interval.traceId[last]);
        }
        begin = end;
    }
    return out;
}

SrchModel::SrchModel(const Dataset &per_interval, int window,
                     const LogRegConfig &cfg)
    : encoder_(HistogramEncoder::fit(per_interval)), window_(window)
{
    const Dataset hist =
        encodeHistogramDataset(per_interval, encoder_, window);
    lr_ = std::make_unique<LogisticRegression>(hist, cfg);
}

double
SrchModel::score(const float *histogram_features) const
{
    return lr_->score(histogram_features);
}

uint32_t
SrchModel::opsPerInference() const
{
    return lr_->opsPerInference();
}

size_t
SrchModel::memoryFootprintBytes() const
{
    return lr_->memoryFootprintBytes() +
        encoder_.numFeatures() * sizeof(float);
}

std::string
SrchModel::describe() const
{
    std::ostringstream os;
    os << "SRCH " << encoder_.numCounters() << "x"
       << HistogramEncoder::kBuckets << " window=" << window_;
    return os.str();
}

void
SrchModel::writeParams(BinaryWriter &out) const
{
    encoder_.writeParams(out);
    out.put<int32_t>(window_);
    lr_->writeParams(out);
}

} // namespace psca
