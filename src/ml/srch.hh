/**
 * @file
 * SRCH: Softmax Regression on Counter Histograms, the Dubach et al.
 * baseline (Sec. 7). Counter samples within a prediction window are
 * quantile-bucketed into per-counter 10-bin histograms; a logistic
 * regression (the two-configuration special case of softmax
 * regression) predicts the best configuration from the concatenated
 * histogram tallies.
 */

#ifndef PSCA_ML_SRCH_HH
#define PSCA_ML_SRCH_HH

#include <memory>
#include <vector>

#include "ml/linear.hh"
#include "ml/model.hh"

namespace psca {

/** Quantile histogram encoder fit on tuning data. */
class HistogramEncoder
{
  public:
    static constexpr int kBuckets = 10;

    /** Fit per-counter bucket edges at the (k/10) quantiles. */
    static HistogramEncoder fit(const Dataset &data);

    size_t numCounters() const { return edges_.size(); }
    size_t numFeatures() const { return edges_.size() * kBuckets; }

    /**
     * Encode a window of raw counter sample rows into normalized
     * histogram tallies.
     *
     * @param rows Pointers to the window's sample rows.
     * @param out Receives numFeatures() values.
     */
    void encode(const std::vector<const float *> &rows,
                float *out) const;

    /** Bucket index of one value for one counter. */
    int bucketOf(size_t counter, float value) const;

    /** Stream the bucket edges (Model::writeParams()). */
    void writeParams(BinaryWriter &out) const;

  private:
    /** Per counter: kBuckets-1 ascending edges. */
    std::vector<std::vector<float>> edges_;
};

/**
 * Encode a per-interval dataset into a per-window histogram dataset:
 * every `window` consecutive samples of the same trace collapse into
 * one histogram sample labeled by the window's final label.
 */
Dataset encodeHistogramDataset(const Dataset &per_interval,
                               const HistogramEncoder &encoder,
                               int window);

/** The SRCH adaptation model: encoder + logistic regression. */
class SrchModel : public Model
{
  public:
    /**
     * Train on a per-interval dataset.
     * @param window Sub-samples folded into each histogram.
     */
    SrchModel(const Dataset &per_interval, int window,
              const LogRegConfig &cfg);

    /** Inputs are raw counters; windowing happens inside. */
    size_t numInputs() const override
    {
        return encoder_.numCounters();
    }

    /**
     * Score a pre-encoded histogram feature vector (use encoder() to
     * build it from a window of counter samples).
     */
    double score(const float *histogram_features) const override;

    uint32_t opsPerInference() const override;
    size_t memoryFootprintBytes() const override;
    std::string describe() const override;
    void writeParams(BinaryWriter &out) const override;

    const HistogramEncoder &encoder() const { return encoder_; }
    int window() const { return window_; }

  private:
    HistogramEncoder encoder_;
    int window_;
    std::unique_ptr<LogisticRegression> lr_;
};

} // namespace psca

#endif // PSCA_ML_SRCH_HH
