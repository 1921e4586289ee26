/**
 * @file
 * Common interface for adaptation models (Sec. 2.3): trained offline,
 * then executed in inference mode on the microcontroller. Each model
 * reports its firmware cost (operations per prediction and memory
 * footprint) so the ops-budget machinery of Sec. 5 can decide the
 * finest prediction granularity it supports.
 */

#ifndef PSCA_ML_MODEL_HH
#define PSCA_ML_MODEL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "ml/dataset.hh"

namespace psca {

/** A trained binary adaptation model. */
class Model
{
  public:
    virtual ~Model() = default;

    /** Number of input counters the model consumes. */
    virtual size_t numInputs() const = 0;

    /**
     * Raw score for one (already normalized) feature vector; higher
     * means "gate" is more likely. Probabilistic models return a
     * probability in [0, 1].
     */
    virtual double score(const float *x) const = 0;

    /**
     * Raw scores for n row-major feature vectors (stride =
     * numInputs()): out[i] = score(X + i * numInputs()), bitwise.
     * The base implementation is the scalar loop; vectorized
     * overrides keep each sample's operation order (and therefore
     * its exact double result) and only parallelize across samples
     * (DESIGN.md §13).
     */
    virtual void
    scoreBatch(const float *X, int n, double *out) const
    {
        for (int i = 0; i < n; ++i)
            out[i] = score(X + static_cast<size_t>(i) * numInputs());
    }

    /** Binary decision: score >= threshold. */
    bool
    predict(const float *x) const
    {
        return score(x) >= threshold_;
    }

    /**
     * Batched decisions: out[i] = 1.0f when sample i gates, else
     * 0.0f. Exactly predict() per sample — the scores come from
     * scoreBatch() and the threshold compare stays in double — so
     * batched scoring loops are bit-identical to the scalar path.
     */
    void
    predictBatch(const float *X, int n, float *out) const
    {
        std::vector<double> scores(static_cast<size_t>(n > 0 ? n : 0));
        scoreBatch(X, n, scores.data());
        for (int i = 0; i < n; ++i)
            out[i] = scores[static_cast<size_t>(i)] >= threshold_
                ? 1.0f
                : 0.0f;
    }

    /**
     * Decision threshold (the model's "sensitivity", Sec. 6.3). Lower
     * thresholds gate more aggressively; raising the threshold trades
     * PGOS for fewer false-positive gating decisions.
     */
    double threshold() const { return threshold_; }
    void setThreshold(double t) { threshold_ = t; }

    /** Firmware operations per prediction (Table 3 accounting). */
    virtual uint32_t opsPerInference() const = 0;

    /** Firmware memory footprint in bytes (Table 3 accounting). */
    virtual size_t memoryFootprintBytes() const = 0;

    /** Short description, e.g. "MLP 8/8/4". */
    virtual std::string describe() const = 0;

    /**
     * Stream every parameter score() reads into @p out, field by
     * field (never as raw structs, so padding cannot leak in). The
     * threshold is not a parameter here; fingerprint() adds it.
     */
    virtual void writeParams(BinaryWriter &out) const = 0;

    /**
     * FNV-1a over describe(), writeParams() and the threshold: two
     * models with equal fingerprints make equal decisions on equal
     * inputs. Keys the closed-loop result table (core/pipeline.hh).
     */
    uint64_t
    fingerprint() const
    {
        BinaryWriter out;
        out.putString(describe());
        writeParams(out);
        out.put(threshold_);
        return out.checksum();
    }

  private:
    double threshold_ = 0.5;
};

} // namespace psca

#endif // PSCA_ML_MODEL_HH
