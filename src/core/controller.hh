/**
 * @file
 * The closed adaptation loop (Figs. 1 and 3): during execution, the
 * telemetry system snapshots counters every 10k instructions; at each
 * prediction-granularity boundary the microcontroller runs the
 * adaptation model appropriate to the current cluster configuration
 * on the just-finished block's (cycle-normalized) counters, and the
 * resulting decision is applied two blocks later — one full block of
 * slack for transport and inference.
 *
 * Two predictor adapters cover the model families: DualModelPredictor
 * wraps a pair of (scaler, model) for the high-perf/low-power
 * telemetry distributions; SrchPredictor wraps the Dubach-style
 * histogram models that consume the block's raw sub-interval rows.
 */

#ifndef PSCA_CORE_CONTROLLER_HH
#define PSCA_CORE_CONTROLLER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/builder.hh"
#include "core/metrics.hh"
#include "core/sla.hh"
#include "ml/model.hh"
#include "ml/srch.hh"
#include "sim/core.hh"

namespace psca {

/** Controller-facing decision interface. */
class GatePredictor
{
  public:
    virtual ~GatePredictor() = default;

    /** Prediction granularity in instructions. */
    virtual uint64_t granularity() const = 0;

    /**
     * Decide the configuration two blocks ahead.
     *
     * @param sub_rows Raw counter-delta rows of the finished block's
     *        10k sub-intervals.
     * @param sub_cycles Cycles of each sub-interval.
     * @param mode Cluster configuration the block executed in.
     * @return true to gate (low-power mode).
     */
    virtual bool decide(const std::vector<const float *> &sub_rows,
                        const std::vector<float> &sub_cycles,
                        CoreMode mode) = 0;

    /** Firmware ops per prediction, for budget checking. */
    virtual uint32_t opsPerInference() const = 0;

    virtual std::string name() const = 0;

    /**
     * A predictor with fresh per-run state that shares this one's
     * immutable trained models (through their shared_ptrs). A run on
     * a fork is a pure function of (predictor, trace): evaluateSuite
     * gives every trace its own fork, so no state leaks between
     * traces and concurrent lanes share nothing mutable. Must be safe
     * to call concurrently on one predictor.
     */
    virtual std::unique_ptr<GatePredictor> fork() const = 0;

    /**
     * Hash of everything decide() and opsPerInference() read
     * (columns, granularity, scalers, model parameters, thresholds,
     * wrapper configuration) and of the predictor class: equal
     * fingerprints make equal decisions on equal telemetry. Keys the
     * closed-loop result table beneath evaluateSuite, so it must
     * never depend on an address.
     */
    virtual uint64_t fingerprint() const = 0;
};

/**
 * Input sanitation (always on): faulted telemetry can hand a model
 * NaN/Inf or values far outside the trained distribution. A
 * non-finite feature vetoes straight to high-performance mode (the
 * fail-safe configuration): returns false and counts
 * `controller.sanitize_vetoes`. Otherwise finite values beyond
 * +/-kMaxAbsZ (24, a z-score envelope no healthy snapshot reaches)
 * are clamped and counted in `controller.sanitized_inputs`.
 */
bool sanitizeFeatures(std::vector<float> &features);

/**
 * The block-level decision front end (Sec. 4.1), shared by
 * DualModelPredictor, the firmware's VmPredictor and the serve drift
 * monitor so all three see one input row. Sums @p columns of the
 * block's sub-interval rows into @p features and divides by the
 * block's cycles (double sum, float inverse). With a @p scaler, also
 * z-scales through it and sanitizes the result.
 *
 * @return false when sanitation vetoes the decision.
 */
bool blockFeatures(const std::vector<const float *> &sub_rows,
                   const std::vector<float> &sub_cycles,
                   const std::vector<uint32_t> &columns,
                   const FeatureScaler *scaler,
                   std::vector<float> &features);

/** One mode's scaler+model slot. */
struct ScaledModel
{
    FeatureScaler scaler;
    std::shared_ptr<Model> model;
};

/**
 * Standard dual-model predictor: per-mode z-scaled aggregate counters
 * into a per-mode model (Sec. 4.1 trains one model per telemetry
 * mode).
 */
class DualModelPredictor : public GatePredictor
{
  public:
    /**
     * @param columns Record-column indices forming the model inputs.
     */
    DualModelPredictor(ScaledModel high, ScaledModel low,
                       std::vector<size_t> columns,
                       uint64_t granularity, std::string name);

    uint64_t granularity() const override { return granularity_; }
    bool decide(const std::vector<const float *> &sub_rows,
                const std::vector<float> &sub_cycles,
                CoreMode mode) override;
    uint32_t opsPerInference() const override;
    std::string name() const override { return name_; }
    std::unique_ptr<GatePredictor> fork() const override;
    uint64_t fingerprint() const override;

    const ScaledModel &highSlot() const { return high_; }
    const ScaledModel &lowSlot() const { return low_; }

  private:
    ScaledModel high_;
    ScaledModel low_;
    std::vector<uint32_t> columns_;
    uint64_t granularity_;
    std::string name_;
};

/** SRCH predictor: per-mode histogram models on raw sub-rows. */
class SrchPredictor : public GatePredictor
{
  public:
    SrchPredictor(std::shared_ptr<SrchModel> high,
                  std::shared_ptr<SrchModel> low,
                  std::vector<size_t> columns, uint64_t granularity,
                  std::string name);

    uint64_t granularity() const override { return granularity_; }
    bool decide(const std::vector<const float *> &sub_rows,
                const std::vector<float> &sub_cycles,
                CoreMode mode) override;
    uint32_t opsPerInference() const override;
    std::string name() const override { return name_; }
    std::unique_ptr<GatePredictor> fork() const override;
    uint64_t fingerprint() const override;

  private:
    std::shared_ptr<SrchModel> high_;
    std::shared_ptr<SrchModel> low_;
    std::vector<size_t> columns_;
    uint64_t granularity_;
    std::string name_;
};

/**
 * Replays one workload block by block for closed-loop control: the
 * per-block simulate / snapshot / fault-inject / account machinery
 * that runClosedLoop() and the serve loop (src/serve) share. The
 * caller picks each block's cluster mode (the applied decision) and
 * receives the finished block: the controller's telemetry view plus
 * the ground-truth per-interval accounting, which feeds energy and
 * performance regardless of injected telemetry faults.
 *
 * Determinism: fault draws are keyed by the workload's stable
 * identity mixed with the sub-interval index (traceKey()), so a given
 * PSCA_FAULTS + PSCA_FAULT_SEED produces a bit-identical fault
 * sequence at any PSCA_THREADS, and Block::account() adds the
 * intervals to a PpwAccumulator in execution order, so accumulated
 * float sums are bit-identical too.
 */
class BlockReplayer
{
  public:
    /** Ground truth of one sub-interval, as accounting folds it. */
    struct IntervalCost
    {
        uint64_t instructions = 0;
        uint64_t cycles = 0;
        double energyNj = 0.0;
    };

    /**
     * Everything one replayed block yields: the controller's
     * (fault-injected) telemetry view of its sub-intervals and their
     * ground-truth accounting. Block b of a replay is a pure function
     * of (workload, build config, k, fault spec, modes of blocks
     * 0..b), which is what lets the serve loop store and reuse it.
     */
    struct Block
    {
        /** k telemetry rows of counterIds.size() values, row-major. */
        std::vector<float> rows;
        /** Cycles of each sub-interval as the controller saw them. */
        std::vector<float> subCycles;
        /** Per-sub-interval ground truth, in execution order. */
        std::vector<IntervalCost> intervals;
        /** Snapshots lost in flight and carried forward. */
        uint64_t carryforwards = 0;

        /** rows as the row-pointer list predictors consume. */
        std::vector<const float *> rowPtrs() const;

        /**
         * Fold the block into @p acc interval by interval (so float
         * sums are the same whether the block was simulated or
         * stored) and count its carry-forwards in
         * `controller.snapshot_carryforwards`.
         */
        void account(PpwAccumulator &acc) const;

        /** Bit-for-bit equality (NaN rows included). */
        bool identical(const Block &other) const;
    };

    /**
     * @param k Sub-intervals per block (granularity / interval).
     */
    BlockReplayer(const Workload &workload, const BuildConfig &cfg,
                  size_t k);

    /**
     * Simulate the next block in @p mode. The returned view is
     * overwritten by the next call; nothing is accounted until the
     * caller folds it with Block::account().
     */
    const Block &runBlock(CoreMode mode);

    /** Stable fault-stream identity of this workload. */
    uint64_t traceKey() const { return traceKey_; }

    /** Blocks replayed so far. */
    uint64_t blocksRun() const { return block_; }

    /** Cumulative cluster mode switches of the simulated core. */
    uint64_t modeSwitches() const;

  private:
    BuildConfig cfg_;
    size_t k_;
    bool faultsOn_;
    uint64_t traceKey_;
    ClusteredCore core_;
    PowerModel power_;
    TraceGenerator gen_;
    std::vector<uint64_t> prev_;
    std::vector<uint64_t> deltaAll_;
    std::vector<uint64_t> view_;
    Block out_;
    std::vector<float> carryRow_;
    float carryCycles_ = 0.0f;
    uint64_t block_ = 0;
};

/** Outcome of one closed-loop adaptive run. */
struct ClosedLoopResult
{
    /** PPW gain over the non-adaptive high-performance run, percent. */
    double ppwGainPct = 0.0;
    /** Average performance relative to high-perf mode, percent. */
    double perfRelativePct = 100.0;
    /** Fraction of blocks executed in low-power mode. */
    double lowResidency = 0.0;
    /** Offline-quality metrics of the predictions actually made. */
    ConfusionCounts confusion;
    double pgos = 0.0;
    double rsv = 0.0;
    uint64_t numPredictions = 0;
    uint64_t modeSwitches = 0;
    /** Microcontroller ops consumed by inference. */
    uint64_t ucOps = 0;
};

/**
 * Run one workload under predictive cluster gating.
 *
 * @param workload The trace to execute.
 * @param reference Its dual-mode record (ground-truth labels and the
 *        non-adaptive baseline for PPW).
 * @param predictor The adaptation model pair.
 * @param cfg Recording configuration (must match the reference).
 * @param sla SLA used for labels and RSV windows.
 */
ClosedLoopResult runClosedLoop(const Workload &workload,
                               const TraceRecord &reference,
                               GatePredictor &predictor,
                               const BuildConfig &cfg,
                               const SlaSpec &sla);

} // namespace psca

#endif // PSCA_CORE_CONTROLLER_HH
