#include "core/controller.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>

#include "common/fault.hh"
#include "common/serialize.hh"
#include "obs/phase.hh"
#include "obs/stats.hh"
#include "sim/core.hh"
#include "uc/budget.hh"

namespace psca {

namespace {

/** Clamp envelope of sanitizeFeatures(). */
constexpr float kMaxAbsZ = 24.0f;

} // namespace

bool
sanitizeFeatures(std::vector<float> &features)
{
    size_t clamped = 0;
    for (auto &z : features) {
        if (!std::isfinite(z)) {
            obs::StatRegistry::instance()
                .counter("controller.sanitize_vetoes")
                .add();
            return false;
        }
        if (z > kMaxAbsZ) {
            z = kMaxAbsZ;
            ++clamped;
        } else if (z < -kMaxAbsZ) {
            z = -kMaxAbsZ;
            ++clamped;
        }
    }
    if (clamped > 0) {
        obs::StatRegistry::instance()
            .counter("controller.sanitized_inputs")
            .add(clamped);
    }
    return true;
}

bool
blockFeatures(const std::vector<const float *> &sub_rows,
              const std::vector<float> &sub_cycles,
              const std::vector<uint32_t> &columns,
              const FeatureScaler *scaler, std::vector<float> &features)
{
    features.assign(columns.size(), 0.0f);
    double cycles = 0.0;
    for (size_t t = 0; t < sub_rows.size(); ++t) {
        for (size_t j = 0; j < columns.size(); ++j)
            features[j] += sub_rows[t][columns[j]];
        cycles += sub_cycles[t];
    }
    const float inv =
        cycles > 0.0 ? static_cast<float>(1.0 / cycles) : 0.0f;
    for (auto &v : features)
        v *= inv;
    if (!scaler)
        return true;
    scaler->applyRow(features.data(), features.data());
    return sanitizeFeatures(features);
}

DualModelPredictor::DualModelPredictor(ScaledModel high,
                                       ScaledModel low,
                                       std::vector<size_t> columns,
                                       uint64_t granularity,
                                       std::string name)
    : high_(std::move(high)), low_(std::move(low)),
      columns_(columns.begin(), columns.end()),
      granularity_(granularity), name_(std::move(name))
{}

bool
DualModelPredictor::decide(const std::vector<const float *> &sub_rows,
                           const std::vector<float> &sub_cycles,
                           CoreMode mode)
{
    const ScaledModel &slot =
        mode == CoreMode::HighPerf ? high_ : low_;
    std::vector<float> z;
    if (!blockFeatures(sub_rows, sub_cycles, columns_, &slot.scaler, z))
        return false;
    return slot.model->predict(z.data());
}

uint32_t
DualModelPredictor::opsPerInference() const
{
    return std::max(high_.model->opsPerInference(),
                    low_.model->opsPerInference());
}

std::unique_ptr<GatePredictor>
DualModelPredictor::fork() const
{
    // Stateless between decisions: a copy shares both models.
    return std::make_unique<DualModelPredictor>(*this);
}

uint64_t
DualModelPredictor::fingerprint() const
{
    BinaryWriter out;
    out.putString("dual");
    out.put(granularity_);
    out.putVector(columns_);
    for (const ScaledModel *slot : {&high_, &low_}) {
        out.putVector(slot->scaler.mean);
        out.putVector(slot->scaler.invStd);
        out.put(slot->model->fingerprint());
    }
    return out.checksum();
}

SrchPredictor::SrchPredictor(std::shared_ptr<SrchModel> high,
                             std::shared_ptr<SrchModel> low,
                             std::vector<size_t> columns,
                             uint64_t granularity, std::string name)
    : high_(std::move(high)), low_(std::move(low)),
      columns_(std::move(columns)), granularity_(granularity),
      name_(std::move(name))
{}

bool
SrchPredictor::decide(const std::vector<const float *> &sub_rows,
                      const std::vector<float> &sub_cycles,
                      CoreMode mode)
{
    const auto &model = mode == CoreMode::HighPerf ? high_ : low_;

    // Build per-sub-interval normalized rows in model column order.
    std::vector<std::vector<float>> rows(sub_rows.size());
    std::vector<const float *> row_ptrs;
    for (size_t t = 0; t < sub_rows.size(); ++t) {
        rows[t].resize(columns_.size());
        const float inv = sub_cycles[t] > 0.0f
            ? 1.0f / sub_cycles[t]
            : 0.0f;
        for (size_t j = 0; j < columns_.size(); ++j)
            rows[t][j] = sub_rows[t][columns_[j]] * inv;
        row_ptrs.push_back(rows[t].data());
    }

    std::vector<float> features(model->encoder().numFeatures());
    model->encoder().encode(row_ptrs, features.data());
    // Same sanitation as DualModelPredictor. Histogram features are
    // bucket fractions in [0, 1], so only the non-finite veto fires.
    if (!sanitizeFeatures(features))
        return false;
    return model->predict(features.data());
}

uint32_t
SrchPredictor::opsPerInference() const
{
    return std::max(high_->opsPerInference(),
                    low_->opsPerInference());
}

std::unique_ptr<GatePredictor>
SrchPredictor::fork() const
{
    return std::make_unique<SrchPredictor>(*this);
}

uint64_t
SrchPredictor::fingerprint() const
{
    BinaryWriter out;
    out.putString("srch");
    out.put(granularity_);
    out.putVector(columns_);
    out.put(high_->fingerprint());
    out.put(low_->fingerprint());
    return out.checksum();
}

std::vector<const float *>
BlockReplayer::Block::rowPtrs() const
{
    const size_t width = rows.size() / subCycles.size();
    std::vector<const float *> ptrs;
    ptrs.reserve(subCycles.size());
    for (size_t t = 0; t < subCycles.size(); ++t)
        ptrs.push_back(rows.data() + t * width);
    return ptrs;
}

void
BlockReplayer::Block::account(PpwAccumulator &acc) const
{
    for (const IntervalCost &c : intervals)
        acc.add(c.instructions, c.cycles, c.energyNj);
    if (carryforwards > 0)
        obs::StatRegistry::instance()
            .counter("controller.snapshot_carryforwards")
            .add(carryforwards);
}

bool
BlockReplayer::Block::identical(const Block &other) const
{
    const auto same_bytes = [](const auto &a, const auto &b) {
        return a.size() == b.size() &&
            std::memcmp(a.data(), b.data(),
                        a.size() * sizeof(a[0])) == 0;
    };
    if (carryforwards != other.carryforwards ||
        !same_bytes(rows, other.rows) ||
        !same_bytes(subCycles, other.subCycles) ||
        intervals.size() != other.intervals.size())
        return false;
    for (size_t t = 0; t < intervals.size(); ++t) {
        const IntervalCost &a = intervals[t];
        const IntervalCost &b = other.intervals[t];
        if (a.instructions != b.instructions || a.cycles != b.cycles ||
            std::bit_cast<uint64_t>(a.energyNj) !=
                std::bit_cast<uint64_t>(b.energyNj))
            return false;
    }
    return true;
}

BlockReplayer::BlockReplayer(const Workload &workload,
                             const BuildConfig &cfg, size_t k)
    : cfg_(cfg), k_(k),
      // Fault injection corrupts only the controller's telemetry
      // view (rows/subCycles); ground-truth deltas still feed
      // energy and performance accounting. Draws are keyed by the
      // workload's deterministic identity mixed with the sub-interval
      // index, so fault sequences are identical at any thread count.
      faultsOn_(FaultRegistry::instance().anyEnabled()),
      traceKey_(mixSeeds(
          workload.genome.seed,
          mixSeeds(workload.inputSeed, workload.traceIndex))),
      core_(cfg.core), power_(cfg.power, cfg.core.clockGhz),
      gen_(workload), carryRow_(cfg.counterIds.size(), 0.0f)
{
    out_.rows.resize(k * cfg.counterIds.size());
    out_.subCycles.resize(k);
    out_.intervals.resize(k);
    core_.reset();
    core_.setMode(CoreMode::HighPerf);
    if (cfg_.warmupInstr > 0)
        core_.run(gen_, cfg_.warmupInstr);
    prev_ = core_.counters().raw();
    deltaAll_.resize(prev_.size());
}

const BlockReplayer::Block &
BlockReplayer::runBlock(CoreMode mode)
{
    core_.setMode(mode);
    const CoreMode block_mode = core_.mode();
    const uint64_t b = block_++;
    const size_t width = cfg_.counterIds.size();
    out_.carryforwards = 0;

    for (size_t t = 0; t < k_; ++t) {
        const IntervalStats stats =
            core_.run(gen_, cfg_.intervalInstr);
        const auto &now = core_.counters().raw();
        for (size_t i = 0; i < now.size(); ++i)
            deltaAll_[i] = now[i] - prev_[i];
        prev_ = now;
        bool dropped = false;
        if (faultsOn_) {
            view_ = deltaAll_;
            dropped = applyTelemetryFaults(
                view_, mixSeeds(traceKey_, b * k_ + t));
        }
        float *row = out_.rows.data() + t * width;
        if (dropped) {
            // Snapshot lost in flight: the controller reuses its
            // previous view of this lane rather than reading
            // garbage (zeros at the very start of the run).
            std::copy(carryRow_.begin(), carryRow_.end(), row);
            out_.subCycles[t] = carryCycles_;
            ++out_.carryforwards;
        } else {
            const auto &src = faultsOn_ ? view_ : deltaAll_;
            for (size_t j = 0; j < width; ++j)
                row[j] = static_cast<float>(src[cfg_.counterIds[j]]);
            out_.subCycles[t] = static_cast<float>(stats.cycles);
            if (faultsOn_) {
                carryRow_.assign(row, row + width);
                carryCycles_ = out_.subCycles[t];
            }
        }
        out_.intervals[t] = {stats.instructions, stats.cycles,
                             power_.intervalEnergyNj(
                                 deltaAll_, stats.cycles, block_mode)};
    }
    return out_;
}

uint64_t
BlockReplayer::modeSwitches() const
{
    return core_.counters().value(Ctr::ModeSwitches);
}

ClosedLoopResult
runClosedLoop(const Workload &workload, const TraceRecord &reference,
              GatePredictor &predictor, const BuildConfig &cfg,
              const SlaSpec &sla)
{
    PSCA_ASSERT(predictor.granularity() % cfg.intervalInstr == 0,
                "granularity must be a multiple of the interval");
    const size_t k = predictor.granularity() / cfg.intervalInstr;
    const size_t blocks = reference.numIntervals() / k;

    ClosedLoopResult result;
    if (blocks == 0)
        return result;

    obs::ScopedPhase phase("closed_loop_replay");
    auto &reg = obs::StatRegistry::instance();
    obs::Histogram &decision_lat =
        reg.histogram("controller.decision_latency_ns");
    obs::Histogram &ops_hist =
        reg.histogram("controller.ops_per_inference");
    obs::Counter &gate_ctr = reg.counter("controller.gate_decisions");
    obs::Counter &stay_ctr =
        reg.counter("controller.nogate_decisions");

    BlockReplayer replayer(workload, cfg, k);

    const auto labels = blockLabels(reference, k, sla.pSla);
    const UcBudget budget;
    const uint64_t ops_budget =
        budget.opsBudget(predictor.granularity());
    reg.gauge("controller.ops_budget")
        .set(static_cast<double>(ops_budget));
    if (predictor.opsPerInference() > ops_budget) {
        reg.counter("controller.budget_overruns").add();
        warn("predictor '", predictor.name(), "' needs ",
             predictor.opsPerInference(), " ops but the ",
             predictor.granularity(), "-instruction budget is ",
             ops_budget);
    }

    std::vector<uint8_t> predictions(blocks, 0); // applied config
    const uint64_t trace_key = replayer.traceKey();
    const FaultSite &miss_site = FAULT_SITE("uc.deadline_miss");

    PpwAccumulator adaptive;
    uint64_t low_blocks = 0;
    // Decisions waiting to be applied (decision at block b applies
    // at block b+2).
    std::vector<uint8_t> pending(blocks + 2, 0);

    for (size_t b = 0; b < blocks; ++b) {
        const CoreMode block_mode = pending[b]
            ? CoreMode::LowPower
            : CoreMode::HighPerf;
        predictions[b] = pending[b];
        low_blocks += pending[b];

        const BlockReplayer::Block &block =
            replayer.runBlock(block_mode);
        block.account(adaptive);

        // Microcontroller inference for block b+2. A deadline miss
        // (injected, or deterministic-on-overrun when the site's
        // param >= 1 and the model's static ops exceed the budget)
        // means the result arrives too late to matter: the
        // controller carries the most recently scheduled decision
        // forward instead of consuming a stale or partial one.
        bool deadline_missed = false;
        if (miss_site.enabled()) {
            deadline_missed = miss_site.param(0.0) >= 1.0
                ? predictor.opsPerInference() > ops_budget
                : miss_site.fires(mixSeeds(trace_key, b));
        }
        if (deadline_missed) {
            reg.counter("controller.deadline_misses").add();
            result.ucOps += predictor.opsPerInference();
            if (b + 2 < pending.size())
                pending[b + 2] = pending[b + 1];
            continue;
        }
        const std::vector<const float *> row_ptrs = block.rowPtrs();
        const auto decide_start = std::chrono::steady_clock::now();
        const bool gate =
            predictor.decide(row_ptrs, block.subCycles, block_mode);
        decision_lat.add(obs::elapsedNs(decide_start));
        ops_hist.add(predictor.opsPerInference());
        (gate ? gate_ctr : stay_ctr).add();
        result.ucOps += predictor.opsPerInference();
        ++result.numPredictions;
        if (b + 2 < pending.size())
            pending[b + 2] = gate ? 1 : 0;
    }

    // Reference (non-adaptive high-performance) totals.
    PpwAccumulator high_only;
    for (size_t b = 0; b < blocks; ++b) {
        for (size_t t = b * k; t < (b + 1) * k; ++t) {
            high_only.add(
                cfg.intervalInstr,
                static_cast<uint64_t>(reference.cyclesHigh[t]),
                reference.energyHighNj[t]);
        }
    }

    result.ppwGainPct =
        high_only.ppw() > 0.0
        ? (adaptive.ppw() / high_only.ppw() - 1.0) * 100.0
        : 0.0;
    result.perfRelativePct = adaptive.cycles()
        ? static_cast<double>(high_only.cycles()) /
            static_cast<double>(adaptive.cycles()) * 100.0
        : 100.0;
    result.lowResidency = static_cast<double>(low_blocks) /
        static_cast<double>(blocks);
    result.modeSwitches = replayer.modeSwitches();

    for (size_t b = 0; b < blocks; ++b)
        result.confusion.add(predictions[b] != 0, labels[b] != 0);
    result.pgos = result.confusion.pgos();
    const uint64_t window = sla.windowPredictions(
        cfg.core.clockGhz * 1e9 *
            static_cast<double>(cfg.core.retireWidth),
        predictor.granularity());
    result.rsv = rsvForTrace(predictions, labels, window);

    reg.counter("controller.predictions").add(result.numPredictions);
    reg.counter("controller.mode_transitions")
        .add(result.modeSwitches);
    result.confusion.exportTo(reg, "controller.confusion");
    return result;
}

} // namespace psca
