/**
 * @file
 * Tests for closed-loop suite evaluation (evaluateSuite): lanes on
 * predictor forks match a serial run bit for bit at any thread
 * count, the content-keyed result table reuses every (predictor,
 * trace) run and never confuses two predictors, and no predictor
 * state leaks from one trace into the next.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstring>

#include "common/parallel.hh"
#include "core/guardrail.hh"
#include "core/pipeline.hh"
#include "obs/stats.hh"

using namespace psca;

namespace {

Workload
mixedWorkload(uint64_t seed, uint64_t input_seed)
{
    AppGenome g;
    g.name = "eval" + std::to_string(seed);
    g.seed = seed;
    PhaseSpec gate, hungry;
    gate.kernel = {.kind = KernelKind::PointerChase,
                   .workingSetBytes = 16 << 20};
    gate.weight = 0.5;
    gate.meanLenInstr = 80e3;
    hungry.kernel = {.kind = KernelKind::Ilp, .chains = 14};
    hungry.weight = 0.5;
    hungry.meanLenInstr = 80e3;
    g.phases = {gate, hungry};
    Workload w;
    w.genome = g;
    w.inputSeed = input_seed;
    w.lengthInstr = 240000;
    w.name = g.name + ".i" + std::to_string(input_seed);
    return w;
}

/** Four recorded traces: a context just large enough for lanes. */
const ExperimentContext &
smallContext()
{
    static const ExperimentContext ctx = [] {
        ExperimentContext c;
        c.build.intervalInstr = 10000;
        c.build.warmupInstr = 20000;
        c.build.counterIds = {
            CounterRegistry::index(Ctr::InstRetired),
            CounterRegistry::index(Ctr::L1dMiss),
            CounterRegistry::index(Ctr::StallCount),
        };
        for (uint32_t t = 0; t < 4; ++t) {
            c.specWorkloadsList.push_back(
                mixedWorkload(61 + t % 2, 1 + t / 2));
            c.spec.push_back(recordTrace(c.specWorkloadsList.back(),
                                         c.build, t % 2, t));
        }
        return c;
    }();
    return ctx;
}

/** A small dual forest at 20k; @p seed varies the trained model. */
std::unique_ptr<DualModelPredictor>
smallForest(uint64_t seed, double threshold = -1.0)
{
    const ExperimentContext &ctx = smallContext();
    DualTrainOptions opts;
    opts.granularityInstr = 20000;
    opts.columns = {0, 1, 2};
    opts.rsvWindow = 50;
    opts.seed = seed;
    TrainedDual dual =
        trainDual(ctx.spec, ctx.build, opts, forestFactory(3, 5));
    if (threshold >= 0.0) {
        dual.high.model->setThreshold(threshold);
        dual.low.model->setThreshold(threshold);
    }
    return std::make_unique<DualModelPredictor>(
        dual.high, dual.low, opts.columns, opts.granularityInstr,
        "forest");
}

/** Gates every block: the guardrail's worst case. */
class AlwaysGate : public GatePredictor
{
  public:
    uint64_t granularity() const override { return 20000; }
    bool
    decide(const std::vector<const float *> &,
           const std::vector<float> &, CoreMode) override
    {
        return true;
    }
    uint32_t opsPerInference() const override { return 1; }
    std::string name() const override { return "always_gate"; }
    std::unique_ptr<GatePredictor> fork() const override
    {
        return std::make_unique<AlwaysGate>();
    }
    uint64_t fingerprint() const override { return 0xa1; }
};

std::vector<size_t>
allTraces()
{
    return {0, 1, 2, 3};
}

uint64_t
counterValue(const char *name)
{
    const obs::Counter *c =
        obs::StatRegistry::instance().findCounter(name);
    return c ? c->value() : 0;
}

/** Bitwise equality of every field of two closed-loop results. */
void
expectSameResult(const ClosedLoopResult &a, const ClosedLoopResult &b)
{
    for (auto field : {&ClosedLoopResult::ppwGainPct,
                       &ClosedLoopResult::perfRelativePct,
                       &ClosedLoopResult::lowResidency,
                       &ClosedLoopResult::pgos, &ClosedLoopResult::rsv})
        EXPECT_EQ(std::bit_cast<uint64_t>(a.*field),
                  std::bit_cast<uint64_t>(b.*field));
    EXPECT_EQ(a.confusion.truePositive, b.confusion.truePositive);
    EXPECT_EQ(a.confusion.falsePositive, b.confusion.falsePositive);
    EXPECT_EQ(a.confusion.trueNegative, b.confusion.trueNegative);
    EXPECT_EQ(a.confusion.falseNegative, b.confusion.falseNegative);
    EXPECT_EQ(a.numPredictions, b.numPredictions);
    EXPECT_EQ(a.modeSwitches, b.modeSwitches);
    EXPECT_EQ(a.ucOps, b.ucOps);
}

/** Each trace run serially on its own fork, outside the table. */
std::vector<ClosedLoopResult>
serialOnForks(const GatePredictor &p, const std::vector<size_t> &idx)
{
    const ExperimentContext &ctx = smallContext();
    SlaSpec sla = ctx.sla;
    sla.pSla = 0.90;
    std::vector<ClosedLoopResult> out;
    for (size_t i : idx) {
        const auto lane = p.fork();
        out.push_back(runClosedLoop(ctx.specWorkloadsList[i],
                                    ctx.spec[i], *lane, ctx.build,
                                    sla));
    }
    return out;
}

/** Restores the process pool's size when a test ends. */
struct PoolSize
{
    explicit PoolSize(int threads) { ThreadPool::configure(threads); }
    ~PoolSize() { ThreadPool::configure(parallelThreadCount()); }
};

} // namespace

TEST(EvaluateSuite, LanesMatchSerialForksAtOneAndFourThreads)
{
    // The table would serve a second evaluation of one predictor, so
    // each thread count evaluates its own (differently seeded)
    // forest, and each is compared with its serial reference.
    for (int threads : {4, 1}) {
        PoolSize pool(threads);
        const auto p = smallForest(100 + threads);
        const SuiteResult suite =
            evaluateSuite(smallContext(), *p, allTraces(), 0.90);
        const auto serial = serialOnForks(*p, allTraces());
        ASSERT_EQ(suite.perTrace.size(), serial.size());
        double ppw = 0.0;
        for (size_t i = 0; i < serial.size(); ++i) {
            SCOPED_TRACE("threads " + std::to_string(threads) +
                         ", trace " + std::to_string(i));
            expectSameResult(suite.perTrace[i], serial[i]);
            ppw += serial[i].ppwGainPct;
        }
        EXPECT_EQ(std::bit_cast<uint64_t>(suite.ppwGainPct),
                  std::bit_cast<uint64_t>(ppw / 4.0));
    }
}

TEST(EvaluateSuite, SubsetsAfterTheWholeSuiteSimulateNothing)
{
    PoolSize pool(4);
    const auto p = smallForest(7);
    const SuiteResult all =
        evaluateSuite(smallContext(), *p, allTraces(), 0.90);

    const uint64_t instr = counterValue("sim.instructions_retired");
    const uint64_t reused = counterValue("pipeline.closed_loop_reused");
    const SuiteResult odd =
        evaluateSuite(smallContext(), *p, {1, 3}, 0.90);
    const SuiteResult even =
        evaluateSuite(smallContext(), *p, {0, 2}, 0.90);
    EXPECT_EQ(counterValue("sim.instructions_retired"), instr);
    EXPECT_EQ(counterValue("pipeline.closed_loop_reused"), reused + 4);
    expectSameResult(odd.perTrace[0], all.perTrace[1]);
    expectSameResult(odd.perTrace[1], all.perTrace[3]);
    expectSameResult(even.perTrace[0], all.perTrace[0]);
    expectSameResult(even.perTrace[1], all.perTrace[2]);

    // A changed SLA is a new run, not a reuse.
    evaluateSuite(smallContext(), *p, {0}, 0.80);
    EXPECT_GT(counterValue("sim.instructions_retired"), instr);
}

TEST(EvaluateSuite, PredictorsInOneStackSlotAreKeptApart)
{
    // The same loop shape as the granularity ablation: each
    // iteration builds its predictor in the same stack slot, so a
    // table keyed by address would hand the second the first's run.
    std::vector<double> residency;
    for (double threshold : {0.0, 1.01}) {
        const auto trained = smallForest(9, threshold);
        DualModelPredictor pred(trained->highSlot(),
                                trained->lowSlot(), {0, 1, 2}, 20000,
                                "forest");
        residency.push_back(
            evaluateSuite(smallContext(), pred, {1}, 0.90)
                .lowResidencyPct);
    }
    // Threshold 0 gates every block after the pipeline fill; a
    // threshold above every score never gates.
    EXPECT_GT(residency[0], 50.0);
    EXPECT_EQ(residency[1], 0.0);
}

TEST(EvaluateSuite, GuardrailStateDoesNotLeakBetweenTraces)
{
    // A hold-off longer than any trace: once the guardrail trips it
    // vetoes the rest of the run, and before forks it vetoed the
    // next trace's run too.
    GuardrailConfig cfg;
    cfg.tripRatio = 0.99;
    cfg.holdoffBlocks = 1 << 20;
    AlwaysGate inner;
    GuardrailedPredictor guarded(inner, cfg);

    const SuiteResult pair =
        evaluateSuite(smallContext(), guarded, {0, 1}, 0.90);

    const ExperimentContext &ctx = smallContext();
    SlaSpec sla = ctx.sla;
    sla.pSla = 0.90;
    AlwaysGate alone_inner;
    GuardrailedPredictor alone(alone_inner, cfg);
    const ClosedLoopResult b_alone = runClosedLoop(
        ctx.specWorkloadsList[1], ctx.spec[1], alone, ctx.build, sla);
    expectSameResult(pair.perTrace[1], b_alone);

    // The leak this guards against is real: one wrapper carried
    // across both traces changes trace B's result.
    AlwaysGate shared_inner;
    GuardrailedPredictor shared(shared_inner, cfg);
    runClosedLoop(ctx.specWorkloadsList[0], ctx.spec[0], shared,
                  ctx.build, sla);
    ASSERT_GT(shared.trips(), 0u);
    const ClosedLoopResult b_after_a = runClosedLoop(
        ctx.specWorkloadsList[1], ctx.spec[1], shared, ctx.build, sla);
    EXPECT_NE(b_after_a.lowResidency, b_alone.lowResidency);
}
