/**
 * @file
 * Benchmark driver: runs ONE iteration of one workload through the
 * program's public API and writes what it measured as JSON. run.py
 * owns the loop (one process per iteration), the cache-dir start
 * states, the environment, the correctness verdicts and the metrics.
 *
 *   perfbench_driver --workload <fig8_eval|corpus_cold|serve_shift>
 *                    --seed <n> --size <bench|smoke>
 *                    --phase <prepare|iterate>
 *                    --run-dir <dir> --out <file.json>
 *
 * <run-dir>/cache is PSCA_CACHE_DIR (run.py exports it) and
 * <run-dir>/snapshot holds the sim-memo files a `prepare` leaves for
 * the iterations to start from. Every call into a layer is timed
 * here, from outside, as a span (wall, process CPU, simulator replay
 * time and instructions); when PSCA_TRACE is on, the spans also go
 * into the program's trace export.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/journal.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/pipeline.hh"
#include "core/runner.hh"
#include "obs/json.hh"
#include "obs/phase.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "serve/service.hh"
#include "trace/genome.hh"
#include "uc/compilers.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

extern char **environ;

namespace fs = std::filesystem;
using namespace psca;

namespace {

uint64_t
monoNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** User + system CPU of the whole process (all threads), ns. */
uint64_t
cpuNs()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    auto ns = [](const timeval &tv) {
        return static_cast<uint64_t>(tv.tv_sec) * 1000000000ULL +
            static_cast<uint64_t>(tv.tv_usec) * 1000ULL;
    };
    return ns(ru.ru_utime) + ns(ru.ru_stime);
}

uint64_t
counterValue(const char *name)
{
    const obs::Counter *c =
        obs::StatRegistry::instance().findCounter(name);
    return c != nullptr ? c->value() : 0;
}

// ---------------------------------------------------------------
// Digests
// ---------------------------------------------------------------

/** FNV-1a over exact value bytes (floats by bit pattern). */
class Digest
{
  public:
    void
    bytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ULL;
        }
    }

    template <typename T>
    void
    pod(T v)
    {
        bytes(&v, sizeof(v));
    }

    template <typename T>
    void
    vec(const std::vector<T> &v)
    {
        pod<uint64_t>(v.size());
        if (!v.empty())
            bytes(v.data(), v.size() * sizeof(T));
    }

    void
    str(const std::string &s)
    {
        pod<uint64_t>(s.size());
        bytes(s.data(), s.size());
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string
recordsDigest(const std::vector<TraceRecord> &records)
{
    Digest d;
    d.pod<uint64_t>(records.size());
    for (const TraceRecord &r : records) {
        d.str(r.name);
        d.pod(r.appId);
        d.pod(r.traceId);
        d.pod(r.numCounters);
        d.vec(r.deltaHigh);
        d.vec(r.deltaLow);
        d.vec(r.cyclesHigh);
        d.vec(r.cyclesLow);
        d.vec(r.energyHighNj);
        d.vec(r.energyLowNj);
    }
    return d.hex();
}

void
programDigest(Digest &d, const UcProgram &p)
{
    d.pod<uint64_t>(p.code.size());
    for (const UcInst &in : p.code) {
        d.pod(static_cast<uint8_t>(in.op));
        d.pod(in.dst);
        d.pod(in.a);
        d.pod(in.b);
        d.pod(in.imm);
        d.pod(in.ia);
        d.pod(in.ib);
    }
    d.vec(p.mem);
    d.pod(p.numInputs);
}

std::string
fileDigest(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    Digest d;
    d.str(ss.str());
    return d.hex();
}

// ---------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------

std::string
jsonStr(const std::string &s)
{
    return "\"" + obs::jsonEscape(s) + "\"";
}

// ---------------------------------------------------------------
// Spans around layer calls
// ---------------------------------------------------------------

struct Span
{
    const char *name;
    const char *stage; //!< "setup" or "run"
    uint64_t startNs;
    uint64_t endNs;
    uint64_t cpuNs;
    uint64_t replayNs;
    uint64_t instructions;
};

std::vector<Span> g_spans;
const char *g_stage = "setup";

/**
 * Times one call into a layer: wall and process CPU, plus the
 * simulator's replay time and retired instructions over the call.
 * With PSCA_TRACE on, the span also lands in the program's export.
 */
template <typename F>
auto
layerCall(const char *name, F &&fn) -> decltype(fn())
{
    Span s{name, g_stage, monoNs(), 0, cpuNs(),
           counterValue("sim.replay_ns"),
           counterValue("sim.instructions_retired")};
    struct Close
    {
        Span &s;
        ~Close()
        {
            s.endNs = monoNs();
            s.cpuNs = cpuNs() - s.cpuNs;
            s.replayNs = counterValue("sim.replay_ns") - s.replayNs;
            s.instructions =
                counterValue("sim.instructions_retired") -
                s.instructions;
            g_spans.push_back(s);
            auto &log = obs::TraceLog::instance();
            if (log.enabled())
                log.span(s.name, s.startNs, s.endNs, nullptr, 0);
        }
    } close{s};
    return fn();
}

// ---------------------------------------------------------------
// Sizes and seeds
// ---------------------------------------------------------------

struct Size
{
    ScaleConfig scale;
    /** SPEC inputs kept per app, in Table 2 order. */
    size_t specInputsPerApp = 0;
    size_t serveSegments = 0;
    uint64_t serveTraceLen = 0;
    uint64_t serveBlocksPerSegment = 0;
};

Size
sizeNamed(const std::string &name)
{
    Size s;
    ScaleConfig &c = s.scale;
    c.hdtrTracesPerApp = 1;
    c.specTracesPerWorkload = 1;
    c.folds = 4;
    c.mlpEpochs = 8;
    c.maxTuneSamples = 3000;
    if (name == "bench") {
        c.hdtrApps = 96;
        c.hdtrTraceLen = 300000;
        c.specTraceLen = 200000;
        c.pfApps = 16;
        c.pfTraceLen = 100000;
        s.specInputsPerApp = 3;
        s.serveSegments = 24;
        s.serveTraceLen = 200000;
        s.serveBlocksPerSegment = 40;
    } else if (name == "smoke") {
        c.hdtrApps = 12;
        c.hdtrTraceLen = 150000;
        c.specTraceLen = 150000;
        c.pfApps = 6;
        c.pfTraceLen = 80000;
        s.specInputsPerApp = 1;
        s.serveSegments = 6;
        s.serveTraceLen = 200000;
        s.serveBlocksPerSegment = 24;
    } else {
        throw std::invalid_argument("unknown size '" + name + "'");
    }
    return s;
}

/** HDTR population identity for a benchmark seed. */
uint64_t
corpusSeed(uint64_t seed)
{
    return mixSeeds(kDefaultCorpusSeed, seed);
}

// ---------------------------------------------------------------
// Per-iteration result
// ---------------------------------------------------------------

/** One checked operation: a row, corpus, model, firmware or run. */
struct Op
{
    std::string name;
    std::map<std::string, std::string> digests;
    std::vector<std::string> problems; //!< invariant violations
};

enum class Phase
{
    Prepare, //!< cold run that leaves the sim-memo snapshot
    Iterate, //!< set-up, then the timed request
};

struct Iteration
{
    std::vector<Op> ops;
    std::vector<std::string> rows; //!< human-readable result lines
    uint64_t readyNs = 0;          //!< steady clock at timed start
    uint64_t endNs = 0;
    uint64_t items = 0;            //!< requested work units
    uint64_t requestedInstr = 0;   //!< requested micro-ops
    std::map<std::string, double> extra;
};

Op &
addOp(Iteration &it, std::string name)
{
    it.ops.push_back(Op{std::move(name), {}, {}});
    return it.ops.back();
}

void
expect(Op &op, bool cond, const std::string &what)
{
    if (!cond)
        op.problems.push_back(what);
}

std::string
cacheDir(const std::string &run_dir)
{
    return run_dir + "/cache";
}

/**
 * Empty @p dir, then link (or copy) every file of @p from into it.
 * Linking is safe: the memo replaces files by rename, never in place.
 */
void
restoreDir(const std::string &dir, const std::string &from)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
    if (from.empty())
        return;
    for (const auto &e : fs::directory_iterator(from)) {
        const fs::path dst = fs::path(dir) / e.path().filename();
        std::error_code ec;
        fs::create_hard_link(e.path(), dst, ec);
        if (ec)
            fs::copy_file(e.path(), dst);
    }
}

/** Move the sim-memo files of @p dir into @p snapshot. */
void
snapshotMemo(const std::string &dir, const std::string &snapshot)
{
    fs::remove_all(snapshot);
    fs::create_directories(snapshot);
    size_t n = 0;
    for (const auto &e : fs::directory_iterator(dir)) {
        const std::string name = e.path().filename().string();
        if (name.rfind("simmemo_", 0) == 0) {
            fs::rename(e.path(), fs::path(snapshot) / name);
            ++n;
        }
    }
    if (n == 0)
        throw std::runtime_error("prepare left no sim-memo files");
}

void
dirUsage(const std::string &dir, uint64_t &bytes, uint64_t &files)
{
    bytes = files = 0;
    std::error_code ec;
    if (!fs::exists(dir, ec))
        return;
    for (const auto &e : fs::recursive_directory_iterator(dir)) {
        if (e.is_regular_file()) {
            bytes += e.file_size();
            ++files;
        }
    }
}

// ---------------------------------------------------------------
// Corpus: the public calls setupExperiment makes, each timed
// ---------------------------------------------------------------

uint64_t
recordedInstr(const std::vector<Workload> &ws)
{
    uint64_t n = 0;
    for (const Workload &w : ws)
        n += w.lengthInstr;
    return n;
}

std::string
rankedDigest(const std::vector<uint16_t> &ranked)
{
    Digest d;
    d.vec(ranked);
    return d.hex();
}

/**
 * Build the experiment context for a seed. Adds one op per recorded
 * corpus; @p instr receives the micro-ops recorded (both modes).
 */
ExperimentContext
buildContext(const Size &size, uint64_t seed, Iteration &it,
             uint64_t *instr)
{
    const ScaleConfig &scale = size.scale;
    ExperimentContext ctx;
    ctx.scale = scale;

    PfConfig pf_cfg;
    const std::vector<uint16_t> ranked = layerCall(
        "record.pf", [&] { return runPfSelectionPass(scale, pf_cfg); });
    {
        Op &op = addOp(it, "corpus:pf936");
        op.digests["ranked"] = rankedDigest(ranked);
        expect(op, !ranked.empty(), "PF ranking is empty");
    }
    ctx.plan = layerCall("record.plan",
                         [&] { return makeCounterPlan(ranked); });
    ctx.build.counterIds = ctx.plan.recordIds;

    const auto apps = layerCall("record.hdtr_apps", [&] {
        return buildHdtrApps(scale.hdtrApps, corpusSeed(seed));
    });
    std::vector<Workload> workloads;
    std::vector<uint32_t> app_ids;
    for (size_t a = 0; a < apps.size(); ++a) {
        const int traces = std::min(hdtrTraceCount(apps[a]),
                                    scale.hdtrTracesPerApp);
        for (int t = 0; t < traces; ++t) {
            Workload w;
            w.genome = apps[a];
            w.inputSeed = 1;
            w.traceIndex = static_cast<uint64_t>(t);
            w.lengthInstr = scale.hdtrTraceLen;
            w.name = apps[a].name + ".t" + std::to_string(t);
            workloads.push_back(std::move(w));
            app_ids.push_back(static_cast<uint32_t>(a));
        }
    }
    ctx.hdtr = layerCall("record.hdtr", [&] {
        return recordCorpus(workloads, app_ids, ctx.build, "hdtr");
    });

    std::vector<uint32_t> spec_app_ids;
    layerCall("record.spec_apps", [&] {
        ctx.specApps = buildSpecApps();
        for (size_t a = 0; a < ctx.specApps.size(); ++a) {
            std::vector<Workload> ws =
                specWorkloads(ctx.specApps[a], scale.specTraceLen,
                              scale.specTracesPerWorkload);
            const size_t keep = size.specInputsPerApp *
                static_cast<size_t>(scale.specTracesPerWorkload);
            if (ws.size() > keep)
                ws.resize(keep);
            for (Workload &w : ws) {
                ctx.specWorkloadsList.push_back(std::move(w));
                spec_app_ids.push_back(static_cast<uint32_t>(a));
            }
        }
    });
    ctx.spec = layerCall("record.spec", [&] {
        return recordCorpus(ctx.specWorkloadsList, spec_app_ids,
                            ctx.build, "spec");
    });

    const std::pair<const char *, const std::vector<TraceRecord> *>
        corpora[] = {{"corpus:hdtr", &ctx.hdtr},
                     {"corpus:spec", &ctx.spec}};
    for (const auto &[name, recs] : corpora) {
        Op &op = addOp(it, name);
        op.digests["records"] = recordsDigest(*recs);
        bool shaped = !recs->empty();
        for (const TraceRecord &r : *recs)
            shaped = shaped && r.numIntervals() > 0 &&
                r.cyclesLow.size() == r.numIntervals() &&
                r.deltaHigh.size() == r.numIntervals() * r.numCounters;
        expect(op, shaped, "malformed or empty records");
    }

    if (instr != nullptr) {
        *instr = 2 * (static_cast<uint64_t>(scale.pfApps) *
                          scale.pfTraceLen +
                      recordedInstr(workloads) +
                      recordedInstr(ctx.specWorkloadsList));
    }
    return ctx;
}

/** Firmware of a trained dual predictor (both slots), as a digest. */
std::string
predictorDigest(const NamedPredictor &np)
{
    const auto *dual =
        dynamic_cast<const DualModelPredictor *>(np.predictor.get());
    if (dual == nullptr)
        throw std::runtime_error(np.name + " is not a dual predictor");
    Digest d;
    for (const ScaledModel *slot : {&dual->highSlot(), &dual->lowSlot()}) {
        if (const auto *rf =
                dynamic_cast<const RandomForest *>(slot->model.get()))
            programDigest(d, compileForest(*rf));
        else if (const auto *mlp =
                     dynamic_cast<const MlpModel *>(slot->model.get()))
            programDigest(d, compileMlp(*mlp));
        else
            throw std::runtime_error(np.name + ": unexpected model");
        d.vec(slot->scaler.mean);
        d.vec(slot->scaler.invStd);
        d.pod(slot->model->threshold());
    }
    return d.hex();
}

std::vector<NamedPredictor>
trainFig8Predictors(const ExperimentContext &ctx)
{
    std::vector<NamedPredictor> out;
    out.push_back(layerCall("pipeline.train",
                            [&] { return makeBestRf(ctx, 0.90); }));
    out.push_back(layerCall("pipeline.train",
                            [&] { return makeBestMlp(ctx, 0.90); }));
    return out;
}

// ---------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------

void
fig8Eval(const Size &size, uint64_t seed, const std::string &run_dir,
         Phase phase, Iteration &it)
{
    if (phase == Phase::Prepare) {
        restoreDir(cacheDir(run_dir), "");
        buildContext(size, seed, it, nullptr);
        snapshotMemo(cacheDir(run_dir), run_dir + "/snapshot");
        return;
    }
    layerCall("bench.restore_snapshot", [&] {
        restoreDir(cacheDir(run_dir), run_dir + "/snapshot");
    });
    ExperimentContext ctx = buildContext(size, seed, it, nullptr);
    std::vector<NamedPredictor> predictors = trainFig8Predictors(ctx);

    std::vector<size_t> all(ctx.spec.size()), ints, fps;
    for (size_t i = 0; i < ctx.spec.size(); ++i) {
        all[i] = i;
        (ctx.specApps[ctx.spec[i].appId].isFp ? fps : ints).push_back(i);
    }
    const std::pair<const char *, const std::vector<size_t> *>
        subsets[] = {{"all", &all}, {"int", &ints}, {"fp", &fps}};

    // The timed request: Fig 8 at P_SLA 0.90, every predictor over
    // the whole suite and its SPECint / SPECfp halves.
    g_stage = "run";
    it.readyNs = monoNs();
    std::vector<std::pair<std::string, SuiteResult>> results;
    for (NamedPredictor &np : predictors) {
        for (const auto &[subset, idx] : subsets) {
            SuiteResult r = layerCall("pipeline.evaluate", [&] {
                return evaluateSuite(ctx, *np.predictor, *idx, 0.90);
            });
            results.emplace_back(np.name + ":" + subset, std::move(r));
            it.items += idx->size();
            it.requestedInstr += idx->size() * size.scale.specTraceLen;
        }
    }
    it.endNs = monoNs();

    for (const auto &[name, r] : results) {
        Op &op = addOp(it, "row:" + name);
        Digest d;
        for (double v : {r.ppwGainPct, r.rsvPct, r.pgosPct,
                         r.lowResidencyPct})
            d.pod(v);
        op.digests["ppw_rsv_pgos_residency"] = d.hex();
        expect(op, std::isfinite(r.ppwGainPct), "PPW not finite");
        for (double pct : {r.rsvPct, r.pgosPct, r.lowResidencyPct})
            expect(op, pct >= 0.0 && pct <= 100.0,
                   "percentage out of [0, 100]");
        char line[160];
        std::snprintf(line, sizeof(line),
                      "%-18s PPW %+7.2f%%  RSV %5.2f%%  PGOS %5.1f%%  "
                      "low-residency %5.1f%%",
                      name.c_str(), r.ppwGainPct, r.rsvPct, r.pgosPct,
                      r.lowResidencyPct);
        it.rows.push_back(line);
    }
    for (const NamedPredictor &np : predictors)
        addOp(it, "model:" + np.name).digests["firmware"] =
            predictorDigest(np);
}

void
corpusCold(const Size &size, uint64_t seed, const std::string &run_dir,
           Iteration &it)
{
    layerCall("bench.restore_snapshot",
              [&] { restoreDir(cacheDir(run_dir), ""); });

    g_stage = "run";
    it.readyNs = monoNs();
    ExperimentContext ctx =
        buildContext(size, seed, it, &it.requestedInstr);
    std::vector<NamedPredictor> predictors = trainFig8Predictors(ctx);
    const auto &low =
        dynamic_cast<const DualModelPredictor &>(*predictors[0].predictor)
            .lowSlot();
    const auto &forest = dynamic_cast<const RandomForest &>(*low.model);
    const UcProgram fw =
        layerCall("uc.compile", [&] { return compileForest(forest); });
    it.endNs = monoNs();
    it.items = ctx.hdtr.size() + ctx.spec.size() +
        static_cast<uint64_t>(size.scale.pfApps);

    for (const NamedPredictor &np : predictors)
        addOp(it, "model:" + np.name).digests["firmware"] =
            predictorDigest(np);
    Op &op = addOp(it, "firmware:Best RF low");
    Digest d;
    programDigest(d, fw);
    op.digests["image"] = d.hex();
    expect(op, !fw.code.empty() && fw.imageBytes() > 0,
           "empty firmware image");
}

/** The eight-counter telemetry layout bench_serve uses. */
BuildConfig
serveBuildConfig()
{
    BuildConfig cfg;
    cfg.intervalInstr = 10000;
    cfg.warmupInstr = 20000;
    cfg.counterIds = {
        CounterRegistry::index(Ctr::InstRetired),
        CounterRegistry::index(Ctr::StallCount),
        CounterRegistry::index(Ctr::L1dMiss),
        CounterRegistry::index(Ctr::LoadLatSum),
        CounterRegistry::index(Ctr::MshrOccSum),
        CounterRegistry::index(Ctr::UopsStalledOnDep),
        CounterRegistry::index(Ctr::UopsReady),
        CounterRegistry::index(Ctr::SqOccSum),
    };
    return cfg;
}

serve::ServeConfig
serveConfig(uint64_t seed, const std::string &ring_dir)
{
    serve::ServeConfig cfg;
    cfg.dir = ring_dir;
    cfg.seed = seed;
    cfg.granularityInstr = 20000;
    cfg.columns = {0, 1, 2, 3, 4, 5, 6, 7};
    cfg.forestTrees = 4;
    cfg.forestDepth = 6;
    cfg.driftWindow = 8;
    cfg.driftZ = 2.0;
    cfg.abIntervals = 12;
    cfg.probationIntervals = 12;
    cfg.cooldownBlocks = 16;
    return cfg;
}

/**
 * A category-shifting schedule over a fixed pool of sampled
 * applications, one per (category, round). The seed shuffles the
 * order of the categories within each round (no category twice in a
 * row), so it changes every shift the service sees while every run
 * serves the same applications for the same number of blocks: the
 * simulator's cost per block varies several-fold between applications,
 * and a seed-drawn pool would make run time a property of the seed.
 */
std::vector<serve::ServeSegment>
serveSchedule(const Size &size, uint64_t seed)
{
    std::vector<AppCategory> cats = {
        AppCategory::Multimedia,      AppCategory::HpcPerf,
        AppCategory::WebProductivity, AppCategory::AiAnalytics,
        AppCategory::GamesRendering,  AppCategory::CloudSecurity,
    };
    Rng rng(mixSeeds(seed, 0x5e77e));
    std::vector<serve::ServeSegment> schedule;
    for (size_t round = 0; schedule.size() < size.serveSegments; ++round) {
        for (size_t i = cats.size(); i > 1; --i)
            std::swap(cats[i - 1], cats[rng.below(i)]);
        if (!schedule.empty() &&
            schedule.back().workload.genome.category == cats[0])
            std::swap(cats[0], cats[1]);
        for (AppCategory cat : cats) {
            if (schedule.size() == size.serveSegments)
                break;
            Workload w;
            w.genome = sampleGenome(cat, round + 1);
            w.inputSeed = 1;
            w.lengthInstr = size.serveTraceLen;
            w.name = w.genome.name;
            schedule.push_back({std::move(w), size.serveBlocksPerSegment});
        }
    }
    return schedule;
}

void
serveShift(const Size &size, uint64_t seed, const std::string &run_dir,
           Phase phase, Iteration &it)
{
    const std::string ring_dir = run_dir + "/ring";
    const serve::ServeConfig cfg = serveConfig(seed, ring_dir);
    const BuildConfig build = serveBuildConfig();
    const auto schedule = serveSchedule(size, seed);
    if (phase == Phase::Prepare) {
        restoreDir(cacheDir(run_dir), "");
        restoreDir(ring_dir, "");
        serve::Service(cfg, build, schedule).run();
        snapshotMemo(cacheDir(run_dir), run_dir + "/snapshot");
        return;
    }
    layerCall("bench.restore_snapshot", [&] {
        restoreDir(ring_dir, "");
        restoreDir(cacheDir(run_dir), run_dir + "/snapshot");
    });
    auto service = layerCall("serve.construct", [&] {
        return std::make_unique<serve::Service>(cfg, build, schedule);
    });

    g_stage = "run";
    it.readyNs = monoNs();
    const serve::ServeOutcome out =
        layerCall("serve.run", [&] { return service->run(); });
    it.endNs = monoNs();
    it.items = out.blocks;
    it.requestedInstr = out.blocks * cfg.granularityInstr;

    Op &op = addOp(it, "serve:run");
    Digest life;
    for (const std::string &line : out.lifecycle)
        life.str(line);
    op.digests["lifecycle"] = life.hex();
    op.digests["active_firmware"] = fileDigest(
        service->ring().imagePath(out.activeVersion));
    Digest ppw;
    ppw.pod(out.ppwGainPct);
    op.digests["ppw"] = ppw.hex();
    uint64_t scheduled = 0;
    for (const auto &s : schedule)
        scheduled += s.blocks;
    expect(op, out.blocks == scheduled, "served fewer blocks than asked");
    expect(op, out.activeVersion >= 1, "no active firmware");
    expect(op, std::isfinite(out.ppwGainPct), "PPW not finite");
    expect(op, out.retrainFailures == 0 && out.swapFailures == 0,
           "retrain or swap failed");

    char line[200];
    std::snprintf(line, sizeof(line),
                  "serve: %llu blocks, %llu drifts, %llu retrains, "
                  "%llu promotions, %llu rejections, %llu rollbacks, "
                  "fw v%u, PPW %+.2f%%",
                  static_cast<unsigned long long>(out.blocks),
                  static_cast<unsigned long long>(out.driftsDetected),
                  static_cast<unsigned long long>(out.retrains),
                  static_cast<unsigned long long>(out.promotions),
                  static_cast<unsigned long long>(out.rejections),
                  static_cast<unsigned long long>(out.rollbacks),
                  out.activeVersion, out.ppwGainPct);
    it.rows.push_back(line);
    it.extra["serve.drifts_detected"] =
        static_cast<double>(out.driftsDetected);
    it.extra["serve.retrains"] = static_cast<double>(out.retrains);
    it.extra["serve.promotions"] = static_cast<double>(out.promotions);
    it.extra["serve.rollbacks"] = static_cast<double>(out.rollbacks);
    uint64_t ring_bytes = 0, ring_files = 0;
    dirUsage(ring_dir, ring_bytes, ring_files);
    it.extra["serve.ring_bytes"] = static_cast<double>(ring_bytes);
}

// ---------------------------------------------------------------
// Report
// ---------------------------------------------------------------

void
phaseTree(const obs::PhaseNode &node, const std::string &prefix,
          std::map<std::string, std::pair<uint64_t, uint64_t>> &out)
{
    for (const auto &child : node.children) {
        const std::string path =
            prefix.empty() ? child->name : prefix + "/" + child->name;
        auto &slot = out[path];
        slot.first += child->calls.load();
        slot.second += child->wallNs.load();
        phaseTree(*child, path, out);
    }
}

void
writeResult(const std::string &path, const std::string &workload,
            uint64_t seed, const std::string &size,
            const std::string &phase, const Iteration &it)
{
    auto &reg = obs::StatRegistry::instance();
    std::ostringstream js;
    js << "{\n\"workload\": " << jsonStr(workload)
       << ",\n\"seed\": " << seed << ",\n\"size\": " << jsonStr(size)
       << ",\n\"phase\": " << jsonStr(phase)
       << ",\n\"build_type\": " << jsonStr(PERFBENCH_BUILD_TYPE)
       << ",\n\"threads\": " << ThreadPool::instance().numThreads()
       << ",\n\"ready_ns\": " << it.readyNs
       << ",\n\"end_ns\": " << it.endNs << ",\n\"items\": " << it.items
       << ",\n\"requested_instr\": " << it.requestedInstr;

    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    js << ",\n\"peak_rss_kb\": " << ru.ru_maxrss;

    js << ",\n\"ops\": [";
    for (size_t i = 0; i < it.ops.size(); ++i) {
        const Op &op = it.ops[i];
        js << (i ? ",\n " : "\n ") << "{\"name\": " << jsonStr(op.name)
           << ", \"digests\": {";
        size_t j = 0;
        for (const auto &[k, v] : op.digests)
            js << (j++ ? ", " : "") << jsonStr(k) << ": " << jsonStr(v);
        js << "}, \"problems\": [";
        for (size_t p = 0; p < op.problems.size(); ++p)
            js << (p ? ", " : "") << jsonStr(op.problems[p]);
        js << "]}";
    }
    js << "]";

    js << ",\n\"rows\": [";
    for (size_t i = 0; i < it.rows.size(); ++i)
        js << (i ? ", " : "") << jsonStr(it.rows[i]);
    js << "]";

    js << ",\n\"spans\": [";
    for (size_t i = 0; i < g_spans.size(); ++i) {
        const Span &s = g_spans[i];
        js << (i ? ",\n " : "\n ") << "{\"name\": " << jsonStr(s.name)
           << ", \"stage\": " << jsonStr(s.stage)
           << ", \"start_ns\": " << s.startNs
           << ", \"end_ns\": " << s.endNs << ", \"cpu_ns\": " << s.cpuNs
           << ", \"replay_ns\": " << s.replayNs
           << ", \"instructions\": " << s.instructions << "}";
    }
    js << "]";

    static const char *const counters[] = {
        "sim.replay_ns",       "sim.instructions_retired",
        "record.traces",       "memo.hits",
        "memo.misses",         "memo.stores",
        "memo.quarantined",    "record.cache_quarantined",
        "uc.inferences",       "uc.ops_executed",
        "uc.vm_traps",         "controller.predictions",
        "serve.drifts_detected", "serve.retrains",
        "serve.promotions",    "serve.rollbacks",
    };
    js << ",\n\"counters\": {";
    for (size_t i = 0; i < std::size(counters); ++i)
        js << (i ? ", " : "") << jsonStr(counters[i]) << ": "
           << counterValue(counters[i]);
    js << "}";

    js << ",\n\"histograms\": {";
    size_t hn = 0;
    for (const char *name :
         {"controller.decision_latency_ns", "uc.inference_ns"}) {
        const obs::Histogram *h = reg.findHistogram(name);
        js << (hn++ ? ", " : "") << jsonStr(name) << ": {\"count\": "
           << (h ? h->count() : 0)
           << ", \"p50\": " << (h ? h->percentile(50.0) : 0)
           << ", \"p99\": " << (h ? h->percentile(99.0) : 0) << "}";
    }
    js << "}";

    std::map<std::string, std::pair<uint64_t, uint64_t>> phases;
    {
        auto &tracer = obs::PhaseTracer::instance();
        auto lock = tracer.lockTree();
        phaseTree(tracer.root(), "", phases);
    }
    js << ",\n\"phases\": {";
    size_t pn = 0;
    for (const auto &[name, v] : phases)
        js << (pn++ ? ",\n " : "\n ") << jsonStr(name)
           << ": {\"calls\": " << v.first << ", \"wall_ns\": " << v.second
           << "}";
    js << "}";

    const JournalStats jst = Journal::globalStats();
    js << ",\n\"journal\": {\"active\": " << (jst.active ? "true" : "false")
       << ", \"units_executed\": " << jst.unitsExecuted
       << ", \"units_skipped\": " << jst.unitsSkipped << "}";

    uint64_t cache_bytes = 0, cache_files = 0;
    const char *cache_env = std::getenv("PSCA_CACHE_DIR");
    dirUsage(cache_env ? cache_env : "", cache_bytes, cache_files);
    js << ",\n\"cache\": {\"bytes\": " << cache_bytes
       << ", \"files\": " << cache_files << "}";

    js << ",\n\"extra\": {";
    size_t en = 0;
    for (const auto &[k, v] : it.extra) {
        js << (en++ ? ", " : "") << jsonStr(k) << ": ";
        obs::jsonNumber(js, v);
    }
    js << "}\n}\n";

    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        out << js.str();
        if (!out)
            throw std::runtime_error("cannot write " + tmp);
    }
    fs::rename(tmp, path);
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver "
                 "--workload <fig8_eval|corpus_cold|serve_shift> "
                 "--seed <n> --size <bench|smoke> "
                 "--phase <prepare|iterate> --run-dir <dir> "
                 "--out <file>\n",
                 why.c_str());
    std::exit(2);
}

/**
 * Refuse to run with any PSCA_* knob other than the pinned ones set:
 * several knobs change results or speed and some fall back silently
 * on bad values.
 */
void
checkEnvironment(const std::string &run_dir)
{
    static const char *const allowed[] = {
        "PSCA_THREADS", "PSCA_CACHE_DIR", "PSCA_TRACE",
        "PSCA_LOG_LEVEL", "PSCA_REPORT",
    };
    for (char **e = environ; *e != nullptr; ++e) {
        const std::string kv = *e;
        if (kv.rfind("PSCA_", 0) != 0)
            continue;
        const std::string key = kv.substr(0, kv.find('='));
        if (std::find(std::begin(allowed), std::end(allowed), key) ==
            std::end(allowed))
            usage("environment variable " + key +
                  " is not pinned by the benchmark; unset it");
    }
    const char *cache = std::getenv("PSCA_CACHE_DIR");
    if (cache == nullptr || cacheDir(run_dir) != cache)
        usage("PSCA_CACHE_DIR must be <run-dir>/cache");
    if (std::getenv("PSCA_THREADS") == nullptr)
        usage("PSCA_THREADS must be set");
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; i += 2) {
        const std::string key = argv[i];
        static const char *const known[] = {
            "--workload", "--seed", "--size", "--phase", "--run-dir",
            "--out"};
        if (std::find(std::begin(known), std::end(known), key) ==
            std::end(known))
            usage("unknown argument " + key);
        if (i + 1 >= argc)
            usage("missing value for " + key);
        args[key.substr(2)] = argv[i + 1];
    }
    for (const char *k :
         {"workload", "seed", "size", "phase", "run-dir", "out"})
        if (!args.count(k))
            usage(std::string("missing --") + k);
    const std::string workload = args["workload"];
    if (workload != "fig8_eval" && workload != "corpus_cold" &&
        workload != "serve_shift")
        usage("unknown workload " + workload);
    const std::string phase_name = args["phase"];
    Phase phase = Phase::Iterate;
    if (phase_name == "prepare")
        phase = Phase::Prepare;
    else if (phase_name != "iterate")
        usage("unknown phase " + phase_name);
    if (phase == Phase::Prepare && workload == "corpus_cold")
        usage("corpus_cold starts from an empty cache; no prepare");
    uint64_t seed = 0;
    try {
        size_t used = 0;
        seed = std::stoull(args["seed"], &used);
        if (used != args["seed"].size())
            throw std::invalid_argument("trailing characters");
    } catch (const std::exception &) {
        usage("bad --seed " + args["seed"]);
    }
    Size size;
    try {
        size = sizeNamed(args["size"]);
    } catch (const std::exception &e) {
        usage(e.what());
    }
    const std::string run_dir = args["run-dir"];
    checkEnvironment(run_dir);

    return runner::guardedMain([&]() -> int {
        Iteration it;
        if (workload == "fig8_eval")
            fig8Eval(size, seed, run_dir, phase, it);
        else if (workload == "corpus_cold")
            corpusCold(size, seed, run_dir, it);
        else
            serveShift(size, seed, run_dir, phase, it);
        writeResult(args["out"], workload, seed, args["size"],
                    phase_name, it);
        return 0;
    });
}
