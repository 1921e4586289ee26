/**
 * @file
 * psca — command-line driver for the adaptive-CPU library.
 *
 * Subcommands:
 *   counters [--all]          list the telemetry registry
 *   kernels                   list kernel families and SPEC profiles
 *   run <app> [options]       simulate one workload and print
 *                             per-interval telemetry + a summary
 *   train <app...> --out FW   record + train a Best-RF pair and emit
 *                             a flashable firmware image
 *   flash FW <app>            load a firmware image and run the
 *                             closed adaptation loop through the VM
 *
 *   campaign [--out FW]       run the checkpointed campaign: PF
 *                             screen, HDTR corpus, RF
 *                             cross-validation, and a Best-RF dual
 *                             train compiled to a firmware image
 *   serve [--schedule S]      run the online adaptation service:
 *                             drift detection, shadow validation,
 *                             and rollback-safe firmware hot-swap
 *                             over a workload schedule (DESIGN.md
 *                             §14); S = "app:blocks,app:blocks,..."
 *
 * <app> is either `spec:<name-substring>` (a SPEC2017 stand-in) or
 * `<category>:<seed>` with category in {hpc, cloud, ai, web, media,
 * games}.
 *
 * Arguments parse strictly: an unknown flag, a flag without its value,
 * or a value that is not a whole number in range (`--len 24O000`,
 * `--mode lwo`, `hpc:2x`) exits with status 2 and one line on stderr
 * naming the flag or app.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>

#include "common/env.hh"
#include "common/logging.hh"
#include "core/crossval.hh"
#include "core/firmware_image.hh"
#include "core/pipeline.hh"
#include "obs/report.hh"
#include "obs/stats.hh"
#include "serve/service.hh"
#include "sim/core.hh"
#include "core/runner.hh"

using namespace psca;

namespace {

const std::vector<uint16_t> &
defaultCounterIds()
{
    static const std::vector<uint16_t> ids = {
        CounterRegistry::index(Ctr::InstRetired),
        CounterRegistry::index(Ctr::StallCount),
        CounterRegistry::index(Ctr::L1dMiss),
        CounterRegistry::index(Ctr::LoadLatSum),
        CounterRegistry::index(Ctr::MshrOccSum),
        CounterRegistry::index(Ctr::UopsStalledOnDep),
        CounterRegistry::index(Ctr::UopsReady),
        CounterRegistry::index(Ctr::SqOccSum),
    };
    return ids;
}

const std::vector<size_t> kAllColumns{0, 1, 2, 3, 4, 5, 6, 7};

int
usage()
{
    std::fprintf(stderr,
                 "usage: psca <counters|kernels|run|train|flash|"
                 "campaign|serve> ...\n"
                 "  psca counters [--all]\n"
                 "  psca kernels\n"
                 "  psca run <app> [--len N] [--mode high|low]\n"
                 "  psca train <app> [<app> ...] --out FW.bin\n"
                 "  psca flash FW.bin <app> [--len N]\n"
                 "  psca campaign [--out FW.bin]\n"
                 "  psca serve [--schedule \"app:blocks,...\"] "
                 "[--seed S]\n"
                 "             [--dir D] [--len N] [--blocks N]\n"
                 "  <app> = spec:<name> | "
                 "{hpc,cloud,ai,web,media,games}:<seed>\n");
    return 2;
}

/**
 * Reject a flag: one line naming it, then the usage exit status.
 * @p value is nullptr when the flag was the last argument.
 */
int
badFlag(const char *flag, const char *value, const char *expected)
{
    if (value)
        std::fprintf(stderr, "psca: %s '%s': expected %s\n", flag,
                     value, expected);
    else
        std::fprintf(stderr, "psca: %s needs a value (%s)\n", flag,
                     expected);
    return 2;
}

int
unknownFlag(const char *flag)
{
    std::fprintf(stderr, "psca: unknown flag '%s'\n", flag);
    return 2;
}

int
badApp(const char *spec)
{
    std::fprintf(stderr,
                 "psca: unknown app '%s': expected spec:<name> or "
                 "<category>:<seed>\n",
                 spec);
    return 2;
}

/** Strict full-string parse of an integer >= @p lo ("24O000" fails). */
bool
parseUint(const char *s, uint64_t lo, uint64_t &out)
{
    long long v = 0;
    if (!env::tryParseLong(s, v) || v < 0 ||
        static_cast<uint64_t>(v) < lo)
        return false;
    out = static_cast<uint64_t>(v);
    return true;
}

constexpr const char *kPositive = "an integer > 0";
constexpr const char *kNonNegative = "an integer >= 0";

/** Resolve an <app> spec string into a workload. */
bool
resolveApp(const std::string &spec, uint64_t len, Workload &out)
{
    const size_t colon = spec.find(':');
    if (colon == std::string::npos)
        return false;
    const std::string kind = spec.substr(0, colon);
    const std::string arg = spec.substr(colon + 1);

    if (kind == "spec") {
        for (const auto &app : buildSpecApps()) {
            if (app.genome.name.find(arg) != std::string::npos) {
                out.genome = app.genome;
                break;
            }
        }
        if (out.genome.phases.empty())
            return false;
    } else {
        static const std::pair<const char *, AppCategory> cats[] = {
            {"hpc", AppCategory::HpcPerf},
            {"cloud", AppCategory::CloudSecurity},
            {"ai", AppCategory::AiAnalytics},
            {"web", AppCategory::WebProductivity},
            {"media", AppCategory::Multimedia},
            {"games", AppCategory::GamesRendering},
        };
        uint64_t seed = 0;
        if (!parseUint(arg.c_str(), 0, seed))
            return false;
        bool found = false;
        for (const auto &[name, cat] : cats) {
            if (kind == name) {
                out.genome = sampleGenome(cat, seed);
                found = true;
                break;
            }
        }
        if (!found)
            return false;
    }
    out.inputSeed = 1;
    out.lengthInstr = len;
    out.name = out.genome.name;
    return true;
}

int
cmdCounters(int argc, char **argv)
{
    const bool all = argc > 0 && !std::strcmp(argv[0], "--all");
    if (argc > (all ? 1 : 0))
        return unknownFlag(argv[all ? 1 : 0]);
    const auto &reg = CounterRegistry::instance();
    const size_t limit = all ? reg.numCounters() : kNumScalarCtrs;
    for (size_t i = 0; i < limit; ++i)
        std::printf("%4zu  %s\n", i,
                    reg.name(static_cast<uint16_t>(i)).c_str());
    if (!all)
        std::printf("(... %zu more; use --all)\n",
                    reg.numCounters() - limit);
    return 0;
}

int
cmdKernels()
{
    std::printf("kernel families:\n");
    for (size_t k = 0; k < kNumKernelKinds; ++k)
        std::printf("  %s\n",
                    kernelKindName(static_cast<KernelKind>(k)));
    std::printf("\nSPEC2017 stand-ins:\n");
    for (const auto &app : buildSpecApps()) {
        std::printf("  %-20s %-4s %d inputs, %zu phases\n",
                    app.genome.name.c_str(), app.isFp ? "fp" : "int",
                    app.numInputs, app.genome.phases.size());
    }
    return 0;
}

int
cmdRun(int argc, char **argv)
{
    if (argc < 1)
        return usage();
    uint64_t len = 300000;
    CoreMode mode = CoreMode::HighPerf;
    for (int i = 1; i < argc; i += 2) {
        const char *flag = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (!std::strcmp(flag, "--len")) {
            if (!parseUint(value, 1, len))
                return badFlag(flag, value, kPositive);
        } else if (!std::strcmp(flag, "--mode")) {
            if (value && !std::strcmp(value, "high"))
                mode = CoreMode::HighPerf;
            else if (value && !std::strcmp(value, "low"))
                mode = CoreMode::LowPower;
            else
                return badFlag(flag, value, "high or low");
        } else {
            return unknownFlag(flag);
        }
    }
    Workload w;
    if (!resolveApp(argv[0], len, w))
        return badApp(argv[0]);

    BuildConfig cfg;
    cfg.counterIds = defaultCounterIds();
    std::printf("running %s (%lu instructions, %s mode)\n",
                w.name.c_str(),
                static_cast<unsigned long>(w.lengthInstr),
                coreModeName(mode));

    ClusteredCore core(cfg.core);
    core.reset();
    core.setMode(mode);
    PowerModel power(cfg.power, cfg.core.clockGhz);
    TraceGenerator gen(w);
    core.run(gen, cfg.warmupInstr);

    std::printf("%-8s %-8s %-8s %-10s %-10s\n", "intvl", "IPC",
                "watts", "l1d-mpki", "stall/cyc");
    auto prev = core.counters().raw();
    uint64_t remaining = w.lengthInstr;
    int interval = 0;
    PpwAccumulator acc;
    while (remaining >= cfg.intervalInstr) {
        const IntervalStats stats = core.run(gen, cfg.intervalInstr);
        remaining -= cfg.intervalInstr;
        const auto &now = core.counters().raw();
        std::vector<uint64_t> delta(now.size());
        for (size_t i = 0; i < now.size(); ++i)
            delta[i] = now[i] - prev[i];
        prev = now;
        const double watts =
            power.intervalPowerWatts(delta, stats.cycles, mode);
        acc.add(stats.instructions, stats.cycles,
                power.intervalEnergyNj(delta, stats.cycles, mode));
        if (interval % 4 == 0) {
            std::printf(
                "%-8d %-8.2f %-8.2f %-10.2f %-10.3f\n", interval,
                stats.ipc(), watts,
                1000.0 *
                    static_cast<double>(
                        delta[CounterRegistry::index(Ctr::L1dMiss)]) /
                    static_cast<double>(cfg.intervalInstr),
                static_cast<double>(
                    delta[CounterRegistry::index(Ctr::StallCount)]) /
                    static_cast<double>(stats.cycles));
        }
        ++interval;
    }
    std::printf("\nsummary: IPC %.2f, %.2f W, PPW %.3g inst/J\n",
                acc.ipc(),
                acc.energyNj() * 1e-9 /
                    (static_cast<double>(acc.cycles()) /
                     (cfg.core.clockGhz * 1e9)),
                acc.ppw());
    return 0;
}

int
cmdTrain(int argc, char **argv)
{
    std::vector<std::string> apps;
    std::string out_path;
    for (int i = 0; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--out")) {
            if (i + 1 == argc)
                return badFlag("--out", nullptr, "a file path");
            out_path = argv[++i];
        } else if (argv[i][0] == '-') {
            return unknownFlag(argv[i]);
        } else {
            apps.emplace_back(argv[i]);
        }
    }
    if (apps.empty() || out_path.empty())
        return usage();

    BuildConfig cfg;
    cfg.counterIds = defaultCounterIds();
    std::vector<TraceRecord> records;
    for (size_t i = 0; i < apps.size(); ++i) {
        Workload w;
        if (!resolveApp(apps[i], 400000, w))
            return badApp(apps[i].c_str());
        std::printf("recording %s...\n", w.name.c_str());
        records.push_back(
            recordTrace(w, cfg, static_cast<uint32_t>(i), 0));
    }

    DualTrainOptions opts;
    opts.granularityInstr = 40000;
    opts.columns = kAllColumns;
    opts.rsvWindow = 400;
    TrainedDual dual = trainDual(records, cfg, opts, forestFactory(8, 8));
    DualModelPredictor predictor(dual.high, dual.low, kAllColumns,
                                 opts.granularityInstr, "psca-cli");
    const FirmwarePackage pkg =
        packageFromDual(predictor, kAllColumns);
    pkg.save(out_path);
    std::printf("wrote %s (%zu + %zu instructions of firmware)\n",
                out_path.c_str(), pkg.high.program.code.size(),
                pkg.low.program.code.size());
    return 0;
}

int
cmdFlash(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    uint64_t len = 400000;
    for (int i = 2; i < argc; i += 2) {
        const char *flag = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (std::strcmp(flag, "--len"))
            return unknownFlag(flag);
        if (!parseUint(value, 1, len))
            return badFlag(flag, value, kPositive);
    }
    Workload w;
    if (!resolveApp(argv[1], len, w))
        return badApp(argv[1]);
    FirmwarePackage pkg = FirmwarePackage::load(argv[0]);
    std::printf("flashed %s (granularity %lu)\n", pkg.name.c_str(),
                static_cast<unsigned long>(pkg.granularityInstr));

    BuildConfig cfg;
    cfg.counterIds = defaultCounterIds();
    const TraceRecord ref = recordTrace(w, cfg, 0, 0);
    VmPredictor predictor(std::move(pkg));
    const ClosedLoopResult r =
        runClosedLoop(w, ref, predictor, cfg, SlaSpec{});
    std::printf("%s under predictive cluster gating:\n",
                w.name.c_str());
    std::printf("  PPW %+.1f%%, perf %.1f%%, residency %.1f%%, "
                "PGOS %.1f%%, RSV %.2f%%, uC ops %lu\n",
                r.ppwGainPct, r.perfRelativePct,
                r.lowResidency * 100, r.pgos * 100, r.rsv * 100,
                static_cast<unsigned long>(predictor.vmOpsExecuted()));
    return 0;
}

/**
 * The campaign: experiment setup (PF screen + HDTR corpus), a
 * checkpoint-tagged RF cross-validation, and a Best-RF dual train
 * whose forest fits are checkpointed too. Every fan-out runs on the
 * thread pool and journals its units, so a killed campaign resumes,
 * and its artifacts are byte-identical at any PSCA_THREADS.
 */
int
cmdCampaign(int argc, char **argv)
{
    std::string out_path = cacheDirectory() + "/campaign_fw.bin";
    for (int i = 0; i < argc; i += 2) {
        if (std::strcmp(argv[i], "--out"))
            return unknownFlag(argv[i]);
        if (i + 1 == argc)
            return badFlag("--out", nullptr, "a file path");
        out_path = argv[i + 1];
    }

    const auto start = std::chrono::steady_clock::now();
    obs::RunReportGuard report("campaign");
    const ScaleConfig scale = ScaleConfig::fromEnv();
    ExperimentContext ctx =
        setupExperiment(scale, /*need_spec=*/false);

    auto rf_factory = forestFactory(8, 8);

    DualTrainOptions opts;
    opts.granularityInstr = 40000;
    opts.pSla = 0.90;
    opts.columns = ctx.plan.pfColumns(12);
    opts.rsvWindow = 400;
    opts.seed = 11;

    AssemblyOptions ao;
    ao.granularityInstr = opts.granularityInstr;
    ao.pSla = opts.pSla;
    ao.columns = opts.columns;
    const Dataset ds =
        assembleDataset(ctx.hdtr, ao, ctx.build.intervalInstr);
    CrossValOptions cv;
    cv.rsvWindow = opts.rsvWindow;
    cv.checkpointTag = "campaign.rf";
    const CrossValSummary summary = crossValidate(ds, rf_factory, cv);
    std::printf("campaign: crossval PGOS %.2f%% +/- %.2f, RSV %.2f%% "
                "+/- %.2f\n",
                summary.pgosMean * 100, summary.pgosStd * 100,
                summary.rsvMean * 100, summary.rsvStd * 100);
    auto &reg = obs::StatRegistry::instance();
    reg.gauge("campaign.crossval_pgos_pct").set(summary.pgosMean * 100);
    reg.gauge("campaign.crossval_pgos_std").set(summary.pgosStd * 100);
    reg.gauge("campaign.crossval_rsv_pct").set(summary.rsvMean * 100);
    reg.gauge("campaign.crossval_rsv_std").set(summary.rsvStd * 100);

    TrainedDual dual =
        trainDual(ctx.hdtr, ctx.build, opts, rf_factory);
    // The predictor name is written into the image; it keeps its
    // historical value so images stay byte-identical across releases.
    DualModelPredictor predictor(dual.high, dual.low, opts.columns,
                                 opts.granularityInstr, "psca-fleet");
    const FirmwarePackage pkg =
        packageFromDual(predictor, opts.columns);
    pkg.save(out_path);
    reg.gauge("campaign.fw_code_bytes")
        .set(static_cast<double>(pkg.high.program.code.size() +
                                 pkg.low.program.code.size()));
    const double secs =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    std::printf("campaign: wrote %s in %.1f s\n", out_path.c_str(),
                secs);
    return 0;
}

/**
 * psca serve — the online adaptation service (DESIGN.md §14). The
 * schedule is a comma list of "app:blocks" entries (the app spec
 * itself contains a colon, so the blocks count is split off at the
 * LAST colon). The default schedule shifts workload category halfway
 * through, which is exactly the distribution shift the drift
 * detector exists to catch.
 */
int
cmdServe(int argc, char **argv)
{
    std::string schedule_spec = "hpc:2:48,media:7:48";
    uint64_t len = 240000;
    uint64_t max_blocks = 0;
    serve::ServeConfig cfg = serve::ServeConfig::fromEnv();
    for (int i = 0; i < argc; i += 2) {
        const char *flag = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (!std::strcmp(flag, "--schedule")) {
            if (!value)
                return badFlag(flag, value, "app:blocks,...");
            schedule_spec = value;
        } else if (!std::strcmp(flag, "--dir")) {
            if (!value)
                return badFlag(flag, value, "a directory");
            cfg.dir = value;
        } else if (!std::strcmp(flag, "--seed")) {
            if (!parseUint(value, 0, cfg.seed))
                return badFlag(flag, value, kNonNegative);
        } else if (!std::strcmp(flag, "--len")) {
            if (!parseUint(value, 1, len))
                return badFlag(flag, value, kPositive);
        } else if (!std::strcmp(flag, "--blocks")) {
            if (!parseUint(value, 0, max_blocks))
                return badFlag(flag, value, kNonNegative);
        } else {
            return unknownFlag(flag);
        }
    }

    std::vector<serve::ServeSegment> schedule;
    std::istringstream ss(schedule_spec);
    std::string entry;
    while (std::getline(ss, entry, ',')) {
        const size_t colon = entry.rfind(':');
        serve::ServeSegment seg;
        if (colon == std::string::npos ||
            !parseUint(entry.c_str() + colon + 1, 1, seg.blocks) ||
            !resolveApp(entry.substr(0, colon), len, seg.workload))
        {
            return badFlag("--schedule", entry.c_str(),
                           "app:blocks entries with blocks > 0");
        }
        schedule.push_back(std::move(seg));
    }
    if (schedule.empty())
        return badFlag("--schedule", schedule_spec.c_str(),
                       "app:blocks entries with blocks > 0");

    BuildConfig build;
    build.counterIds = defaultCounterIds();

    obs::RunReportGuard report("serve");
    std::printf("serve: %zu-segment schedule, fw ring at %s\n",
                schedule.size(), cfg.dir.c_str());
    serve::Service service(cfg, build, std::move(schedule));
    const serve::ServeOutcome &out = service.run(max_blocks);
    std::printf(
        "serve: %llu blocks, %llu drift(s), %llu retrain(s) "
        "(%llu failed), %llu promotion(s), %llu rejection(s), "
        "%llu rollback(s); active fw v%u, PPW %+.2f%% vs high-only\n",
        static_cast<unsigned long long>(out.blocks),
        static_cast<unsigned long long>(out.driftsDetected),
        static_cast<unsigned long long>(out.retrains),
        static_cast<unsigned long long>(out.retrainFailures),
        static_cast<unsigned long long>(out.promotions),
        static_cast<unsigned long long>(out.rejections),
        static_cast<unsigned long long>(out.rollbacks),
        out.activeVersion, out.ppwGainPct);
    return 0;
}

} // namespace

static int
run(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    if (cmd == "counters")
        return cmdCounters(argc - 2, argv + 2);
    if (cmd == "kernels")
        return cmdKernels();
    if (cmd == "run")
        return cmdRun(argc - 2, argv + 2);
    if (cmd == "train")
        return cmdTrain(argc - 2, argv + 2);
    if (cmd == "flash")
        return cmdFlash(argc - 2, argv + 2);
    if (cmd == "campaign")
        return cmdCampaign(argc - 2, argv + 2);
    if (cmd == "serve")
        return cmdServe(argc - 2, argv + 2);
    return usage();
}

int
main(int argc, char **argv)
{
    return psca::runner::guardedMain(
        [argc, argv] { return run(argc, argv); });
}
