#!/usr/bin/env python3
"""Benchmark entry point: build the driver, run one workload, report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run it from the root of a checkout. It builds perfbench_driver (and the
program's libraries from src/) under .bench_build/, then runs the
workload one iteration per process, each in a private cache dir
restored to the workload's start state, until --seconds have been
measured. Every output is checked against recorded digests (or, for a
seed without any, against the run's first iteration); the last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. --trace 0 reports the end-to-end metrics; --trace 1
alternates untraced and traced iterations (PSCA_TRACE on) and reports
the per-layer metrics. Exits non-zero when any check fails.

Options for the self-tests and for maintaining the digests:
  --size smoke       minimal inputs instead of the benchmark's
  --record-digests   store this run's digests in digests.json
"""

import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")

WORKLOADS = ("fig8_eval", "corpus_cold", "serve_shift")
# Workloads whose start state is a sim-memo snapshot made by a prepare.
PREPARED = ("fig8_eval", "serve_shift")
# Checked operations per iteration (see driver.cc).
OPS = {"fig8_eval": 11, "corpus_cold": 6, "serve_shift": 1}
ITERATION_TIMEOUT_S = 60
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "muops_per_s": "Muops/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "pipeline.evaluate_s": "s",
    "pipeline.evaluate_cpu_s": "s",
    "pipeline.evaluate_parallelism": "ratio",
    "pipeline.closed_loop_requests": "count",
    "pipeline.train_s": "s",
    "sim.replay_s": "s",
    "sim.instructions": "count",
    "sim.replay_muops_per_thread_s": "Muops/s",
    "controller.other_cpu_s": "s",
    "controller.decisions": "count",
    "controller.decision_ns.p50": "ns",
    "controller.decision_ns.p99": "ns",
    "uc.inferences": "count",
    "uc.ops_per_inference": "count",
    "uc.inference_ns.p50": "ns",
    "uc.inference_ns.p99": "ns",
    "uc.compile_s": "s",
    "record.pf_s": "s",
    "record.hdtr_s": "s",
    "record.spec_s": "s",
    "record.cpu_s": "s",
    "record.parallelism": "ratio",
    "record.traces": "count",
    "pf.screen_s": "s",
    "ml.assemble_s": "s",
    "ml.scaler_fit_s": "s",
    "ml.model_training_s": "s",
    "ml.calibration_s": "s",
    "memo.hits": "count",
    "memo.misses": "count",
    "memo.stores": "count",
    "memo.hit_ratio": "ratio",
    "cache.bytes_written": "bytes",
    "cache.files": "count",
    "runner.units_executed": "count",
    "runner.units_skipped": "count",
    "serve.blocks": "count",
    "serve.drifts_detected": "count",
    "serve.retrains": "count",
    "serve.promotions": "count",
    "serve.rollbacks": "count",
    "serve.retrain_s": "s",
    "serve.ring_bytes": "bytes",
    "trace.overhead_pct": "%",
    "trace.events": "count",
    "bench.span_coverage_pct": "%",
}


class UsageError(Exception):
    pass


def parse_args(argv):
    """Strict parser: unknown options and workload names are errors."""
    opts = {"size": "bench", "record": False}
    valued = ("--workload", "--seed", "--seconds", "--trace", "--size")
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--record-digests":
            opts["record"] = True
            i += 1
            continue
        if arg not in valued:
            raise UsageError("unknown argument %r" % arg)
        if i + 1 >= len(argv):
            raise UsageError("missing value for %s" % arg)
        val = argv[i + 1]
        i += 2
        opts[arg[2:]] = val
    for name in ("workload", "seed", "seconds", "trace"):
        if name not in opts:
            raise UsageError("missing --%s" % name)
    if opts["workload"] not in WORKLOADS:
        raise UsageError("unknown workload %r (known: %s)"
                         % (opts["workload"], ", ".join(WORKLOADS)))
    if opts["size"] not in ("bench", "smoke"):
        raise UsageError("unknown size %r" % opts["size"])
    try:
        opts["seed"] = int(opts["seed"])
        opts["seconds"] = int(opts["seconds"])
        opts["trace"] = int(opts["trace"])
    except ValueError as e:
        raise UsageError(str(e))
    if opts["seed"] < 0 or opts["seconds"] < 1 or opts["trace"] not in (0, 1):
        raise UsageError("--seed >= 0, --seconds >= 1, --trace 0|1")
    return opts


def build():
    """Configure (once) and build the driver; the log stays on failure."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                return False, log_path
        cmd = ["cmake", "--build", BUILD_DIR, "--target",
               "perfbench_driver", "-j", str(min(4, os.cpu_count() or 1))]
        ok = subprocess.call(cmd, stdout=log, stderr=log) == 0
    return ok and os.path.exists(DRIVER), log_path


def pinned_env(run_dir, threads, trace_path):
    """The caller's environment minus every PSCA_* knob, plus pins."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PSCA_")}
    env.update({
        "PSCA_THREADS": str(threads),
        "PSCA_CACHE_DIR": os.path.join(run_dir, "cache"),
        "PSCA_LOG_LEVEL": "warn",
        "PSCA_REPORT": "0",
        "PSCA_TRACE": trace_path or "0",
    })
    return env


def run_driver(opts, run_dir, phase, threads, index, traced=False):
    """One driver process; returns its result dict or None on failure."""
    out = os.path.join(run_dir, "%s-%d.json" % (phase, index))
    trace_path = os.path.join(run_dir, "trace-%d.json" % index) if traced \
        else None
    cmd = [DRIVER, "--workload", opts["workload"], "--seed",
           str(opts["seed"]), "--size", opts["size"], "--phase", phase,
           "--run-dir", run_dir, "--out", out]
    log_path = os.path.join(run_dir, "driver.log")
    with open(log_path, "a") as log:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen(cmd, env=pinned_env(run_dir, threads,
                                                    trace_path),
                                stdout=log, stderr=log,
                                stdin=subprocess.DEVNULL)
        try:
            code = proc.wait(timeout=ITERATION_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # Also on SIGTERM/SIGINT: never leave a driver running.
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0 or not os.path.exists(out):
        with open(log_path) as f:
            tail = f.read()[-2000:]
        sys.stderr.write("perfbench: %s %s iteration %d failed (exit %s)\n%s"
                         % (opts["workload"], phase, index, code, tail))
        return None
    with open(out) as f:
        res = json.load(f)
    res["spawn_ns"] = spawn_ns
    res["traced"] = traced
    if traced:
        res["trace_events"] = count_trace_events(trace_path)
    return res


def count_trace_events(path):
    try:
        with open(path) as f:
            return len(json.load(f).get("traceEvents", []))
    except (OSError, ValueError):
        return 0


def dir_usage(path):
    total = files = 0
    for base, _, names in os.walk(path):
        for n in names:
            total += os.path.getsize(os.path.join(base, n))
            files += 1
    return total, files


# ------------------------------------------------------------------
# Correctness
# ------------------------------------------------------------------

def load_digests():
    try:
        with open(DIGESTS) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def op_digests(res):
    return {op["name"]: op["digests"] for op in res["ops"]}


def check_iteration(res, opts, golden, reference, prepared):
    """(attempted, failed, problems) for one iteration's outputs."""
    want_ops = OPS[opts["workload"]]
    if res is None:
        n = max(1, want_ops)
        return n, n, ["iteration did not complete"]
    problems = []
    failed_ops = set()
    if len(res["ops"]) != want_ops:
        problems.append("expected %d checked outputs, got %d"
                        % (want_ops, len(res["ops"])))
    for op in res["ops"]:
        name = op["name"]
        for p in op["problems"]:
            problems.append("%s: %s" % (name, p))
            failed_ops.add(name)
        for key, got in op["digests"].items():
            full = "%s/%s" % (name, key)
            if golden is not None:
                want, source = golden.get(name, {}).get(key), "digests.json"
            else:
                want, source = reference.get(name, {}).get(key), \
                    "the run's first iteration"
            if want is None and golden is None and name not in reference:
                want = got  # first time this output is seen in the run
            if got != want:
                problems.append("%s: digest %s, %s has %s"
                                % (full, got, source, want))
                failed_ops.add(name)
            if name in prepared and prepared[name].get(key) not in \
                    (None, got):
                problems.append("%s: memo-warm record differs from the "
                                "cold record" % full)
                failed_ops.add(name)
    # Run isolation: nothing resumed from an earlier run, nothing
    # quarantined (both would make a run do less work than asked).
    skipped = res["journal"]["units_skipped"]
    quarantined = res["counters"]["memo.quarantined"] + \
        res["counters"]["record.cache_quarantined"]
    if skipped or quarantined:
        problems.append("isolation: %d journal units skipped, %d cache "
                        "files quarantined" % (skipped, quarantined))
        failed_ops.update(op["name"] for op in res["ops"])
    attempted = max(want_ops, len(res["ops"]))
    failed = min(attempted, len(failed_ops) +
                 (1 if len(res["ops"]) != want_ops else 0))
    return attempted, failed, problems


# ------------------------------------------------------------------
# Metrics
# ------------------------------------------------------------------

def summarize(samples):
    """Median, the highest listed percentile with >= 10 samples beyond
    it (None when there are too few samples), and the sample count."""
    s = sorted(samples)
    n = len(s)
    for p in PERCENTILES:
        rank = max(1, math.ceil(p * n / 100.0 - 1e-9))  # nearest rank
        if n - rank >= 10:
            return statistics.median(s), p, s[rank - 1], n
    return statistics.median(s), None, None, n


def run_s(res):
    return (res["end_ns"] - res["ready_ns"]) / 1e9


def setup_s(res):
    return (res["ready_ns"] - res["spawn_ns"]) / 1e9


def span_sum(res, name, field=None):
    total = 0
    for s in res["spans"]:
        if s["name"] == name:
            total += (s["end_ns"] - s["start_ns"]) if field is None \
                else s[field]
    return total / 1e9


def phase_sum(res, leaf):
    return sum(v["wall_ns"] for path, v in res["phases"].items()
               if path.split("/")[-1] == leaf) / 1e9


def ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(res, workload, snapshot_usage):
    c = res["counters"]
    h = res["histograms"]
    ex = res["extra"]
    ev_wall = span_sum(res, "pipeline.evaluate")
    ev_cpu = span_sum(res, "pipeline.evaluate", "cpu_ns")
    ev_replay = span_sum(res, "pipeline.evaluate", "replay_ns")
    rec = ("record.pf", "record.hdtr", "record.spec")
    rec_wall = sum(span_sum(res, n) for n in rec)
    rec_cpu = sum(span_sum(res, n, "cpu_ns") for n in rec)
    pf_total = sum(v["wall_ns"] for p, v in res["phases"].items()
                   if p.split("/")[-1] == "pf_selection") / 1e9
    pf_record = sum(v["wall_ns"] for p, v in res["phases"].items()
                    if p.endswith("pf_selection/record_corpus.pf936")) / 1e9
    hits, misses = c["memo.hits"], c["memo.misses"]
    run_spans = sum(s["end_ns"] - s["start_ns"] for s in res["spans"]
                    if s["stage"] == "run") / 1e9
    serve = workload == "serve_shift"
    m = {
        "pipeline.evaluate_s": ev_wall,
        "pipeline.evaluate_cpu_s": ev_cpu,
        "pipeline.evaluate_parallelism": ratio(ev_cpu, ev_wall),
        "pipeline.closed_loop_requests":
            res["items"] if workload == "fig8_eval" else 0,
        "pipeline.train_s": span_sum(res, "pipeline.train"),
        "sim.replay_s": c["sim.replay_ns"] / 1e9,
        "sim.instructions": c["sim.instructions_retired"],
        "sim.replay_muops_per_thread_s":
            ratio(c["sim.instructions_retired"] * 1e3, c["sim.replay_ns"]),
        "controller.other_cpu_s": ev_cpu - ev_replay,
        "controller.decisions": h["controller.decision_latency_ns"]["count"],
        "controller.decision_ns.p50":
            h["controller.decision_latency_ns"]["p50"],
        "controller.decision_ns.p99":
            h["controller.decision_latency_ns"]["p99"],
        "uc.inferences": c["uc.inferences"],
        "uc.ops_per_inference": ratio(c["uc.ops_executed"],
                                      c["uc.inferences"]),
        "uc.inference_ns.p50": h["uc.inference_ns"]["p50"],
        "uc.inference_ns.p99": h["uc.inference_ns"]["p99"],
        "uc.compile_s": span_sum(res, "uc.compile"),
        "record.pf_s": span_sum(res, "record.pf"),
        "record.hdtr_s": span_sum(res, "record.hdtr"),
        "record.spec_s": span_sum(res, "record.spec"),
        "record.cpu_s": rec_cpu,
        "record.parallelism": ratio(rec_cpu, rec_wall),
        "record.traces": c["record.traces"],
        "pf.screen_s": max(0.0, pf_total - pf_record),
        "ml.assemble_s": phase_sum(res, "assemble_dataset"),
        "ml.scaler_fit_s": phase_sum(res, "scaler_fit"),
        "ml.model_training_s": phase_sum(res, "model_training"),
        "ml.calibration_s": phase_sum(res, "threshold_calibration"),
        "memo.hits": hits,
        "memo.misses": misses,
        "memo.stores": c["memo.stores"],
        "memo.hit_ratio": ratio(hits, hits + misses),
        "cache.bytes_written": res["cache"]["bytes"] - snapshot_usage[0],
        "cache.files": res["cache"]["files"] - snapshot_usage[1],
        "runner.units_executed": res["journal"]["units_executed"],
        "runner.units_skipped": res["journal"]["units_skipped"],
        "serve.blocks": res["items"] if serve else 0,
        "serve.drifts_detected": ex.get("serve.drifts_detected", 0),
        "serve.retrains": ex.get("serve.retrains", 0),
        "serve.promotions": ex.get("serve.promotions", 0),
        "serve.rollbacks": ex.get("serve.rollbacks", 0),
        "serve.retrain_s": phase_sum(res, "train_dual") if serve else 0.0,
        "serve.ring_bytes": ex.get("serve.ring_bytes", 0),
        "trace.events": res.get("trace_events", 0),
        "bench.span_coverage_pct": 100.0 * ratio(run_spans, run_s(res)),
    }
    return m


def median_of(results, fn):
    return statistics.median(fn(r) for r in results)


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def fmt(v):
    return ("%.6g" % v) if isinstance(v, float) else str(v)


def print_timing(name, samples, unit):
    med, p, pv, n = summarize(samples)
    tail = ("p%g %s %s" % (p, fmt(pv), unit)) if p is not None else \
        "no percentile has 10 samples beyond it"
    print("timing %-28s median %s %s, %s (n=%d)" % (name, fmt(med), unit,
                                                   tail, n))
    print("samples %s %s" % (name, " ".join("%.4g" % v for v in samples)))


def main(argv):
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        opts = parse_args(argv)
    except UsageError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 2
    ok, log_path = build()
    if not ok:
        sys.stderr.write("perfbench: build failed; see %s\n" % log_path)
        return 2

    workload = opts["workload"]
    threads = min(4, os.cpu_count() or 1)
    run_dir = os.path.join(BUILD_ROOT, "runs", "%s-s%d-%d"
                           % (workload, opts["seed"], os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        return measure(opts, run_dir, threads)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(opts, run_dir, threads):
    workload = opts["workload"]
    all_golden = load_digests()
    golden = all_golden.get(opts["size"], {}).get(workload, {}).get(
        str(opts["seed"]))
    if opts["record"]:
        golden = None

    attempted = failed = 0
    problems = []
    prepared = {}
    snapshot_usage = (0, 0)
    if workload in PREPARED:
        res = run_driver(opts, run_dir, "prepare", threads, 0)
        if res is None:
            problems.append("prepare did not complete")
            attempted += 1
            failed += 1
        else:
            prepared = op_digests(res)
            snapshot_usage = dir_usage(os.path.join(run_dir, "snapshot"))

    reference = {}
    iterations = []
    index = 0

    def account(res):
        nonlocal attempted, failed
        a, f, p = check_iteration(res, opts, golden, reference, prepared)
        attempted += a
        failed += f
        problems.extend(p)
        if res is not None and not reference:
            reference.update(op_digests(res))

    if workload not in PREPARED and not problems:
        # Without a prepare to warm the host up, the first iteration
        # runs measurably slower than the rest: check it, don't time it.
        index += 1
        account(run_driver(opts, run_dir, "iterate", threads, index))

    start = time.monotonic()
    if not problems:
        while True:
            index += 1
            # --trace 1 alternates untraced and traced iterations.
            traced = opts["trace"] == 1 and len(iterations) % 2 == 1
            res = run_driver(opts, run_dir, "iterate", threads, index,
                             traced)
            account(res)
            if res is None:
                break
            iterations.append(res)
            done = time.monotonic() - start >= opts["seconds"]
            if done and (opts["trace"] == 0 or len(iterations) >= 2):
                break

    untraced = [r for r in iterations if not r["traced"]]
    traced = [r for r in iterations if r["traced"]]
    first = iterations[0] if iterations else {}
    print("perfbench workload=%s seed=%d size=%s git_sha=%s nproc=%d "
          "build_type=%s threads=%s iterations=%d"
          % (workload, opts["seed"], opts["size"], git_sha(),
             os.cpu_count() or 1, first.get("build_type", "?"),
             first.get("threads", threads), len(iterations)))
    for res in iterations[:1]:
        for row in res["rows"]:
            print("row %s" % row)

    metrics = {}
    if untraced and opts["trace"] == 0:
        runs = [run_s(r) for r in untraced]
        setup = [setup_s(r) for r in untraced]
        print_timing("run_s", runs, "s")
        print_timing("setup_s", setup, "s")
        if workload == "fig8_eval":
            evals = [(s["end_ns"] - s["start_ns"]) / 1e9 for r in untraced
                     for s in r["spans"] if s["name"] == "pipeline.evaluate"]
            print_timing("evaluate_suite_call_s", evals, "s")
        values = {
            "setup_s": statistics.median(setup),
            "run_s": statistics.median(runs),
            "muops_per_s": median_of(
                untraced, lambda r: r["requested_instr"] / 1e6 / run_s(r)),
            "peak_rss_mb": median_of(untraced,
                                     lambda r: r["peak_rss_kb"] / 1024.0),
        }
        per_workload = {"fig8_eval": "closed_loop_evals_per_s",
                        "corpus_cold": "recorded_traces_per_s",
                        "serve_shift": "blocks_per_s"}[workload]
        print("info %s = %s 1/s" % (per_workload, fmt(median_of(
            untraced, lambda r: r["items"] / run_s(r)))))
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
    elif traced and untraced:
        per = [layer_metrics(r, workload, snapshot_usage) for r in traced]
        overhead = 100.0 * (median_of(traced, run_s) /
                            median_of(untraced, run_s) - 1.0)
        for name, unit in PER_LAYER.items():
            value = overhead if name == "trace.overhead_pct" else \
                statistics.median(m[name] for m in per)
            metrics[name] = {"value": value, "unit": unit}
        print_timing("run_s (untraced)", [run_s(r) for r in untraced], "s")
        print_timing("run_s (traced)", [run_s(r) for r in traced], "s")

    for name, m in metrics.items():
        print("metric %-34s %s %s" % (name, fmt(m["value"]), m["unit"]))
    for p in problems[:50]:
        print("FAILED %s" % p)

    if opts["record"] and not failed and iterations:
        all_golden.setdefault(opts["size"], {}).setdefault(workload, {})[
            str(opts["seed"])] = op_digests(iterations[0])
        with open(DIGESTS, "w") as f:
            json.dump(all_golden, f, indent=1, sort_keys=True)
            f.write("\n")
        print("recorded digests for %s/%s/seed %d"
              % (opts["size"], workload, opts["seed"]))

    correct = failed == 0 and bool(iterations) and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed if correct or failed else 1,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
