"""Benchmark of the irsloc trial pipeline: one workload per invocation.

    python3 perfbench/run.py --workload geo-k4-r1 --seed 1 --seconds 15 --trace 0

The trial stream is closed-loop in one process: a trial starts when the
previous one returns.  The run

1. warms up, then runs the workload's fixed trial set through the package's
   public entry points, repeating the set until ``--seconds`` have passed
   (end-to-end metrics, tracing off; a host-speed probe runs between
   trials, see ``hostspeed``);
2. rebuilds every trial of the set from the layers' public calls with a span
   around each call (per-layer metrics) and checks it against step 1;
3. times ``SETUP_RUNS`` fresh processes that import the package, build the
   config and run one warm-up trial, a third before step 1, a third between
   steps 1 and 2 and a third after step 2, each between two runs of the
   ``process`` host-speed probe (``setup_s`` is the median scaled time);
4. prints every metric by name and unit, writes a result file under
   ``perfbench/results/`` and prints one JSON line last: end-to-end metrics
   with ``--trace 0``, per-layer metrics with ``--trace 1``.

It exits non-zero when an output check fails, and without printing a result
when the package cannot be imported from this checkout's ``src``.
"""

import os

# One process, one BLAS thread: set before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

HELD_OUT_SEED = 2029
SETUP_RUNS = 12
MIN_LAYER_SHARE = 0.95  # summed layer spans / traced trial wall time
# trial_tail_ms percentile: p95 and p99 of a seed's per-trial times differ
# from seed to seed by 5-20% (the sets draw different heavy scenes), p90
# by less.
TAIL_PCT = 90.0
CHECKS = (
    "repeat_passes_identical",
    "traced_reproduces_untraced",
    "solutions_valid",
    "feasible_counts_recounted",
    "failures_counted",
    "layer_spans_cover_trial",
    "reference",
)
UNITS = {
    "trials_per_s": "1/s",
    "trial_p50_ms": "ms",
    "trial_tail_ms": "ms",
    "scored_fraction": "ratio",
    "association_accuracy": "ratio",
    "target_hit_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "locate.select_s": "s/trial",
    "locate.solver_calls": "count/trial",
    "locate.fit_yield": "ratio",
    "association.enumerate_s": "s/trial",
    "association.feasible": "count/trial",
    "ranging.recover_s": "s/trial",
    "ranging.solves": "count/trial",
    "ranging.solver_iters": "count/trial",
    "ranging.detect_s": "s/trial",
    "ranging.balanced_ratio": "ratio",
    "ranging.geometry_s": "s/trial",
    "waveform.synth_s": "s/trial",
    "waveform.snapshots": "count/trial",
    "scene.sample_s": "s/trial",
    "scene.calls": "count/trial",
    "harness.score_s": "s/trial",
    "harness.unaccounted_s": "s/trial",
    "harness.trace_overhead": "ratio",
}
END_TO_END = (
    "trials_per_s",
    "trial_p50_ms",
    "trial_tail_ms",
    "scored_fraction",
    "association_accuracy",
    "target_hit_rate",
    "setup_s",
    "peak_rss_mb",
)
PER_LAYER = tuple(name for name in UNITS if name not in END_TO_END)
COUNTERS = (
    "locate.solver_calls",
    "association.feasible",
    "ranging.solves",
    "ranging.solver_iters",
    "waveform.snapshots",
    "scene.calls",
)


def import_package():
    """Import irsloc, then the workload and check modules, from this checkout."""
    sys.path.insert(0, str(SRC))
    try:
        import irsloc
    except ImportError as exc:
        sys.exit(f"error: cannot import irsloc from {SRC}: {exc}")
    if not Path(irsloc.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: irsloc imported from {irsloc.__file__}, not {SRC}")
    import checks
    import workloads

    return workloads, checks


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True, help="master seed, >= 0")
    p.add_argument("--seconds", type=float, required=True, help="timed-loop length")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1 prints per-layer metrics instead of end-to-end ones")
    p.add_argument("--trials", type=int,
                   help="size of the trial set (default: the workload's own)")
    p.add_argument("--reference", type=Path, default=HERE / "reference.json",
                   help="recorded summaries keyed by workload, then seed")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.trials is not None and args.trials < 1:
        p.error("--trials must be >= 1")
    return args


def measure_setup(name: str, seed: int, runs: int, probe) -> list[tuple[float, float]]:
    """Time from a fresh process's start to the end of its warm-up trial.

    The set-up process prints ``time.perf_counter()`` when its trial
    returns; that clock is system-wide on Linux, so the difference excludes
    interpreter teardown.  Returns ``(wall_s, probe_s)`` per run, with the
    mean time of the ``process`` probe run just before and just after it.
    """
    times = []
    before = probe()
    for _ in range(runs):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), name, str(seed)],
            check=True,
            timeout=120,
            capture_output=True,
            text=True,
        )
        wall = float(done.stdout.split()[-1]) - start
        after = probe()
        times.append((wall, 0.5 * (before + after)))
        before = after
    return times


def timed_loop(workload, cfg, seed: int, n: int, seconds: float, probe):
    """Passes over the trial set until one pass and ``seconds`` are done.

    Returns the first pass's records, the samples ``(trial, wall_s,
    probe_s)`` in the order taken, with the mean probe time around each
    trial, and how many repeated trials gave an outcome different from
    their first pass.
    """
    first = []
    samples = []
    drift = 0
    start = time.perf_counter()
    before = probe()
    while True:
        for i, seq in enumerate(workload.trial_seeds(seed, n)):
            t0 = time.perf_counter()
            record = workload.run(cfg, i, seq)
            wall = time.perf_counter() - t0
            after = probe()
            samples.append((i, wall, 0.5 * (before + after)))
            before = after
            if len(first) < n:
                first.append(record)
            elif record != first[i]:
                drift += 1
            if len(first) == n and time.perf_counter() - start >= seconds:
                return first, samples, drift


def per_trial(samples, n: int, kind: str) -> tuple[list[float], list[float]]:
    """Each trial's median time over its samples: wall clock and scaled."""
    scaled = hostspeed.scaled([(wall, p) for _, wall, p in samples], kind)
    raw = [[] for _ in range(n)]
    nominal = [[] for _ in range(n)]
    for (i, wall, _), s in zip(samples, scaled):
        raw[i].append(wall)
        nominal[i].append(s)
    return [statistics.median(t) for t in raw], [statistics.median(t) for t in nominal]


def traced_pass(workloads, checks, workload, cfg, seed: int, first, probe):
    """Rebuild every trial with spans; check each against its untraced run.

    Returns the traced records, the tracer, the check failures and the
    mean probe time around each trial.
    """
    tracer = workloads.Tracer()
    traced = []
    probes = []
    errors = {}
    for i, seq in enumerate(workload.trial_seeds(seed, len(first))):
        before = probe()
        record, parts = workload.run_traced(cfg, i, seq, tracer)
        probes.append(0.5 * (before + probe()))
        for check, message in checks.trial_errors(workload, cfg, first[i], record, parts):
            errors.setdefault(check, []).append(f"trial {i}: {message}")
        traced.append(record)
    return traced, tracer, errors, probes


def highest_supported(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns the value and its percentile; with ten samples or fewer, the
    maximum and 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def percentile(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(len(ordered) * pct / 100.0) - 1]


def layer_metrics(workloads, workload, tracer, probes, untraced: list[float]):
    """Per-trial layer means, and the share of traced trial time they cover.

    ``harness.trace_overhead`` compares scaled traced trial times with the
    scaled untraced ones (``untraced``, one per trial).
    """
    n = len(untraced)
    totals = dict.fromkeys(set(workloads.LAYER_OF_SPAN.values()), 0.0)
    trial_walls = []
    for _, name, start, end in tracer.spans:
        if name == "trial":
            trial_walls.append(end - start)
        else:
            totals[workloads.LAYER_OF_SPAN[name]] += end - start
    trial_s = sum(trial_walls)
    spans_s = sum(totals.values())
    m = {layer: total / n for layer, total in totals.items()}
    m["harness.unaccounted_s"] = (trial_s - spans_s) / n
    traced = hostspeed.scaled(list(zip(trial_walls, probes)), workload.probe)
    m["harness.trace_overhead"] = sum(traced) / sum(untraced) - 1.0
    c = tracer.counters
    for counter in COUNTERS:
        m[counter] = c[counter] / n
    calls = c["locate.solver_calls"]
    m["locate.fit_yield"] = workload.k * c["locate.trials"] / calls if calls else 0.0
    reached = c["ranging.trials"]
    m["ranging.balanced_ratio"] = c["ranging.balanced"] / reached if reached else 0.0
    return m, spans_s / trial_s


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    workloads, checks = import_package()
    args = parse_args(argv, sorted(workloads.WORKLOADS))
    w = workloads.WORKLOADS[args.workload]
    n = args.trials or w.trials
    cfg = w.config()
    try:
        recorded = json.loads(args.reference.read_text())
    except (OSError, ValueError) as exc:
        sys.exit(f"error: cannot read reference {args.reference}: {exc}")
    reference = recorded.get(w.name, {}).get(str(args.seed))
    if reference is not None and reference.get("trials") != n:
        reference = None  # recorded for another trial-set size
    probe = hostspeed.make_probe(w.probe)
    third = SETUP_RUNS // 3
    process_probe = hostspeed.make_probe("process")

    setup_times = measure_setup(w.name, args.seed, third, process_probe)
    w.run(cfg, 0, w.trial_seeds(args.seed, 1)[0])  # warm caches before timing
    first, samples, drift = timed_loop(w, cfg, args.seed, n, args.seconds, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall, scaled = per_trial(samples, n, w.probe)
    setup_times += measure_setup(w.name, args.seed, third, process_probe)
    traced, tracer, errors, probes = traced_pass(
        workloads, checks, w, cfg, args.seed, first, probe
    )
    setup_times += measure_setup(w.name, args.seed, third, process_probe)

    attempted = len(samples)
    failed = sum(first[i].failed for i, _, _ in samples)
    supported_s, supported_pct = highest_supported(scaled)
    metrics = {
        "trials_per_s": n / sum(scaled),
        "trial_p50_ms": 1e3 * statistics.median(scaled),
        "trial_tail_ms": 1e3 * percentile(scaled, TAIL_PCT),
        "scored_fraction": 1.0 - failed / attempted,
        "association_accuracy": sum(r.correct for r in traced) / n,
        "target_hit_rate": sum(r.hits for r in traced) / (w.k * n),
        "setup_s": statistics.median(hostspeed.scaled(setup_times, "process")),
        "peak_rss_mb": peak_rss_mb,
    }
    layers, layer_share = layer_metrics(workloads, w, tracer, probes, scaled)
    metrics.update(layers)
    summary = {
        "trials": n,
        "failed": sum(r.failed for r in first),
        "correct": sum(r.correct for r in traced),
        "hits": sum(r.hits for r in traced),
        "feasible": sum(r.n_feasible for r in traced),
        "reduced": sum(r.n_reduced for r in traced),
    }

    results = {name: errors.get(name, []) for name in CHECKS}
    if drift:
        results["repeat_passes_identical"] = [f"{drift} repeated trials drifted"]
    if layer_share < MIN_LAYER_SHARE:
        results["layer_spans_cover_trial"] = [
            f"layer spans cover {layer_share:.1%} of traced trial time"
        ]
    results["reference"] = checks.summary_errors(summary, reference)
    correct = not any(results.values())

    extra = {
        "trial_tail_percentile": TAIL_PCT,
        "trial_samples": n,
        "highest_supported_percentile": supported_pct,
        "highest_supported_ms": 1e3 * supported_s,
        "error_probability": 1.0 - metrics["target_hit_rate"],
        "failed_fraction": failed / attempted,
        "wall_trials_per_s": n / sum(wall),
        "wall_trial_p50_ms": 1e3 * statistics.median(wall),
        "wall_trial_tail_ms": 1e3 * percentile(wall, TAIL_PCT),
        "host_speed_median": statistics.median(
            hostspeed.NOMINAL_S[w.probe] / p for _, _, p in samples
        ),
        "wall_setup_median_s": statistics.median(wall for wall, _ in setup_times),
        "layer_share": layer_share,
        "reference_checked": reference is not None,
    }
    report(w, args, metrics, extra, results)
    write_result(w, args, metrics, extra, {
        "attempted": attempted,
        "failed": failed,
        "setup_runs_s": [wall for wall, _ in setup_times],
        "setup_probe_s": [p for _, p in setup_times],
        "summary": summary,
        "checks": results,
    })
    chosen = END_TO_END if args.trace == 0 else PER_LAYER
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]} for name in chosen},
    }))
    return 0 if correct else 1


def report(w, args, metrics, extra, results):
    print(f"workload {w.name} seed {args.seed} trials {extra['trial_samples']} "
          f"({'steady' if w.steady else 'not steady across seeds'})")
    for name in END_TO_END + PER_LAYER:
        print(f"  {name:28s} {metrics[name]:14.6g} {UNITS[name]}")
    print(f"  trial_tail_ms is p{extra['trial_tail_percentile']:g} of "
          f"{extra['trial_samples']} per-trial times; the highest percentile with "
          f"ten beyond it, p{extra['highest_supported_percentile']:g}, is "
          f"{extra['highest_supported_ms']:.6g} ms")
    print(f"  error_probability {extra['error_probability']:.6g} ratio, "
          f"failed_fraction {extra['failed_fraction']:.6g} ratio")
    print(f"  wall clock: {extra['wall_trials_per_s']:.6g} trials/s, "
          f"p50 {extra['wall_trial_p50_ms']:.6g} ms, "
          f"tail {extra['wall_trial_tail_ms']:.6g} ms "
          f"at median host speed {extra['host_speed_median']:.3g} of nominal; "
          f"set-up median {extra['wall_setup_median_s']:.6g} s over {SETUP_RUNS} runs")
    print(f"  layer spans cover {extra['layer_share']:.2%} of traced trial time")
    for name, errors in results.items():
        status = "FAILED" if errors else "ok"
        if name == "reference" and not extra["reference_checked"]:
            status = (f"skipped, no summary recorded for seed {args.seed} "
                      f"with {extra['trial_samples']} trials")
        print(f"  check {name}: {status}")
        for e in errors[:5]:
            print(f"    {e}")


def write_result(w, args, metrics, extra, details):
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    doc = {
        "workload": w.name,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "steady": w.steady,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        **extra,
        **details,
        "environment": environment(),
    }
    path = out / f"{w.name}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(main())
