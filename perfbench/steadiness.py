"""Run the benchmark twice over ten seeds and record how much each metric spreads.

    python3 perfbench/steadiness.py

Runs every workload of ``BENCHMARK.json`` with ``--trace 0`` on seeds
100-109, one run after another, and then does it all again: two sets of the
same runs of the same code.  Writes ``perfbench/steadiness.json``: per set,
workload and metric, the ten values, their median and their spread,
``(Q3 - Q1) / median`` with quartiles from ``statistics.quantiles(values,
n=4)``, and how far the second set's median is from the first's.  Besides
the end-to-end metrics it records the unscaled wall-clock figures and the
host speed from each run's result file, so the effect of host-speed scaling
is on the record.  The bounds in ``BENCHMARK.json`` are set from these
spreads.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(100, 110)
SETS = 2
# Unscaled figures and host speed, read from each run's result file.
RECORDED = (
    "wall_trials_per_s",
    "wall_trial_p50_ms",
    "wall_trial_tail_ms",
    "wall_setup_median_s",
    "host_speed_median",
)


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_set(spec: dict) -> dict | None:
    """One run per workload and seed; per workload, each metric's values."""
    out = {}
    for w in spec["workloads"]:
        name = w["name"]
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, timeout=600,
            )
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not line["correct"]:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return None
            for metric, m in line["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            result = json.loads(
                (HERE / "results" / f"{name}_seed{seed}_trace0.json").read_text()
            )
            for metric in RECORDED:
                values.setdefault(metric, []).append(result[metric])
        out[name] = values
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = []
    for number in range(1, SETS + 1):
        values = run_set(spec)
        if values is None:
            return 1
        doc = {}
        for name, metrics in values.items():
            doc[name] = {
                metric: {"median": statistics.median(v), "spread": spread(v), "values": v}
                for metric, v in metrics.items()
            }
        sets.append(doc)
        for name, metrics in doc.items():
            for metric, e in metrics.items():
                print(f"set {number} {name:12s} {metric:22s} median {e['median']:.6g} "
                      f"spread {e['spread']:.4f} bound {bounds.get(metric, '-')}",
                      flush=True)

    change = {
        name: {
            metric: sets[-1][name][metric]["median"] / e["median"] - 1.0
            for metric, e in metrics.items()
        }
        for name, metrics in sets[0].items()
    }
    (HERE / "steadiness.json").write_text(json.dumps({
        "run_seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "bounds": bounds,
        "sets": sets,
        "median_change_last_vs_first": change,
    }, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
