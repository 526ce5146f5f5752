"""Smoke tests of the benchmark.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
Each run uses a tiny trial set, so the timings mean nothing; the tests pin
the output schema, the seed handling and the output checks.
"""

import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNSTEADY = ("loc-k7-r1", "card-k8-r3")

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )


def tiny(workload, trace=0, *extra):
    return run_bench(
        "--workload", workload, "--seed", "0", "--seconds", "0.01",
        "--trace", str(trace), "--trials", "2", *extra,
    )


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_workload_is_defined():
    names = [w["name"] for w in SPEC["workloads"]]
    assert set(names) | set(UNSTEADY) == set(workloads.WORKLOADS)
    assert all(workloads.WORKLOADS[n].steady for n in names)
    assert not any(workloads.WORKLOADS[n].steady for n in UNSTEADY)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_schema(workload, trace):
    proc = tiny(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = last_json(proc)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 2 and line["failed"] == 0
    want = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in want}
    assert all(np.isfinite(m["value"]) for m in line["metrics"].values())
    for name in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert name["name"] in proc.stdout


def test_reference_mismatch_fails():
    first = tiny("geo-k4-r1")
    assert first.returncode == 0
    result = json.loads(
        (BENCH / "results" / "geo-k4-r1_seed0_trace0.json").read_text()
    )
    summary = result["summary"]
    assert result["reference_checked"] is False
    assert "check reference: skipped" in first.stdout

    ref = BENCH / "results" / "reference-test.json"
    ref.write_text(json.dumps({"geo-k4-r1": {"0": summary}}))
    same = tiny("geo-k4-r1", 0, "--reference", str(ref))
    assert same.returncode == 0 and last_json(same)["correct"] is True

    ref.write_text(json.dumps({"geo-k4-r1": {"0": dict(summary, hits=summary["hits"] + 1)}}))
    wrong = tiny("geo-k4-r1", 0, "--reference", str(ref))
    assert wrong.returncode != 0
    assert last_json(wrong)["correct"] is False
    assert "check reference: FAILED" in wrong.stdout


def test_without_package_exits_without_result():
    bare = BENCH / "results" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench("--workload", "geo-k4-r1", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_seed_zero_is_honoured():
    w = workloads.WORKLOADS["geo-k4-r1"]
    zero = w.trial_seeds(0, 2)
    assert zero[0].entropy == 0
    assert w.run(w.config(), 0, zero[0]) != w.run(w.config(), 0, w.trial_seeds(1, 1)[0])


@pytest.mark.parametrize("name", ("geo-k4-r1", "card-k6-r3", "loc-k7-r1"))
def test_recount_matches_enumeration(name):
    from irsloc.association import enumerate_feasible

    w = workloads.WORKLOADS[name]
    cfg = w.config()
    for i, seq in enumerate(w.trial_seeds(3, 5)):
        record, parts = w.run_traced(cfg, i, seq, workloads.Tracer())
        for closest in (False, True):
            got = enumerate_feasible(parts.sets, parts.scene, cfg.tau_m, closest)
            want = checks.count_feasible(parts.sets, parts.scene, cfg.tau_m, closest)
            assert len(got.solutions) == want


@pytest.mark.parametrize("kind", ("interpreter", "array"))
def test_probe_takes_no_heap_memory(kind):
    # A probe must not share the package's heap, or a change to the
    # package's allocations would move the figure trial times are scaled by.
    # The ``process`` probe does its work in a process of its own.
    probe = hostspeed.make_probe(kind)
    probe()
    tracemalloc.start()
    try:
        probe()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4096
