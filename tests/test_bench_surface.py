"""The benchmark in ``perfbench/`` runs against the package's public names.

Its workload and check modules are loaded by file path, unchanged, and a few
trials of each gated workload go through the untraced run, the traced
rebuild and every per-trial output check.  A package change that renames or
removes a name the benchmark uses, or changes an outcome the traced rebuild
reproduces, fails here rather than in a benchmark run.  So does a package
too fast for the benchmark's layer-span coverage floor: a few hundred traced
trials must meet the floor that ``perfbench/run.py`` sets.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def load_by_path(name: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def bench_constant(name: str):
    """A module-level constant of ``perfbench/run.py``, read without running it."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not a constant of perfbench/run.py")


@pytest.fixture(scope="module")
def bench():
    saved = {name: sys.modules.get(name) for name in ("workloads", "checks")}
    modules = load_by_path("workloads"), load_by_path("checks")
    yield modules
    for name, module in saved.items():
        if module is None:
            sys.modules.pop(name, None)
        else:
            sys.modules[name] = module


# card-k6-r3's traced rebuild lists the plain and the closest-surface sets
# with enumerate_feasible, while cardinality_experiment counts both with one
# completion_counts recursion and lists nothing, so more of its trials
# compare the two counts
TRIALS = {"geo-k4-r1": 2, "wave-k4-r3": 2, "card-k6-r3": 20}


@pytest.mark.parametrize("name", TRIALS)
def test_gated_workload_runs_and_passes_trial_checks(bench, name):
    workloads, checks = bench
    workload = workloads.WORKLOADS[name]
    cfg = workload.config()
    n = TRIALS[name]
    untraced = [
        workload.run(cfg, i, seq) for i, seq in enumerate(workload.trial_seeds(1, n))
    ]
    tracer = workloads.Tracer()
    for i, seq in enumerate(workload.trial_seeds(1, n)):
        traced, parts = workload.run_traced(cfg, i, seq, tracer)
        assert checks.trial_errors(workload, cfg, untraced[i], traced, parts) == []


# The benchmark fails a run whose layer spans cover less than MIN_LAYER_SHARE
# of its traced trial time.  The tracer's own cost per trial is fixed, so a
# faster package leaves less margin; these trial counts keep the share within
# a few tenths of a percent of a full benchmark run's, for the localization
# workloads and for the counting one alike.
COVERAGE_TRIALS = {"geo-k4-r1": 300, "wave-k4-r3": 20, "card-k6-r3": 200}


@pytest.mark.parametrize("name", COVERAGE_TRIALS)
def test_layer_spans_cover_traced_trials(bench, name):
    workloads, _ = bench
    workload = workloads.WORKLOADS[name]
    cfg = workload.config()
    workload.run(cfg, 0, workload.trial_seeds(1, 1)[0])  # warm caches, as run.py does
    tracer = workloads.Tracer()
    for i, seq in enumerate(workload.trial_seeds(1, COVERAGE_TRIALS[name])):
        workload.run_traced(cfg, i, seq, tracer)
    trial_s = sum(end - start for _, span, start, end in tracer.spans if span == "trial")
    layers_s = sum(end - start for _, span, start, end in tracer.spans if span != "trial")
    assert layers_s / trial_s >= bench_constant("MIN_LAYER_SHARE")
