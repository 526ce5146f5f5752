"""Benchmark workloads and the two ways the benchmark runs one trial.

``Workload.run`` calls the package's public experiment entry points exactly
as a user does: ``harness.run_trial`` for localization and
``harness.cardinality_experiment`` for counting.  ``Workload.run_traced``
rebuilds the same trial from the layers' public calls and records a span
around each call, so the per-layer split adds up to the trial and its
outcome can be compared with the untraced one field by field.

Every trial gets a fresh child of ``SeedSequence(master_seed)``: spawning
from a SeedSequence advances it, so reusing one child would give a second
pass over the trial set different inputs.
"""

import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from irsloc.association import (
    closest_irs_candidates,
    consistency_check,
    enumerate_feasible,
    ground_truth_solution,
    solutions_equivalent,
)
from irsloc.harness import cardinality_experiment, default_config, run_trial
from irsloc.locate import select_association
from irsloc.ranging import (
    RangeSets,
    build_range_sets,
    detect_support,
    irs_echo_bins,
    lasso_solve,
    weighted_lasso_solve,
)
from irsloc.scene import SceneSamplingError, distance, sample_targets
from irsloc.waveform import (
    DelayWindowError,
    build_paths,
    make_pilots,
    make_plan,
    simulate_freq_rx,
)

# Which per-layer metric each traced call is charged to.
LAYER_OF_SPAN = {
    "scene.sample_targets": "scene.sample_s",
    "waveform.make_plan": "waveform.synth_s",
    "waveform.make_pilots": "waveform.synth_s",
    "waveform.build_paths": "waveform.synth_s",
    "waveform.simulate_freq_rx": "waveform.synth_s",
    "ranging.calibrate": "ranging.recover_s",
    "ranging.irs_echo_bins": "ranging.recover_s",
    "ranging.lasso_solve": "ranging.recover_s",
    "ranging.weighted_lasso_solve": "ranging.recover_s",
    "ranging.detect_support": "ranging.detect_s",
    "ranging.build_range_sets": "ranging.detect_s",
    "ranging.RangeSets.from_geometry": "ranging.geometry_s",
    "association.enumerate_feasible": "association.enumerate_s",
    "locate.select_association": "locate.select_s",
    "association.ground_truth_solution": "harness.score_s",
    "harness.score": "harness.score_s",
}


class Tracer:
    """In-memory spans ``(trial, name, start, end)`` plus summed counters.

    Each trial's layer spans are children of its ``trial`` span; they share
    the trial index as their identifier.
    """

    def __init__(self):
        self.spans: list[tuple[int, str, float, float]] = []
        self.counters: Counter = Counter()
        self.trial = -1

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((self.trial, name, start, time.perf_counter()))

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n


@dataclass(frozen=True)
class TrialRecord:
    """What the benchmark compares between the untraced and traced runs.

    For localization ``n_feasible`` is the size of the set selection scanned
    and ``n_reduced`` the surviving solutions; for counting they are the
    plain and closest-surface feasible-set sizes.  ``hits`` counts targets
    localized within the error radius (localization) or whose true tuple the
    closest-surface filter keeps (counting); ``correct`` says whether the
    association output holds the true association.
    """

    failed: bool
    correct: bool
    hits: int
    chosen: tuple | None
    positions: tuple
    residuals: tuple
    n_feasible: int
    n_reduced: int
    solver_calls: int


@dataclass
class TrialParts:
    """Intermediate results of a traced trial, kept for the output checks."""

    scene: object = None
    sets: object = None
    truth: tuple | None = None
    solutions: tuple = ()


def _localization_record(o, radius: float) -> TrialRecord:
    return TrialRecord(
        failed=o.detection_failed,
        correct=o.association_correct,
        hits=sum(1 for e in o.errors_m if e <= radius),
        chosen=o.chosen,
        positions=o.est_positions,
        residuals=o.residuals,
        n_feasible=o.n_feasible,
        n_reduced=o.n_survivors,
        solver_calls=o.solver_calls,
    )


def _failed_record(k: int) -> TrialRecord:
    return TrialRecord(
        failed=True,
        correct=False,
        hits=0,
        chosen=None,
        positions=(None,) * k,
        residuals=(math.inf,) * k,
        n_feasible=0,
        n_reduced=0,
        solver_calls=0,
    )


def scene_seed_for_count(seed_seq) -> int:
    """Integer master seed of a one-scene ``cardinality_experiment`` run."""
    return int(seed_seq.generate_state(1)[0])


@dataclass(frozen=True)
class Workload:
    """One fixed-seed trial stream.

    ``trials`` is the size of the fixed trial set; ``kind`` is ``localize``
    (``run_trial``) or ``count`` (``cardinality_experiment``, one scene per
    trial, closest-surface layouts only).  ``probe`` names the host-speed
    probe whose work is like the workload's hot path (see ``hostspeed``).
    ``steady`` marks the workloads whose figures repeat across seeds closely
    enough to gate changes on.
    """

    name: str
    kind: str
    n_irs: int
    k: int
    trials: int
    skip_phase1: bool = True
    probe: str = "interpreter"
    steady: bool = True

    def config(self):
        cfg = default_config(self.n_irs, k=self.k, skip_phase1=self.skip_phase1)
        if self.kind == "count":
            if self.n_irs < 2:
                raise ValueError("count workloads need the closest-surface filter")
            cfg = replace(cfg, trials=1)
        return cfg

    def trial_seeds(self, seed: int, n: int):
        return np.random.SeedSequence(seed).spawn(n)

    def run(self, cfg, trial: int, seed_seq) -> TrialRecord:
        """One trial through the package's public experiment entry point.

        ``cardinality_experiment`` reports counts only, so a counting
        record's ``correct`` and ``hits`` come from the traced rebuild.
        """
        if self.kind == "localize":
            return _localization_record(
                run_trial(cfg, trial, seed_seq), cfg.error_radius_m
            )
        row = cardinality_experiment(
            replace(cfg, seed=scene_seed_for_count(seed_seq)), k_values=(cfg.k,)
        )[0]
        return TrialRecord(
            failed=False,
            correct=False,
            hits=0,
            chosen=None,
            positions=(),
            residuals=(),
            n_feasible=int(row["mean_feasible"]),
            n_reduced=int(row["mean_reduced"]),
            solver_calls=0,
        )

    def same_outcome(self, untraced: TrialRecord, traced: TrialRecord) -> bool:
        """Field-by-field equality of what both runs observe."""
        if self.kind == "count":
            return (untraced.n_feasible, untraced.n_reduced) == (
                traced.n_feasible,
                traced.n_reduced,
            )
        return untraced == traced

    def run_traced(
        self, cfg, trial: int, seed_seq, tracer: Tracer
    ) -> tuple[TrialRecord, TrialParts]:
        """The same trial rebuilt from layer calls, one span per call."""
        tracer.trial = trial
        parts = TrialParts()
        with tracer.span("trial"):
            if self.kind == "localize":
                record = _trace_localize(cfg, seed_seq, tracer, parts)
            else:
                record = _trace_count(cfg, seed_seq, tracer, parts)
        return record, parts


def _trace_localize(cfg, seed_seq, tracer: Tracer, parts: TrialParts) -> TrialRecord:
    """Mirror of ``harness.run_trial`` (oracle off) from public calls."""
    k = cfg.k
    scene_seed, phase1_seed = seed_seq.spawn(2)
    tracer.count("scene.calls")
    try:
        with tracer.span("scene.sample_targets"):
            scene = sample_targets(
                cfg.bs, cfg.irs, k, cfg.target_radius_m, scene_seed,
                cell_m=cfg.ofdm.cell_m,
            )
    except SceneSamplingError:
        return _failed_record(k)
    parts.scene = scene
    if cfg.skip_phase1:
        with tracer.span("ranging.RangeSets.from_geometry"):
            sets = RangeSets.from_geometry(scene, cell_m=cfg.ofdm.cell_m)
    else:
        try:
            sets = _trace_waveform_ranging(scene, cfg, phase1_seed, tracer)
        except DelayWindowError:
            return _failed_record(k)
        tracer.count("ranging.trials")
        if not sets.balanced(k):
            return _failed_record(k)
        tracer.count("ranging.balanced")
    parts.sets = sets

    with tracer.span("association.ground_truth_solution"):
        truth = ground_truth_solution(scene, sets, cell_m=cfg.ofdm.cell_m)
    if truth is None:
        return _failed_record(k)
    parts.truth = truth

    # solve_multi_irs: the closest-surface filter applies with several IRSs
    with tracer.span("association.enumerate_feasible"):
        feasible = enumerate_feasible(
            sets, scene, cfg.tau_m, use_closest_irs=scene.n_irs > 1
        )
    parts.solutions = feasible.solutions
    tracer.count("association.feasible", len(feasible.solutions))
    with tracer.span("locate.select_association"):
        result = select_association(feasible, sets, scene, cfg.weights, cfg.gn)
    tracer.count("locate.trials")
    tracer.count("locate.solver_calls", result.stats.solver_calls)

    with tracer.span("harness.score"):
        truths = sorted(scene.targets, key=lambda t: distance(scene.bs[0], t))
        if result.solution is None:
            positions = (None,) * k
            residuals = (math.inf,) * k
            hits = 0
            correct = False
        else:
            positions = tuple(e.position for e in result.estimates)
            residuals = tuple(e.residual for e in result.estimates)
            hits = sum(
                1
                for p, t in zip(positions, truths)
                if distance(p, t) <= cfg.error_radius_m
            )
            correct = solutions_equivalent(sets, result.solution, truth)
    return TrialRecord(
        failed=False,
        correct=correct,
        hits=hits,
        chosen=result.solution,
        positions=positions,
        residuals=residuals,
        n_feasible=result.stats.n_solutions,
        n_reduced=result.stats.n_survivors,
        solver_calls=result.stats.solver_calls,
    )


def _trace_waveform_ranging(scene, cfg, seed_seq, tracer: Tracer) -> RangeSets:
    """Mirror of the harness's full waveform path: synthesis then recovery."""
    ofdm = cfg.ofdm
    with tracer.span("waveform.make_plan"):
        plan = make_plan(ofdm.n_subcarriers)
    with tracer.span("ranging.calibrate"):
        rcfg = cfg.ranging_config(scene)
    pilot_seed, phase_seed_seq, noise1, noise2 = seed_seq.spawn(4)
    phase_seed = int(phase_seed_seq.generate_state(1)[0])
    with tracer.span("waveform.make_pilots"):
        pilots = make_pilots(plan, pilot_seed)
    snaps = []
    for symbol, noise in ((1, noise1), (2, noise2)):
        with tracer.span("waveform.build_paths"):
            paths = build_paths(scene, ofdm, symbol=symbol, phase_seed=phase_seed)
        with tracer.span("waveform.simulate_freq_rx"):
            snaps.append(simulate_freq_rx(paths, pilots, ofdm, plan, seed=noise))
        tracer.count("waveform.snapshots")
    first = []
    second = []
    for m in (0, 1):
        with tracer.span("ranging.lasso_solve"):
            est1 = lasso_solve(snaps[0].by_bs[m], ofdm, rcfg)
        with tracer.span("ranging.detect_support"):
            phi3 = detect_support(est1, rcfg.delta1)
        with tracer.span("ranging.irs_echo_bins"):
            known = irs_echo_bins(scene, ofdm)[m]
        with tracer.span("ranging.weighted_lasso_solve"):
            est2 = weighted_lasso_solve(snaps[1].by_bs[m], known, phi3, ofdm, rcfg)
        tracer.count("ranging.solves", 2)
        tracer.count("ranging.solver_iters", est1.n_iters + est2.n_iters)
        first.append(est1)
        second.append(est2)
    with tracer.span("ranging.build_range_sets"):
        return build_range_sets(
            (first[0], first[1]), (second[0], second[1]), scene, ofdm, rcfg
        )


def _trace_count(cfg, seed_seq, tracer: Tracer, parts: TrialParts) -> TrialRecord:
    """Mirror of one ``cardinality_experiment`` scene on a multi-IRS layout."""
    scene_seq = np.random.SeedSequence(scene_seed_for_count(seed_seq)).spawn(1)[0]
    tracer.count("scene.calls")
    with tracer.span("scene.sample_targets"):
        scene = sample_targets(
            cfg.bs, cfg.irs, cfg.k, cfg.target_radius_m, scene_seq.spawn(1)[0],
            cell_m=cfg.ofdm.cell_m,
        )
    with tracer.span("ranging.RangeSets.from_geometry"):
        sets = RangeSets.from_geometry(scene, cell_m=cfg.ofdm.cell_m)
    with tracer.span("association.enumerate_feasible"):
        plain = enumerate_feasible(sets, scene, cfg.tau_m, use_closest_irs=False)
    with tracer.span("association.enumerate_feasible"):
        reduced = enumerate_feasible(sets, scene, cfg.tau_m, use_closest_irs=True)
    tracer.count("association.feasible", len(plain.solutions) + len(reduced.solutions))
    with tracer.span("association.ground_truth_solution"):
        truth = ground_truth_solution(scene, sets, cell_m=cfg.ofdm.cell_m)
    with tracer.span("harness.score"):
        kept = [
            consistency_check(sets, t, scene, cfg.tau_m)
            and t.irs in closest_irs_candidates(scene, sets, t.direct1, t.direct2)
            for t in truth or ()
        ]
        correct = truth is not None and any(
            solutions_equivalent(sets, s, truth) for s in reduced.solutions
        )
    parts.scene, parts.sets, parts.truth = scene, sets, truth
    parts.solutions = plain.solutions + reduced.solutions
    return TrialRecord(
        failed=False,
        correct=correct,
        hits=sum(kept),
        chosen=None,
        positions=(),
        residuals=(),
        n_feasible=len(plain.solutions),
        n_reduced=len(reduced.solutions),
        solver_calls=0,
    )


# Trial sets are sized so a whole run (set-up runs, a 15 s timed loop and
# the traced pass) takes about 35 s even on a busy host.  Within that, a
# larger set cuts the spread that comes from which trials a seed draws, and
# a smaller one gives each trial more timed passes to take its median over.
# wave-k4-r3's trials cost about the same, so its set is small (about four
# passes); geo-k4-r1 and card-k6-r3 have heavier tails and larger sets.
# loc-k7-r1 and card-k8-r3 are too heavy-tailed to repeat across seeds at
# any size that fits (see README.md).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("geo-k4-r1", "localize", n_irs=1, k=4, trials=1400),
        Workload(
            "wave-k4-r3", "localize", n_irs=3, k=4, trials=80,
            skip_phase1=False, probe="array",
        ),
        Workload("card-k6-r3", "count", n_irs=3, k=6, trials=1000),
        Workload("loc-k7-r1", "localize", n_irs=1, k=7, trials=60, steady=False),
        Workload("card-k8-r3", "count", n_irs=3, k=8, trials=12, steady=False),
    )
}
