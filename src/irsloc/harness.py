"""Monte-Carlo experiment drivers and metrics.

One trial samples a scene, produces range sets (either straight from
quantized geometry, the default, or through the full waveform and sparse
recovery path), runs association plus localization, and scores the result
against ground truth.  A target counts as an error when its estimate lands
more than ``error_radius_m`` from the truth.  A trial that stops before
association scores every target as an error and names its ``failure``:
``sampling`` (targets could not be placed), ``delay_window`` (an echo fell
outside the modeled delay window), ``unbalanced`` (range recovery did not
yield one entry per target in every list) or ``no_truth`` (some true range
is missing from the lists, so the trial cannot be scored).

Determinism: every experiment spawns one child seed per trial from a master
seed, so runs are reproducible and different trial counts share prefixes.  A
trial's own seeds come from ``_seed_children``, so a rerun repeats the trial.
"""

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .scene import (
    DEFAULT_CELL_M,
    Point2D,
    Scene,
    SceneSamplingError,
    as_point,
    check_fields,
    check_layout,
    check_topology,
    distance,
    mirror_across_bs_line,
    sample_targets,
)
from .waveform import (
    C0,
    DelayWindowError,
    OfdmConfig,
    channel_taps,
    pilot_turns,
    tap_domain_rx,
)
from .ranging import (
    RangeSets,
    RangingConfig,
    irs_echo_bins,
    penalties,
    quantize_range,
    range_sets_from_bins,
    shrink,
)
from .association import (
    AssociationTuple,
    candidate_picks,
    circle_intersections,
    claim_slot,
    closest_irs_rule,
    completion_counts,
    count_unfiltered_solutions,
    ground_truth_solution,
    rank_order,
    solutions_equivalent,
)
from .locate import (
    GN_DAMPING,
    GN_MAX_ITERS,
    GN_STEP_TOL_M,
    GnConfig,
    LocalizationResult,
    LocEstimate,
    ResidualWeights,
    SolveStats,
    _constraints,
    _select,
    default_init,
    fit_must_exceed,
    fit_position,
    fit_stays_below,
    gauss_newton_solve,
    lexmin_select,
    localize,
)

DEFAULT_BS = (Point2D(100.0, 0.0), Point2D(-100.0, 0.0))
DEFAULT_IRS_LAYOUTS = {
    1: (Point2D(0.0, 40.0),),
    2: (Point2D(-60.0, 40.0), Point2D(70.0, 40.0)),
    3: (Point2D(-60.0, 60.0), Point2D(70.0, 60.0), Point2D(0.0, -70.0)),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a trial needs; JSON round-trippable."""

    bs: tuple[Point2D, Point2D] = DEFAULT_BS
    irs: tuple[Point2D, ...] = DEFAULT_IRS_LAYOUTS[1]
    k: int = 4
    trials: int = 1000
    seed: int = 1
    target_radius_m: float = 50.0
    tau_m: float = 1.5
    error_radius_m: float = 0.8
    skip_phase1: bool = True
    ofdm: OfdmConfig = field(default_factory=OfdmConfig)
    gn: GnConfig = field(default_factory=GnConfig)

    def __post_init__(self):
        check_fields(self)
        bs, irs = check_layout(self.bs, self.irs)
        object.__setattr__(self, "bs", bs)
        object.__setattr__(self, "irs", irs)
        if self.k < 1 or self.trials < 1:
            raise ValueError("k and trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.tau_m < 0 or self.error_radius_m <= 0 or self.target_radius_m <= 0:
            raise ValueError("tau_m must be >= 0, error_radius_m and target_radius_m > 0")

    @property
    def weights(self) -> ResidualWeights:
        return ResidualWeights.from_cell(self.ofdm.cell_m)

    def ranging_config(self, scene: Scene) -> RangingConfig:
        """Phase-I thresholds from the link budget of ``scene``'s layout."""
        return RangingConfig.calibrated(self.ofdm, scene, self.target_radius_m)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["bs"] = [list(p) for p in self.bs]
        d["irs"] = [list(p) for p in self.irs]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """The config a JSON object describes; ``ValueError`` names any key
        that is not a setting, and any ``RETIRED_SETTINGS`` key away from the
        value the code now fixes, so an older config keeps its meaning."""
        kwargs = _settings("config", d, cls)
        for key, block in (("ofdm", OfdmConfig), ("gn", GnConfig)):
            if key in kwargs:
                kwargs[key] = block(**_settings(key, kwargs[key], block))
        return cls(**kwargs)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))


# Settings a config once carried and the code now fixes, per block: each
# loads only at the values listed (null or {} ``ranging`` meant calibrated).
RETIRED_SETTINGS = {
    "config": {"ranging": (None, {})},
    "ofdm": {"c0": (C0,)},
    "gn": {"max_iters": (GN_MAX_ITERS,), "step_tol_m": (GN_STEP_TOL_M,), "damping": (GN_DAMPING,)},
}


def _settings(name: str, d: dict, cls) -> dict:
    """``d`` without block ``name``'s retired keys, after checking every key."""
    if not isinstance(d, dict):
        raise ValueError(f"{name} must be an object of settings, got {d!r}")
    retired = RETIRED_SETTINGS[name]
    unknown = set(d) - {f.name for f in fields(cls)} - set(retired)
    if unknown:
        raise ValueError(f"unknown {name} keys {sorted(unknown, key=str)}")
    for key in retired.keys() & d.keys():
        if d[key] not in retired[key]:
            fixed = " or ".join(json.dumps(v) for v in retired[key])
            raise ValueError(f"{key} is no longer a setting: it loads only as {fixed}, got {d[key]!r}")
    return {k: v for k, v in d.items() if k not in retired}


def required_taps(bs, irs, radius_m: float, cfg: OfdmConfig) -> int:
    """Smallest modeled tap count that covers every echo of the layout.

    Both the direct round trip and the compound path via an IRS are bounded
    by twice the largest BS-to-IRS distance plus twice the coverage radius.
    Adds a small guard band and rounds up to a multiple of 64.
    """
    reach = max(distance(as_point(b), as_point(q)) for b in bs for q in irs)
    bound = 2.0 * (reach + radius_m)
    taps = math.ceil(bound / cfg.cell_m) + 8
    return ((taps + 63) // 64) * 64


def _widen_window(cfg: ExperimentConfig) -> ExperimentConfig:
    """``cfg`` with its tap window (and cyclic prefix) grown to ``required_taps``.

    Never narrows the window, and changes no other OFDM setting.
    """
    taps = required_taps(cfg.bs, cfg.irs, cfg.target_radius_m, cfg.ofdm)
    if taps <= cfg.ofdm.n_taps:
        return cfg
    ofdm = replace(cfg.ofdm, cp_len=max(cfg.ofdm.cp_len, taps), n_taps=taps)
    return replace(cfg, ofdm=ofdm)


def default_config(n_irs: int = 1, **overrides) -> ExperimentConfig:
    """Stock geometry for the given IRS count (1, 2 or 3).

    Widens the modeled delay window when the layout's farthest echoes would
    fall outside the stock tap count, unless the caller supplies its own
    OFDM settings.
    """
    if n_irs not in DEFAULT_IRS_LAYOUTS:
        raise ValueError("stock layouts exist for 1, 2 or 3 IRSs")
    cfg = ExperimentConfig(irs=DEFAULT_IRS_LAYOUTS[n_irs], **overrides)
    return cfg if "ofdm" in overrides else _widen_window(cfg)


@dataclass(frozen=True)
class TrialOutcome:
    """Scored result of one Monte-Carlo trial.

    ``failure`` names why a trial stopped before association, one of
    ``FAILURE_REASONS``, and is ``None`` on success; ``detection_failed`` is
    true for every failed trial.
    """

    trial: int
    k: int
    detection_failed: bool
    failure: str | None
    association_correct: bool
    errors_m: tuple[float, ...]
    true_positions: tuple[Point2D, ...]
    est_positions: tuple[Point2D | None, ...]
    residuals: tuple[float, ...]
    chosen: tuple[AssociationTuple, ...] | None
    n_feasible: int
    n_survivors: int
    solver_calls: int
    fallback: bool
    wall_time_s: float


FAILURE_REASONS = ("sampling", "delay_window", "unbalanced", "no_truth")


def _scored_outcome(
    trial, k, scene, start, result: LocalizationResult, correct, chosen, failure=None
) -> TrialOutcome:
    """``result`` scored against the scene's targets in rank order.

    Without a solution every target scores as an error.  ``failure`` is set
    when the trial stopped before association; ``scene`` is None when it
    stopped before a scene existed.
    """
    truths = _true_positions_by_rank(scene) if scene is not None else ()
    if result.solution is None:
        ests = (None,) * k
        errors = residuals = (math.inf,) * k
    else:
        ests = tuple(e.position for e in result.estimates)
        errors = tuple(distance(p, t) for p, t in zip(ests, truths))
        residuals = tuple(e.residual for e in result.estimates)
    return TrialOutcome(
        trial=trial,
        k=k,
        detection_failed=failure is not None,
        failure=failure,
        association_correct=correct,
        errors_m=errors,
        true_positions=truths,
        est_positions=ests,
        residuals=residuals,
        chosen=chosen,
        n_feasible=result.stats.n_solutions,
        n_survivors=result.stats.n_survivors,
        solver_calls=result.stats.solver_calls,
        fallback=result.stats.fallback,
        wall_time_s=time.perf_counter() - start,
    )


_NO_RESULT = LocalizationResult(
    solution=None, estimates=(), stats=SolveStats(0, 0, 0, fallback=False)
)


def _failed_outcome(trial, k, scene, start, failure) -> TrialOutcome:
    return _scored_outcome(trial, k, scene, start, _NO_RESULT, False, None, failure)


def _oracle_result(truth, fit, n_solutions: int) -> LocalizationResult:
    """Every target fit from its ground-truth pick, selection bypassed."""
    return LocalizationResult(
        solution=truth,
        estimates=tuple(fit(t) for t in truth),
        stats=SolveStats(
            n_solutions, n_survivors=1, solver_calls=len(truth), fallback=False
        ),
    )


def _true_positions_by_rank(scene: Scene) -> tuple[Point2D, ...]:
    return tuple(scene.targets[i] for i in rank_order(scene))


def _seed_children(seed_seq, n: int) -> list:
    """``seed_seq.spawn(n)`` as on a fresh sequence, leaving ``seed_seq`` as it is."""
    entropy, key, pool = seed_seq.entropy, seed_seq.spawn_key, seed_seq.pool_size
    return [np.random.SeedSequence(entropy, spawn_key=(*key, j), pool_size=pool) for j in range(n)]


def _phase1_range_sets(scene: Scene, cfg: ExperimentConfig, seed_seq) -> RangeSets:
    """Full waveform path in the tap domain: echoes and noise to ranges.

    Thresholds the same matched-filter vectors that synthesizing and
    demodulating both symbols would give, without synthesizing them.  Each
    symbol is one ``(2, L)`` array over both BSs: one shrink and one
    detection per symbol.
    """
    ofdm = cfg.ofdm
    rcfg = cfg.ranging_config(scene)
    pilot_seed, phase_seed_seq, noise1, noise2 = _seed_children(seed_seq, 4)
    phase_seed = int(phase_seed_seq.generate_state(1)[0])
    taps = channel_taps(scene, ofdm, phase_seed)
    turns = pilot_turns(ofdm.n_subcarriers, pilot_seed)
    v1, v2 = tap_domain_rx(taps, turns, ofdm, (noise1, noise2))
    known = irs_echo_bins(scene, ofdm)
    found1 = shrink(v1, penalties(rcfg, ofdm.n_taps), ofdm).magnitudes >= rcfg.delta1
    direct = [np.flatnonzero(row).tolist() for row in found1]
    # range_sets_from_bins drops the anchor and first-symbol bins, the only
    # ones where penalties(rcfg, L, known) puts rho1, so rho2 on every bin
    found2 = shrink(v2, rcfg.rho2, ofdm).magnitudes >= rcfg.delta2
    second = [np.flatnonzero(row).tolist() for row in found2]
    return range_sets_from_bins(direct, second, known, ofdm)


def run_trial(
    cfg: ExperimentConfig,
    trial: int,
    seed_seq,
    oracle: bool = False,
) -> TrialOutcome:
    """Sample, localize and score one scene.

    ``oracle`` bypasses association: every target is fit from its
    ground-truth tuple, providing the perfect-association reference curve.
    """
    start = time.perf_counter()
    k = cfg.k
    scene_seed, phase1_seed = _seed_children(seed_seq, 2)
    try:
        scene = sample_targets(
            cfg.bs,
            cfg.irs,
            k,
            cfg.target_radius_m,
            scene_seed,
            cell_m=cfg.ofdm.cell_m,
        )
    except SceneSamplingError:
        return _failed_outcome(trial, k, None, start, "sampling")

    if cfg.skip_phase1:
        sets = RangeSets.from_geometry(scene, cell_m=cfg.ofdm.cell_m)
    else:
        try:
            sets = _phase1_range_sets(scene, cfg, phase1_seed)
        except DelayWindowError:
            return _failed_outcome(trial, k, scene, start, "delay_window")
        if not sets.balanced(k):
            return _failed_outcome(trial, k, scene, start, "unbalanced")

    truth = ground_truth_solution(scene, sets, cell_m=cfg.ofdm.cell_m)
    if truth is None:
        return _failed_outcome(trial, k, scene, start, "no_truth")

    if oracle:
        result = _oracle_result(
            truth, lambda t: gauss_newton_solve(sets, t, scene, cfg.weights), 1
        )
    else:
        result = localize(sets, scene, cfg.tau_m, cfg.weights, cfg.gn)
    correct = result.solution is not None and solutions_equivalent(
        sets, result.solution, truth
    )
    return _scored_outcome(trial, k, scene, start, result, correct, result.solution)


def error_probability(outcomes, radius: float) -> float:
    """Fraction of targets localized worse than ``radius`` meters.

    Detection and association failures contribute every target of their
    trial to the numerator (their errors are infinite).
    """
    total = 0
    bad = 0
    for o in outcomes:
        for e in o.errors_m:
            total += 1
            if not (e <= radius):
                bad += 1
    if total == 0:
        raise ValueError("no outcomes")
    return bad / total


def association_accuracy(outcomes) -> float:
    return sum(1 for o in outcomes if o.association_correct) / len(outcomes)


def run_localization(cfg: ExperimentConfig, oracle: bool = False) -> list[TrialOutcome]:
    """All trials of one localization experiment, sequential and seeded."""
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    return [run_trial(cfg, i, s, oracle=oracle) for i, s in enumerate(seeds)]


# ---------------------------------------------------------------------------
# cardinality experiment


def _mean_and_se(values) -> tuple[float, float]:
    """Sample mean and its standard error; both NaN for no values."""
    if not values:
        return math.nan, math.nan
    if len(values) == 1:  # SE 0 by convention: numpy's std(ddof=1) gives NaN
        return float(values[0]), 0.0
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(len(arr)))


def _second_stage(cfg: ExperimentConfig, scene: Scene, sets: RangeSets):
    """``cardinality_experiment``'s second-stage test of one tuple."""
    if len(cfg.irs) > 1:
        rule = closest_irs_rule(scene, sets)
        return lambda t: t.irs in rule(t.direct1, t.direct2)
    w, gn = cfg.weights, cfg.gn

    def fits(t):
        triples = _constraints(sets, t, scene, w)
        if fit_must_exceed(triples, gn):
            return False
        init = default_init(sets, t, scene)
        return (
            fit_stays_below(triples, gn, init)
            or fit_position(triples, init).residual < gn.residual_threshold
        )

    return fits


def cardinality_experiment(cfg: ExperimentConfig, k_values) -> list[dict]:
    """Feasible-set size statistics per target count.

    For each K: mean size of the consistency-filtered set, plus the second
    reduction stage: the feasible solutions whose every tuple fits below
    ``cfg.gn.residual_threshold`` for a single IRS (``localize``'s
    ``_select`` survivors) or passes ``closest_irs_rule`` for several.  One
    ``completion_counts`` call per scene gives both, listing no solution.
    Unplaceable scenes are skipped and counted in ``sampling_failures``; the
    means are over the placed scenes, NaN when there are none.
    """
    rows = []
    r = len(cfg.irs)
    for k in k_values:
        kcfg = cfg if cfg.k == k else replace(cfg, k=int(k))
        feas, reduced = [], []
        sampling_failures = 0
        for i in range(cfg.trials):
            # the state of SeedSequence(seed).spawn(trials)[i].spawn(1)[0]
            scene_seed = np.random.SeedSequence(cfg.seed, spawn_key=(i, 0))
            try:
                scene = sample_targets(
                    kcfg.bs, kcfg.irs, kcfg.k, kcfg.target_radius_m, scene_seed,
                    cell_m=kcfg.ofdm.cell_m,
                )
            except SceneSamplingError:
                sampling_failures += 1
                continue
            sets = RangeSets.from_geometry(scene, cell_m=kcfg.ofdm.cell_m)
            # fewest picks first: count(0) is order-free, and the memo holds fewer sets
            picks = sorted(candidate_picks(sets, scene, kcfg.tau_m), key=len)
            n_feasible, n_kept = completion_counts(picks, _second_stage(kcfg, scene, sets))(0)
            feas.append(n_feasible)
            reduced.append(n_kept)
        mean_feasible, se_feasible = _mean_and_se(feas)
        mean_reduced, se_reduced = _mean_and_se(reduced)
        rows.append(
            {
                "k": int(k),
                "n_irs": r,
                "trials": cfg.trials,
                "sampling_failures": sampling_failures,
                "unfiltered": count_unfiltered_solutions(int(k), r),
                "mean_feasible": mean_feasible,
                "se_feasible": se_feasible,
                "mean_reduced": mean_reduced,
                "se_reduced": se_reduced,
                "reduced_kind": "residual_pruned" if r == 1 else "closest_irs",
            }
        )
    return rows


# ---------------------------------------------------------------------------
# three-active-BS baseline


def _baseline_truth(scene3, anchors, ranges, cell_m):
    """Per target in rank order, its (anchor 1, 2, 3) slots; None when missing."""
    used = [set(), set(), set()]
    triples = []
    for rank, i in enumerate(rank_order(scene3)):
        t = scene3.targets[i]
        wanted = (quantize_range(2.0 * distance(a, t), cell_m) for a in anchors)
        picks = tuple(map(claim_slot, ranges, used, wanted))
        if None in picks or picks[0] != rank:
            return None
        triples.append(picks)
    return tuple(triples)


def _baseline_init(anchors, radii):
    points = circle_intersections(anchors[0], radii[0], anchors[1], radii[1])
    if not points:
        return anchors[2]
    fit = [abs(distance(anchors[2], p) - radii[2]) for p in points]
    return points[1] if fit[1] < fit[0] else points[0]


def run_baseline_trial(
    cfg: ExperimentConfig, trial: int, seed_seq, oracle: bool = False
) -> TrialOutcome:
    """One trial of the all-active-anchor reference scheme.

    The first IRS position hosts a third active BS that measures its own
    direct round-trip ranges, so association has no consistency filter to
    lean on.  ``lexmin_select``, the main scheme's search, walks a table of
    index triples: level ``i`` holds every ``(i, j2, j3)``, anchor 1's slot
    pinned to target rank ``i``, masked by slot ``j2`` of anchor 2 and ``j3``
    of anchor 3.  A triple whose trilateration residual fails the main
    scheme's threshold cuts its branch, and the lexicographically first
    minimum-total-residual assignment wins.  A node is the mask of used
    slots, so even the unpruned fallback visits at most C(2K, K) nodes, not
    (K!)² paths.  Labeling, truth matching and scoring are ``run_trial``'s.
    """
    start = time.perf_counter()
    k = cfg.k
    anchors = (cfg.bs[0], cfg.bs[1], cfg.irs[0])
    n_solutions = math.factorial(k) ** 2
    scene_seed = _seed_children(seed_seq, 1)[0]
    try:
        scene3 = sample_targets(
            cfg.bs,
            (cfg.irs[0],),
            k,
            cfg.target_radius_m,
            scene_seed,
            cell_m=cfg.ofdm.cell_m,
        )
    except SceneSamplingError:
        return _failed_outcome(trial, k, None, start, "sampling")

    cell = cfg.ofdm.cell_m
    ranges = [
        tuple(sorted(quantize_range(2.0 * distance(a, t), cell) for t in scene3.targets))
        for a in anchors
    ]
    truth = _baseline_truth(scene3, anchors, ranges, cell)
    if truth is None:
        return _failed_outcome(trial, k, scene3, start, "no_truth")

    sigma = cfg.weights.sigma_direct

    def fit(t) -> LocEstimate:
        radii = tuple(0.5 * ranges[a][t[a]] for a in range(3))
        triples = [(anchors[a], radii[a], sigma) for a in range(3)]
        return fit_position(triples, _baseline_init(anchors, radii))

    if oracle:
        result = _oracle_result(truth, fit, n_solutions)
    else:
        pairs = [((j2, j3), 1 << j2 | 1 << (k + j3)) for j2 in range(k) for j3 in range(k)]
        picks = [[((i, *pair), mask) for pair, mask in pairs] for i in range(k)]
        result = lexmin_select(picks, fit, cfg.gn.residual_threshold, n_solutions)
    # target-wise equal range values, as solutions_equivalent compares them
    correct = all(
        ranges[a][p[a]] == ranges[a][q[a]]
        for p, q in zip(result.solution, truth)
        for a in range(3)
    )
    return _scored_outcome(trial, k, scene3, start, result, correct, None)


def baseline_3bs(cfg: ExperimentConfig, oracle: bool = False) -> list[TrialOutcome]:
    """All trials of the three-active-BS reference scheme."""
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    return [run_baseline_trial(cfg, i, s, oracle=oracle) for i, s in enumerate(seeds)]


# ---------------------------------------------------------------------------
# anchor-placement (topology) experiment


def topology_variants(bs) -> dict[str, tuple[Point2D, ...]]:
    """Stock two-IRS placements probing the distinctness conditions.

    The failing variants pair an IRS with its mirror image across the BS
    line, which has an identical BS-distance difference: on the bisector
    that breaks the both-differences-nonzero condition, off it the pairwise
    distinctness condition.
    """
    c1_anchor = Point2D(0.0, 60.0)
    c2_anchor = Point2D(80.0, -60.0)
    return {
        "c1_hold": (c1_anchor, Point2D(30.0, -60.0)),
        "c1_fail": (c1_anchor, mirror_across_bs_line(bs, c1_anchor)),
        "c2_hold": (c2_anchor, Point2D(120.0, -60.0)),
        "c2_fail": (c2_anchor, mirror_across_bs_line(bs, c2_anchor)),
    }


def topology_experiment(cfg: ExperimentConfig, variants=None) -> list[dict]:
    """Localization accuracy under placements that pass or fail the checks.

    All variants run the same trial seeds, so rows are directly comparable.
    A variant whose echoes reach past ``cfg``'s tap window runs with the
    window widened as ``default_config`` widens it.
    """
    if variants is None:
        variants = topology_variants(cfg.bs)
    rows = []
    for name, irs in variants.items():
        vcfg = _widen_window(replace(cfg, irs=tuple(irs)))
        report = check_topology(vcfg.bs, vcfg.irs)
        outcomes = run_localization(vcfg)
        rows.append(
            {
                "variant": name,
                "irs": json.dumps([list(p) for p in vcfg.irs]),
                "c1_ok": report.c1_ok,
                "c2_ok": report.c2_ok,
                "trials": vcfg.trials,
                "k": vcfg.k,
                "error_probability": error_probability(outcomes, cfg.error_radius_m),
                "association_accuracy": association_accuracy(outcomes),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# perfect-range uniqueness experiment

# Scenes cycle over these target and IRS counts on the stock layouts, with
# targets within UNIQUENESS_RADIUS_M of their IRS.  The consistency tolerance
# is near zero because ranges are exact, and a scene counts as localized
# when every fit lands within UNIQUENESS_POSITION_TOL_M of its target.
UNIQUENESS_K_VALUES = (2, 3, 4)
UNIQUENESS_R_VALUES = (1, 2, 3)
UNIQUENESS_RADIUS_M = 50.0
UNIQUENESS_TAU_M = 1e-9
UNIQUENESS_POSITION_TOL_M = 1e-6


def uniqueness_experiment(n_scenes: int, seed: int = 1) -> dict:
    """Exact-range sanity check of the association stage.

    Scenes cycle over all (K, R) combinations with the stock IRS layouts.
    With exact ranges and a tolerance near zero the consistency filter must
    leave exactly one solution, the true one, and the fit must reproduce the
    true positions.  The count, the solution and its fits come from one
    selection over the scene's ``candidate_picks``, listing nothing.  Reports
    the success count and the worst position error.  Scenes whose targets
    cannot be placed are skipped and counted in ``sampling_failures``.
    """
    if n_scenes < 1:
        raise ValueError("n_scenes must be >= 1")
    w = ResidualWeights()
    gn = GnConfig()
    seeds = np.random.SeedSequence(seed).spawn(n_scenes)
    combos = [(k, r) for k in UNIQUENESS_K_VALUES for r in UNIQUENESS_R_VALUES]
    successes = 0
    unique = 0
    worst = 0.0
    failures = []
    sampling_failures = 0
    for i, s in enumerate(seeds):
        k, r = combos[i % len(combos)]
        irs = DEFAULT_IRS_LAYOUTS[r]
        try:
            scene = sample_targets(
                DEFAULT_BS, irs, k, UNIQUENESS_RADIUS_M, s, cell_m=DEFAULT_CELL_M
            )
        except SceneSamplingError:
            sampling_failures += 1
            continue
        sets = RangeSets.from_geometry(scene, cell_m=None)
        result = _select(candidate_picks(sets, scene, UNIQUENESS_TAU_M), sets, scene, w, gn)
        truth = ground_truth_solution(scene, sets, cell_m=None)
        if (
            result.stats.n_solutions == 1
            and truth is not None
            and solutions_equivalent(sets, result.solution, truth)
        ):
            unique += 1
            err = max(
                distance(est.position, true_pos)
                for est, true_pos in zip(result.estimates, _true_positions_by_rank(scene))
            )
            worst = max(worst, err)
            if err <= UNIQUENESS_POSITION_TOL_M:
                successes += 1
            else:
                failures.append({"scene": i, "k": k, "r": r, "worst_err": err})
        else:
            failures.append({"scene": i, "k": k, "r": r, "n_solutions": result.stats.n_solutions})
    return {
        "scenes": n_scenes,
        "sampling_failures": sampling_failures,
        "unique_and_correct": unique,
        "localized": successes,
        "worst_position_error_m": worst,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# CSV output


def write_localization_csv(path, outcomes) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "trial",
                "target",
                "est_x",
                "est_y",
                "residual",
                "direct1",
                "direct2",
                "via1",
                "via2",
                "irs",
                "true_x",
                "true_y",
                "error_m",
                "association_correct",
                "detection_failed",
                "failure",
            ]
        )
        for o in outcomes:
            for rank in range(o.k):
                est = o.est_positions[rank] if rank < len(o.est_positions) else None
                true = o.true_positions[rank] if rank < len(o.true_positions) else None
                t = o.chosen[rank] if o.chosen is not None else None
                writer.writerow(
                    [
                        o.trial,
                        rank,
                        "" if est is None else repr(est.x),
                        "" if est is None else repr(est.y),
                        "" if math.isinf(o.residuals[rank]) else repr(o.residuals[rank]),
                        "" if t is None else t.direct1,
                        "" if t is None else t.direct2,
                        "" if t is None else t.via1,
                        "" if t is None else t.via2,
                        "" if t is None else t.irs,
                        "" if true is None else repr(true.x),
                        "" if true is None else repr(true.y),
                        "inf" if math.isinf(o.errors_m[rank]) else repr(o.errors_m[rank]),
                        int(o.association_correct),
                        int(o.detection_failed),
                        o.failure or "",
                    ]
                )


def write_rows_csv(path, rows: list[dict]) -> None:
    if not rows:
        raise ValueError("no rows to write")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def summarize_localization(outcomes, error_radius: float, label: str) -> dict:
    return {
        "mode": label,
        "trials": len(outcomes),
        "k": outcomes[0].k if outcomes else 0,
        "error_probability": error_probability(outcomes, error_radius),
        "association_accuracy": association_accuracy(outcomes),
        "detection_failures": sum(1 for o in outcomes if o.detection_failed),
        **{
            f"failures_{reason}": sum(1 for o in outcomes if o.failure == reason)
            for reason in FAILURE_REASONS
        },
        "mean_feasible": float(np.mean([o.n_feasible for o in outcomes])),
        "mean_survivors": float(np.mean([o.n_survivors for o in outcomes])),
        "mean_solver_calls": float(np.mean([o.solver_calls for o in outcomes])),
        "mean_wall_time_s": float(np.mean([o.wall_time_s for o in outcomes])),
    }
