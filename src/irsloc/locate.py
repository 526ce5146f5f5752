"""Position estimation and association selection.

Given one association hypothesis for a target, its four range picks become
circle constraints: each BS's half direct range is a distance to that BS,
and each BS's implied target-to-IRS distance is a distance to the serving
IRS.  The position estimate minimizes the squared residuals of those
constraints, weighted by the standard deviation of the range quantization
error; a damped Gauss-Newton iteration solves the 2-D problem.  The anchors,
ranges and sigmas become arrays once per fit, so each evaluation gives all
residuals and the Jacobian in one array expression, and each damped 2x2
step ``(JᵀJ + λI) s = -Jᵀr`` is solved in closed form on Python floats.

Solution selection is one memoized recursion over a pick table,
``lexmin_select``, shared with the three-active-BS baseline.  Level ``i``
holds the picks of the target of rank ``i`` and a node is the set of list
entries used so far; each distinct tuple reached is fit once, and a tuple
whose fit residual reaches a threshold cuts its branch.  The surviving
solution with the smallest total residual wins, ties broken
lexicographically.  If pruning eliminates everything the recursion repeats
without the threshold, so an answer exists whenever the feasible set is
nonempty.  Localization walks the scene's ``candidate_picks``, taking a
pick only when the entries it leaves can still complete a solution, so no
feasible set is listed.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .scene import Point2D, Scene, check_fields, distance, nearest_irs
from .ranging import RangeSets
from .association import (
    AssociationTuple,
    FeasibleSet,
    candidate_picks,
    circle_intersections,
    completion_counts,
    entry_mask,
    irs_range_estimate,
)


@dataclass(frozen=True)
class ResidualWeights:
    """Per-constraint standard deviations in meters.

    ``sigma_direct`` weighs the two BS-circle residuals, ``sigma_via`` the
    two IRS-circle residuals.  The default for both is the standard
    deviation of a uniform error over one range cell of the 400 MHz grid,
    cell / (2 sqrt(3)).
    """

    sigma_direct: float = 0.75 / (2.0 * math.sqrt(3.0))
    sigma_via: float = 0.75 / (2.0 * math.sqrt(3.0))

    def __post_init__(self):
        if self.sigma_direct <= 0 or self.sigma_via <= 0:
            raise ValueError("weights must be positive")

    @classmethod
    def from_cell(cls, cell_m: float) -> "ResidualWeights":
        sigma = cell_m / (2.0 * math.sqrt(3.0))
        return cls(sigma_direct=sigma, sigma_via=sigma)


# Gauss-Newton internals: iteration cap, converged step length, initial damping
GN_MAX_ITERS = 100
GN_STEP_TOL_M = 1e-10
GN_DAMPING = 1e-3


@dataclass(frozen=True)
class GnConfig:
    """The selection's pruning bound.

    ``residual_threshold`` is the pruning bound on a tuple's total squared
    weighted residual; 16 keeps every correct hypothesis of the quantized
    400 MHz grid (worst case just under 15) while rejecting fits that miss
    by a couple of range cells.  The fit's own limits are the module
    constants ``GN_MAX_ITERS``, ``GN_STEP_TOL_M`` and ``GN_DAMPING``.
    """

    residual_threshold: float = 16.0

    def __post_init__(self):
        check_fields(self)
        if self.residual_threshold <= 0:
            raise ValueError("residual_threshold must be positive")


@dataclass(frozen=True)
class LocEstimate:
    """One tuple's position fit."""

    position: Point2D
    residual: float
    converged: bool
    n_iters: int


def _constraints(sets: RangeSets, t: AssociationTuple, scene: Scene, w: ResidualWeights):
    """(anchor, range, sigma) triples for the four circle constraints."""
    irs_pos = scene.irs[t.irs]
    triples = []
    for m in (0, 1):
        triples.append(
            (scene.bs[m], 0.5 * sets.direct[m][t.direct(m)], w.sigma_direct)
        )
    for m in (0, 1):
        triples.append((irs_pos, irs_range_estimate(sets, t, m, scene), w.sigma_via))
    return triples


def residual_terms(
    pos, sets: RangeSets, t: AssociationTuple, scene: Scene, w: ResidualWeights
) -> np.ndarray:
    """Weighted circle residuals at ``pos``: BS 1, BS 2, via BS 1, via BS 2."""
    return np.array(
        [
            (rng - distance(anchor, pos)) / sigma
            for anchor, rng, sigma in _constraints(sets, t, scene, w)
        ]
    )


def _constraint_arrays(triples):
    """The (n, 2) anchors, the ranges and the sigmas of the triples."""
    anchors, ranges, sigmas = zip(*triples)
    return np.array(anchors, dtype=float), np.array(ranges), np.array(sigmas)


def _evaluate(pos: np.ndarray, anchors, ranges, sigmas):
    """Weighted residuals and their Jacobian at ``pos``, all rows at once."""
    diff = pos - anchors
    d = np.hypot(diff[:, 0], diff[:, 1])
    # range gradient is the unit vector away from the anchor
    jac = diff / (-np.maximum(d, 1e-12) * sigmas)[:, None]
    return (ranges - d) / sigmas, jac


def _residual_and_jacobian(pos, triples):
    return _evaluate(np.asarray(pos, dtype=float), *_constraint_arrays(triples))


def _damped_step(a00, a01, a11, g0, g1, lam):
    """Solve ``(A + λI) s = -g`` for symmetric 2x2 ``A``; None when singular."""
    b00 = a00 + lam
    b11 = a11 + lam
    det = b00 * b11 - a01 * a01
    if det == 0.0:
        return None
    return (a01 * g1 - b11 * g0) / det, (a01 * g0 - b00 * g1) / det


def fit_position(triples, init) -> LocEstimate:
    """Damped Gauss-Newton fit of circle constraints from ``init``.

    A singular damped system raises λ tenfold, as a rejected step does.  A
    step shorter than ``GN_STEP_TOL_M`` ends the fit as converged, whether
    it is accepted or rejected: a rejected one keeps ``x``, because every
    retry with more damping would be shorter still.
    """
    arrays = _constraint_arrays(triples)
    x = np.array(init, dtype=float)
    r, jac = _evaluate(x, *arrays)
    cost = float(r @ r)
    lam = GN_DAMPING
    converged = False
    it = 0
    for it in range(1, GN_MAX_ITERS + 1):
        (a00, a01), (_, a11) = (jac.T @ jac).tolist()
        g0, g1 = (jac.T @ r).tolist()
        while lam <= 1e12:
            candidate = _damped_step(a00, a01, a11, g0, g1, lam)
            if candidate is None:
                lam *= 10.0
                continue
            length = math.hypot(candidate[0], candidate[1])
            x_new = x + candidate
            r_new, jac_new = _evaluate(x_new, *arrays)
            cost_new = float(r_new @ r_new)
            if cost_new <= cost + 1e-15:
                x, r, jac, cost = x_new, r_new, jac_new, cost_new
                lam = max(lam / 10.0, 1e-12)
                break
            if length < GN_STEP_TOL_M:
                break
            lam *= 10.0
        else:
            break
        if length < GN_STEP_TOL_M:
            converged = True
            break
    return LocEstimate(
        position=Point2D(float(x[0]), float(x[1])),
        residual=cost,
        converged=converged,
        n_iters=it,
    )


def fit_stays_below(triples, cfg: GnConfig, init) -> bool:
    """True when ``fit_position(triples, init)`` must end below the threshold.

    An accepted step raises the cost by at most 1e-15 plus the rounding of
    that sum, below ``2**-52`` of the threshold while the cost is under it, and
    a fit accepts at most ``GN_MAX_ITERS`` steps.  A start cost that far below
    ``cfg.residual_threshold`` therefore proves the fit's outcome without
    running it.
    """
    r, _ = _residual_and_jacobian(init, triples)
    threshold = cfg.residual_threshold
    return float(r @ r) < threshold - GN_MAX_ITERS * (1e-15 + 2.0**-52 * threshold)


def _cost_lower_bound(triples) -> float:
    """A lower bound on the cost of ``_constraints``' four rows at any point.

    The two IRS rows share an anchor, so with weights ``w = 1/sigma**2``
    their cost is ``(w3 + w4) * (rho_bar - d)**2`` at the weighted mean
    ``rho_bar`` plus the constant ``w3*w4/(w3 + w4) * (rho3 - rho4)**2``
    (``gap**2 / (2 sigma_via**2)`` at equal sigmas).  For two of the three
    remaining rows with anchors ``D`` apart, the triangle inequality bounds
    their residuals' sum below by the circles' separation
    ``s = max(D - ra - rb, |ra - rb| - D, 0)``, so their cost is at least
    ``s**2 * wa*wb/(wa + wb)``.  The constant plus the largest pair bound
    holds everywhere.
    """
    (b1, r1, s1), (b2, r2, s2), (q, r3, s3), (_, r4, s4) = triples
    w3, w4 = 1.0 / (s3 * s3), 1.0 / (s4 * s4)
    wv = w3 + w4
    rows = (
        (b1, r1, 1.0 / (s1 * s1)),
        (b2, r2, 1.0 / (s2 * s2)),
        (q, (w3 * r3 + w4 * r4) / wv, wv),
    )
    best = 0.0
    for i, (a, ra, wa) in enumerate(rows):
        for b, rb, wb in rows[i + 1 :]:
            d = distance(a, b)
            s = max(d - ra - rb, abs(ra - rb) - d, 0.0)
            best = max(best, s * s * wa * wb / (wa + wb))
    return w3 * w4 / wv * (r3 - r4) ** 2 + best


def fit_must_exceed(triples, cfg: GnConfig) -> bool:
    """True when ``fit_position(triples, init)`` must end at or above the
    threshold ``T`` from any ``init``: the mirror of ``fit_stays_below``.

    ``_cost_lower_bound`` holds for the exact cost everywhere.  Where a
    computed cost is below ``T`` every weighted residual is at most
    ``sqrt(T)``, so each row rounds numbers no larger than ``|range| +
    2 |anchor|_1 + sqrt(T) * sigma`` and errs by under ``2**-49`` of that over
    ``sigma``.  With ``E`` the rows' sum, the computed cost and the bound each
    err by under ``2 sqrt(T) E + E**2``, plus ``2**-50 T`` for the sums.  A
    bound that clears ``T`` by both proves the outcome without a fit.
    """
    threshold = cfg.residual_threshold
    root = math.sqrt(threshold)
    e = 2.0**-49 * sum(
        (abs(r) + 2.0 * (abs(a[0]) + abs(a[1])) + root * s) / s for a, r, s in triples
    )
    margin = 2.0 * (2.0 * root * e + e * e) + 2.0**-50 * threshold
    return _cost_lower_bound(triples) >= threshold + margin


def default_init(sets: RangeSets, t: AssociationTuple, scene: Scene) -> Point2D:
    """Starting point from the two direct-range circles.

    Prefer the intersection point whose nearest IRS matches the tuple's;
    when both match, pick the one that better fits the implied IRS range.
    No intersection (or neither point matching) falls back to the midpoint
    of the intersection pair, then to the tuple's IRS position.
    """
    r1 = 0.5 * sets.direct[0][t.direct1]
    r2 = 0.5 * sets.direct[1][t.direct2]
    points = circle_intersections(scene.bs[0], r1, scene.bs[1], r2)
    if not points:
        return scene.irs[t.irs]
    matching = [p for p in points if nearest_irs(scene.irs, p) == t.irs]
    if len(matching) == 1:
        return matching[0]
    candidates = matching if matching else points
    want = irs_range_estimate(sets, t, 0, scene)
    fit = [abs(distance(scene.irs[t.irs], p) - want) for p in candidates]
    if abs(fit[0] - fit[1]) <= 1e-12 and not matching:
        mid = Point2D(
            0.5 * (points[0].x + points[1].x), 0.5 * (points[0].y + points[1].y)
        )
        return mid
    return candidates[1] if fit[1] < fit[0] else candidates[0]


def gauss_newton_solve(
    sets: RangeSets,
    t: AssociationTuple,
    scene: Scene,
    w: ResidualWeights,
) -> LocEstimate:
    """Fit one tuple's position from ``default_init``."""
    triples = _constraints(sets, t, scene, w)
    return fit_position(triples, default_init(sets, t, scene))


@dataclass(frozen=True)
class SolveStats:
    """Selection-run accounting."""

    n_solutions: int
    n_survivors: int
    solver_calls: int
    fallback: bool


@dataclass(frozen=True)
class LocalizationResult:
    """Chosen association and per-target fits, in target-rank order."""

    solution: tuple[AssociationTuple, ...] | None
    estimates: tuple[LocEstimate, ...]
    stats: SolveStats


def lexmin_select(
    picks, fit, threshold: float, n_solutions: int, live=None
) -> LocalizationResult:
    """Lexicographically first minimum-total-residual solution of a pick table.

    ``picks[i]`` holds level ``i``'s ``(tuple, entry_mask)`` pairs in
    lexicographic order.  A node is the int of entries used so far, so
    prefixes that used the same entries share one node (a subset DP, as in
    Held and Karp 1962); a pick is a child when its mask is free and ``live``
    is None or ``live(used | mask)`` holds.  ``walk`` runs once per node and
    returns its number of complete solutions whose every tuple stays below
    ``threshold``, their smallest total residual and the first solution with
    that total; ``fit`` runs once per distinct tuple reached.  Totals are
    summed from the last level up, and only a strictly smaller total replaces
    a node's best, so the first minimum in lexicographic order wins.  When no
    solution survives and any of the ``n_solutions`` exist, a second walk
    drops the threshold.
    """
    solve = functools.cache(fit)

    @functools.cache
    def walk(used: int, level: int, enforce: bool):
        if level == len(picks):
            return 1, 0.0, ()
        survivors, best_total, best = 0, math.inf, None
        for t, mask in picks[level]:
            if used & mask or (live is not None and not live(used | mask)):
                continue
            residual = solve(t).residual
            if enforce and residual >= threshold:
                continue
            count, total, path = walk(used | mask, level + 1, enforce)
            survivors += count
            if residual + total < best_total:
                best_total, best = residual + total, (t,) + path
        return survivors, best_total, best

    survivors, _, best = walk(0, 0, True)
    fallback = best is None and n_solutions > 0
    if fallback:
        best = walk(0, 0, False)[2]
    stats = SolveStats(n_solutions, survivors, solve.cache_info().currsize, fallback)
    estimates = () if best is None else tuple(solve(t) for t in best)
    return LocalizationResult(solution=best, estimates=estimates, stats=stats)


def _select(picks, sets: RangeSets, scene: Scene, w: ResidualWeights, cfg: GnConfig):
    """``lexmin_select`` over a scene's pick table, listing no solution.

    A pick is live when the entries it leaves still have completions
    (``completion_counts``), so the walk reaches exactly the solutions the
    table counts.
    """
    count = completion_counts(picks)

    def fit(t):
        return gauss_newton_solve(sets, t, scene, w)

    return lexmin_select(
        picks, fit, cfg.residual_threshold, count(0)[0], live=lambda used: count(used)[0]
    )


def select_association(
    feasible: FeasibleSet, sets: RangeSets, scene: Scene, w: ResidualWeights, cfg: GnConfig
) -> LocalizationResult:
    """Pick the minimum-total-residual solution of a listed feasible set.

    Selection runs on the table of each level's distinct listed tuples.
    That table's solutions are the listed ones whenever the list holds every
    distinct solution the table makes, as an ``enumerate_feasible`` set
    does; otherwise the counts differ and ``ValueError`` is raised, so no
    unlisted solution is ever returned.
    """
    k = len(sets.direct[0])
    picks = [
        [(t, entry_mask(t, k)) for t in sorted({sol[level] for sol in feasible.solutions})]
        for level in range(k)
    ]
    result = _select(picks, sets, scene, w, cfg)
    if result.stats.n_solutions != len(feasible.solutions):
        raise ValueError(f"listed tuples make {result.stats.n_solutions} solutions")
    return result


def localize(
    sets: RangeSets, scene: Scene, tau: float, w: ResidualWeights, cfg: GnConfig
) -> LocalizationResult:
    """Consistency filter, then pruned selection: the localization entry point.

    Selection runs on the scene's ``candidate_picks`` and lists nothing.
    With several IRSs the closest-IRS filter also cuts picks ahead of
    selection.  With a single IRS that filter could only discard hypotheses
    the selection needs, so it is skipped.
    """
    return _select(candidate_picks(sets, scene, tau, scene.n_irs > 1), sets, scene, w, cfg)
