"""Data association between per-BS range lists.

Phase I leaves each BS with two anonymous sorted lists: round-trip direct
echo lengths and total via-IRS echo lengths.  Phase II must decide which
entries across the four lists belong to the same physical target, and which
IRS relayed its compound echo.  One target's hypothesis is the index tuple

    (direct1, direct2, via1, via2, irs)

picking one entry from each list plus a serving IRS.  A full solution
assigns such a tuple to every target so that no list entry is used twice;
targets are labeled by rank in BS 1's direct list, which pins ``direct1`` to
the target index and leaves (K!)^3 * R^K raw solutions.

The workhorse filter needs no positions: both BSs can compute the candidate
target-to-IRS distance

    via_m - direct_m / 2 - d(BS_m, IRS)

and the two values must agree for a correct hypothesis.  With quantized
ranges they agree within three half range cells, hence the tolerance knob.
A second, optional filter intersects the two direct-range circles and keeps
only hypotheses whose IRS is nearest to one of the two intersection points.

Localization lists the feasible solutions (``enumerate_feasible``);
counting does not: ``feasible_counts`` memoizes the number of completions
per set of used list entries, so its cost grows with those sets, not with
the number of solutions.
"""

import functools
import math
from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from .scene import Point2D, Scene, distance, echo_lengths
from .ranging import RangeSets, quantize_range


@dataclass(frozen=True, order=True)
class AssociationTuple:
    """One target's pick from the four range lists plus its serving IRS.

    All indices are 0-based.  Ordering is lexicographic over the fields,
    used for deterministic tie breaking.
    """

    direct1: int
    direct2: int
    via1: int
    via2: int
    irs: int

    def direct(self, m: int) -> int:
        return (self.direct1, self.direct2)[m]

    def via(self, m: int) -> int:
        return (self.via1, self.via2)[m]


@dataclass(frozen=True)
class FeasibleSet:
    """Enumerated solutions plus bookkeeping about the filters applied."""

    solutions: tuple[tuple[AssociationTuple, ...], ...]
    closest_irs_filter: bool


def is_valid_solution(solution, k: int, r: int) -> bool:
    """Permutation sanity: each list index used once, IRSs in range."""
    if len(solution) != k:
        return False
    for field in ("direct1", "direct2", "via1", "via2"):
        used = [getattr(t, field) for t in solution]
        if sorted(used) != list(range(k)):
            return False
    return all(0 <= t.irs < r for t in solution)


def count_unfiltered_solutions(k: int, r: int) -> int:
    """Size of the raw hypothesis space: (K!)^3 * R^K.

    BS 1's direct list labels the targets, so one of the four index
    assignments is pinned; the remaining three permute freely and every
    target independently picks one of R serving IRSs.  Exact integer.
    """
    if k < 1 or r < 1:
        raise ValueError("k and r must be >= 1")
    return math.factorial(k) ** 3 * r**k


def irs_range_estimate(sets: RangeSets, t: AssociationTuple, m: int, scene: Scene) -> float:
    """Target-to-IRS distance implied by BS ``m`` under hypothesis ``t``."""
    via = sets.via_irs[m][t.via(m)]
    direct = sets.direct[m][t.direct(m)]
    return via - 0.5 * direct - distance(scene.bs[m], scene.irs[t.irs])


def consistency_gap(sets: RangeSets, t: AssociationTuple, scene: Scene) -> float:
    """Disagreement between the two BSs' implied target-to-IRS distances."""
    return abs(
        irs_range_estimate(sets, t, 0, scene) - irs_range_estimate(sets, t, 1, scene)
    )


def consistency_check(sets: RangeSets, t: AssociationTuple, scene: Scene, tau: float) -> bool:
    """True when the two BSs' implied IRS distances agree strictly within ``tau``.

    The comparison is exclusive at the boundary on purpose: quantized range
    lists place every gap on a lattice of half-cell steps, so a gap exactly
    at the threshold carries real probability mass, all of it from wrong
    pairings.  A matching tuple sits strictly inside (its worst quantization
    disagreement is 1.125 m against the default 1.5 m threshold), so the
    exclusive test never rejects it.
    """
    return consistency_gap(sets, t, scene) < tau


def circle_intersections(c1, r1: float, c2, r2: float) -> tuple[Point2D, ...]:
    """Intersection points of two circles, () when disjoint or nested.

    Tangency returns the touching point twice so callers can treat the
    result uniformly as zero or two points.
    """
    if r1 < 0 or r2 < 0:
        raise ValueError("radii must be nonnegative")
    x1, y1 = float(c1[0]), float(c1[1])
    x2, y2 = float(c2[0]), float(c2[1])
    d = math.hypot(x2 - x1, y2 - y1)
    if d == 0:
        return ()
    if d > r1 + r2 or d < abs(r1 - r2):
        return ()
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h_sq = r1 * r1 - a * a
    h = math.sqrt(max(h_sq, 0.0))
    ex = (x2 - x1) / d
    ey = (y2 - y1) / d
    mx = x1 + a * ex
    my = y1 + a * ey
    p = Point2D(mx + h * (-ey), my + h * ex)
    q = Point2D(mx - h * (-ey), my - h * ex)
    return (p, q)


def closest_irs_candidates(
    scene: Scene, sets: RangeSets, direct1: int, direct2: int
) -> frozenset[int]:
    """IRS indices nearest to either direct-circle intersection point.

    The direct ranges fix the target to at most two points; a target is
    served by its nearest IRS, so only the IRSs nearest to those points can
    appear in a correct hypothesis with this (direct1, direct2) pick.  Ties
    within 1e-9 m keep every tied IRS.  Empty when the circles miss.
    """
    r1 = 0.5 * sets.direct[0][direct1]
    r2 = 0.5 * sets.direct[1][direct2]
    points = circle_intersections(scene.bs[0], r1, scene.bs[1], r2)
    candidates = set()
    for p in points:
        dists = [distance(q, p) for q in scene.irs]
        best = min(dists)
        candidates.update(r for r, d in enumerate(dists) if d <= best + 1e-9)
    return frozenset(candidates)


def closest_irs_rule(scene: Scene, sets: RangeSets):
    """The nearest-surface rule of one scene as a memoized lookup.

    ``rule(direct1, direct2)`` is ``closest_irs_candidates`` for that pick,
    computed on first lookup only; a hypothesis passes when its IRS is in it.
    """
    return functools.cache(functools.partial(closest_irs_candidates, scene, sets))


def _gap_operands(sets: RangeSets, scene: Scene, tau: float):
    """``(k, a1, a2, bi_gap)``, with ``a_m[d, v] = via_m[v] - direct_m[d] / 2``.

    A pick's gap is ``|a1[direct1, via1] - a2[direct2, via2] - bi_gap[irs]|``
    in this float order: quantized layouts put many gaps exactly on ``tau``.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    k = len(sets.direct[0])
    if not sets.balanced(k):
        raise ValueError(f"unbalanced range lists {sets.counts()}; need K entries each")

    d1, d2 = (np.asarray(d) for d in sets.direct)
    v1, v2 = (np.asarray(v) for v in sets.via_irs)
    d_bi = np.array([[distance(b, q) for q in scene.irs] for b in scene.bs])
    a1 = v1[None, :] - 0.5 * d1[:, None]
    a2 = v2[None, :] - 0.5 * d2[:, None]
    return k, a1, a2, d_bi[0] - d_bi[1]


def enumerate_feasible(
    sets: RangeSets,
    scene: Scene,
    tau: float,
    use_closest_irs: bool = False,
) -> FeasibleSet:
    """Depth-first enumeration of consistency-feasible solutions.

    Targets are taken in BS 1 direct-list order, so level ``k`` pins
    ``direct1 = k`` and branches over unused picks of the other three lists
    and over serving IRSs.  Each node evaluates the consistency gap over its
    whole free (direct2, via1, via2, irs) grid in one array expression and
    cuts every pick whose gap reaches ``tau`` (same exclusive boundary as
    consistency_check).  Candidates are visited in order of increasing gap,
    ties broken by index, which makes the output order deterministic.  With
    ``use_closest_irs``, picks that fail the nearest-surface rule
    (``closest_irs_rule``) are cut as well.
    """
    k, a1, a2, bi_gap = _gap_operands(sets, scene, tau)
    allowed = closest_irs_rule(scene, sets) if use_closest_irs else None

    solutions: list[tuple[AssociationTuple, ...]] = []
    partial: list[AssociationTuple] = []
    free_d2 = [True] * k
    free_v1 = [True] * k
    free_v2 = [True] * k

    def recurse(level: int) -> None:
        if level == k:
            solutions.append(tuple(partial))
            return
        d2_idx = np.array([j for j in range(k) if free_d2[j]])
        v1_idx = np.array([j for j in range(k) if free_v1[j]])
        v2_idx = np.array([j for j in range(k) if free_v2[j]])
        gaps = np.abs(
            a1[level, v1_idx][None, :, None, None]
            - a2[d2_idx[:, None], v2_idx][:, None, :, None]
            - bi_gap
        )
        keep = gaps < tau
        jj, ia, ib, gg = keep.nonzero()
        candidates = zip(
            gaps[keep].tolist(),
            d2_idx[jj].tolist(),
            v1_idx[ia].tolist(),
            v2_idx[ib].tolist(),
            gg.tolist(),
        )
        if allowed is not None:
            candidates = [c for c in candidates if c[4] in allowed(level, c[1])]
        for _, j, via1, via2, g in sorted(candidates):
            partial.append(
                AssociationTuple(direct1=level, direct2=j, via1=via1, via2=via2, irs=g)
            )
            free_d2[j] = free_v1[via1] = free_v2[via2] = False
            recurse(level + 1)
            free_d2[j] = free_v1[via1] = free_v2[via2] = True
            partial.pop()

    recurse(0)
    return FeasibleSet(solutions=tuple(solutions), closest_irs_filter=use_closest_irs)


def feasible_counts(sets: RangeSets, scene: Scene, tau: float, keep=None) -> tuple[int, int]:
    """``(n_feasible, n_kept)`` without listing a solution.

    ``n_feasible`` is ``len(enumerate_feasible(sets, scene, tau).solutions)``
    and ``n_kept`` counts the feasible solutions whose every tuple passes
    ``keep`` (all of them for None).  The gap is evaluated once over the
    whole (direct1, direct2, via1, via2, irs) grid; each passing pick gets a
    mask with one bit for its direct2, via1 and via2 entry in a 3K-bit int.
    Completions depend only on the used entries, so one memoized recursion
    over that mask counts them (a subset DP, as in Held and Karp 1962).
    ``keep`` runs at most once per tuple, and only where the entries left
    have kept completions, so a costly predicate skips dead ends.
    """
    k, a1, a2, bi_gap = _gap_operands(sets, scene, tau)
    gaps = np.abs(a1[:, None, :, None, None] - a2[None, :, None, :, None] - bi_gap)
    picks = [[] for _ in range(k)]
    for i, j, a, b, g in zip(*(idx.tolist() for idx in (gaps < tau).nonzero())):
        mask = 1 << j | 1 << (k + a) | 1 << (2 * k + b)
        picks[i].append((AssociationTuple(i, j, a, b, g), mask))
    passes = functools.cache(keep) if keep is not None else None

    @functools.cache
    def count(used: int) -> tuple[int, int]:
        level = used.bit_count() // 3
        if level == k:
            return 1, 1
        n_all = n_kept = 0
        for t, mask in picks[level]:
            if not used & mask:
                sub_all, sub_kept = count(used | mask)
                n_all += sub_all
                if sub_kept and (passes is None or passes(t)):
                    n_kept += sub_kept
        return n_all, n_kept

    return count(0)


def brute_force_solutions(k: int, r: int):
    """Every raw solution by direct product of permutations; oracle use only.

    Yields tuples of AssociationTuple with no feasibility filtering, for
    cross-checking the enumerated hypothesis space at small K.
    """
    idx = range(k)
    for p2 in permutations(idx):
        for q1 in permutations(idx):
            for q2 in permutations(idx):
                for gammas in product(range(r), repeat=k):
                    yield tuple(
                        AssociationTuple(
                            direct1=i, direct2=p2[i], via1=q1[i], via2=q2[i], irs=gammas[i]
                        )
                        for i in idx
                    )


def rank_order(scene: Scene) -> list[int]:
    """Target indices by distance to BS 1: the labeling every stage shares."""
    return sorted(
        range(scene.n_targets), key=lambda i: distance(scene.bs[0], scene.targets[i])
    )


def claim_slot(values, used: set[int], value: float) -> int | None:
    """First index of ``values`` not in ``used`` within 1e-9 of ``value``.

    The index is added to ``used``; None when no free slot holds the value.
    """
    for idx, v in enumerate(values):
        if idx not in used and abs(v - value) <= 1e-9:
            used.add(idx)
            return idx
    return None


def ground_truth_solution(
    scene: Scene, sets: RangeSets, cell_m: float | None = None
) -> tuple[AssociationTuple, ...] | None:
    """The correct solution for a scene whose range sets are given.

    Targets are ranked by distance to BS 1 (``rank_order``), matching the
    labeling the enumeration uses.  Each target's true (possibly quantized)
    ranges are located in the lists by value; equal values are assigned to
    distinct slots in rank order, which is the unique answer up to swaps of
    identical entries.  Returns None when some true range is missing from a
    list, which means detection failed upstream.
    """
    if not sets.balanced(scene.n_targets):
        return None
    lists = (*sets.direct, *sets.via_irs)
    used = [set() for _ in lists]
    solution = []
    for rank, i in enumerate(rank_order(scene)):
        g = scene.true_irs[i]
        echoes = [echo_lengths(bs_pos, scene.irs[g], scene.targets[i]) for bs_pos in scene.bs]
        wanted = [d for d, _ in echoes] + [v for _, v in echoes]
        picks = [
            claim_slot(values, u, quantize_range(v, cell_m))
            for values, u, v in zip(lists, used, wanted)
        ]
        if None in picks or picks[0] != rank:
            return None
        solution.append(AssociationTuple(*picks, irs=g))
    return tuple(solution)


def solutions_equivalent(
    sets: RangeSets, a: tuple[AssociationTuple, ...], b: tuple[AssociationTuple, ...]
) -> bool:
    """Target-wise equality of selected range values and serving IRS.

    Indices may differ when lists hold duplicate values; two solutions that
    pick identical ranges and IRSs everywhere are physically the same.
    """
    if len(a) != len(b):
        return False
    for ta, tb in zip(a, b):
        if ta.irs != tb.irs:
            return False
        for m in (0, 1):
            if sets.direct[m][ta.direct(m)] != sets.direct[m][tb.direct(m)]:
                return False
            if sets.via_irs[m][ta.via(m)] != sets.via_irs[m][tb.via(m)]:
                return False
    return True
