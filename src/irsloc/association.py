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

Localization and counting list no solution.  ``candidate_picks`` evaluates
the gap once per scene and keeps each target's passing picks with a mask of
the list entries they use; ``completion_counts`` memoizes the number of
ways to finish a solution per set of used entries, so its cost grows with
those sets, not with the number of solutions.  ``enumerate_feasible`` lists
the same solutions, as the reference the engine is checked against.
"""

import functools
import math
from dataclasses import dataclass
from itertools import permutations, product
from typing import NamedTuple

import numpy as np

from .scene import Point2D, Scene, _layout_constants, distance, echo_lengths
from .ranging import RangeSets, quantize_range


class AssociationTuple(NamedTuple):
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
    """Listed feasible solutions."""

    solutions: tuple[tuple[AssociationTuple, ...], ...]


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
    return closest_irs_rule(scene, sets)(direct1, direct2)


def closest_irs_rule(scene: Scene, sets: RangeSets):
    """The nearest-surface rule of one scene as a memoized lookup.

    ``rule(direct1, direct2)`` is ``closest_irs_candidates`` for that pick,
    computed on first lookup only; a hypothesis passes when its IRS is in it.
    It is ``circle_intersections`` with the BS distance and axis hoisted;
    its memo is a plain dict, freed with ``rule`` by reference counting.
    """
    (x1, y1), (x2, y2) = scene.bs
    irs, (direct1s, direct2s) = scene.irs, sets.direct
    hypot, surfaces = math.hypot, range(len(irs))
    d = hypot(x2 - x1, y2 - y1)
    ex, ey = (x2 - x1) / d, (y2 - y1) / d
    memo = {}

    def rule(direct1: int, direct2: int) -> frozenset[int]:
        near = memo.get((direct1, direct2))
        if near is not None:
            return near
        r1, r2 = 0.5 * direct1s[direct1], 0.5 * direct2s[direct2]
        if r1 < 0 or r2 < 0:
            raise ValueError("radii must be nonnegative")
        near = set()
        if not (d > r1 + r2 or d < abs(r1 - r2)):
            a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
            h = math.sqrt(max(r1 * r1 - a * a, 0.0))
            mx, my = x1 + a * ex, y1 + a * ey
            for px, py in ((mx + h * (-ey), my + h * ex), (mx - h * (-ey), my - h * ex)):
                dists = [hypot(qx - px, qy - py) for qx, qy in irs]
                cut = min(dists) + 1e-9
                for r in surfaces:
                    if dists[r] <= cut:
                        near.add(r)
        near = memo[direct1, direct2] = frozenset(near)
        return near

    return rule


def _gap_grid(sets: RangeSets, scene: Scene, tau: float):
    """``(k, gaps)``: the consistency gap of every pick in one array.

    ``gaps[direct1, direct2, via1, via2, irs]`` is evaluated in this float
    order, ``((via1 - direct1/2) - (via2 - direct2/2)) - (d1 - d2)`` with
    ``d_m`` the BS-to-IRS distance: quantized layouts put many gaps exactly
    on ``tau``.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    k = len(sets.direct[0])
    if not sets.balanced(k):
        raise ValueError(f"unbalanced range lists {sets.counts()}; need K entries each")
    d1, d2 = (np.asarray(d) for d in sets.direct)
    v1, v2 = (np.asarray(v) for v in sets.via_irs)
    a1 = v1[None, :] - 0.5 * d1[:, None]
    a2 = v2[None, :] - 0.5 * d2[:, None]
    diff = a1[:, None, :, None] - a2[None, :, None, :]
    gaps = np.empty(diff.shape + (scene.n_irs,))
    # one K^4 pass per surface: broadcasting it innermost loops over R cells at a time
    for g, (b1, b2) in enumerate(zip(*_layout_constants(scene.bs, scene.irs)[1])):
        np.subtract(diff, b1 - b2, out=gaps[..., g])
    return k, np.abs(gaps, out=gaps)


def entry_mask(t: AssociationTuple, k: int) -> int:
    """One bit each for ``t``'s direct2, via1 and via2 entry in a 3K-bit int."""
    return 1 << t.direct2 | 1 << (k + t.via1) | 1 << (2 * k + t.via2)


def candidate_picks(sets: RangeSets, scene: Scene, tau: float, use_closest_irs: bool = False):
    """Each level's passing picks as ``(AssociationTuple, entry_mask)`` pairs.

    Level ``i`` pins ``direct1 = i``; its picks are the (direct2, via1,
    via2, irs) whose gap stays strictly below ``tau`` (same exclusive
    boundary as consistency_check), in lexicographic order.  With
    ``use_closest_irs``, picks that fail the nearest-surface rule
    (``closest_irs_rule``) are cut as well.
    """
    k, gaps = _gap_grid(sets, scene, tau)
    allowed = closest_irs_rule(scene, sets) if use_closest_irs else None
    picks = [[] for _ in range(k)]
    make = AssociationTuple._make
    # flat indices: a 5-D nonzero or argwhere costs several times as much
    hits = np.unravel_index(np.flatnonzero(gaps < tau), gaps.shape)
    for hit in zip(*(idx.tolist() for idx in hits)):
        i, j, a, b, g = hit
        if allowed is None or g in allowed(i, j):
            mask = 1 << j | 1 << (k + a) | 1 << (2 * k + b)  # entry_mask, inline
            picks[i].append((make(hit), mask))
    return picks


def completion_counts(picks, keep=None):
    """Memoized ``count(used) -> (n_all, n_kept)`` over a pick table.

    ``used`` is the union of the entry masks picked so far.  ``n_all``
    counts the ways to finish the remaining levels without reusing an
    entry, and ``n_kept`` those whose every tuple passes ``keep`` (all for
    None).  ``count(0)`` counts whole solutions, the same in any level
    order; ``count(used)`` finishes the last ``k - used.bit_count() // 3``
    levels, so it depends on the order.  Completions depend only on the used
    entries, hence the memo (a subset DP, as in Held and Karp 1962).
    ``keep`` runs at most once per tuple, and only where the entries left
    have kept completions, so a costly predicate skips dead ends.  Both
    memos are plain dicts that a module-level recursion reads, so they are
    freed with ``count`` by reference counting.
    """
    memo = {(1 << 3 * len(picks)) - 1: (1, 1)}  # every entry used: the one empty completion
    return functools.partial(_completions, picks, keep, {}, memo)


def _completions(picks, keep, passed, memo, used: int) -> tuple[int, int]:
    """``completion_counts``' ``count``; ``passed`` memoizes ``keep`` per tuple."""
    done = memo.get(used)
    if done:
        return done
    n_all = n_kept = 0
    for t, mask in picks[used.bit_count() // 3]:
        if not used & mask:
            sub_all, sub_kept = memo.get(used | mask) or _completions(
                picks, keep, passed, memo, used | mask
            )
            n_all += sub_all
            if sub_kept and (
                keep is None or (passed[t] if t in passed else passed.setdefault(t, keep(t)))
            ):
                n_kept += sub_kept
    memo[used] = n_all, n_kept
    return n_all, n_kept


def enumerate_feasible(
    sets: RangeSets, scene: Scene, tau: float, use_closest_irs: bool = False
) -> FeasibleSet:
    """Every feasible solution, listed by depth-first search, in lexicographic order.

    Level ``k`` pins ``direct1 = k`` and branches over the picks of the
    other three lists that are still free, reading their block of the gap
    grid, and over serving IRSs; it keeps the picks of ``candidate_picks``.
    Localization and counting list nothing: this is the listed reference.
    """
    k, gaps = _gap_grid(sets, scene, tau)
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
        jj, ia, ib, gg = (gaps[level][np.ix_(d2_idx, v1_idx, v2_idx)] < tau).nonzero()
        for j, via1, via2, g in zip(
            d2_idx[jj].tolist(), v1_idx[ia].tolist(), v2_idx[ib].tolist(), gg.tolist()
        ):
            if allowed is not None and g not in allowed(level, j):
                continue
            partial.append(AssociationTuple(level, j, via1, via2, g))
            free_d2[j] = free_v1[via1] = free_v2[via2] = False
            recurse(level + 1)
            free_d2[j] = free_v1[via1] = free_v2[via2] = True
            partial.pop()

    recurse(0)
    return FeasibleSet(solutions=tuple(solutions))


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
