import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import reference_closest_irs_candidates

from irsloc import association
from irsloc.association import (
    AssociationTuple,
    FeasibleSet,
    brute_force_solutions,
    candidate_picks,
    circle_intersections,
    closest_irs_candidates,
    closest_irs_rule,
    completion_counts,
    consistency_check,
    consistency_gap,
    count_unfiltered_solutions,
    enumerate_feasible,
    ground_truth_solution,
    irs_range_estimate,
    is_valid_solution,
    solutions_equivalent,
)
from irsloc.harness import DEFAULT_BS, DEFAULT_IRS_LAYOUTS
from irsloc.locate import GnConfig, ResidualWeights, gauss_newton_solve, select_association
from irsloc.ranging import RangeSets
from irsloc.scene import Point2D, Scene, _layout_constants, distance, sample_targets

BS = (Point2D(100.0, 0.0), Point2D(-100.0, 0.0))
IRS1 = ((0.0, 40.0),)
IRS2 = ((-60.0, 40.0), (70.0, 40.0))


def scene_and_sets(irs, k, seed, cell_m=None):
    scene = sample_targets(BS, irs, k, 50.0, seed=seed)
    return scene, RangeSets.from_geometry(scene, cell_m=cell_m)


def stock_scene_and_sets(k, r, seed):
    """A quantized scene on the stock BS pair and R-surface layout."""
    scene = sample_targets(DEFAULT_BS, DEFAULT_IRS_LAYOUTS[r], k, 50.0, seed=seed)
    return scene, RangeSets.from_geometry(scene, cell_m=0.75)


def stock_scenes(k_max):
    return st.tuples(st.integers(2, k_max), st.integers(1, 3), st.integers(0, 2**32 - 1))


def reference_enumerate(
    sets: RangeSets,
    scene: Scene,
    tau: float,
    use_closest_irs: bool = False,
) -> FeasibleSet:
    """The per-pick depth-first enumeration, kept as the oracle.

    Each node loops over the free ``direct2`` picks and evaluates the gap
    over that pick's (via1, via2, irs) grid; the nearest-surface rule is a
    per-pick memo of ``reference_closest_irs_candidates``.  Solutions come out in
    lexicographic order, and ``enumerate_feasible`` must return the same
    solutions in the same order.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    k = len(sets.direct[0])
    if not sets.balanced(k):
        raise ValueError(f"unbalanced range lists {sets.counts()}; need K entries each")
    n_irs = scene.n_irs

    d1 = np.asarray(sets.direct[0])
    d2 = np.asarray(sets.direct[1])
    v1 = np.asarray(sets.via_irs[0])
    v2 = np.asarray(sets.via_irs[1])
    d_bi = np.array(
        [[distance(bs_pos, q) for q in scene.irs] for bs_pos in scene.bs]
    )
    bi_gap = d_bi[0] - d_bi[1]
    # a_m[v, d] = via_m[v] - direct_m[d] / 2; gap needs only their difference
    a1 = v1[:, None] - 0.5 * d1[None, :]
    a2 = v2[:, None] - 0.5 * d2[None, :]

    irs_memo: dict[tuple[int, int], frozenset[int]] = {}

    def allowed_irs(i: int, j: int) -> frozenset[int]:
        if not use_closest_irs:
            return frozenset(range(n_irs))
        key = (i, j)
        if key not in irs_memo:
            irs_memo[key] = reference_closest_irs_candidates(scene, sets, i, j)
        return irs_memo[key]

    solutions: list[tuple[AssociationTuple, ...]] = []
    partial: list[AssociationTuple] = []
    free_d2 = [True] * k
    free_v1 = [True] * k
    free_v2 = [True] * k

    def recurse(level: int) -> None:
        if level == k:
            solutions.append(tuple(partial))
            return
        d2_idx = [j for j in range(k) if free_d2[j]]
        v1_idx = [j for j in range(k) if free_v1[j]]
        v2_idx = [j for j in range(k) if free_v2[j]]
        candidates = []
        for j in d2_idx:
            gammas = sorted(allowed_irs(level, j))
            if not gammas:
                continue
            # gap over the (via1, via2, irs) grid for this (direct1, direct2)
            gaps = np.abs(
                a1[v1_idx, level][:, None, None]
                - a2[v2_idx, j][None, :, None]
                - bi_gap[gammas][None, None, :]
            )
            for ia, ib, ig in np.argwhere(gaps < tau):
                candidates.append((j, v1_idx[ia], v2_idx[ib], gammas[ig]))
        candidates.sort()
        for j, via1, via2, g in candidates:
            partial.append(
                AssociationTuple(direct1=level, direct2=j, via1=via1, via2=via2, irs=g)
            )
            free_d2[j] = free_v1[via1] = free_v2[via2] = False
            recurse(level + 1)
            free_d2[j] = free_v1[via1] = free_v2[via2] = True
            partial.pop()

    recurse(0)
    return FeasibleSet(solutions=tuple(solutions))


def counts(sets, scene, tau, keep=None):
    """``(n_feasible, n_kept)`` of a scene from its pick table."""
    return completion_counts(candidate_picks(sets, scene, tau), keep)(0)


class TestCounts:
    def test_closed_form(self):
        assert count_unfiltered_solutions(2, 1) == 8
        assert count_unfiltered_solutions(2, 2) == 32
        assert count_unfiltered_solutions(3, 1) == 216
        assert count_unfiltered_solutions(4, 1) == 13824
        assert count_unfiltered_solutions(4, 3) == 13824 * 81

    def test_matches_brute_force(self):
        for k, r in [(1, 1), (2, 1), (2, 2), (3, 2)]:
            n = sum(1 for _ in brute_force_solutions(k, r))
            assert n == count_unfiltered_solutions(k, r)

    def test_brute_force_yields_valid_solutions(self):
        for sol in brute_force_solutions(2, 2):
            assert is_valid_solution(sol, 2, 2)

    def test_validity_checks(self):
        good = (
            AssociationTuple(0, 1, 0, 1, 0),
            AssociationTuple(1, 0, 1, 0, 0),
        )
        assert is_valid_solution(good, 2, 1)
        reused = (
            AssociationTuple(0, 1, 0, 1, 0),
            AssociationTuple(1, 1, 1, 0, 0),
        )
        assert not is_valid_solution(reused, 2, 1)
        assert not is_valid_solution(good, 2, 0) is True  # irs out of range
        assert not is_valid_solution(good[:1], 2, 1)


class TestConsistency:
    def test_true_tuple_has_zero_gap_with_exact_ranges(self):
        scene, sets = scene_and_sets(IRS2, 3, seed=2)
        truth = ground_truth_solution(scene, sets)
        assert truth is not None
        for t in truth:
            assert consistency_gap(sets, t, scene) < 1e-9
            assert consistency_check(sets, t, scene, tau=1e-9)

    def test_irs_range_estimate_equals_geometry(self):
        scene, sets = scene_and_sets(IRS1, 2, seed=5)
        truth = ground_truth_solution(scene, sets)
        order = sorted(
            range(2), key=lambda i: distance(scene.bs[0], scene.targets[i])
        )
        for rank, t in enumerate(truth):
            target = scene.targets[order[rank]]
            expect = distance(scene.irs[t.irs], target)
            for m in (0, 1):
                assert irs_range_estimate(sets, t, m, scene) == pytest.approx(expect)

    def test_quantized_gap_within_bound(self):
        # floor quantization moves via by up to half a cell and direct/2 by a
        # quarter cell per BS: worst disagreement 3 half-cells, 1.125 m
        for seed in range(8):
            scene, sets = scene_and_sets(IRS2, 4, seed=seed, cell_m=0.75)
            truth = ground_truth_solution(scene, sets, cell_m=0.75)
            assert truth is not None
            for t in truth:
                gap = consistency_gap(sets, t, scene)
                assert gap <= 1.125 + 1e-9
                assert consistency_check(sets, t, scene, tau=1.5)

    def test_boundary_is_exclusive(self):
        scene, sets = scene_and_sets(IRS1, 2, seed=3, cell_m=0.75)
        t = AssociationTuple(0, 0, 0, 0, 0)
        gap = consistency_gap(sets, t, scene)
        assert consistency_check(sets, t, scene, tau=gap) is False
        assert consistency_check(sets, t, scene, tau=gap + 1e-9) is True


class TestGapOrder:
    def test_gaps_keep_their_float_order_at_tau(self):
        # quantized ranges make a1 - a2 exact, so a gap lands on tau only in
        # the documented order; a1 - (a2 + (d1 - d2)) moves some gaps by an ulp
        moved = None
        for seed in range(1, 30):
            scene, sets = stock_scene_and_sets(4, 3, seed)
            d_bi = _layout_constants(scene.bs, scene.irs)[1]
            k, gaps = association._gap_grid(sets, scene, 1.5)
            for cell in itertools.product(range(k), range(k), range(k), range(k), range(3)):
                i1, i2, j1, j2, g = cell
                a1 = sets.via_irs[0][j1] - 0.5 * sets.direct[0][i1]
                a2 = sets.via_irs[1][j2] - 0.5 * sets.direct[1][i2]
                offset = d_bi[0][g] - d_bi[1][g]
                want = abs((a1 - a2) - offset)
                assert gaps[cell] == want, (seed, cell)
                other = abs(a1 - (a2 + offset))
                if moved is None and other != want:
                    moved = scene, sets, cell, want, other
            if moved is not None:
                break
        assert moved is not None
        scene, sets, cell, want, other = moved
        tau = max(want, other)
        kept = {t for t, _ in candidate_picks(sets, scene, tau)[cell[0]]}
        assert (AssociationTuple(*cell) in kept) == (want < tau)


class TestCircles:
    def test_symmetric_intersections(self):
        r = math.hypot(100.0, 40.0)
        pts = circle_intersections(BS[0], r, BS[1], r)
        got = sorted((round(p.x, 9), round(p.y, 9)) for p in pts)
        assert got == [(0.0, -40.0), (0.0, 40.0)]

    def test_tangent_circles(self):
        pts = circle_intersections((0.0, 0.0), 1.0, (2.0, 0.0), 1.0)
        assert len(pts) == 2
        for p in pts:
            assert p.x == pytest.approx(1.0)
            assert p.y == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_and_nested(self):
        assert circle_intersections((0, 0), 1.0, (5, 0), 1.0) == ()
        assert circle_intersections((0, 0), 5.0, (1, 0), 1.0) == ()
        assert circle_intersections((0, 0), 1.0, (0, 0), 2.0) == ()

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            circle_intersections((0, 0), -1.0, (1, 0), 1.0)


# Layouts for the nearest-surface property: the stock ones; surface pairs
# mirrored across the BSs' perpendicular bisector, exactly, 5e-10 m and
# 3e-9 m off (ties are kept within 1e-9 m); and the turned BS pair.  Both
# BS pairs are 200 m apart, so integer radii summing to 200 make tangent
# circles.
TURNED_BS = (Point2D(0.0, 100.0), Point2D(0.0, -100.0))
RULE_LAYOUTS = (
    (DEFAULT_BS, DEFAULT_IRS_LAYOUTS[1]),
    (DEFAULT_BS, DEFAULT_IRS_LAYOUTS[2]),
    (DEFAULT_BS, DEFAULT_IRS_LAYOUTS[3]),
    (DEFAULT_BS, ((-60.0, 40.0), (60.0, 40.0))),
    (DEFAULT_BS, ((-60.0, 40.0), (60.0 + 5e-10, 40.0), (0.0, -70.0))),
    (DEFAULT_BS, ((-60.0, 40.0), (60.0 + 3e-9, 40.0))),
    (TURNED_BS, ((40.0, 0.0), (-60.0, 80.0), (40.0, -60.0))),
)
RULE_RADII = st.one_of(st.integers(0, 400).map(float), st.floats(0.0, 400.0))


class TestAssociationTuple:
    def test_fields_order_and_hash_are_the_field_tuple(self):
        assert AssociationTuple._fields == ("direct1", "direct2", "via1", "via2", "irs")
        fields = list(itertools.product(range(2), range(3), range(2), range(2), range(3)))
        rng = np.random.default_rng(0)
        shuffled = [fields[i] for i in rng.permutation(len(fields))]
        tuples = [AssociationTuple(*f) for f in shuffled]
        assert [tuple(t) for t in sorted(tuples)] == sorted(shuffled)
        assert [hash(t) for t in tuples] == [hash(f) for f in shuffled]
        # same hashes in the same insertion order: same set and dict order
        assert [tuple(t) for t in set(tuples)] == list(set(shuffled))
        assert [tuple(t) for t in dict.fromkeys(tuples)] == shuffled

    def test_list_accessors(self):
        t = AssociationTuple(direct1=1, direct2=2, via1=3, via2=4, irs=0)
        assert (t.direct(0), t.direct(1), t.via(0), t.via(1), t.irs) == (1, 2, 3, 4, 0)


class TestClosestIrs:
    def test_true_irs_always_candidate_with_exact_ranges(self):
        for seed in range(6):
            scene, sets = scene_and_sets(IRS2, 3, seed=seed)
            truth = ground_truth_solution(scene, sets)
            for t in truth:
                cands = closest_irs_candidates(scene, sets, t.direct1, t.direct2)
                assert t.irs in cands

    def test_empty_when_circles_miss(self):
        scene = sample_targets(BS, IRS2, 2, 50.0, seed=1)
        # radii too small to reach each other: direct ranges of 1 m
        sets = RangeSets(direct=((1.0, 2.0), (1.0, 2.0)), via_irs=((5.0, 6.0), (5.0, 6.0)))
        assert closest_irs_candidates(scene, sets, 0, 0) == frozenset()

    @settings(max_examples=200, deadline=None)
    @given(
        layout=st.sampled_from(RULE_LAYOUTS),
        radii=st.tuples(*[st.lists(RULE_RADII, min_size=1, max_size=4)] * 2),
    )
    @example(layout=RULE_LAYOUTS[2], radii=([75.0], [125.0]))  # touching outside
    @example(layout=RULE_LAYOUTS[2], radii=([300.0], [100.0]))  # touching inside
    @example(layout=RULE_LAYOUTS[4], radii=([120.0], [120.0]))  # tie within 1e-9 m
    @example(layout=RULE_LAYOUTS[5], radii=([120.0], [120.0]))  # just outside it
    @example(layout=RULE_LAYOUTS[1], radii=([1.0, 2.0], [1.0, 99.0]))  # circles miss
    def test_rule_matches_per_pick_reference(self, layout, radii):
        bs, irs = layout
        scene = Scene(bs=bs, irs=irs, targets=(irs[0],), true_irs=(0,))
        direct = tuple(tuple(sorted(2.0 * r for r in rs)) for rs in radii)
        sets = RangeSets(direct=direct, via_irs=((), ()))
        rule = closest_irs_rule(scene, sets)
        for i, j in itertools.product(range(len(direct[0])), range(len(direct[1]))):
            want = reference_closest_irs_candidates(scene, sets, i, j)
            assert rule(i, j) == want
            assert closest_irs_candidates(scene, sets, i, j) == want

    def test_tangency_ties_and_misses(self):
        def rule(layout, r1, r2):
            bs, irs = layout
            scene = Scene(bs=bs, irs=irs, targets=(irs[0],), true_irs=(0,))
            sets = RangeSets(direct=((2.0 * r1,), (2.0 * r2,)), via_irs=((), ()))
            return closest_irs_rule(scene, sets)(0, 0)

        # one touching point, (25, 0) and (-200, 0), nearest the third surface
        assert rule(RULE_LAYOUTS[2], 75.0, 125.0) == {2}
        assert rule(RULE_LAYOUTS[2], 300.0, 100.0) == {0}
        # points on the bisector: a pair 5e-10 m off a tie is tied, 3e-9 m is not
        assert rule(RULE_LAYOUTS[4], 120.0, 120.0) == {0, 1, 2}
        assert rule(RULE_LAYOUTS[5], 120.0, 120.0) == {0}
        # circles that miss leave no surface, even with every surface in range
        assert rule(RULE_LAYOUTS[1], 1.0, 2.0) == frozenset()
        assert rule(RULE_LAYOUTS[2], 10.0, 400.0) == frozenset()


class TestEnumeration:
    def test_matches_brute_force_tau_infinite(self):
        # with no filtering the DFS must produce the whole hypothesis space
        for k, irs, seed in [(2, IRS1, 1), (2, IRS2, 2), (3, IRS1, 3)]:
            scene, sets = scene_and_sets(irs, k, seed=seed)
            feas = enumerate_feasible(sets, scene, tau=math.inf)
            got = {tuple(sol) for sol in feas.solutions}
            want = {sol for sol in brute_force_solutions(k, scene.n_irs)}
            assert got == want

    def test_matches_filtered_brute_force_quantized(self):
        for seed in (1, 4, 9):
            scene, sets = scene_and_sets(IRS2, 3, seed=seed, cell_m=0.75)
            feas = enumerate_feasible(sets, scene, tau=1.5)
            got = {tuple(sol) for sol in feas.solutions}
            want = {
                sol
                for sol in brute_force_solutions(3, scene.n_irs)
                if all(consistency_check(sets, t, scene, 1.5) for t in sol)
            }
            assert got == want

    def test_solutions_are_valid_and_contain_truth(self):
        scene, sets = scene_and_sets(IRS2, 4, seed=6, cell_m=0.75)
        feas = enumerate_feasible(sets, scene, tau=1.5)
        truth = ground_truth_solution(scene, sets, cell_m=0.75)
        assert truth is not None
        for sol in feas.solutions:
            assert is_valid_solution(sol, 4, scene.n_irs)
        assert any(
            solutions_equivalent(sets, sol, truth) for sol in feas.solutions
        )

    def test_closest_irs_filter_is_a_subset(self):
        # the filter may only remove hypotheses, never invent them; with
        # quantized ranges the displaced circle intersections occasionally
        # drop the true solution too, so truth retention is only checked in
        # aggregate
        retained = 0
        for seed in range(12):
            scene, sets = scene_and_sets(IRS2, 4, seed=seed, cell_m=0.75)
            full = enumerate_feasible(sets, scene, tau=1.5)
            reduced = enumerate_feasible(sets, scene, tau=1.5, use_closest_irs=True)
            full_set = {tuple(s) for s in full.solutions}
            reduced_set = {tuple(s) for s in reduced.solutions}
            assert reduced_set <= full_set
            truth = ground_truth_solution(scene, sets, cell_m=0.75)
            if any(solutions_equivalent(sets, sol, truth) for sol in reduced.solutions):
                retained += 1
        assert retained >= 9

    def test_closest_irs_filter_exact_ranges_keeps_truth(self):
        # without quantization the intersection points are the targets
        # themselves, so the true serving IRS always survives
        for seed in range(6):
            scene, sets = scene_and_sets(IRS2, 3, seed=seed)
            reduced = enumerate_feasible(
                sets, scene, tau=1e-9, use_closest_irs=True
            )
            truth = ground_truth_solution(scene, sets)
            assert any(
                solutions_equivalent(sets, sol, truth) for sol in reduced.solutions
            )

    @settings(max_examples=60, deadline=None)
    @given(scene_args=stock_scenes(6), closest=st.booleans())
    def test_matches_reference_enumeration(self, scene_args, closest):
        # same solutions in the same order as the per-pick oracle
        scene, sets = stock_scene_and_sets(*scene_args)
        got = enumerate_feasible(sets, scene, tau=1.5, use_closest_irs=closest)
        want = reference_enumerate(sets, scene, tau=1.5, use_closest_irs=closest)
        assert got.solutions == want.solutions
        assert list(got.solutions) == sorted(got.solutions)

    @settings(max_examples=30, deadline=None)
    @given(scene_args=stock_scenes(3), closest=st.booleans())
    def test_matches_filtered_brute_force(self, scene_args, closest):
        scene, sets = stock_scene_and_sets(*scene_args)
        k, r = scene.n_targets, scene.n_irs

        def passes(t):
            return consistency_check(sets, t, scene, 1.5) and (
                not closest
                or t.irs in closest_irs_candidates(scene, sets, t.direct1, t.direct2)
            )

        ok = {}
        want = {
            sol
            for sol in brute_force_solutions(k, r)
            if all(ok.setdefault(t, passes(t)) for t in sol)
        }
        feas = enumerate_feasible(sets, scene, tau=1.5, use_closest_irs=closest)
        assert set(feas.solutions) == want
        assert len(feas.solutions) == len(want)

    @settings(max_examples=40, deadline=None)
    @given(scene_args=stock_scenes(6))
    def test_closest_filter_restricts_the_plain_set(self, scene_args):
        # the pruned search is the plain search with branches cut, so the
        # plain set restricted to the nearest-surface rule is the pruned set,
        # order included; completion_counts' per-tuple ``keep`` relies on it
        scene, sets = stock_scene_and_sets(*scene_args)
        plain = enumerate_feasible(sets, scene, tau=1.5)
        restricted = tuple(
            sol
            for sol in plain.solutions
            if all(
                t.irs in closest_irs_candidates(scene, sets, t.direct1, t.direct2)
                for t in sol
            )
        )
        pruned = enumerate_feasible(sets, scene, tau=1.5, use_closest_irs=True)
        assert pruned.solutions == restricted

    def test_rejects_bad_inputs(self):
        scene, sets = scene_and_sets(IRS1, 2, seed=1)
        with pytest.raises(ValueError):
            enumerate_feasible(sets, scene, tau=-1.0)
        lopsided = RangeSets(direct=((1.0, 2.0), (1.0,)), via_irs=((3.0, 4.0), (3.0, 4.0)))
        with pytest.raises(ValueError):
            enumerate_feasible(lopsided, scene, tau=1.0)
        with pytest.raises(ValueError):
            candidate_picks(sets, scene, tau=-1.0)
        with pytest.raises(ValueError):
            candidate_picks(lopsided, scene, tau=1.0)

    def test_ideal_ranges_leave_only_equivalent_solutions(self):
        # with exact ranges and a vanishing tolerance every survivor picks
        # the same range values as the truth
        for seed in range(5):
            scene, sets = scene_and_sets(IRS2, 3, seed=seed)
            feas = enumerate_feasible(sets, scene, tau=1e-9)
            truth = ground_truth_solution(scene, sets)
            assert len(feas.solutions) >= 1
            for sol in feas.solutions:
                assert solutions_equivalent(sets, sol, truth)


class TestFeasibleCounts:
    """The pick table and its completion count against the listed feasible set."""

    @settings(max_examples=40, deadline=None)
    @given(
        scene_args=stock_scenes(7),
        closest=st.booleans(),
        # the half-cell lattice: quantized gaps on the one-surface layout
        # land exactly on these thresholds
        tau=st.sampled_from((0.0, 0.375, 1.125, 1.5)),
        cell_m=st.sampled_from((None, 0.75)),
    )
    @example(scene_args=(7, 1, 3), closest=False, tau=1.125, cell_m=0.75)
    def test_picks_are_the_passing_tuples_in_order(self, scene_args, closest, tau, cell_m):
        k, r, seed = scene_args
        scene = sample_targets(DEFAULT_BS, DEFAULT_IRS_LAYOUTS[r], k, 50.0, seed=seed)
        sets = RangeSets.from_geometry(scene, cell_m=cell_m)
        picks = candidate_picks(sets, scene, tau=tau, use_closest_irs=closest)
        assert len(picks) == k
        for level, row in enumerate(picks):
            want = [
                t
                for t in itertools.starmap(
                    AssociationTuple, itertools.product([level], *[range(k)] * 3, range(r))
                )
                if consistency_check(sets, t, scene, tau)
                and (
                    not closest
                    or t.irs in closest_irs_candidates(scene, sets, t.direct1, t.direct2)
                )
            ]
            assert [t for t, _ in row] == want
            # one bit per used entry: direct2, then via1, then via2
            assert [mask for _, mask in row] == [
                1 << t.direct2 | 1 << (k + t.via1) | 1 << (2 * k + t.via2) for t in want
            ]

    @settings(max_examples=60, deadline=None)
    @given(scene_args=stock_scenes(6), closest=st.booleans())
    def test_counts_the_listed_set(self, scene_args, closest):
        scene, sets = stock_scene_and_sets(*scene_args)
        n = len(enumerate_feasible(sets, scene, tau=1.5, use_closest_irs=closest).solutions)
        picks = candidate_picks(sets, scene, tau=1.5, use_closest_irs=closest)
        assert completion_counts(picks)(0) == (n, n)

    @settings(max_examples=60, deadline=None)
    @given(scene_args=stock_scenes(6))
    def test_closest_irs_keep_counts_the_filtered_set(self, scene_args):
        scene, sets = stock_scene_and_sets(*scene_args)
        rule = closest_irs_rule(scene, sets)
        got = counts(sets, scene, tau=1.5, keep=lambda t: t.irs in rule(t.direct1, t.direct2))
        want = (
            len(enumerate_feasible(sets, scene, tau=1.5).solutions),
            len(enumerate_feasible(sets, scene, tau=1.5, use_closest_irs=True).solutions),
        )
        assert got == want

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
        threshold=st.sampled_from((1e-12, 1.0, 16.0)),
    )
    def test_residual_keep_counts_the_survivors(self, k, seed, threshold):
        scene, sets = stock_scene_and_sets(k, 1, seed)
        w = ResidualWeights.from_cell(0.75)
        cfg = GnConfig(residual_threshold=threshold)
        got = counts(
            sets,
            scene,
            tau=1.5,
            keep=lambda t: gauss_newton_solve(sets, t, scene, w).residual < threshold,
        )
        feasible = enumerate_feasible(sets, scene, tau=1.5)
        stats = select_association(feasible, sets, scene, w, cfg).stats
        assert got == (stats.n_solutions, stats.n_survivors)

    @settings(max_examples=30, deadline=None)
    @given(scene_args=stock_scenes(5))
    def test_keep_runs_once_per_tuple_with_kept_completions(self, scene_args):
        # a tuple is tested only where what follows it still has a kept
        # completion: for a keep that passes everything, exactly the tuples
        # of the feasible solutions
        scene, sets = stock_scene_and_sets(*scene_args)
        seen = []
        counts(sets, scene, tau=1.5, keep=lambda t: seen.append(t) is None)
        solutions = enumerate_feasible(sets, scene, tau=1.5).solutions
        assert len(seen) == len(set(seen))
        assert set(seen) == {t for sol in solutions for t in sol}

    @settings(max_examples=60, deadline=None)
    @given(
        scene_args=stock_scenes(6),
        keep_kind=st.sampled_from(("none", "closest", "residual")),
        order=st.permutations(range(6)),
    )
    # the closest-surface rule on three surfaces at K=6, fewest picks first
    @example(scene_args=(6, 3, 1), keep_kind="closest", order=None)
    def test_whole_count_does_not_depend_on_level_order(self, scene_args, keep_kind, order):
        k, r, seed = scene_args
        # the residual keep is the one-surface second stage
        scene, sets = stock_scene_and_sets(k, 1 if keep_kind == "residual" else r, seed)
        picks = candidate_picks(sets, scene, tau=1.5)
        if keep_kind == "none":
            keep = None
        elif keep_kind == "closest":
            rule = closest_irs_rule(scene, sets)
            keep = lambda t: t.irs in rule(t.direct1, t.direct2)  # noqa: E731
        else:
            w, cfg = ResidualWeights.from_cell(0.75), GnConfig()
            keep = lambda t: (  # noqa: E731
                gauss_newton_solve(sets, t, scene, w).residual < cfg.residual_threshold
            )
        if order is None:  # fewest picks first
            order = sorted(range(k), key=lambda i: len(picks[i]))
        permuted = [picks[i] for i in order if i < k]
        assert completion_counts(permuted, keep)(0) == completion_counts(picks, keep)(0)


class TestGroundTruth:
    def test_missing_range_returns_none(self):
        scene = sample_targets(BS, IRS1, 2, 50.0, seed=2)
        sets = RangeSets(
            direct=((10.0, 20.0), (10.0, 20.0)), via_irs=((30.0, 40.0), (30.0, 40.0))
        )
        assert ground_truth_solution(scene, sets) is None

    def test_true_irs_recorded(self):
        scene, sets = scene_and_sets(IRS2, 3, seed=7)
        truth = ground_truth_solution(scene, sets)
        order = sorted(range(3), key=lambda i: distance(scene.bs[0], scene.targets[i]))
        for rank, t in enumerate(truth):
            assert t.irs == scene.true_irs[order[rank]]
            assert t.direct1 == rank

    def test_equivalence_relation(self):
        scene, sets = scene_and_sets(IRS1, 2, seed=4)
        truth = ground_truth_solution(scene, sets)
        assert solutions_equivalent(sets, truth, truth)
        swapped = (truth[1], truth[0])
        assert not solutions_equivalent(sets, truth, swapped)
