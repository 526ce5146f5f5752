import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irsloc import locate
from irsloc.association import (
    FeasibleSet,
    candidate_picks,
    enumerate_feasible,
    ground_truth_solution,
)
from irsloc.harness import DEFAULT_BS, DEFAULT_IRS_LAYOUTS
from irsloc.locate import (
    GN_DAMPING,
    GN_MAX_ITERS,
    GN_STEP_TOL_M,
    GnConfig,
    LocEstimate,
    ResidualWeights,
    _constraints,
    _cost_lower_bound,
    _damped_step,
    _residual_and_jacobian,
    default_init,
    fit_must_exceed,
    fit_position,
    fit_stays_below,
    gauss_newton_solve,
    lexmin_select,
    localize,
    residual_terms,
    select_association,
)
from irsloc.ranging import RangeSets
from irsloc.scene import Point2D, Scene, distance, sample_targets

BS = (Point2D(100.0, 0.0), Point2D(-100.0, 0.0))
IRS1 = ((0.0, 40.0),)
IRS2 = ((-60.0, 40.0), (70.0, 40.0))

W = ResidualWeights()
GN = GnConfig()


def scene_and_sets(irs, k, seed, cell_m=None):
    scene = sample_targets(BS, irs, k, 50.0, seed=seed)
    return scene, RangeSets.from_geometry(scene, cell_m=cell_m)


def reference_residual_and_jacobian(pos: np.ndarray, triples):
    r = np.empty(len(triples))
    jac = np.empty((len(triples), 2))
    for i, (anchor, rng, sigma) in enumerate(triples):
        diff = pos - np.asarray(anchor, dtype=float)
        d = math.hypot(diff[0], diff[1])
        r[i] = (rng - d) / sigma
        # range gradient is the unit vector away from the anchor
        jac[i] = -diff / (max(d, 1e-12) * sigma)
    return r, jac


def reference_fit_position(triples, init) -> LocEstimate:
    """Damped Gauss-Newton fit with a row loop and ``np.linalg.solve``.

    The reference for ``fit_position``: same damping schedule, acceptance
    test and stop rule, with the constraints evaluated one row at a time
    and each damped step solved by LAPACK.
    """
    x = np.asarray(init, dtype=float).copy()
    r, jac = reference_residual_and_jacobian(x, triples)
    cost = float(r @ r)
    lam = GN_DAMPING
    converged = False
    it = 0
    for it in range(1, GN_MAX_ITERS + 1):
        a = jac.T @ jac
        g = jac.T @ r
        step = None
        while lam <= 1e12:
            try:
                candidate = np.linalg.solve(a + lam * np.eye(2), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            r_new, jac_new = reference_residual_and_jacobian(x + candidate, triples)
            cost_new = float(r_new @ r_new)
            if cost_new <= cost + 1e-15:
                step = candidate
                x = x + candidate
                r, jac, cost = r_new, jac_new, cost_new
                lam = max(lam / 10.0, 1e-12)
                break
            lam *= 10.0
        if step is None:
            break
        if math.hypot(step[0], step[1]) < GN_STEP_TOL_M:
            converged = True
            break
    return LocEstimate(
        position=Point2D(float(x[0]), float(x[1])),
        residual=cost,
        converged=converged,
        n_iters=it,
    )


def reference_gauss_newton_solve(sets, t, scene, w):
    triples = _constraints(sets, t, scene, w)
    return reference_fit_position(triples, default_init(sets, t, scene))


def reference_select(feasible, sets, scene, w, cfg, fit=gauss_newton_solve):
    """Selection with no fit memo: every use of a tuple fits it again.

    The reference for ``select_association``; ``fit`` fits one tuple.
    Returns the chosen solution, its estimates, ``(n_solutions,
    n_survivors, fallback)`` and the set of tuples a lexicographic
    depth-first search reaches: in some solution, every tuple before it
    passes the threshold; with the fallback, every tuple of every solution.
    """

    def solve(t):
        return fit(sets, t, scene, w)

    ordered = sorted(feasible.solutions)
    bad = set()
    best = None
    best_total = math.inf
    survivors = 0
    for sol in ordered:
        if any(t in bad for t in sol):
            continue
        total = 0.0
        for t in sol:
            residual = solve(t).residual
            if residual >= cfg.residual_threshold:
                bad.add(t)
                break
            total += residual
        else:
            survivors += 1
            if total < best_total:
                best_total = total
                best = sol
    fallback = best is None and bool(ordered)
    if fallback:
        for sol in ordered:
            total = sum(solve(t).residual for t in sol)
            if total < best_total:
                best_total = total
                best = sol
    estimates = () if best is None else tuple(solve(t) for t in best)
    if fallback:
        reached = {t for sol in ordered for t in sol}
    else:
        reached = {
            sol[level]
            for sol in ordered
            for level in range(len(sol))
            if all(solve(t).residual < cfg.residual_threshold for t in sol[:level])
        }
    return best, estimates, (len(ordered), survivors, fallback), reached


quantized_scenes = st.tuples(
    st.integers(2, 4), st.integers(1, 3), st.integers(0, 2**32 - 1)
)


def quantized_scene_and_sets(k, r, seed):
    scene = sample_targets(BS, DEFAULT_IRS_LAYOUTS[r], k, 50.0, seed=seed)
    return scene, RangeSets.from_geometry(scene, cell_m=0.75)


class TestWeights:
    def test_default_is_cell_uniform_sigma(self):
        assert W.sigma_direct == pytest.approx(0.75 / (2 * math.sqrt(3)))
        assert ResidualWeights.from_cell(1.5).sigma_via == pytest.approx(
            1.5 / (2 * math.sqrt(3))
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            ResidualWeights(sigma_direct=0.0)
        with pytest.raises(ValueError):
            GnConfig(residual_threshold=-1.0)


class TestJacobian:
    def test_matches_central_differences(self):
        scene, sets = scene_and_sets(IRS1, 2, seed=3)
        t = ground_truth_solution(scene, sets)[0]
        triples = _constraints(sets, t, scene, W)
        rng = np.random.default_rng(0)
        for _ in range(20):
            pos = rng.uniform(-80, 80, size=2)
            r, jac = _residual_and_jacobian(pos, triples)
            eps = 1e-6
            for d in range(2):
                step = np.zeros(2)
                step[d] = eps
                rp, _ = _residual_and_jacobian(pos + step, triples)
                rm, _ = _residual_and_jacobian(pos - step, triples)
                numeric = (rp - rm) / (2 * eps)
                np.testing.assert_allclose(jac[:, d], numeric, atol=1e-6)

    def test_residual_terms_order(self):
        scene, sets = scene_and_sets(IRS1, 1, seed=2)
        t = ground_truth_solution(scene, sets)[0]
        target = scene.targets[0]
        r = residual_terms(target, sets, t, scene, W)
        # exact ranges evaluated at the true position: all four residuals zero
        np.testing.assert_allclose(r, 0.0, atol=1e-9)
        assert r.shape == (4,)


class TestFit:
    def test_perfect_ranges_recover_position(self):
        for seed in range(6):
            scene, sets = scene_and_sets(IRS2, 3, seed=seed)
            truth = ground_truth_solution(scene, sets)
            order = sorted(
                range(3), key=lambda i: distance(scene.bs[0], scene.targets[i])
            )
            for rank, t in enumerate(truth):
                est = gauss_newton_solve(sets, t, scene, W)
                target = scene.targets[order[rank]]
                assert est.converged
                assert distance(est.position, target) < 1e-7
                assert est.residual < 1e-12

    def test_matches_fine_grid_search(self):
        # independent check: the solver's optimum beats every point of a
        # 1 cm grid around the true target on the same objective
        scene, sets = scene_and_sets(IRS1, 2, seed=9, cell_m=0.75)
        truth = ground_truth_solution(scene, sets, cell_m=0.75)
        order = sorted(range(2), key=lambda i: distance(scene.bs[0], scene.targets[i]))
        for rank, t in enumerate(truth):
            target = scene.targets[order[rank]]
            est = gauss_newton_solve(sets, t, scene, W)

            def objective(p):
                r = residual_terms(p, sets, t, scene, W)
                return float(r @ r)

            xs = np.arange(target.x - 1.0, target.x + 1.0, 0.01)
            ys = np.arange(target.y - 1.0, target.y + 1.0, 0.01)
            best = min(
                objective(Point2D(x, y)) for x in xs for y in ys
            )
            assert est.residual <= best + 1e-9
            # and the grid's argmin is within one grid step of the GN point
            grid_best = min(
                ((objective(Point2D(x, y)), x, y) for x in xs for y in ys),
            )
            assert math.hypot(grid_best[1] - est.position.x, grid_best[2] - est.position.y) < 0.02

    def test_quantized_ranges_stay_within_a_cell(self):
        for seed in range(6):
            scene, sets = scene_and_sets(IRS2, 4, seed=seed, cell_m=0.75)
            truth = ground_truth_solution(scene, sets, cell_m=0.75)
            order = sorted(
                range(4), key=lambda i: distance(scene.bs[0], scene.targets[i])
            )
            for rank, t in enumerate(truth):
                est = gauss_newton_solve(sets, t, scene, W)
                target = scene.targets[order[rank]]
                assert distance(est.position, target) < 0.75

    def test_default_init_reasonable(self):
        scene, sets = scene_and_sets(IRS1, 2, seed=5)
        t = ground_truth_solution(scene, sets)[0]
        init = default_init(sets, t, scene)
        order = sorted(range(2), key=lambda i: distance(scene.bs[0], scene.targets[i]))
        assert distance(init, scene.targets[order[0]]) < 10.0

    def test_fit_handles_far_init(self):
        scene, sets = scene_and_sets(IRS1, 1, seed=7)
        t = ground_truth_solution(scene, sets)[0]
        est = fit_position(_constraints(sets, t, scene, W), Point2D(0.0, -200.0))
        # may land on the mirror optimum, but must converge somewhere finite
        assert est.converged
        assert math.isfinite(est.residual)


# Tolerances of the closed-form fit against the row-loop reference: both run
# the same iteration, so they differ only by rounding in the step solve and
# the residual rows (at most 1.2e-6 m and 6e-11 relative over 8.8k fits).
POSITION_TOL_M = 1e-5
RESIDUAL_REL_TOL = 1e-9


def assert_fit_matches(est, ref, threshold):
    assert distance(est.position, ref.position) <= POSITION_TOL_M
    assert est.residual == pytest.approx(ref.residual, rel=RESIDUAL_REL_TOL, abs=0.0)
    assert (est.residual >= threshold) == (ref.residual >= threshold)


def scene_tuples(k, r, seed):
    """A quantized stock scene, its range sets and every feasible tuple."""
    scene, sets = quantized_scene_and_sets(k, r, seed)
    feas = enumerate_feasible(sets, scene, tau=1.5)
    return scene, sets, sorted({t for sol in feas.solutions for t in sol})


class TestStartCertificate:
    def test_certified_starts_fit_below_the_threshold(self):
        certified = 0
        for seed in range(1, 16):
            scene = sample_targets(
                DEFAULT_BS, DEFAULT_IRS_LAYOUTS[1], 4, 50.0, seed=seed, cell_m=0.75
            )
            sets = RangeSets.from_geometry(scene, cell_m=0.75)
            w = ResidualWeights.from_cell(0.75)
            for level in candidate_picks(sets, scene, 1.5):
                for t, _ in level:
                    triples = _constraints(sets, t, scene, w)
                    init = default_init(sets, t, scene)
                    if fit_stays_below(triples, GN, init):
                        certified += 1
                        assert fit_position(triples, init).residual < GN.residual_threshold
        assert certified > 0

    def test_margin_covers_max_iters_accepted_raises(self):
        # start cost 1; the margin is GN_MAX_ITERS * (1e-15 + 2**-52 * threshold)
        triples = [((0.0, 0.0), 1.0, 1.0)]
        margin = GN_MAX_ITERS * (1e-15 + 2.0**-52)
        assert not fit_stays_below(triples, GnConfig(residual_threshold=1.0 + 0.5 * margin), (0.0, 0.0))
        assert fit_stays_below(triples, GnConfig(residual_threshold=1.0 + 2.0 * margin), (0.0, 0.0))


def pick_tuples(scene, sets, limit):
    """Up to ``limit`` distinct tuples of the scene's pick table, level by level."""
    tuples = [t for level in candidate_picks(sets, scene, 1.5) for t, _ in level]
    return sorted(set(tuples))[:limit]


class TestLowerBoundCertificate:
    @settings(max_examples=30, deadline=None)
    @given(
        scene_args=quantized_scenes,
        offsets=st.lists(
            st.tuples(st.floats(-150.0, 150.0), st.floats(-150.0, 150.0)), max_size=2
        ),
    )
    def test_bound_never_exceeds_the_reference_fit(self, scene_args, offsets):
        scene, sets = quantized_scene_and_sets(*scene_args)
        for t in pick_tuples(scene, sets, 40):
            triples = _constraints(sets, t, scene, W)
            bound = _cost_lower_bound(triples)
            start = default_init(sets, t, scene)
            for init in [start] + [(start.x + dx, start.y + dy) for dx, dy in offsets]:
                ref = reference_fit_position(triples, init)
                assert bound <= ref.residual * (1.0 + 1e-12) + 1e-12
                # a threshold just above the fit's cost must not be certified
                above = GnConfig(residual_threshold=float(np.nextafter(ref.residual, math.inf)))
                assert not fit_must_exceed(triples, above)

    def test_certified_tuples_fit_above_the_threshold(self):
        certified = 0
        for seed in range(1, 6):
            scene = sample_targets(
                DEFAULT_BS, DEFAULT_IRS_LAYOUTS[1], 7, 50.0, seed=seed, cell_m=0.75
            )
            sets = RangeSets.from_geometry(scene, cell_m=0.75)
            w = ResidualWeights.from_cell(0.75)
            for t in pick_tuples(scene, sets, 10**6):
                triples = _constraints(sets, t, scene, w)
                if fit_must_exceed(triples, GN):
                    certified += 1
                    est = fit_position(triples, default_init(sets, t, scene))
                    assert est.residual >= GN.residual_threshold
        assert certified > 0

    def test_hand_example(self):
        # one anchor: the IRS rows' gap term (3 - 1)**2 / (2 * 0.5**2) = 8,
        # plus a BS row (radius 5, weight 1) against the IRS rows' mean
        # circle (radius 2, weight 8): 3**2 * 1 * 8 / 9 = 8; the true minimum
        # is 22.4, at distance 2.6
        triples = [((0.0, 0.0), 5.0, 1.0), ((0.0, 0.0), 5.0, 1.0)]
        triples += [((0.0, 0.0), 3.0, 0.5), ((0.0, 0.0), 1.0, 0.5)]
        assert _cost_lower_bound(triples) == pytest.approx(16.0, rel=1e-15)
        assert fit_position(triples, (2.0, 0.0)).residual == pytest.approx(22.4)
        assert fit_must_exceed(triples, GnConfig(residual_threshold=15.99))
        assert not fit_must_exceed(triples, GnConfig(residual_threshold=16.0))


class TestFitOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        scene_args=quantized_scenes,
        pos=st.tuples(st.floats(-200.0, 200.0), st.floats(-200.0, 200.0)),
    )
    def test_residual_and_jacobian_match_reference(self, scene_args, pos):
        scene, sets, tuples = scene_tuples(*scene_args)
        if not tuples:
            return
        triples = _constraints(sets, tuples[0], scene, W)
        r, jac = _residual_and_jacobian(np.array(pos), triples)
        r_ref, jac_ref = reference_residual_and_jacobian(np.array(pos), triples)
        np.testing.assert_allclose(r, r_ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(jac, jac_ref, rtol=1e-12, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        jac=st.lists(
            st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
            min_size=1,
            max_size=4,
        ),
        r=st.lists(st.floats(-100.0, 100.0), min_size=4, max_size=4),
        lam=st.sampled_from((1e-12, 1e-6, 1e-3, 1.0, 1e3, 1e12)),
    )
    def test_damped_step_solves_the_damped_system(self, jac, r, lam):
        jac = np.array(jac)
        a = jac.T @ jac + lam * np.eye(2)
        g = jac.T @ np.array(r[: len(jac)])
        (a00, a01), (_, a11) = (jac.T @ jac).tolist()
        step = _damped_step(a00, a01, a11, *g.tolist(), lam)
        ref = np.linalg.solve(a, -g)
        # forward error within what the system's conditioning allows
        bound = 1e-13 * np.linalg.cond(a) * np.linalg.norm(ref)
        assert np.linalg.norm(np.array(step) - ref) <= bound

    def test_damped_step_singular_where_lapack_is(self):
        # a rank-one JᵀJ that absorbs the damping is singular to both solvers
        a = np.full((2, 2), 1e6)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(a + 1e-12 * np.eye(2), -np.ones(2))
        assert _damped_step(1e6, 1e6, 1e6, 1.0, 1.0, 1e-12) is None

    def test_rejected_step_under_tolerance_ends_the_fit(self, monkeypatch):
        # this fit rejects damped steps shorter than GN_STEP_TOL_M more than
        # once in the reference; the first such rejection must end it
        scene, sets = quantized_scene_and_sets(2, 1, 1)
        t = ground_truth_solution(scene, sets, cell_m=0.75)[0]
        triples = _constraints(sets, t, scene, W)
        init = default_init(sets, t, scene)
        evaluated = []
        evaluate = locate._evaluate

        def recording(pos, *arrays):
            r, jac = evaluate(pos, *arrays)
            evaluated.append((pos, float(r @ r)))
            return r, jac

        monkeypatch.setattr(locate, "_evaluate", recording)
        est = fit_position(triples, init)
        x, cost = evaluated[0]
        short_rejections = []
        for i, (pos, cost_new) in enumerate(evaluated[1:], 1):
            if cost_new <= cost + 1e-15:
                x, cost = pos, cost_new
            elif math.hypot(*(pos - x)) < GN_STEP_TOL_M:
                short_rejections.append(i)
        assert short_rejections == [len(evaluated) - 1]
        assert est.converged
        assert est.residual == cost
        ref = reference_fit_position(triples, init)
        assert distance(est.position, ref.position) <= 1e-9

    def test_init_on_an_anchor(self):
        # zero distance to an anchor takes the clamped-gradient branch
        scene, sets = scene_and_sets(IRS1, 2, seed=3, cell_m=0.75)
        t = ground_truth_solution(scene, sets, cell_m=0.75)[0]
        triples = _constraints(sets, t, scene, W)
        for anchor in (*scene.bs, scene.irs[0]):
            _, jac = _residual_and_jacobian(np.array(anchor), triples)
            assert np.all(np.isfinite(jac))
            assert_fit_matches(
                fit_position(triples, anchor),
                reference_fit_position(triples, anchor),
                GN.residual_threshold,
            )

    @settings(max_examples=40, deadline=None)
    @given(
        scene_args=quantized_scenes,
        offsets=st.lists(
            st.tuples(st.floats(-150.0, 150.0), st.floats(-150.0, 150.0)),
            min_size=1,
            max_size=3,
        ),
    )
    def test_fit_matches_reference(self, scene_args, offsets):
        # every feasible tuple, from its default start and from random starts
        scene, sets, tuples = scene_tuples(*scene_args)
        for t in tuples:
            triples = _constraints(sets, t, scene, W)
            start = default_init(sets, t, scene)
            inits = [start] + [(start.x + dx, start.y + dy) for dx, dy in offsets]
            for init in inits:
                assert_fit_matches(
                    fit_position(triples, init),
                    reference_fit_position(triples, init),
                    GN.residual_threshold,
                )

    @settings(max_examples=40, deadline=None)
    @given(
        scene_args=quantized_scenes,
        closest=st.booleans(),
        threshold=st.sampled_from((1e-12, 1.0, 16.0)),
    )
    # plain-set scenes where the search fits tuples a sorted scan of the
    # solutions never fits (16 and 12 tuples against the scan's 15 and 11):
    # the scan skips a solution holding an already-failed tuple before
    # fitting the tuples ahead of it
    @example(scene_args=(4, 1, 7), closest=False, threshold=16.0)
    @example(scene_args=(4, 1, 21711), closest=False, threshold=16.0)
    def test_selection_matches_reference_fit(self, scene_args, closest, threshold):
        # selection over the shipped fit makes every decision the reference
        # fit makes: same solution, counts, fallback and tuples fit
        scene, sets = quantized_scene_and_sets(*scene_args)
        feas = enumerate_feasible(sets, scene, tau=1.5, use_closest_irs=closest)
        cfg = GnConfig(residual_threshold=threshold)
        res = select_association(feas, sets, scene, W, cfg)
        solution, estimates, counts, reached = reference_select(
            feas, sets, scene, W, cfg, fit=reference_gauss_newton_solve
        )
        assert res.solution == solution
        assert (res.stats.n_solutions, res.stats.n_survivors, res.stats.fallback) == counts
        assert res.stats.solver_calls == len(reached)
        assert len(res.estimates) == len(estimates)
        for est, ref in zip(res.estimates, estimates):
            assert_fit_matches(est, ref, threshold)


def free_slot_table(k):
    """The baseline's pick table: rank ``i`` takes slot ``j2`` of one list and
    ``j3`` of another, one mask bit per slot."""
    return [
        [((i, j2, j3), 1 << j2 | 1 << (k + j3)) for j2 in range(k) for j3 in range(k)]
        for i in range(k)
    ]


def free_slot_paths(k):
    """Every path of the free-slot table, in lexicographic order."""
    return sorted(
        tuple(zip(range(k), p2, p3))
        for p2 in itertools.permutations(range(k))
        for p3 in itertools.permutations(range(k))
    )


def slots_used(k, prefix):
    """The mask of the slots a path prefix uses."""
    return sum(1 << j2 | 1 << (k + j3) for _, j2, j3 in prefix)


def brute_force_lexmin(k, residual, threshold, dead=frozenset()):
    """``lexmin_select`` on the free-slot tree by listing every path.

    Paths pair target rank ``i`` with slots ``p2[i]`` and ``p3[i]`` for
    every two permutations, in lexicographic order; a path with a prefix
    whose used slots are in ``dead`` is cut, as ``live`` cuts it.  Returns
    the chosen path (None when every path is cut), the survivor count, the
    fallback flag, the tuples a search reaches (every tuple whose path
    prefix is live and passes the threshold, or is live once the fallback
    runs) and the number of uncut paths.
    """
    paths = free_slot_paths(k)

    def passes(ts):
        return all(residual[t] < threshold for t in ts)

    def alive(p, level):
        return all(slots_used(k, p[:n]) not in dead for n in range(1, level + 1))

    uncut = [p for p in paths if alive(p, k)]
    survivors = [p for p in uncut if passes(p)]
    fallback = not survivors and bool(uncut)
    pool = uncut if fallback else survivors
    best = min(pool, key=lambda p: sum(residual[t] for t in p), default=None)
    reached = {
        p[level]
        for p in paths
        for level in range(k)
        if alive(p, level + 1) and (fallback or passes(p[:level]))
    }
    return best, len(survivors), fallback, reached, len(uncut)


class TestLexminSelect:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        k=st.integers(1, 4),
        threshold=st.sampled_from((1e-12, 0.5, 8.0, 16.0)),
    )
    def test_matches_brute_force_on_free_slot_trees(self, data, k, threshold):
        # residuals on a 0.25 lattice make every total exact in any summing
        # order, so the recursion's suffix sums and the listing's sums agree
        tuples = list(itertools.product(range(k), repeat=3))
        lattice = st.integers(0, 80).map(lambda n: n / 4.0)
        values = data.draw(st.lists(lattice, min_size=len(tuples), max_size=len(tuples)))
        residual = dict(zip(tuples, values))
        calls = []

        def fit(t):
            calls.append(t)
            return LocEstimate(Point2D(0.0, 0.0), residual[t], True, 1)

        n_paths = math.factorial(k) ** 2
        res = lexmin_select(free_slot_table(k), fit, threshold, n_paths)
        best, survivors, fallback, reached, _ = brute_force_lexmin(k, residual, threshold)
        assert res.solution == best
        assert [e.residual for e in res.estimates] == [residual[t] for t in best]
        assert res.stats.n_solutions == n_paths
        assert res.stats.n_survivors == survivors
        assert res.stats.fallback is fallback
        assert len(calls) == len(set(calls)) == res.stats.solver_calls
        assert set(calls) == reached

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        k=st.integers(1, 3),
        threshold=st.sampled_from((1e-12, 8.0, 16.0)),
    )
    def test_live_cuts_children_as_brute_force_does(self, data, k, threshold):
        # live(used) rejects the nodes in a drawn set of used-slot masks: the
        # walk must neither fit past them nor count or choose a path through
        # them, and falls back only when some path avoids them all
        tuples = list(itertools.product(range(k), repeat=3))
        lattice = st.integers(0, 80).map(lambda n: n / 4.0)
        values = data.draw(st.lists(lattice, min_size=len(tuples), max_size=len(tuples)))
        residual = dict(zip(tuples, values))
        nodes = sorted(
            {slots_used(k, p[:n]) for p in free_slot_paths(k) for n in range(1, k + 1)}
        )
        dead = frozenset(data.draw(st.sets(st.sampled_from(nodes))))
        calls = []

        def fit(t):
            calls.append(t)
            return LocEstimate(Point2D(0.0, 0.0), residual[t], True, 1)

        best, survivors, fallback, reached, n_uncut = brute_force_lexmin(
            k, residual, threshold, dead
        )
        res = lexmin_select(
            free_slot_table(k), fit, threshold, n_uncut, live=lambda used: used not in dead
        )
        assert res.solution == best
        assert [e.residual for e in res.estimates] == [residual[t] for t in best or ()]
        assert res.stats.n_survivors == survivors
        assert res.stats.fallback is fallback
        assert len(calls) == len(set(calls)) == res.stats.solver_calls
        assert set(calls) == reached


class TestSelection:
    def test_picks_truth_on_quantized_sets(self):
        hits = 0
        for seed in range(10):
            scene, sets = scene_and_sets(IRS1, 4, seed=seed, cell_m=0.75)
            feas = enumerate_feasible(sets, scene, tau=1.5)
            res = select_association(feas, sets, scene, W, GN)
            truth = ground_truth_solution(scene, sets, cell_m=0.75)
            from irsloc.association import solutions_equivalent

            if res.solution is not None and solutions_equivalent(
                sets, res.solution, truth
            ):
                hits += 1
        assert hits >= 9

    def test_pruning_equals_exhaustive_choice(self):
        # the threshold only skips work: the chosen solution must equal the
        # plain argmin over total residual among all feasible solutions
        for seed in (0, 3, 8):
            scene, sets = scene_and_sets(IRS2, 3, seed=seed, cell_m=0.75)
            feas = enumerate_feasible(sets, scene, tau=1.5)
            res = select_association(feas, sets, scene, W, GN)
            if res.solution is None:
                assert not feas.solutions
                continue

            def total(sol):
                return sum(
                    gauss_newton_solve(sets, t, scene, W).residual for t in sol
                )

            best = min(sorted(feas.solutions), key=total)
            assert total(res.solution) == pytest.approx(total(best), abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        scene_args=quantized_scenes,
        closest=st.booleans(),
        threshold=st.sampled_from((1e-12, 1.0, 16.0)),
    )
    # the scenes of test_selection_matches_reference_fit's examples
    @example(scene_args=(4, 1, 7), closest=False, threshold=16.0)
    @example(scene_args=(4, 1, 21711), closest=False, threshold=16.0)
    def test_memoization_is_transparent(self, scene_args, closest, threshold):
        # the fit memo only saves work: same answer and counts as refitting
        # every tuple on every use, with one solver call per tuple reached
        scene, sets = quantized_scene_and_sets(*scene_args)
        feas = enumerate_feasible(sets, scene, tau=1.5, use_closest_irs=closest)
        cfg = GnConfig(residual_threshold=threshold)
        res = select_association(feas, sets, scene, W, cfg)
        solution, estimates, counts, reached = reference_select(feas, sets, scene, W, cfg)
        assert res.solution == solution
        assert res.estimates == estimates
        assert (res.stats.n_solutions, res.stats.n_survivors, res.stats.fallback) == counts
        assert res.stats.solver_calls == len(reached)

    @settings(max_examples=20, deadline=None)
    @given(scene_args=quantized_scenes, order_seed=st.integers(0, 2**32 - 1))
    def test_permuted_feasible_set_gives_identical_result(self, scene_args, order_seed):
        scene, sets = quantized_scene_and_sets(*scene_args)
        feas = enumerate_feasible(sets, scene, tau=1.5)
        order = np.random.default_rng(order_seed).permutation(len(feas.solutions))
        permuted = FeasibleSet(solutions=tuple(feas.solutions[i] for i in order))
        assert select_association(permuted, sets, scene, W, GN) == select_association(
            feas, sets, scene, W, GN
        )

    def test_tied_solutions_resolve_to_the_lexicographic_first(self):
        # two targets a few centimeters apart share every quantized range, so
        # solutions that swap their indices tie exactly on total residual
        scene = Scene(
            bs=BS,
            irs=(Point2D(0.0, 40.0),),
            targets=(Point2D(10.0, 20.0), Point2D(10.02, 20.03), Point2D(-30.0, 25.0)),
            true_irs=(0, 0, 0),
        )
        sets = RangeSets.from_geometry(scene, cell_m=0.75)
        feas = enumerate_feasible(sets, scene, tau=1.5)
        res = select_association(feas, sets, scene, W, GN)
        assert res.stats.n_survivors == len(feas.solutions) > 1
        assert res.solution == min(feas.solutions)
        reversed_set = FeasibleSet(solutions=feas.solutions[::-1])
        assert select_association(reversed_set, sets, scene, W, GN) == res

    def test_cache_counts_calls(self, monkeypatch):
        calls = []

        def counting_solve(sets, t, scene, w):
            calls.append(t)
            return gauss_newton_solve(sets, t, scene, w)

        monkeypatch.setattr(locate, "gauss_newton_solve", counting_solve)
        scene, sets = scene_and_sets(IRS1, 4, seed=7, cell_m=0.75)
        feas = enumerate_feasible(sets, scene, tau=1.5)
        res = select_association(feas, sets, scene, W, GN)
        uses = sum(len(sol) for sol in feas.solutions)
        # tuples recur across solutions, yet each is fit once and counted
        assert len(set(calls)) < uses
        assert len(calls) == len(set(calls)) == res.stats.solver_calls

    def test_fallback_when_everything_pruned(self):
        scene, sets = scene_and_sets(IRS1, 2, seed=8, cell_m=0.75)
        feas = enumerate_feasible(sets, scene, tau=1.5)
        tight = GnConfig(residual_threshold=1e-12)
        res = select_association(feas, sets, scene, W, tight)
        assert res.stats.fallback is True
        assert res.solution is not None

    def test_empty_feasible_set(self):
        scene, sets = scene_and_sets(IRS1, 2, seed=8, cell_m=0.75)
        from irsloc.association import FeasibleSet

        res = select_association(FeasibleSet(solutions=()), sets, scene, W, GN)
        assert res.solution is None
        assert res.estimates == ()

    def test_rejects_a_set_missing_a_solution(self):
        # dropping a solution whose every tuple recurs in another leaves a
        # pick table that still makes it, so the counts disagree
        scene, sets = quantized_scene_and_sets(4, 1, 7)
        solutions = enumerate_feasible(sets, scene, tau=1.5).solutions
        for i, sol in enumerate(solutions):
            rest = solutions[:i] + solutions[i + 1 :]
            if all(any(other[level] == t for other in rest) for level, t in enumerate(sol)):
                break
        else:
            pytest.fail("every solution holds a tuple of its own")
        with pytest.raises(ValueError, match="listed tuples make"):
            select_association(FeasibleSet(solutions=rest), sets, scene, W, GN)


class TestLocalize:
    @staticmethod
    def check_selects_from(irs, closest):
        # localize must equal selection on the set with the given filter;
        # some scene must make that set differ from the other one, so the
        # comparison can tell the two apart
        sizes_differ = False
        for seed in range(12):
            scene, sets = scene_and_sets(irs, 3, seed=seed, cell_m=0.75)
            feas = enumerate_feasible(sets, scene, 1.5, use_closest_irs=closest)
            other = enumerate_feasible(sets, scene, 1.5, use_closest_irs=not closest)
            sizes_differ |= len(feas.solutions) != len(other.solutions)
            assert localize(sets, scene, 1.5, W, GN) == select_association(
                feas, sets, scene, W, GN
            )
        assert sizes_differ

    def test_one_irs_selects_from_plain_set(self):
        self.check_selects_from(IRS1, closest=False)

    def test_several_irs_select_from_closest_filtered_set(self):
        self.check_selects_from(IRS2, closest=True)
        self.check_selects_from(DEFAULT_IRS_LAYOUTS[3], closest=True)

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(2, 6),
        r=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        threshold=st.sampled_from((1e-12, 1.0, 16.0)),
    )
    def test_matches_selection_on_the_listed_set(self, k, r, seed, threshold):
        # the pick-table engine answers as selection on the listed set does:
        # same solution, estimates, counts, fallback and solver calls
        scene = sample_targets(DEFAULT_BS, DEFAULT_IRS_LAYOUTS[r], k, 50.0, seed=seed)
        sets = RangeSets.from_geometry(scene, cell_m=0.75)
        cfg = GnConfig(residual_threshold=threshold)
        feas = enumerate_feasible(sets, scene, 1.5, use_closest_irs=r > 1)
        assert localize(sets, scene, 1.5, W, cfg) == select_association(
            feas, sets, scene, W, cfg
        )

    def test_multi_irs_localizes_quantized(self):
        scene, sets = scene_and_sets(IRS2, 4, seed=2, cell_m=0.75)
        res = localize(sets, scene, 1.5, W, GN)
        assert res.solution is not None
        order = sorted(range(4), key=lambda i: distance(scene.bs[0], scene.targets[i]))
        for rank, est in enumerate(res.estimates):
            assert distance(est.position, scene.targets[order[rank]]) < 0.8
