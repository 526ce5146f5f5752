import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import reference_steering_matrix

from irsloc.ranging import (
    ChannelEstimate,
    RangeSets,
    RangingConfig,
    _matched_filter,
    build_range_sets,
    delay_to_range,
    detect_support,
    irs_echo_bins,
    lasso_solve,
    quantize_range,
    shrink,
    soft_threshold,
    weighted_lasso_solve,
)
from irsloc.harness import DEFAULT_BS, DEFAULT_IRS_LAYOUTS, default_config
from irsloc.scene import (
    Point2D,
    Scene,
    SceneSamplingError,
    distance,
    echo_lengths,
    sample_targets,
)
from irsloc.waveform import (
    BsSnapshot,
    OfdmConfig,
    build_paths,
    channel_taps,
    channel_vector,
    make_pilots,
    make_plan,
    pilot_turns,
    simulate_freq_rx,
    tap_domain_rx,
)

BS = (Point2D(100.0, 0.0), Point2D(-100.0, 0.0))


def default_scene(k=2, seed=11):
    from irsloc.scene import sample_targets

    return sample_targets(BS, ((0.0, 40.0),), k, 50.0, seed=seed)


class TestSoftThreshold:
    def test_real_examples(self):
        assert soft_threshold(3.0, 1.0) == pytest.approx(2.0)
        assert soft_threshold(-3.0, 1.0) == pytest.approx(-2.0)
        assert soft_threshold(0.5, 1.0) == 0.0

    def test_complex_keeps_phase(self):
        z = 2.0 * np.exp(1j * 0.7)
        out = soft_threshold(z, 0.5)
        assert abs(out) == pytest.approx(1.5)
        assert np.angle(out) == pytest.approx(0.7)

    def test_vectorized(self):
        z = np.array([1.0, -0.2j, 3.0 + 4.0j])
        out = soft_threshold(z, 1.0)
        np.testing.assert_allclose(np.abs(out), [0.0, 0.0, 4.0], atol=1e-12)


class TestRangingConfig:
    def test_validation(self):
        assert RangingConfig(rho=0, delta1=1) == RangingConfig(rho=0.0, delta1=1.0)
        with pytest.raises(ValueError, match="^rho must"):
            RangingConfig(rho=-1, delta1=1)
        with pytest.raises(ValueError, match="^delta1 must"):
            RangingConfig(rho=1, delta1=0)

    def test_calibrated_threshold_below_weakest_echo(self):
        cfg = OfdmConfig()
        scene = default_scene()
        rcfg = RangingConfig.calibrated(cfg, scene, coverage_radius=50.0)
        # weakest modeled echo: compound path at the far rim of coverage
        weakest = math.inf
        for b in scene.bs:
            d_bi = distance(b, scene.irs[0])
            weakest = min(
                weakest,
                math.sqrt(cfg.irs_reflect_gain) / ((d_bi + 50.0) * 50.0 * d_bi),
            )
        assert rcfg.delta1 <= 0.5 * weakest + 1e-18

    @pytest.mark.parametrize("noise_psd", [-174.0, -150.0], ids=["six_sigma", "clamped"])
    def test_calibrated_threshold_at_non_default_gains(self, noise_psd):
        cfg = OfdmConfig(bs_reflect_gain=4.0, irs_reflect_gain=0.09, noise_psd_dbm_hz=noise_psd)
        radius = 50.0
        scene = sample_targets(DEFAULT_BS, DEFAULT_IRS_LAYOUTS[3], 3, radius, seed=2)
        sigma_tap = math.sqrt(cfg.noise_var / (cfg.subcarrier_power_w * cfg.n_subcarriers / 2))
        # weakest echo over the worst covered geometry: sqrt(4.0) per target
        # bounce, sqrt(0.09) per IRS bounce, one over every leg
        weakest = math.inf
        for b in scene.bs:
            for q in scene.irs:
                d_bi = distance(b, q)
                far = d_bi + radius
                weakest = min(
                    weakest, 0.3 / d_bi**2, 2.0 / far**2, 2.0 * 0.3 / (far * radius * d_bi)
                )
        rcfg = RangingConfig.calibrated(cfg, scene, coverage_radius=radius)
        assert rcfg.delta1 == pytest.approx(min(6.0 * sigma_tap, 0.5 * weakest), rel=1e-12)

    def test_calibrated_noiseless_uses_amplitude_floor(self):
        cfg = OfdmConfig(noise_psd_dbm_hz=None)
        rcfg = RangingConfig.calibrated(cfg, default_scene(), coverage_radius=50.0)
        assert rcfg.delta1 > 0
        assert rcfg.rho == 0.0


def _prox_gradient(y, a, beta, step0, max_iters, tol):
    """ISTA with backtracking on the dense design: the reference solver.

    Makes no assumption on ``a``; the closed form in ``irsloc.ranging`` must
    agree with it wherever the comb makes ``a'a`` a scaled identity.
    """
    ah = a.conj().T
    h = np.zeros(a.shape[1], dtype=complex)
    resid = y.copy()
    smooth = 0.5 * float(np.vdot(resid, resid).real)
    objective = smooth
    # objective changes below double precision of the starting value are noise
    floor = max(objective, 1e-300) * 1e-15
    step = step0
    rel = math.inf
    it = 0
    for it in range(1, max_iters + 1):
        grad = -(ah @ resid)
        while True:
            candidate = soft_threshold(h - step * grad, step * beta)
            delta = candidate - h
            resid_new = y - a @ candidate
            smooth_new = 0.5 * float(np.vdot(resid_new, resid_new).real)
            bound = (
                smooth
                + float(np.vdot(grad, delta).real)
                + float(np.vdot(delta, delta).real) / (2.0 * step)
            )
            if smooth_new <= bound + 1e-12 * max(1.0, abs(bound)):
                break
            step *= 0.5
            if step < 1e-30:
                break
        h = candidate
        resid = resid_new
        smooth = smooth_new
        obj_new = smooth + float(np.sum(beta * np.abs(h)))
        gap = abs(objective - obj_new)
        rel = gap / max(objective, 1e-300)
        objective = obj_new
        if gap <= max(tol * objective, floor):
            return h, True, it, objective, rel
    return h, False, it, objective, rel


def _lasso_problem(seed, n_sc=64, n_taps=16, noise=0.0):
    rng = np.random.default_rng(seed)
    comb = tuple(range(1, 2 * n_sc, 2))
    a = reference_steering_matrix(comb, 2 * n_sc, n_taps)
    s = np.exp(0.5j * math.pi * rng.integers(0, 4, size=n_sc))
    a = (s[:, None] * a) * math.sqrt(2.0)
    h = np.zeros(n_taps, dtype=complex)
    h[rng.choice(n_taps, 3, replace=False)] = rng.standard_normal(
        3
    ) + 1j * rng.standard_normal(3)
    y = a @ h
    if noise:
        y = y + noise * (
            rng.standard_normal(n_sc) + 1j * rng.standard_normal(n_sc)
        )
    return y, a, h


class TestLassoOptimality:
    def test_subgradient_conditions(self):
        # at an l1-penalized least-squares optimum the gradient of the smooth
        # part must sit inside the subdifferential of rho * ||h||_1
        for seed in range(5):
            y, a, h_true = _lasso_problem(seed, noise=0.05)
            rho = 0.5
            step0 = 1.0 / np.linalg.norm(a, 2) ** 2
            h, converged, _, _, _ = _prox_gradient(
                y, a, rho * np.ones(a.shape[1]), step0, 20000, 1e-12
            )
            assert converged
            grad = a.conj().T @ (a @ h - y)
            on = np.abs(h) > 1e-8
            # active coordinates: gradient exactly cancels the penalty direction
            if np.any(on):
                np.testing.assert_allclose(
                    grad[on], -rho * h[on] / np.abs(h[on]), atol=5e-4
                )
            # inactive coordinates: gradient magnitude within the penalty
            assert np.all(np.abs(grad[~on]) <= rho + 5e-4)

    def test_noiseless_exact_recovery(self):
        y, a, h_true = _lasso_problem(3, noise=0.0)
        step0 = 1.0 / np.linalg.norm(a, 2) ** 2
        h, _, _, _, _ = _prox_gradient(y, a, np.zeros(a.shape[1]), step0, 20000, 1e-13)
        np.testing.assert_allclose(h, h_true, atol=1e-6)


def _snapshot(n, first, n_taps, seed, n_active, noise, power=2.0):
    """Random sparse channel seen through one stride-2 comb with QPSK pilots."""
    rng = np.random.default_rng(seed)
    comb = tuple(range(first, first + n, 2))
    s = np.exp(0.5j * math.pi * rng.integers(0, 4, size=len(comb)))
    h = np.zeros(n_taps, dtype=complex)
    h[rng.choice(n_taps, n_active, replace=False)] = rng.standard_normal(
        n_active
    ) + 1j * rng.standard_normal(n_active)
    g = reference_steering_matrix(comb, n, n_taps)
    y = math.sqrt(power) * s * (g @ h)
    y = y + noise * (rng.standard_normal(len(comb)) + 1j * rng.standard_normal(len(comb)))
    cfg = OfdmConfig(n_subcarriers=n, cp_len=n_taps, n_taps=n_taps)
    snap = BsSnapshot(subcarriers=comb, rx=y, pilots=s, tx_power_w=power)
    return snap, cfg


def _oracle(snap, cfg, beta):
    """Reference estimate and the scale of the unthresholded taps."""
    g = reference_steering_matrix(snap.subcarriers, cfg.n_subcarriers, cfg.n_taps)
    a = math.sqrt(snap.tx_power_w) * snap.pilots[:, None] * g
    c = snap.tx_power_w * len(snap.subcarriers)
    h, converged, _, _, _ = _prox_gradient(snap.rx, a, beta, 1.0 / c, 20000, 1e-12)
    assert converged
    return h, float(np.max(np.abs(a.conj().T @ snap.rx))) / c


class TestClosedForm:
    @settings(max_examples=60, deadline=None)
    @given(
        log2n=st.integers(3, 7),
        first=st.sampled_from((1, 2)),
        taps_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        n_active=st.integers(0, 4),
        noise=st.floats(0.0, 0.5),
        rho_frac=st.floats(0.0, 0.8),
        weighted=st.booleans(),
        delta_frac=st.floats(0.05, 0.95),
    )
    # a near-zero optimum: the oracle's stop rule needs its absolute floor
    @example(
        log2n=3, first=1, taps_frac=1.0, seed=0, n_active=1, noise=1e-6,
        rho_frac=0.5, weighted=True, delta_frac=0.5,
    )
    # a subnormal optimum: the relative bound must not underflow to zero
    @example(
        log2n=3, first=1, taps_frac=1.0, seed=3, n_active=0, noise=5e-324,
        rho_frac=0.0, weighted=False, delta_frac=0.5,
    )
    def test_matches_ista_oracle(
        self, log2n, first, taps_frac, seed, n_active, noise, rho_frac, weighted, delta_frac,
    ):
        n = 2**log2n
        n_taps = max(1, round(taps_frac * (n // 2)))
        snap, cfg = _snapshot(n, first, n_taps, seed, min(n_active, n_taps), noise)
        matched = np.abs(
            reference_steering_matrix(snap.subcarriers, n, n_taps).conj().T
            @ (snap.pilots.conj() * snap.rx)
        )
        rho = rho_frac * math.sqrt(snap.tx_power_w) * float(np.max(matched))
        rcfg = RangingConfig(rho=rho, delta1=1.0)
        if weighted:
            rng = np.random.default_rng(seed + 1)
            irs_bins = set(rng.integers(0, n_taps + 4, size=2).tolist())
            target_bins = set(rng.integers(0, n_taps + 4, size=3).tolist())
            est = weighted_lasso_solve(snap, irs_bins, target_bins, cfg, rcfg)
        else:
            est = lasso_solve(snap, cfg, rcfg)
        ref, scale = _oracle(snap, cfg, np.full(n_taps, rcfg.rho))
        # below the smallest normal double the taps carry fewer than 53 bits,
        # so relative bounds are taken at that floor instead of underflowing
        tiny = np.finfo(float).tiny
        assert np.max(np.abs(est.h - ref)) <= 1e-9 * max(scale, tiny)
        assert est.n_iters == 1
        if np.max(np.abs(ref)) >= tiny:
            delta = delta_frac * float(np.max(np.abs(ref)))
            assume(np.all(np.abs(np.abs(ref) - delta) > 1e-6 * delta))
            assert detect_support(est, delta) == {
                int(l) for l in np.nonzero(np.abs(ref) >= delta)[0]
            }

    def test_rejects_non_unit_modulus_pilots(self):
        snap, cfg = _snapshot(32, 1, 8, seed=2, n_active=2, noise=0.0)
        snap.pilots = 1.5 * snap.pilots
        rcfg = RangingConfig(rho=0.1, delta1=1.0)
        with pytest.raises(ValueError, match="unit-modulus"):
            lasso_solve(snap, cfg, rcfg)
        with pytest.raises(ValueError, match="unit-modulus"):
            weighted_lasso_solve(snap, {1}, {2}, cfg, rcfg)

    @pytest.mark.parametrize(
        "subcarriers",
        [
            tuple(range(1, 17)),  # contiguous half band
            tuple(range(3, 35, 2)),  # stride 2 but shifted past the band
            tuple(range(1, 31, 2)),  # one bin short of N/2
            (),
        ],
    )
    def test_rejects_non_comb_subcarriers(self, subcarriers):
        snap, cfg = _snapshot(32, 1, 8, seed=2, n_active=2, noise=0.0)
        snap.subcarriers = subcarriers
        rcfg = RangingConfig(rho=0.1, delta1=1.0)
        with pytest.raises(ValueError, match="interleaved comb"):
            lasso_solve(snap, cfg, rcfg)


def _tap_domain_cases():
    """name: (ofdm config, scenes, coverage radius), on the stock plan and N = 64."""
    stock = default_config(3)
    scenes = [
        sample_targets(stock.bs, stock.irs, 4, stock.target_radius_m, s, cell_m=stock.ofdm.cell_m)
        for s in (3, 8)
    ]
    # a desk-sized layout whose compound echoes fit 32 taps of a 400 MHz grid
    small = OfdmConfig(n_subcarriers=64, subcarrier_spacing_hz=6.25e6, cp_len=32, n_taps=32)
    desk = Scene(
        bs=(Point2D(8.0, 0.0), Point2D(-8.0, 0.0)),
        irs=(Point2D(0.0, 6.0),),
        targets=(Point2D(1.0, 6.0), Point2D(-1.5, 5.0)),
        true_irs=(0, 0),
    )
    return {"stock": (stock.ofdm, scenes, stock.target_radius_m), "n64": (small, [desk], 5.0)}


TAP_DOMAIN_CASES = _tap_domain_cases()


class TestTapDomain:
    """``tap_domain_rx`` is the matched filter of ``simulate_freq_rx``'s samples."""

    @pytest.mark.parametrize("noise_psd", [-174.0, -110.0, None], ids=["stock", "loud", "off"])
    @pytest.mark.parametrize("case", TAP_DOMAIN_CASES)
    def test_matches_matched_filter_of_synthesis(self, case, noise_psd):
        base, scenes, radius = TAP_DOMAIN_CASES[case]
        cfg = replace(base, noise_psd_dbm_hz=noise_psd)
        plan = make_plan(cfg.n_subcarriers)
        for i, scene in enumerate(scenes):
            rcfg = RangingConfig.calibrated(cfg, scene, radius)
            pilots = make_pilots(plan, 40 + i)
            turns = pilot_turns(cfg.n_subcarriers, 40 + i)
            known = irs_echo_bins(scene, cfg)
            noise_seeds = np.random.SeedSequence(i).spawn(2)
            fast = tap_domain_rx(channel_taps(scene, cfg, 7 + i), turns, cfg, noise_seeds)
            assert fast.shape == (2, 2, cfg.n_taps)
            first_support = {}
            for symbol in (1, 2):
                paths = build_paths(scene, cfg, symbol, phase_seed=7 + i)
                snap = simulate_freq_rx(paths, pilots, cfg, plan, seed=noise_seeds[symbol - 1])
                for m in (0, 1):
                    got = fast[symbol - 1, m]
                    ref = _matched_filter(snap.by_bs[m], cfg)
                    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
                    if symbol == 1:
                        est_ref = lasso_solve(snap.by_bs[m], cfg, rcfg)
                        first_support[m] = detect_support(est_ref, rcfg.delta1)
                    else:
                        est_ref = weighted_lasso_solve(
                            snap.by_bs[m], known[m], first_support[m], cfg, rcfg
                        )
                    est = shrink(got, rcfg.rho, cfg)
                    support = detect_support(est, rcfg.delta1)
                    assert support == detect_support(est_ref, rcfg.delta1)
                    assert support, "every case has echoes to detect"

    @pytest.mark.parametrize("noise_psd", [-174.0, -110.0, None], ids=["stock", "loud", "off"])
    @pytest.mark.parametrize("case", TAP_DOMAIN_CASES)
    def test_known_bins_cannot_change_the_range_sets(self, case, noise_psd):
        # a lighter penalty on each BS's anchor and first-symbol bins, as the
        # second solve once used, moves only bins build_range_sets drops
        base, scenes, radius = TAP_DOMAIN_CASES[case]
        cfg = replace(base, noise_psd_dbm_hz=noise_psd)
        plan = make_plan(cfg.n_subcarriers)
        rng = np.random.default_rng(5)
        for i, scene in enumerate(scenes):
            rcfg = RangingConfig.calibrated(cfg, scene, radius)
            pilots = make_pilots(plan, 40 + i)
            known = irs_echo_bins(scene, cfg)
            noise_seeds = np.random.SeedSequence(i).spawn(2)
            first, second = (
                simulate_freq_rx(build_paths(scene, cfg, symbol, 7 + i), pilots, cfg, plan, seed)
                for symbol, seed in zip((1, 2), noise_seeds)
            )
            est1 = tuple(lasso_solve(first.by_bs[m], cfg, rcfg) for m in (0, 1))
            uniform, weighted = [], []
            for m in (0, 1):
                snap = second.by_bs[m]
                favored = known[m] | detect_support(est1[m], rcfg.delta1)
                beta = np.full(cfg.n_taps, rcfg.rho)
                beta[[l for l in favored if l < cfg.n_taps]] = rcfg.rho / 10.0
                c = snap.tx_power_w * (cfg.n_subcarriers // 2)
                h = soft_threshold(_matched_filter(snap, cfg), beta / c)
                weighted.append(ChannelEstimate(h=h, n_iters=1))
                uniform.append(lasso_solve(snap, cfg, rcfg))
                # negative and out-of-window bins included
                irs_bins = set(rng.integers(-4, cfg.n_taps + 4, size=3).tolist())
                target_bins = set(rng.integers(-4, cfg.n_taps + 4, size=4).tolist())
                got = weighted_lasso_solve(snap, irs_bins, target_bins, cfg, rcfg).h
                assert np.array_equal(got, uniform[m].h)
            want = build_range_sets(est1, tuple(uniform), scene, cfg, rcfg)
            assert build_range_sets(est1, tuple(weighted), scene, cfg, rcfg) == want
            assert sum(want.counts()) > 0

    def test_pilots_for_another_n_raise(self):
        cfg, scenes, _ = TAP_DOMAIN_CASES["n64"]
        taps = channel_taps(scenes[0], cfg, 0)
        with pytest.raises(ValueError, match="pilots"):
            tap_domain_rx(taps, pilot_turns(128, 0), cfg, (1, 2))


class TestDetection:
    def test_detect_support(self):
        est = ChannelEstimate(h=np.array([0.0, 1e-4, 0.02, 0.0, 0.5j]), n_iters=1)
        assert detect_support(est, 0.01) == {2, 4}
        assert detect_support(est, 0.6) == set()
        with pytest.raises(ValueError):
            detect_support(est, 0.0)

    def test_delay_to_range_cell_centers(self):
        cfg = OfdmConfig()
        assert delay_to_range(30, cfg) == pytest.approx(22.875)
        assert delay_to_range(0, cfg) == pytest.approx(0.375)

    def test_irs_echo_bins(self):
        cfg = OfdmConfig()
        scene = default_scene()
        bins1, bins2 = irs_echo_bins(scene, cfg)
        d = distance(scene.bs[0], scene.irs[0])  # sqrt(100^2 + 40^2)
        assert bins1 == frozenset({math.floor(2 * d / 0.75)})
        assert bins1 == frozenset({287})
        assert bins2 == bins1  # symmetric layout


class TestRangeSets:
    def test_sorted_invariant(self):
        with pytest.raises(ValueError):
            RangeSets(direct=((2.0, 1.0), ()), via_irs=((), ()))

    def test_counts_and_balance(self):
        sets = RangeSets(
            direct=((1.0, 2.0), (1.5, 2.5)),
            via_irs=((3.0, 4.0), (3.5, 4.5)),
        )
        assert sets.counts() == (2, 2, 2, 2)
        assert sets.balanced(2)
        assert not sets.balanced(3)

    def test_from_geometry_exact(self):
        scene = default_scene(k=2)
        sets = RangeSets.from_geometry(scene)
        for m, b in enumerate(scene.bs):
            expected = sorted(2.0 * distance(b, t) for t in scene.targets)
            assert sets.direct[m] == pytest.approx(tuple(expected))

    def test_from_geometry_quantized_error_bound(self):
        scene = default_scene(k=3, seed=4)
        sets = RangeSets.from_geometry(scene, cell_m=0.75)
        exact = RangeSets.from_geometry(scene)
        for m in (0, 1):
            for q, e in zip(sets.direct[m], exact.direct[m]):
                assert abs(q - e) <= 0.375 + 1e-12
            for q, e in zip(sets.via_irs[m], exact.via_irs[m]):
                assert abs(q - e) <= 0.375 + 1e-12
            # quantized values sit at cell centers
            for q in sets.direct[m] + sets.via_irs[m]:
                assert (q / 0.75) % 1.0 == pytest.approx(0.5)


class TestFromGeometry:
    @settings(max_examples=80, deadline=None)
    @given(
        r=st.integers(1, 3),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        cell_m=st.sampled_from((None, 0.75)),
    )
    def test_rebuilding_through_the_constructor_gives_equal_sets(self, r, k, seed, cell_m):
        try:
            scene = sample_targets(
                DEFAULT_BS, DEFAULT_IRS_LAYOUTS[r], k, 50.0, seed=seed, cell_m=cell_m
            )
        except SceneSamplingError:
            assume(False)
        sets = RangeSets.from_geometry(scene, cell_m=cell_m)
        rebuilt = RangeSets(direct=sets.direct, via_irs=sets.via_irs)
        assert rebuilt == sets and repr(rebuilt) == repr(sets)
        assert sets.balanced(k)

    @settings(max_examples=80, deadline=None)
    @given(
        r=st.integers(1, 3),
        k=st.integers(1, 6),
        cell_m=st.sampled_from((None, 0.75, 0.3)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(r=3, k=6, cell_m=0.3, seed=0)
    @example(r=2, k=4, cell_m=None, seed=0)
    def test_equals_per_target_helpers_bit_for_bit(self, r, k, cell_m, seed):
        try:
            scene = sample_targets(
                DEFAULT_BS, DEFAULT_IRS_LAYOUTS[r], k, 50.0, seed=seed, cell_m=cell_m
            )
        except SceneSamplingError:
            assume(False)
        sets = RangeSets.from_geometry(scene, cell_m=cell_m)
        for m, bs in enumerate(scene.bs):
            echoes = [
                echo_lengths(bs, scene.irs[g], t) for t, g in zip(scene.targets, scene.true_irs)
            ]
            for i, got in enumerate((sets.direct[m], sets.via_irs[m])):
                assert got == tuple(sorted(quantize_range(e[i], cell_m) for e in echoes))


class TestEndToEndRanging:
    def build(self, scene, cfg, seed=0):
        plan = make_plan(cfg.n_subcarriers)
        pilots = make_pilots(plan, seed)
        rcfg = RangingConfig.calibrated(cfg, scene, coverage_radius=50.0)
        first = build_paths(scene, cfg, symbol=1, phase_seed=seed)
        second = build_paths(scene, cfg, symbol=2, phase_seed=seed)
        rx1 = simulate_freq_rx(first, pilots, cfg, plan, seed=seed + 1)
        rx2 = simulate_freq_rx(second, pilots, cfg, plan, seed=seed + 2)
        est1 = tuple(lasso_solve(rx1.by_bs[m], cfg, rcfg) for m in (0, 1))
        known = irs_echo_bins(scene, cfg)
        est2 = tuple(
            weighted_lasso_solve(
                rx2.by_bs[m],
                known[m],
                detect_support(est1[m], rcfg.delta1),
                cfg,
                rcfg,
            )
            for m in (0, 1)
        )
        return build_range_sets(est1, est2, scene, cfg, rcfg), first, second

    def test_noiseless_supports_match_geometry(self):
        cfg = OfdmConfig(noise_psd_dbm_hz=None)
        scene = default_scene(k=2, seed=21)
        sets, first, second = self.build(scene, cfg)
        truth = RangeSets.from_geometry(scene, cell_m=cfg.cell_m)
        assert sets.direct == truth.direct
        assert sets.via_irs == truth.via_irs

    def test_set_difference_masks_known_bins(self):
        cfg = OfdmConfig(noise_psd_dbm_hz=None)
        scene = default_scene(k=2, seed=21)
        sets, first, second = self.build(scene, cfg)
        known = irs_echo_bins(scene, cfg)
        for m in (0, 1):
            assert not (sets.via_bins[m] & sets.direct_bins[m])
            assert not (sets.via_bins[m] & known[m])

    def test_range_error_within_half_cell(self):
        cfg = OfdmConfig(noise_psd_dbm_hz=None)
        scene = default_scene(k=2, seed=33)
        sets, _, _ = self.build(scene, cfg)
        exact = RangeSets.from_geometry(scene)
        for m in (0, 1):
            for got, true in zip(sets.direct[m], exact.direct[m]):
                assert abs(got - true) <= 0.375 + 1e-9
            for got, true in zip(sets.via_irs[m], exact.via_irs[m]):
                assert abs(got - true) <= 0.375 + 1e-9
