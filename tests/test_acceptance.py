"""Acceptance gate: one test per promised behavior, at pinned tolerances.

Each test prints a single summary line (visible with ``pytest -v -rA`` or
``-s``) and enforces its runtime budget, so a full ``pytest`` run doubles as
the reproduction script for the package's headline numbers.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from irsloc.association import (
    brute_force_solutions,
    count_unfiltered_solutions,
)
from irsloc.harness import (
    _phase1_range_sets,
    cardinality_experiment,
    default_config,
    error_probability,
    run_localization,
    topology_experiment,
    uniqueness_experiment,
)
from irsloc.locate import (
    GnConfig,
    ResidualWeights,
    _constraints,
    _residual_and_jacobian,
    gauss_newton_solve,
    residual_terms,
)
from irsloc.association import ground_truth_solution
from irsloc.ranging import RangeSets
from irsloc.scene import Point2D, distance, sample_targets
from irsloc.waveform import (
    LinkType,
    OfdmConfig,
    PathList,
    PathTap,
    build_paths,
    make_pilots,
    make_plan,
    ofdm_demodulate,
    ofdm_modulate,
    simulate_freq_rx,
)

BS = (Point2D(100.0, 0.0), Point2D(-100.0, 0.0))


def _report(line: str) -> None:
    print(f"\n[acceptance] {line}")


def test_criterion_1_hypothesis_space_counts():
    """Closed-form count equals brute-force enumeration; exact integers."""
    start = time.perf_counter()
    for k in (2, 3, 4, 5):
        assert count_unfiltered_solutions(k, 1) == math.factorial(k) ** 3
    for k in (2, 3, 4):
        brute = sum(1 for _ in brute_force_solutions(k, 1))
        assert brute == count_unfiltered_solutions(k, 1)
    wall = time.perf_counter() - start
    assert wall < 1.0
    _report(
        "criterion 1 PASS: raw solution counts (K!)^3 for K=2..5 exact, "
        f"brute force agrees for K<=4 ({wall:.2f}s < 1s)"
    )


def test_criterion_2_perfect_range_uniqueness():
    """Exact ranges, tiny tolerance: one feasible solution, correct, localized."""
    start = time.perf_counter()
    report = uniqueness_experiment(1000, seed=5)
    wall = time.perf_counter() - start
    assert report["unique_and_correct"] >= 999
    assert report["localized"] >= 999
    assert report["worst_position_error_m"] <= 1e-6
    assert wall < 120.0
    _report(
        f"criterion 2 PASS: {report['localized']}/1000 scenes uniquely "
        f"associated and localized, worst error "
        f"{report['worst_position_error_m']:.2e} m ({wall:.1f}s < 120s)"
    )


def test_criterion_3_consistency_filter_reduction():
    """Single IRS, K=7 quantized: the filter collapses (7!)^3 hypotheses."""
    start = time.perf_counter()
    cfg = default_config(1, k=7, trials=300, seed=7)
    rows = cardinality_experiment(cfg, k_values=(7,))
    wall = time.perf_counter() - start
    row = rows[0]
    assert row["unfiltered"] == math.factorial(7) ** 3
    assert row["mean_feasible"] < 200.0
    assert row["mean_reduced"] < 20.0
    assert wall < 600.0
    _report(
        f"criterion 3 PASS: K=7 single IRS, mean feasible "
        f"{row['mean_feasible']:.1f} < 200, mean after residual pruning "
        f"{row['mean_reduced']:.2f} < 20 over {row['trials']} trials "
        f"({wall:.1f}s < 600s)"
    )


def test_criterion_4_closest_irs_reduction():
    """Three IRSs, K=8: nearest-anchor filter cuts the feasible set 5x."""
    start = time.perf_counter()
    cfg = default_config(3, k=8, trials=150, seed=4)
    rows = cardinality_experiment(cfg, k_values=(8,))
    wall = time.perf_counter() - start
    row = rows[0]
    assert row["reduced_kind"] == "closest_irs"
    assert row["mean_reduced"] < row["mean_feasible"] / 5.0
    assert wall < 600.0
    _report(
        f"criterion 4 PASS: K=8 R=3, mean feasible {row['mean_feasible']:.1f} "
        f"vs closest-IRS filtered {row['mean_reduced']:.1f} "
        f"(ratio {row['mean_feasible'] / row['mean_reduced']:.1f} > 5) "
        f"({wall:.1f}s < 600s)"
    )


def test_criterion_5_localization_error_probability():
    """Quantized ranges, K=4, single IRS: sub-5% error rate, oracle no worse."""
    start = time.perf_counter()
    cfg = default_config(1, k=4, trials=1000, seed=1)
    alg = run_localization(cfg)
    oracle = run_localization(cfg, oracle=True)
    wall = time.perf_counter() - start
    p_alg = error_probability(alg, cfg.error_radius_m)
    p_oracle = error_probability(oracle, cfg.error_radius_m)
    assert p_alg < 0.05
    assert p_oracle <= p_alg + 1e-12
    assert wall < 300.0
    _report(
        f"criterion 5 PASS: error probability {p_alg:.2%} < 5% at 0.8 m, "
        f"known-association reference {p_oracle:.2%} <= algorithm "
        f"({wall:.1f}s < 300s)"
    )


def test_criterion_6_waveform_ranging_fidelity():
    """Noiseless synthesis to supports: detected bins equal modeled taps."""
    start = time.perf_counter()
    cfg = default_config(1, k=3, trials=100, seed=61, skip_phase1=False)
    cfg = replace(cfg, ofdm=replace(cfg.ofdm, noise_psd_dbm_hz=None))
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    matches = 0
    worst = 0.0
    for s in seeds:
        scene_seed, phase1_seed = s.spawn(2)
        scene = sample_targets(
            cfg.bs, cfg.irs, cfg.k, cfg.target_radius_m, scene_seed,
            cell_m=cfg.ofdm.cell_m,
        )
        sets = _phase1_range_sets(scene, cfg, phase1_seed)
        modeled = build_paths(scene, cfg.ofdm, symbol=2)
        ok = True
        for m in (0, 1):
            want_direct = {
                t.delay for t in modeled.for_bs(m) if t.link is LinkType.TARGET_ECHO
            }
            want_via = {
                t.delay
                for t in modeled.for_bs(m)
                if t.link is LinkType.TARGET_VIA_IRS
            }
            if sets.direct_bins[m] != want_direct or sets.via_bins[m] != want_via:
                ok = False
        if not ok:
            continue
        matches += 1
        exact = RangeSets.from_geometry(scene)
        for m in (0, 1):
            for got, true in zip(sets.direct[m], exact.direct[m]):
                worst = max(worst, abs(got - true))
            for got, true in zip(sets.via_irs[m], exact.via_irs[m]):
                worst = max(worst, abs(got - true))
    wall = time.perf_counter() - start
    assert matches >= 95
    assert worst <= 0.375 + 1e-9
    assert wall < 300.0
    _report(
        f"criterion 6 PASS: detected supports match modeled taps in "
        f"{matches}/100 noiseless trials, worst range error {worst:.4f} m "
        f"<= 0.375 m ({wall:.1f}s < 300s)"
    )


def test_criterion_7_numerical_oracles():
    """Frequency model vs explicit convolution; solver vs grid; Jacobian."""
    start = time.perf_counter()

    # frequency-domain receive model against time-domain convolution
    rng = np.random.default_rng(1234)
    cfg = OfdmConfig(
        n_subcarriers=256,
        subcarrier_spacing_hz=195312.5 * 8,
        cp_len=64,
        n_taps=64,
        noise_psd_dbm_hz=None,
    )
    plan = make_plan(cfg.n_subcarriers)
    n = cfg.n_subcarriers
    worst_rel = 0.0
    for _ in range(50):
        h = np.zeros(cfg.n_taps, dtype=complex)
        support = rng.choice(cfg.n_taps, size=rng.integers(1, 8), replace=False)
        h[support] = rng.standard_normal(len(support)) + 1j * rng.standard_normal(
            len(support)
        )
        pilots = make_pilots(plan, rng.integers(1 << 31))
        m = int(rng.integers(2))
        comb = np.array(plan.for_bs(m)) - 1
        grid = np.zeros(n, dtype=complex)
        grid[comb] = math.sqrt(cfg.subcarrier_power_w) * pilots[m]
        tx = ofdm_modulate(grid, cfg.cp_len)
        rx_time = np.convolve(tx, h)[: len(tx)]
        expected = ofdm_demodulate(rx_time, cfg.cp_len)[comb]
        taps = tuple(
            PathTap(delay=int(l), gain=complex(h[l]), link=LinkType.TARGET_ECHO, bs=m)
            for l in np.flatnonzero(h)
        )
        paths = PathList(symbol=1, taps=(taps, ()) if m == 0 else ((), taps))
        got = simulate_freq_rx(paths, pilots, cfg, plan).by_bs[m].rx
        rel = float(np.max(np.abs(got - expected)) / np.max(np.abs(expected)))
        worst_rel = max(worst_rel, rel)
    assert worst_rel <= 1e-9

    # damped Gauss-Newton against a 1 cm grid search on the same objective
    w = ResidualWeights()
    gn = GnConfig()
    worst_gap = 0.0
    instance = 0
    seed = 0
    while instance < 100:
        seed += 1
        scene = sample_targets(BS, ((0.0, 40.0),), 2, 50.0, seed=seed)
        sets = RangeSets.from_geometry(scene)
        truth = ground_truth_solution(scene, sets)
        order = sorted(range(2), key=lambda i: distance(scene.bs[0], scene.targets[i]))
        for rank, t in enumerate(truth):
            if instance >= 100:
                break
            instance += 1
            target = scene.targets[order[rank]]
            est = gauss_newton_solve(sets, t, scene, w)
            span = np.arange(-1.0, 1.0 + 1e-12, 0.01)
            xs = target.x + span
            ys = target.y + span
            gx, gy = np.meshgrid(xs, ys)
            obj = np.zeros_like(gx)
            for anchor, rng_m, sigma in _constraints(sets, t, scene, w):
                d = np.hypot(gx - anchor[0], gy - anchor[1])
                obj += ((rng_m - d) / sigma) ** 2
            idx = np.unravel_index(np.argmin(obj), obj.shape)
            gap = math.hypot(gx[idx] - est.position.x, gy[idx] - est.position.y)
            worst_gap = max(worst_gap, gap)
            assert est.residual <= float(obj[idx]) + 1e-9
    assert worst_gap <= 0.75  # within one range cell

    # analytic Jacobian against central differences
    scene = sample_targets(BS, ((0.0, 40.0),), 2, 50.0, seed=11)
    sets = RangeSets.from_geometry(scene)
    t = ground_truth_solution(scene, sets)[0]
    triples = _constraints(sets, t, scene, w)
    rng = np.random.default_rng(0)
    worst_jac = 0.0
    for _ in range(30):
        pos = rng.uniform(-80.0, 80.0, size=2)
        _, jac = _residual_and_jacobian(pos, triples)
        eps = 1e-6
        for d in range(2):
            step = np.zeros(2)
            step[d] = eps
            rp, _ = _residual_and_jacobian(pos + step, triples)
            rm, _ = _residual_and_jacobian(pos - step, triples)
            numeric = (rp - rm) / (2 * eps)
            rel = np.max(
                np.abs(jac[:, d] - numeric) / np.maximum(np.abs(numeric), 1.0)
            )
            worst_jac = max(worst_jac, float(rel))
    assert worst_jac <= 1e-6

    wall = time.perf_counter() - start
    _report(
        f"criterion 7 PASS: freq-vs-time model {worst_rel:.1e} rel <= 1e-9, "
        f"solver-vs-grid gap {worst_gap:.3f} m <= one cell, Jacobian "
        f"{worst_jac:.1e} rel <= 1e-6 ({wall:.1f}s)"
    )


def test_criterion_8_anchor_placement_degradation():
    """Placements violating the distinctness checks degrade accuracy."""
    start = time.perf_counter()
    cfg = default_config(2, k=4, trials=1000, seed=3)
    rows = {row["variant"]: row for row in topology_experiment(cfg)}
    wall = time.perf_counter() - start
    assert rows["c1_fail"]["c1_ok"] is False
    assert rows["c2_fail"]["c2_ok"] is False
    assert rows["c1_hold"]["c1_ok"] and rows["c1_hold"]["c2_ok"]
    assert rows["c2_hold"]["c1_ok"] and rows["c2_hold"]["c2_ok"]
    assert (
        rows["c1_fail"]["error_probability"] > rows["c1_hold"]["error_probability"]
    )
    assert (
        rows["c2_fail"]["error_probability"] > rows["c2_hold"]["error_probability"]
    )
    assert wall < 600.0
    _report(
        "criterion 8 PASS: error probability "
        f"{rows['c1_fail']['error_probability']:.2%} (bisector pair) > "
        f"{rows['c1_hold']['error_probability']:.2%} (distinct), "
        f"{rows['c2_fail']['error_probability']:.2%} (mirror pair) > "
        f"{rows['c2_hold']['error_probability']:.2%} (distinct) "
        f"over 1000 matched-seed trials each ({wall:.1f}s < 600s)"
    )
