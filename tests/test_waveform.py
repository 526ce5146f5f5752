import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import reference_steering_matrix

from irsloc import harness, waveform
from irsloc.harness import default_config, run_trial, topology_experiment
from irsloc.scene import Point2D, Scene, delay_cell, distance, sample_targets
from irsloc.waveform import (
    DelayWindowError,
    LinkType,
    OfdmConfig,
    PathList,
    PathTap,
    SubcarrierPlan,
    _path_phase,
    build_paths,
    channel_taps,
    channel_vector,
    dbm_to_watts,
    make_pilots,
    make_plan,
    ofdm_demodulate,
    ofdm_modulate,
    path_phases,
    pilot_turns,
    simulate_freq_rx,
    steering_matrix,
)

BS = (Point2D(100.0, 0.0), Point2D(-100.0, 0.0))


def small_cfg(**kw):
    defaults = dict(
        n_subcarriers=256,
        subcarrier_spacing_hz=195312.5 * 8,
        cp_len=64,
        n_taps=64,
        noise_psd_dbm_hz=None,
    )
    defaults.update(kw)
    return OfdmConfig(**defaults)


def one_target_scene():
    return Scene(
        bs=BS,
        irs=(Point2D(0.0, 40.0),),
        targets=(Point2D(5.0, 30.0),),
        true_irs=(0,),
    )


# desk-sized layout whose longest echo fits the 64-tap small_cfg window
SMALL_BS = (Point2D(8.0, 0.0), Point2D(-8.0, 0.0))


def small_scene(target=(1.0, 6.0), irs=(0.0, 8.0)):
    return Scene(
        bs=SMALL_BS, irs=(Point2D(*irs),), targets=(Point2D(*target),), true_irs=(0,)
    )


class TestConfig:
    def test_derived_quantities(self):
        cfg = OfdmConfig()
        assert cfg.bandwidth_hz == pytest.approx(400e6)
        assert cfg.cell_m == pytest.approx(0.75)
        assert cfg.tx_power_w == pytest.approx(dbm_to_watts(39.0))
        assert cfg.subcarrier_power_w == pytest.approx(cfg.tx_power_w / 1024)
        # -174 dBm/Hz over one 195.3125 kHz subcarrier
        assert cfg.noise_var == pytest.approx(
            dbm_to_watts(-174.0) * 195312.5, rel=1e-12
        )

    def test_noise_disabled(self):
        assert OfdmConfig(noise_psd_dbm_hz=None).noise_var == 0.0

    def test_invariants(self):
        with pytest.raises(ValueError):
            OfdmConfig(n_subcarriers=3)
        with pytest.raises(ValueError):
            OfdmConfig(cp_len=100, n_taps=512)
        with pytest.raises(ValueError):
            OfdmConfig(n_taps=2048)  # aliases on the half-length comb
        OfdmConfig(cp_len=640, n_taps=640)  # widened window still legal

    @pytest.mark.parametrize(
        "key, value",
        [
            ("tx_power_dbm", 10000.0),  # 10 ** 1000 overflows
            ("tx_power_dbm", -10000.0),  # the power underflows to 0
            ("noise_psd_dbm_hz", 10000.0),
            ("noise_psd_dbm_hz", -10000.0),
            ("subcarrier_spacing_hz", 1e300),  # the fit's weights 1/sigma**2 overflow
            ("n_subcarriers", 2**1100),  # too large for a float bandwidth
        ],
        ids=repr,
    )
    def test_link_budget_must_be_finite_and_positive(self, key, value):
        with pytest.raises(ValueError, match=key):
            OfdmConfig(**{key: value})


class TestPlan:
    def test_interleaving(self):
        plan = make_plan(8)
        assert plan.bs1 == (1, 3, 5, 7)
        assert plan.bs2 == (2, 4, 6, 8)
        assert plan.for_bs(0) == plan.bs1

    def test_minimal_and_invalid(self):
        plan = make_plan(2)
        assert plan.bs1 == (1,) and plan.bs2 == (2,)
        with pytest.raises(ValueError):
            make_plan(5)

    @pytest.mark.parametrize(
        "bs1, bs2",
        [
            pytest.param((1, 3, 5), (2, 4), id="odd_n"),
            pytest.param((), (), id="empty"),
            pytest.param(make_plan(8).bs2, make_plan(8).bs1, id="swapped"),
            pytest.param((1, 2, 5, 6), (3, 4, 7, 8), id="shift_two"),
            pytest.param((3, 1, 5, 7), (2, 4, 6, 8), id="permuted"),
            pytest.param((1, 3, 5), (2, 4, 6, 7, 8), id="unequal_combs"),
        ],
    )
    def test_rejects_every_other_layout(self, bs1, bs2):
        with pytest.raises(ValueError, match="odd and even subcarriers"):
            SubcarrierPlan(bs1=bs1, bs2=bs2)


class TestPaths:
    def test_tap_index_example(self):
        # 11.4375 m at 400 MHz: 11.4375 / 0.75 = 15.25 -> floor 15 for one way,
        # 30 for the round trip
        cfg = OfdmConfig()
        assert delay_cell(2 * 11.4375, cfg.cell_m) == 30
        assert delay_cell(0.0, cfg.cell_m) == 0
        assert delay_cell(0.7499, cfg.cell_m) == 0
        assert delay_cell(0.75, cfg.cell_m) == 1

    def test_first_symbol_has_no_irs_paths(self):
        scene = one_target_scene()
        paths = build_paths(scene, OfdmConfig(), symbol=1)
        kinds = {tap.link for m in (0, 1) for tap in paths.for_bs(m)}
        assert kinds == {LinkType.TARGET_ECHO}
        assert all(len(paths.for_bs(m)) == 1 for m in (0, 1))

    def test_second_symbol_adds_irs_and_compound(self):
        scene = one_target_scene()
        paths = build_paths(scene, OfdmConfig(), symbol=2)
        for m in (0, 1):
            kinds = sorted(tap.link.value for tap in paths.for_bs(m))
            assert kinds == ["irs_echo", "target_echo", "target_via_irs"]

    def test_delays_match_geometry(self):
        scene = one_target_scene()
        cfg = OfdmConfig()
        paths = build_paths(scene, cfg, symbol=2)
        t, q = scene.targets[0], scene.irs[0]
        for m, b in enumerate(scene.bs):
            by_kind = {tap.link: tap for tap in paths.for_bs(m)}
            d_bt, d_it, d_bi = distance(b, t), distance(q, t), distance(b, q)
            assert by_kind[LinkType.TARGET_ECHO].delay == delay_cell(2 * d_bt, cfg.cell_m)
            assert by_kind[LinkType.IRS_ECHO].delay == delay_cell(2 * d_bi, cfg.cell_m)
            assert by_kind[LinkType.TARGET_VIA_IRS].delay == delay_cell(
                d_bt + d_it + d_bi, cfg.cell_m
            )

    @pytest.mark.parametrize("n_irs", [1, 2, 3])
    def test_sampled_scenes_give_each_echo_its_own_tap(self, n_irs):
        # the sampler's distinct-cell promise, read through the taps synthesis
        # emits; balanced range lists rely on it
        for k in range(2, 7):
            cfg = default_config(n_irs, k=k)
            for seed in (0, 1, 7, 2029):
                scene = sample_targets(
                    cfg.bs, cfg.irs, k, cfg.target_radius_m, seed, cell_m=cfg.ofdm.cell_m
                )
                paths = build_paths(scene, cfg.ofdm, symbol=2)
                for m in (0, 1):
                    delays = [tap.delay for tap in paths.for_bs(m)]
                    assert len(delays) == 2 * k + n_irs
                    assert len(set(delays)) == len(delays)

    def test_gain_model(self):
        scene = one_target_scene()
        cfg = OfdmConfig()
        paths = build_paths(scene, cfg, symbol=2)
        t, q = scene.targets[0], scene.irs[0]
        b = scene.bs[0]
        by_kind = {tap.link: tap for tap in paths.for_bs(0)}
        d_bt, d_it, d_bi = distance(b, t), distance(q, t), distance(b, q)
        assert abs(by_kind[LinkType.TARGET_ECHO].gain) == pytest.approx(1.0 / d_bt**2)
        assert abs(by_kind[LinkType.IRS_ECHO].gain) == pytest.approx(
            math.sqrt(cfg.irs_reflect_gain) / d_bi**2
        )
        assert abs(by_kind[LinkType.TARGET_VIA_IRS].gain) == pytest.approx(
            math.sqrt(cfg.irs_reflect_gain) / (d_bt * d_it * d_bi)
        )

    def test_link_budget_at_non_default_gains(self):
        # sqrt(4.0) per target bounce, sqrt(0.09) per IRS bounce, one over
        # every leg; the static BS-IRS-BS echo has no target bounce
        stock = default_config(2, k=3)
        cfg = replace(stock.ofdm, bs_reflect_gain=4.0, irs_reflect_gain=0.09)
        scene = sample_targets(stock.bs, stock.irs, 3, 50.0, 5, cell_m=cfg.cell_m)
        paths = build_paths(scene, cfg, symbol=2)
        for m, b in enumerate(scene.bs):
            want = {}
            for q in scene.irs:
                d_bi = distance(b, q)
                want[delay_cell(2 * d_bi, cfg.cell_m)] = (LinkType.IRS_ECHO, 0.3 / d_bi**2)
            for t, r in zip(scene.targets, scene.true_irs):
                q = scene.irs[r]
                d_bt, d_it, d_bi = distance(b, t), distance(q, t), distance(b, q)
                want[delay_cell(2 * d_bt, cfg.cell_m)] = (LinkType.TARGET_ECHO, 2.0 / d_bt**2)
                want[delay_cell(d_bt + d_it + d_bi, cfg.cell_m)] = (
                    LinkType.TARGET_VIA_IRS,
                    2.0 * 0.3 / (d_bt * d_it * d_bi),
                )
            taps = paths.for_bs(m)
            assert len(taps) == len(want) == 2 * 3 + 2
            for tap in taps:
                link, amp = want[tap.delay]
                assert tap.link is link
                assert abs(tap.gain) == pytest.approx(amp, rel=1e-12)

    def test_phases_stable_across_symbols(self):
        scene = one_target_scene()
        cfg = OfdmConfig()
        p1 = build_paths(scene, cfg, symbol=1, phase_seed=5)
        p2 = build_paths(scene, cfg, symbol=2, phase_seed=5)
        tap1 = p1.for_bs(0)[0]
        tap2 = next(
            t for t in p2.for_bs(0) if t.link is LinkType.TARGET_ECHO
        )
        assert tap1.gain == tap2.gain

    def test_window_overflow_raises(self):
        scene = one_target_scene()
        with pytest.raises(DelayWindowError):
            build_paths(scene, small_cfg(n_taps=32, cp_len=32), symbol=2)

    def test_symbol_must_be_positive(self):
        with pytest.raises(ValueError):
            build_paths(one_target_scene(), OfdmConfig(), symbol=0)


KEY_WORDS = st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1), st.integers(2**32, 2**80))


class TestPathPhases:
    @settings(max_examples=200, deadline=None)
    @given(
        phase_seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**80)),
        keys=st.lists(st.tuples(KEY_WORDS, KEY_WORDS, KEY_WORDS), max_size=30),
    )
    @example(phase_seed=0, keys=[(0, 1, 0), (1, 3, 2**32 - 1)])
    @example(phase_seed=2**32 - 1, keys=[(0, 0, 0), (2**32 - 1,) * 3])
    @example(phase_seed=2**32 + 5, keys=[(1, 2, 2**33 + 1), (1, 2, 1)])  # masked to 5 and 1
    def test_equals_one_generator_per_path(self, phase_seed, keys):
        assert path_phases(phase_seed, keys) == [_path_phase(phase_seed, *k) for k in keys]


def _channel_taps_cases():
    """name: (ofdm config, scenes): the three stock layouts at K=4 and N = 64."""
    cases = {}
    for n_irs in (1, 2, 3):
        cfg = default_config(n_irs)
        cases[f"r{n_irs}"] = (
            cfg.ofdm,
            [
                sample_targets(cfg.bs, cfg.irs, 4, cfg.target_radius_m, s, cell_m=cfg.ofdm.cell_m)
                for s in (3, 8, 2029)
            ],
        )
    # desk-sized layouts whose compound echoes fit 32 taps of a 400 MHz grid
    small = OfdmConfig(n_subcarriers=64, subcarrier_spacing_hz=6.25e6, cp_len=32, n_taps=32)
    desk = [
        Scene(bs=SMALL_BS, irs=(Point2D(0.0, 6.0),), targets=targets, true_irs=(0,) * len(targets))
        for targets in ((Point2D(1.0, 6.0), Point2D(-1.5, 5.0)), (Point2D(0.5, 5.5),))
    ]
    cases["n64"] = (small, desk)
    return cases


CHANNEL_TAPS_CASES = _channel_taps_cases()


class TestChannelTaps:
    """``channel_taps`` is the tap vector of ``build_paths``' list, bit for bit."""

    @pytest.mark.parametrize("symbol", [1, 2])
    @pytest.mark.parametrize("case", CHANNEL_TAPS_CASES)
    def test_equals_channel_vector_of_build_paths(self, case, symbol):
        cfg, scenes = CHANNEL_TAPS_CASES[case]
        for scene in scenes:
            for phase_seed in (0, 11, 2**32 + 11):
                taps = channel_taps(scene, cfg, phase_seed)
                paths = build_paths(scene, cfg, symbol, phase_seed)
                for m in (0, 1):
                    want = channel_vector(paths.for_bs(m), cfg.n_taps)
                    np.testing.assert_array_equal(taps[symbol - 1, m], want)

    @pytest.mark.parametrize("case", CHANNEL_TAPS_CASES)
    def test_window_overflow_raises_where_build_paths_does(self, case):
        cfg, scenes = CHANNEL_TAPS_CASES[case]
        for scene in scenes:
            paths = build_paths(scene, cfg, symbol=2)
            last = max(tap.delay for m in (0, 1) for tap in paths.for_bs(m))
            channel_taps(scene, replace(cfg, n_taps=last + 1), 0)
            for n_taps in (last, last // 2):
                small = replace(cfg, n_taps=n_taps)
                with pytest.raises(DelayWindowError):
                    build_paths(scene, small, symbol=2)
                with pytest.raises(DelayWindowError):
                    channel_taps(scene, small, 0)

    # experiments build tap arrays and never a per-path generator or tap list
    @pytest.fixture
    def no_tap_lists(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the per-path reference ran")

        monkeypatch.setattr(waveform, "_path_phase", refuse)
        for module in (waveform, harness):
            monkeypatch.setattr(module, "build_paths", refuse, raising=False)

    def test_one_waveform_trial_builds_no_tap_list(self, no_tap_lists):
        cfg = default_config(3, k=4, trials=1, seed=1, skip_phase1=False)
        outcome = run_trial(cfg, 0, np.random.SeedSequence(1).spawn(1)[0])
        assert outcome.failure is None

    def test_topology_experiment_builds_no_tap_list(self, no_tap_lists):
        topology_experiment(default_config(1, k=2, trials=2, skip_phase1=False))


class TestChannelVector:
    def test_colliding_taps_add(self):
        scene = Scene(
            bs=BS,
            irs=(Point2D(0.0, 40.0),),
            targets=(Point2D(5.0, 30.0),),
            true_irs=(0,),
        )
        paths = build_paths(scene, OfdmConfig(), symbol=2)
        taps = paths.for_bs(0)
        h = channel_vector(taps, 512)
        expected = np.zeros(512, dtype=complex)
        for tap in taps:
            expected[tap.delay] += tap.gain
        np.testing.assert_array_equal(h, expected)

    def test_out_of_window_rejected(self):
        scene = one_target_scene()
        paths = build_paths(scene, OfdmConfig(), symbol=1)
        with pytest.raises(DelayWindowError):
            channel_vector(paths.for_bs(0), 8)


class TestOfdm:
    def test_modulate_demodulate_round_trip(self):
        rng = np.random.default_rng(0)
        symbols = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        rx = ofdm_demodulate(ofdm_modulate(symbols, 16), 16)
        np.testing.assert_allclose(rx, symbols, atol=1e-12)

    def test_unitary_norm(self):
        symbols = np.ones(32, dtype=complex)
        body = ofdm_modulate(symbols, 0)
        assert np.linalg.norm(body) == pytest.approx(np.linalg.norm(symbols))

    def test_bad_args(self):
        with pytest.raises(ValueError):
            ofdm_modulate(np.ones(8), 9)
        with pytest.raises(ValueError):
            ofdm_demodulate(np.ones(4), 4)


class TestSteering:
    def test_entries(self):
        g = steering_matrix(8, 4)
        # rows are BS 1's subcarriers 1, 3, 5, 7; subcarrier 1 (bin 0) is all ones
        assert g.shape == (4, 4)
        np.testing.assert_allclose(g[0], np.ones(4))
        expected = np.exp(-2j * np.pi * 2 * np.arange(4) / 8)
        np.testing.assert_allclose(g[1], expected)

    def test_read_only_and_cached(self):
        g1 = steering_matrix(16, 8)
        g2 = steering_matrix(16, 8)
        assert g1 is g2
        with pytest.raises(ValueError):
            g1[0, 0] = 0.0

    def test_comb_orthogonality(self):
        # on an interleaved comb of N/2 carriers, columns of the steering
        # matrix stay orthogonal out to N/2 taps
        n = 64
        g = steering_matrix(n, n // 2)
        gram = g.conj().T @ g
        np.testing.assert_allclose(gram, (n // 2) * np.eye(n // 2), atol=1e-9)

    @pytest.mark.parametrize("n", (16, 64, 2048))
    def test_twiddle_lookup_is_the_reduced_phase_formula(self, n):
        taps = n // 2
        comb = make_plan(n).bs1
        g = steering_matrix(n, taps)
        assert g.flags.c_contiguous and g.shape == (n // 2, taps)
        np.testing.assert_array_equal(g, reference_steering_matrix(comb, n, taps))
        # the unreduced phase differs only by its argument rounding
        unreduced = np.exp(
            -2j * math.pi * np.outer(np.asarray(comb, dtype=float) - 1.0, np.arange(taps)) / n
        )
        assert np.abs(g - unreduced).max() <= 1e-12

    @pytest.mark.parametrize("bs", (0, 1))
    def test_product_matches_fft_at_the_comb_bins(self, bs):
        # BS 2's comb is BS 1's shifted by one bin: the shift theorem's ramp
        # W**l on the taps reaches it through BS 1's matrix
        n, taps = 2048, 640
        comb = make_plan(n).for_bs(bs)
        g = steering_matrix(n, taps)
        ramp = np.exp(-2j * np.pi * bs * np.arange(taps) / n)
        rng = np.random.default_rng(11)
        for _ in range(5):
            h = np.zeros(taps, dtype=complex)
            cols = rng.choice(taps, size=11, replace=False)
            h[cols] = rng.standard_normal(11) + 1j * rng.standard_normal(11)
            want = np.fft.fft(h, n)[np.asarray(comb) - 1]
            assert np.abs(g @ (ramp * h) - want).max() <= 1e-14 * np.abs(want).max()

    def test_build_holds_one_full_size_array(self):
        tracemalloc.start()
        try:
            g = steering_matrix.__wrapped__(2048, 640)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not g.flags.writeable and g.flags.c_contiguous
        assert peak <= 1.25 * g.nbytes


SYNTHESIS_PLANS = {"stock": make_plan(2048), "half_window": make_plan(64)}


class TestSharedSteering:
    @pytest.mark.parametrize("name", SYNTHESIS_PLANS)
    def test_each_comb_matches_its_own_steering_matrix(self, name):
        plan = SYNTHESIS_PLANS[name]
        n = len(plan.bs1) + len(plan.bs2)
        taps = 640 if n == 2048 else n // 2
        cfg = OfdmConfig(n_subcarriers=n, cp_len=taps, n_taps=taps, noise_psd_dbm_hz=None)
        rng = np.random.default_rng(17)
        path_lists = []
        for n_active in (1, 6, taps):  # random taps, up to a full window
            per_bs = []
            for m in (0, 1):
                support = rng.choice(taps, size=n_active, replace=False)
                gains = rng.standard_normal(n_active) + 1j * rng.standard_normal(n_active)
                per_bs.append(
                    tuple(
                        PathTap(int(l), complex(a), LinkType.TARGET_ECHO, m)
                        for l, a in zip(support, gains)
                    )
                )
            path_lists.append(PathList(symbol=1, taps=(per_bs[0], per_bs[1])))
        if name == "stock":  # the stock three-surface scene's echoes
            stock = default_config(3)
            scene = sample_targets(
                stock.bs, stock.irs, 4, stock.target_radius_m, 3, cell_m=stock.ofdm.cell_m
            )
            path_lists += [build_paths(scene, cfg, symbol, phase_seed=5) for symbol in (1, 2)]
        for paths in path_lists:
            pilots = make_pilots(plan, int(rng.integers(1 << 31)))
            snap = simulate_freq_rx(paths, pilots, cfg, plan)
            for m in (0, 1):
                comb = plan.for_bs(m)
                h = channel_vector(paths.for_bs(m), taps)
                want = math.sqrt(cfg.subcarrier_power_w) * pilots[m] * (
                    reference_steering_matrix(comb, n, taps) @ h
                )
                got = snap.by_bs[m].rx
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (name, m)

    # experiments range in the tap domain and never synthesize samples
    def test_one_waveform_trial_builds_no_matrix(self):
        cfg = default_config(3, k=4, trials=1, seed=1, skip_phase1=False)
        steering_matrix.cache_clear()
        outcome = run_trial(cfg, 0, np.random.SeedSequence(1).spawn(1)[0])
        assert outcome.failure is None
        assert steering_matrix.cache_info().currsize == 0

    def test_topology_experiment_builds_no_matrix(self):
        steering_matrix.cache_clear()
        topology_experiment(default_config(1, k=2, trials=2, skip_phase1=False))
        assert steering_matrix.cache_info().currsize == 0


class TestPilots:
    def test_unit_modulus_and_shapes(self):
        plan = make_plan(16)
        p1, p2 = make_pilots(plan, seed=3)
        assert p1.shape == (8,) and p2.shape == (8,)
        np.testing.assert_allclose(np.abs(p1), 1.0)
        np.testing.assert_allclose(np.abs(p2), 1.0)

    def test_deterministic(self):
        plan = make_plan(16)
        a = make_pilots(plan, seed=3)
        b = make_pilots(plan, seed=3)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from((2, 6, 16, 2048)),
        entropy=st.integers(0, 2**128 - 1),
        spawned=st.booleans(),
    )
    @example(n=2048, entropy=0, spawned=False)
    @example(n=2048, entropy=0, spawned=True)
    def test_quarter_turns_are_make_pilots(self, n, entropy, spawned):
        seed = np.random.SeedSequence(entropy).spawn(4)[0] if spawned else entropy
        turns = pilot_turns(n, seed)
        pilots = np.array(make_pilots(make_plan(n), seed))
        assert turns.shape == (2, n // 2)
        np.testing.assert_array_equal(np.rint(np.angle(pilots) / (0.5 * math.pi)) % 4, turns)
        np.testing.assert_array_equal(np.exp(0.5j * math.pi * turns), pilots)
        assert np.max(np.abs(waveform._CONJ_QPSK[turns] - np.conj(pilots))) <= 2e-16


class TestFreqRx:
    def test_zero_channel_gives_zero_noiseless(self):
        cfg = small_cfg()
        plan = make_plan(cfg.n_subcarriers)
        empty = _path_list(1, (), 0)
        snap = simulate_freq_rx(empty, make_pilots(plan, 0), cfg, plan)
        for m in (0, 1):
            np.testing.assert_array_equal(snap.by_bs[m].rx, 0.0)

    def test_single_tap_flat_magnitude(self):
        # one tap at delay zero: every subcarrier sees the same magnitude
        cfg = small_cfg()
        plan = make_plan(cfg.n_subcarriers)
        paths = build_paths(small_scene(), cfg, symbol=1)
        assert paths.for_bs(0)[0].delay > 0  # geometry does not give tap 0 here
        pilots = make_pilots(plan, 1)
        snap = simulate_freq_rx(paths, pilots, cfg, plan)
        mags = np.abs(snap.by_bs[0].rx)
        np.testing.assert_allclose(mags, mags[0], rtol=1e-10)

    def test_time_domain_convolution_oracle(self):
        # the frequency model must match an explicit simulation: modulate the
        # full grid, run the CP-protected circular convolution, demodulate,
        # and read off each BS's comb
        rng = np.random.default_rng(42)
        cfg = small_cfg()
        plan = make_plan(cfg.n_subcarriers)
        n = cfg.n_subcarriers
        for trial in range(50):
            h = np.zeros(cfg.n_taps, dtype=complex)
            support = rng.choice(cfg.n_taps, size=rng.integers(1, 7), replace=False)
            h[support] = rng.standard_normal(len(support)) + 1j * rng.standard_normal(
                len(support)
            )
            pilots = make_pilots(plan, rng.integers(1 << 31))

            for m in (0, 1):
                comb = plan.for_bs(m)
                grid = np.zeros(n, dtype=complex)
                grid[np.array(comb) - 1] = math.sqrt(cfg.subcarrier_power_w) * pilots[m]
                tx = ofdm_modulate(grid, cfg.cp_len)
                rx_time = np.convolve(tx, h)[: len(tx)]
                rx_grid = ofdm_demodulate(rx_time, cfg.cp_len)
                expected = rx_grid[np.array(comb) - 1]

                taps = tuple(
                    _tap(int(l), complex(h[l]), m) for l in np.flatnonzero(h)
                )
                paths = _path_list(1, taps, m)
                snap = simulate_freq_rx(paths, pilots, cfg, plan)
                got = snap.by_bs[m].rx
                assert np.max(np.abs(got - expected)) < 1e-9

    def test_combs_do_not_leak(self):
        # a channel present only at BS 1 leaves BS 2's comb untouched
        cfg = small_cfg()
        plan = make_plan(cfg.n_subcarriers)
        pilots = make_pilots(plan, 9)
        taps = (_tap(3, 1.0 + 0.5j, 0),)
        paths = _path_list(1, taps, 0)
        snap = simulate_freq_rx(paths, pilots, cfg, plan)
        assert np.linalg.norm(snap.by_bs[0].rx) > 0
        np.testing.assert_array_equal(snap.by_bs[1].rx, 0.0)

    def test_plan_or_pilots_for_another_n_raise(self):
        cfg = small_cfg()
        paths = build_paths(small_scene(), cfg, symbol=1)
        plan = make_plan(cfg.n_subcarriers)
        with pytest.raises(ValueError, match="do not match N/2"):
            simulate_freq_rx(paths, make_pilots(make_plan(16), 0), cfg, make_plan(16))
        with pytest.raises(ValueError, match="do not match N/2"):
            simulate_freq_rx(paths, make_pilots(make_plan(16), 0), cfg, plan)

    def test_noise_seed_reproducible(self):
        cfg = small_cfg(noise_psd_dbm_hz=-174.0)
        plan = make_plan(cfg.n_subcarriers)
        paths = build_paths(small_scene(), cfg, symbol=1)
        pilots = make_pilots(plan, 1)
        a = simulate_freq_rx(paths, pilots, cfg, plan, seed=7)
        b = simulate_freq_rx(paths, pilots, cfg, plan, seed=7)
        c = simulate_freq_rx(paths, pilots, cfg, plan, seed=8)
        np.testing.assert_array_equal(a.by_bs[0].rx, b.by_bs[0].rx)
        assert np.any(a.by_bs[0].rx != c.by_bs[0].rx)

    def test_absorbing_symbol_ignores_irs_position(self):
        # symbol 1 models absorbing surfaces; moving the IRS cannot change it
        cfg = small_cfg()
        plan = make_plan(cfg.n_subcarriers)
        pilots = make_pilots(plan, 2)
        base = small_scene()
        moved = small_scene(irs=(2.0, 9.0))
        rx_a = simulate_freq_rx(build_paths(base, cfg, 1), pilots, cfg, plan)
        rx_b = simulate_freq_rx(build_paths(moved, cfg, 1), pilots, cfg, plan)
        np.testing.assert_array_equal(rx_a.by_bs[0].rx, rx_b.by_bs[0].rx)
        np.testing.assert_array_equal(rx_a.by_bs[1].rx, rx_b.by_bs[1].rx)


def _tap(delay, gain, bs):
    from irsloc.waveform import PathTap

    return PathTap(delay=delay, gain=gain, link=LinkType.TARGET_ECHO, bs=bs)


def _path_list(symbol, taps, bs):
    from irsloc.waveform import PathList

    if bs == 0:
        return PathList(symbol=symbol, taps=(taps, ()))
    return PathList(symbol=symbol, taps=((), taps))
