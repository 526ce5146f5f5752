import copy
import csv
import gc
import json
import math
import re
import time
import warnings
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irsloc import association, harness, locate
from irsloc.association import (
    circle_intersections,
    count_unfiltered_solutions,
    enumerate_feasible,
)
from irsloc.cli import main
from irsloc.harness import (
    DEFAULT_BS,
    DEFAULT_IRS_LAYOUTS,
    FAILURE_REASONS,
    ExperimentConfig,
    TrialOutcome,
    baseline_3bs,
    cardinality_experiment,
    default_config,
    error_probability,
    association_accuracy,
    required_taps,
    run_localization,
    run_trial,
    summarize_localization,
    topology_experiment,
    topology_variants,
    uniqueness_experiment,
    write_localization_csv,
    write_rows_csv,
)
from irsloc.locate import GnConfig, LocEstimate, fit_position, select_association
from irsloc.ranging import RangeSets, RangingConfig, quantize_range
from irsloc.scene import (
    FIELD_KINDS,
    Point2D,
    SceneSamplingError,
    check_topology,
    distance,
    mirror_across_bs_line,
    sample_targets,
)
from irsloc.waveform import DelayWindowError, OfdmConfig
from oracles import reference_phase1_range_sets
from test_association import reference_enumerate


class TestConfig:
    def test_defaults(self):
        cfg = default_config()
        assert cfg.bs == DEFAULT_BS
        assert cfg.irs == DEFAULT_IRS_LAYOUTS[1]
        assert cfg.k == 4 and cfg.trials == 1000
        assert cfg.tau_m == 1.5 and cfg.error_radius_m == 0.8
        assert cfg.ofdm.n_taps == 512  # stock single-IRS layout fits

    def test_window_widened_for_far_layouts(self):
        # side IRSs at |x| = 60..70 put compound echoes past 512 cells
        assert default_config(2).ofdm.n_taps == 640
        assert default_config(3).ofdm.n_taps == 640
        assert required_taps(
            DEFAULT_BS, DEFAULT_IRS_LAYOUTS[1], 50.0, OfdmConfig()
        ) <= 512

    def test_window_multiple_of_64_and_covers_bound(self):
        for r in (1, 2, 3):
            taps = required_taps(DEFAULT_BS, DEFAULT_IRS_LAYOUTS[r], 50.0, OfdmConfig())
            assert taps % 64 == 0
            from irsloc.scene import distance

            reach = max(
                distance(b, q) for b in DEFAULT_BS for q in DEFAULT_IRS_LAYOUTS[r]
            )
            assert taps * 0.75 >= 2.0 * (reach + 50.0)

    def test_explicit_ofdm_not_touched(self):
        ofdm = OfdmConfig(cp_len=512, n_taps=512)
        cfg = default_config(3, ofdm=ofdm)
        assert cfg.ofdm.n_taps == 512

    def test_unknown_layout(self):
        with pytest.raises(ValueError):
            default_config(4)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(k=0)
        with pytest.raises(ValueError):
            ExperimentConfig(tau_m=-1.0)

    @pytest.mark.parametrize(
        "field, layout",
        [
            ("irs", []),
            ("bs", [[100.0, 0.0]]),
            ("bs", [[100.0, 0.0], [-100.0, 0.0], [0.0, -50.0]]),
            ("bs", [[100.0, 0.0], [100.0, 0.0]]),
            ("irs", [[100.0, 0.0], [0.0, 40.0]]),
        ],
    )
    def test_from_dict_rejects_layout_without_two_bs_and_an_irs(self, field, layout):
        d = default_config().to_dict()
        d[field] = layout
        with pytest.raises(ValueError, match=f"^{field} must"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize(
        "field, layout",
        [
            ("bs", 5),
            ("bs", "bs"),
            ("bs", [[100.0, 0.0], None]),
            ("bs", [[100.0, 0.0], [-100.0, "0"]]),
            ("irs", [[0.0, 40.0, 1.0]]),
            ("irs", [[True, 40.0]]),
            ("irs", [[0.0, math.nan]]),
            ("irs", [[0.0, 10**400]]),
            ("irs", {"x": 0.0, "y": 40.0}),
        ],
        ids=repr,
    )
    def test_from_dict_rejects_points_that_are_not_points(self, field, layout):
        d = default_config().to_dict()
        d[field] = layout
        with pytest.raises(ValueError, match=f"^{field} must list finite 2-D points"):
            ExperimentConfig.from_dict(d)

    def test_rejects_duplicate_irs_positions(self):
        q = (0.0, 40.0)
        with pytest.raises(ValueError, match="^irs must"):
            ExperimentConfig(irs=(q, (70.0, 40.0), q))
        d = default_config().to_dict()
        d["irs"] = [[0.0, 40.0], [0, 40]]
        with pytest.raises(ValueError, match="^irs must"):
            ExperimentConfig.from_dict(d)

    def test_json_round_trip(self, tmp_path):
        cfg = default_config(2, k=3, trials=7, seed=42)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg
        path = tmp_path / "cfg.json"
        cfg.save(path)
        assert ExperimentConfig.load(path) == cfg

    def test_stock_configs_save_byte_for_byte(self, tmp_path):
        paths = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))
        assert len(paths) >= 3
        for path in paths:
            ExperimentConfig.load(path).save(tmp_path / path.name)
            assert (tmp_path / path.name).read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("key", ["ofdm", "gn"])
    @pytest.mark.parametrize("block", [{}, None, [], "x"], ids=repr)
    def test_from_dict_settings_blocks(self, key, block):
        d = default_config(1, ofdm=OfdmConfig()).to_dict()
        d[key] = block
        if block == {}:
            assert ExperimentConfig.from_dict(d) == default_config(1, ofdm=OfdmConfig())
        else:
            with pytest.raises(ValueError, match=f"^{key} must"):
                ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("k", 4.0),
            ("k", True),
            ("trials", 2.0),
            ("trials", "2"),
            ("seed", 1.5),
            ("seed", None),
            ("seed", -1),
        ],
        ids=repr,
    )
    def test_from_dict_rejects_bad_counts(self, key, value):
        d = default_config(1).to_dict()
        d[key] = value
        with pytest.raises(ValueError, match=f"^{key} must"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("tau_m", math.nan),
            ("error_radius_m", math.inf),
            ("target_radius_m", "50"),
            ("tau_m", True),
            ("skip_phase1", "false"),
            ("skip_phase1", 0),
        ],
        ids=repr,
    )
    def test_from_dict_rejects_bad_values(self, key, value):
        d = default_config(1).to_dict()
        d[key] = value
        with pytest.raises(ValueError, match=f"^{key} must"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("block", [None, "ofdm", "gn"])
    def test_from_dict_rejects_unknown_keys(self, block):
        d = default_config(1).to_dict()
        (d if block is None else d[block])["tau"] = 1.5
        with pytest.raises(ValueError, match=r"^unknown .*keys \['tau'\]"):
            ExperimentConfig.from_dict(d)

    def test_from_dict_loads_retired_keys_at_fixed_values(self):
        # the settings blocks as earlier releases wrote them
        d = default_config(1).to_dict()
        d["ofdm"]["c0"] = 300000000.0
        d["gn"].update(max_iters=100, step_tol_m=1e-10, damping=0.001)
        for ranging in (None, {}):
            d["ranging"] = ranging
            assert ExperimentConfig.from_dict(d) == default_config(1)

    @pytest.mark.parametrize(
        "block, key, value",
        [
            (None, "ranging", {"rho": 1.0, "rho1": 0.1, "rho2": 1.0, "delta1": 1e-9, "delta2": 1e-9}),
            (None, "ranging", {"max_iters": 5000}),
            (None, "ranging", []),
            (None, "ranging", False),
            ("ofdm", "c0", 299792458.0),
            ("ofdm", "c0", math.nan),
            ("gn", "max_iters", 2.5),
            ("gn", "max_iters", True),
            ("gn", "max_iters", 50),
            ("gn", "step_tol_m", 1e-9),
            ("gn", "damping", math.inf),
        ],
        ids=repr,
    )
    def test_from_dict_rejects_retired_keys_at_other_values(self, block, key, value):
        d = default_config(1).to_dict()
        (d if block is None else d[block])[key] = value
        with pytest.raises(ValueError, match=f"^{key} is no longer a setting"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize(
        "block, key, value",
        [
            ("ofdm", "n_subcarriers", "2048"),
            ("ofdm", "n_taps", 512.5),
            ("ofdm", "cp_len", None),
            ("ofdm", "subcarrier_spacing_hz", math.nan),
            ("ofdm", "tx_power_dbm", math.nan),
            ("ofdm", "tx_power_dbm", 10**400),
            ("ofdm", "noise_psd_dbm_hz", math.inf),
            ("ofdm", "noise_psd_dbm_hz", "off"),
            ("ofdm", "irs_reflect_gain", math.inf),
            ("ofdm", "bs_reflect_gain", False),
            ("gn", "residual_threshold", math.nan),
        ],
        ids=repr,
    )
    def test_from_dict_rejects_bad_settings(self, block, key, value):
        d = default_config(1).to_dict()
        d[block][key] = value
        with pytest.raises(ValueError, match=f"^{key} must"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("cls", [ExperimentConfig, OfdmConfig, GnConfig, RangingConfig])
    def test_every_field_is_checked(self, cls):
        # a kind check_fields knows, a nested settings block or a layout
        layouts = {"bs": tuple[Point2D, Point2D], "irs": tuple[Point2D, ...]}
        base = cls(1.0, 0.1, 1.0, 1e-9, 1e-9) if cls is RangingConfig else cls()
        for f in fields(cls):
            assert f.type in FIELD_KINDS or is_dataclass(f.type) or layouts.get(f.name) == f.type
            with pytest.raises(ValueError, match=f"^{f.name} must"):
                replace(base, **{f.name: "x"})

    def test_from_dict_takes_numpy_integer_counts(self):
        d = default_config(1).to_dict()
        d.update(k=np.int64(3), trials=np.int32(2), seed=np.uint64(0))
        cfg = ExperimentConfig.from_dict(d)
        counts = [(type(v), v) for v in (cfg.k, cfg.trials, cfg.seed)]
        assert counts == [(int, 3), (int, 2), (int, 0)]

    def test_weights_follow_cell(self):
        cfg = default_config()
        assert cfg.weights.sigma_direct == pytest.approx(0.75 / (2 * math.sqrt(3)))


class TestTrials:
    def test_deterministic_given_seed(self):
        cfg = default_config(1, k=3, trials=1)
        s1 = np.random.SeedSequence(7).spawn(1)[0]
        s2 = np.random.SeedSequence(7).spawn(1)[0]
        a = run_trial(cfg, 0, s1)
        b = run_trial(cfg, 0, s2)
        assert a.true_positions == b.true_positions
        assert a.errors_m == b.errors_m
        assert a.chosen == b.chosen

    def test_run_localization_reproducible(self):
        cfg = default_config(1, k=3, trials=4, seed=11)
        a = run_localization(cfg)
        b = run_localization(cfg)
        assert [o.errors_m for o in a] == [o.errors_m for o in b]

    def test_oracle_never_worse_on_association(self):
        cfg = default_config(2, k=4, trials=20, seed=13)
        alg = run_localization(cfg)
        oracle = run_localization(cfg, oracle=True)
        assert error_probability(oracle, 0.8) <= error_probability(alg, 0.8) + 1e-12
        assert all(o.association_correct for o in oracle)

    def test_outcome_bookkeeping(self):
        cfg = default_config(1, k=3, trials=1, seed=3)
        out = run_trial(cfg, 5, np.random.SeedSequence(3).spawn(1)[0])
        assert out.trial == 5
        assert out.k == 3
        assert out.n_feasible >= 1
        assert len(out.errors_m) == 3
        assert not out.detection_failed
        assert out.failure is None

    def test_phase1_trial_end_to_end(self):
        # one full waveform trial: synthesis, sparse recovery, association
        cfg = default_config(1, k=2, trials=1, seed=21, skip_phase1=False)
        out = run_trial(cfg, 0, np.random.SeedSequence(21).spawn(1)[0])
        assert not out.detection_failed
        assert out.association_correct
        assert max(out.errors_m) < 0.8

    @pytest.mark.parametrize("n_irs", (1, 3))
    def test_localizes_without_listing(self, monkeypatch, n_irs):
        # localization selects on the pick table: it must not list the
        # feasible set or select from a listed one
        def forbidden(*args, **kwargs):
            raise AssertionError("run_trial listed the feasible set")

        for module, name in (
            (association, "enumerate_feasible"),
            (locate, "select_association"),
        ):
            monkeypatch.setattr(module, name, forbidden)
        outcomes = run_localization(default_config(n_irs, trials=4, seed=3))
        assert all(o.failure is None and o.n_feasible >= 1 for o in outcomes)
        assert any(o.association_correct for o in outcomes)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), skip_phase1=st.booleans())
    @example(seed=0, skip_phase1=True)
    @example(seed=0, skip_phase1=False)
    def test_rerun_on_one_seed_repeats_the_trial(self, seed, skip_phase1):
        # spawning advances a SeedSequence, so a trial that spawned its own
        # seeds would be another trial when called again on the same object
        seed_seq = np.random.SeedSequence(seed).spawn(3)[2]
        want = [c.generate_state(4).tolist() for c in copy.deepcopy(seed_seq).spawn(4)]
        assert [c.generate_state(4).tolist() for c in harness._seed_children(seed_seq, 4)] == want
        cfg = default_config(3, k=4, skip_phase1=skip_phase1)
        first, second = (_without_wall_time(run_trial(cfg, 0, seed_seq)) for _ in range(2))
        assert first == second
        base = default_config(1, k=4)
        first, second = (
            _without_wall_time(harness.run_baseline_trial(base, 0, seed_seq)) for _ in range(2)
        )
        assert first == second
        assert seed_seq.n_children_spawned == 0

    def test_dense_k7_trial_within_budget(self):
        # seven targets on a 12 m disc leave 415,991 feasible solutions;
        # listing them took tens of seconds, the used-entry masks do not
        cfg = default_config(1, k=7, target_radius_m=12)
        start = time.perf_counter()
        out = run_trial(cfg, 0, np.random.SeedSequence(1).spawn(1)[0])
        assert time.perf_counter() - start < 2.0
        assert out.n_feasible == 415991
        assert out.solver_calls == 246


class TestPhase1Oracle:
    """``_phase1_range_sets`` equals the dense reference chain: both range
    lists and both bin fields, near the detection cliff and without noise."""

    @pytest.mark.parametrize(
        "tx_dbm, noise_psd",
        [(39.0, -174.0), (27.0, -174.0), (24.0, -174.0), (39.0, None)],
        ids=["39dBm", "27dBm", "24dBm", "noise-off"],
    )
    @pytest.mark.parametrize("n_irs", (1, 2, 3))
    def test_equals_dense_chain(self, n_irs, tx_dbm, noise_psd):
        cfg = default_config(n_irs, k=4, skip_phase1=False)
        cfg = replace(cfg, ofdm=replace(cfg.ofdm, tx_power_dbm=tx_dbm, noise_psd_dbm_hz=noise_psd))
        trials = [s.spawn(2) for s in np.random.SeedSequence(0).spawn(10)]
        trials.append((trials[0][0], np.random.SeedSequence(0)))
        detected = 0
        for scene_seed, phase1_seed in trials:
            scene = sample_targets(
                cfg.bs, cfg.irs, cfg.k, cfg.target_radius_m, scene_seed, cell_m=cfg.ofdm.cell_m
            )
            # the reference spawns, which advances a SeedSequence: give it a copy
            want = reference_phase1_range_sets(scene, cfg, copy.deepcopy(phase1_seed))
            got = harness._phase1_range_sets(scene, cfg, phase1_seed)
            assert got == want
            detected += sum(got.counts())
        assert detected > 0


class TestFailures:
    """Each way a trial can stop before association has its own reason."""

    @staticmethod
    def run_failing(cfg, run=run_trial):
        out = run(cfg, 0, np.random.SeedSequence(cfg.seed).spawn(1)[0])
        assert out.detection_failed
        assert out.chosen is None
        assert all(math.isinf(e) for e in out.errors_m)
        return out

    @pytest.mark.parametrize("run", [run_trial, harness.run_baseline_trial])
    def test_sampling(self, monkeypatch, run):
        def never_place(*args, **kwargs):
            raise SceneSamplingError("no room")

        monkeypatch.setattr(harness, "sample_targets", never_place)
        out = self.run_failing(default_config(1, k=2, seed=3), run)
        assert out.failure == "sampling"
        assert out.true_positions == ()

    def test_delay_window(self, monkeypatch):
        def overflow(*args):
            raise DelayWindowError("echo beyond the window")

        monkeypatch.setattr(harness, "_phase1_range_sets", overflow)
        cfg = default_config(1, k=2, seed=3, skip_phase1=False)
        assert self.run_failing(cfg).failure == "delay_window"

    def test_unbalanced(self, monkeypatch):
        def one_direct_echo_missing(scene, cfg, seed_seq):
            sets = RangeSets.from_geometry(scene, cell_m=cfg.ofdm.cell_m)
            return replace(sets, direct=(sets.direct[0][1:], sets.direct[1]))

        monkeypatch.setattr(harness, "_phase1_range_sets", one_direct_echo_missing)
        cfg = default_config(1, k=2, seed=3, skip_phase1=False)
        assert self.run_failing(cfg).failure == "unbalanced"

    @pytest.mark.parametrize(
        "run, truth",
        [
            (run_trial, "ground_truth_solution"),
            (harness.run_baseline_trial, "_baseline_truth"),
        ],
    )
    def test_no_truth(self, monkeypatch, run, truth):
        monkeypatch.setattr(harness, truth, lambda *args, **kwargs: None)
        out = self.run_failing(default_config(1, k=2, seed=3), run)
        assert out.failure == "no_truth"
        assert len(out.true_positions) == 2

    def test_reasons_in_csv_and_summary(self, monkeypatch, tmp_path):
        cfg = default_config(1, k=2, trials=4, seed=3)
        real = harness.ground_truth_solution
        calls = []

        def lose_every_other_truth(*args, **kwargs):
            calls.append(None)
            return None if len(calls) % 2 else real(*args, **kwargs)

        monkeypatch.setattr(harness, "ground_truth_solution", lose_every_other_truth)
        outcomes = run_localization(cfg)
        assert [o.failure for o in outcomes] == ["no_truth", None] * 2
        row = summarize_localization(outcomes, 0.8, "algorithm")
        assert row["detection_failures"] == row["failures_no_truth"] == 2
        for reason in ("sampling", "delay_window", "unbalanced"):
            assert row[f"failures_{reason}"] == 0
        path = tmp_path / "loc.csv"
        write_localization_csv(path, outcomes)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["failure"] for r in rows] == ["no_truth", "no_truth", "", ""] * 2
        assert [r["detection_failed"] for r in rows] == ["1", "1", "0", "0"] * 2


# Anchor layouts for the layout property.  The rotated pair's BS line is the
# y axis and the stock pair's the x axis, so the pool holds, for one pair or
# both, points on a BS, points on the BS line and mirror pairs across it; a
# layout may draw one point twice, and one BS pair coincides.  The last pair
# has a BS at the origin, so the pool's tiny offsets from it sit 1e-170 m
# (its squared distance underflows to 0.0) and 1e-13 m from a BS.
LAYOUT_BS_PAIRS = (
    DEFAULT_BS,
    (Point2D(0.0, 100.0), Point2D(0.0, -100.0)),
    (Point2D(100.0, 0.0), Point2D(100.0, 0.0)),
    (Point2D(0.0, 0.0), Point2D(200.0, 0.0)),
)
LAYOUT_IRS_POOL = (
    (100.0, 0.0),
    (-100.0, 0.0),
    (0.0, 100.0),
    (0.0, 0.0),
    (40.0, 0.0),
    (-40.0, 0.0),
    (0.0, 40.0),
    (0.0, -40.0),
    (80.0, 60.0),
    (80.0, -60.0),
    (-60.0, 80.0),
    (60.0, 80.0),
    (70.0, 40.0),
    (1e-170, 0.0),
    (1e-13, 0.0),
    (100.0, 40.0),
)


class TestLayouts:
    """A layout is rejected where it enters, or every trial on it ends typed
    within a wall budget."""

    @settings(max_examples=150, deadline=None)
    @given(
        bs=st.sampled_from(LAYOUT_BS_PAIRS),
        irs=st.lists(st.sampled_from(LAYOUT_IRS_POOL), min_size=1, max_size=3),
        k=st.integers(1, 7),
        radius=st.sampled_from((10.0, 50.0, 150.0)),
        skip_phase1=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # coincident BSs; an IRS on a BS with a second IRS beside it, and one
    # whose squared distance to a BS underflows, on the waveform path
    @example(
        bs=LAYOUT_BS_PAIRS[2], irs=[(0.0, 40.0)], k=2, radius=50.0, skip_phase1=True, seed=1
    )
    @example(
        bs=DEFAULT_BS,
        irs=[(100.0, 0.0), (0.0, 40.0)],
        k=2,
        radius=50.0,
        skip_phase1=False,
        seed=1,
    )
    @example(
        bs=LAYOUT_BS_PAIRS[3],
        irs=[(1e-170, 0.0), (100.0, 40.0)],
        k=2,
        radius=50.0,
        skip_phase1=False,
        seed=1,
    )
    # seven targets on a 12 m disc: 514,703 feasible solutions
    @example(bs=DEFAULT_BS, irs=[(0.0, 40.0)], k=7, radius=12.0, skip_phase1=True, seed=1)
    def test_rejected_or_typed(self, bs, irs, k, radius, skip_phase1, seed):
        try:
            cfg = ExperimentConfig(
                bs=bs, irs=irs, k=k, trials=1, target_radius_m=radius, skip_phase1=skip_phase1
            )
        except ValueError as err:
            assert str(err).startswith(("bs must", "irs must"))
            return
        start = time.perf_counter()
        for run in (run_trial, harness.run_baseline_trial):
            out = run(cfg, 0, np.random.SeedSequence(seed))
            assert out.failure is None or out.failure in FAILURE_REASONS
        assert time.perf_counter() - start < 3.0


# JSON values no setting admits, or only some do
JSON_JUNK = (None, True, False, "1", "", [], {}, [1.0, 2.0], math.nan, math.inf, -math.inf, 0, -1, 0.5)
FUZZ_BASE = default_config(1, k=2, trials=2).to_dict()


def _nearby(value):
    """Values of ``value``'s JSON type a config might plausibly hold instead."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, int):
        return st.sampled_from([value, value + 1, 2 * value, value // 2, -value])
    if isinstance(value, float):
        return st.sampled_from([value, 2.0 * value, 0.5 * value, -value])
    if value is None:
        return st.sampled_from([None, -174.0, -120.0])
    if isinstance(value, dict):
        return st.sampled_from([value, {}])
    return st.sampled_from([value, value[:1], value + value[:1], [[0.0, 40.0], [0, 40]]])


def _setting(path):
    """Strategy for the value at ``path`` of a config dict."""
    if path == ("ranging",):
        return st.sampled_from([None, {}, {"rho": 1.0}, [], 0])
    if path == ("ofdm", "c0"):
        return st.sampled_from([3e8, 300000000, 2.99792458e8])
    if path in {("gn", "max_iters"), ("gn", "step_tol_m"), ("gn", "damping")}:
        return st.sampled_from([100, 1e-10, 1e-3, 2.5])
    value = FUZZ_BASE
    for key in path:
        value = value.get(key) if isinstance(value, dict) else None
    # one draw in four is junk
    return st.integers(0, 3).flatmap(lambda i: _nearby(value) if i else st.sampled_from(JSON_JUNK))


FUZZ_PATHS = (
    [(key,) for key in FUZZ_BASE]
    + [(block, key) for block in ("ofdm", "gn") for key in FUZZ_BASE[block]]
    + [("ranging",), ("ofdm", "c0"), ("gn", "max_iters"), ("gn", "step_tol_m"), ("gn", "damping")]
    + [("tau",), ("ofdm", "tau")]
)


@st.composite
def config_dicts(draw):
    """The stock config dict with up to four settings changed or added."""
    d = copy.deepcopy(FUZZ_BASE)
    for path in draw(st.lists(st.sampled_from(FUZZ_PATHS), max_size=4, unique=True)):
        parent = d
        for key in path[:-1]:
            parent = parent[key] if isinstance(parent.get(key), dict) else {}
        parent[path[-1]] = copy.deepcopy(draw(_setting(path)))
    return d


class TestConfigInputs:
    """A config dict is rejected where it enters, or it runs cleanly."""

    @settings(max_examples=120, deadline=None)
    @given(d=config_dicts())
    @example(d={**FUZZ_BASE, "ofdm": {**FUZZ_BASE["ofdm"], "tx_power_dbm": math.nan}})
    @example(d={**FUZZ_BASE, "gn": {"residual_threshold": math.nan}})
    # finite settings whose link budget overflows or underflows
    @example(d={**FUZZ_BASE, "ofdm": {**FUZZ_BASE["ofdm"], "tx_power_dbm": 10000.0}})
    @example(d={**FUZZ_BASE, "ofdm": {**FUZZ_BASE["ofdm"], "noise_psd_dbm_hz": 10000.0}})
    @example(d={**FUZZ_BASE, "ofdm": {**FUZZ_BASE["ofdm"], "tx_power_dbm": -10000.0}})
    @example(d={**FUZZ_BASE, "ofdm": {**FUZZ_BASE["ofdm"], "subcarrier_spacing_hz": 1e300}})
    def test_rejected_or_runs_without_warnings(self, d):
        try:
            cfg = ExperimentConfig.from_dict(d)
        except ValueError:
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for skip_phase1 in (True, False):
                outcomes = run_localization(replace(cfg, trials=2, skip_phase1=skip_phase1))
                assert len(outcomes) == 2


class TestScoring:
    def _outcome(self, errors, correct=True):
        k = len(errors)
        return type(
            "O",
            (),
            {
                "errors_m": tuple(errors),
                "association_correct": correct,
                "detection_failed": False,
                "k": k,
            },
        )()

    def test_error_probability(self):
        outs = [self._outcome([0.1, 0.9]), self._outcome([math.inf, 0.2])]
        assert error_probability(outs, 0.8) == pytest.approx(0.5)
        assert error_probability(outs, 1.0) == pytest.approx(0.25)

    def test_error_probability_empty(self):
        with pytest.raises(ValueError):
            error_probability([], 0.8)

    def test_association_accuracy(self):
        outs = [self._outcome([0.1], True), self._outcome([0.1], False)]
        assert association_accuracy(outs) == pytest.approx(0.5)


def numpy_mean_and_se(values):
    """Mean and standard error straight from numpy: NaN for none, SE 0 for one."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return math.nan, math.nan
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return float(arr.mean()), se


def oracle_cardinality_rows(cfg, k_values):
    """Cardinality rows from listed sets: two oracle enumerations per scene
    for several IRSs, one plus the selection search's survivors for one."""
    rows = []
    for k in k_values:
        feas, reduced = [], []
        for s in np.random.SeedSequence(cfg.seed).spawn(cfg.trials):
            scene = sample_targets(
                cfg.bs, cfg.irs, k, cfg.target_radius_m, s.spawn(1)[0],
                cell_m=cfg.ofdm.cell_m,
            )
            sets = RangeSets.from_geometry(scene, cell_m=cfg.ofdm.cell_m)
            plain = reference_enumerate(sets, scene, cfg.tau_m)
            feas.append(len(plain.solutions))
            if len(cfg.irs) == 1:
                sel = select_association(plain, sets, scene, cfg.weights, cfg.gn)
                reduced.append(sel.stats.n_survivors)
            else:
                pruned = reference_enumerate(sets, scene, cfg.tau_m, use_closest_irs=True)
                reduced.append(len(pruned.solutions))
        mean_feasible, se_feasible = numpy_mean_and_se(feas)
        mean_reduced, se_reduced = numpy_mean_and_se(reduced)
        rows.append(
            {
                "k": k,
                "n_irs": len(cfg.irs),
                "trials": cfg.trials,
                "sampling_failures": 0,
                "unfiltered": count_unfiltered_solutions(k, len(cfg.irs)),
                "mean_feasible": mean_feasible,
                "se_feasible": se_feasible,
                "mean_reduced": mean_reduced,
                "se_reduced": se_reduced,
                "reduced_kind": "residual_pruned" if len(cfg.irs) == 1 else "closest_irs",
            }
        )
    return rows


class TestCardinality:
    @pytest.mark.parametrize("values", ([], [2**60 + 1], [3, 7, 416]), ids=("0", "1", "3"))
    def test_mean_and_se_matches_numpy(self, values):
        got = harness._mean_and_se(values)
        want = numpy_mean_and_se(values)
        assert repr(got) == repr(want)
        assert all(type(v) is float for v in got)

    def test_rows_shape_and_counts(self):
        cfg = default_config(1, trials=30, seed=5)
        rows = cardinality_experiment(cfg, k_values=(2, 3))
        assert [row["k"] for row in rows] == [2, 3]
        for row in rows:
            assert row["unfiltered"] == count_unfiltered_solutions(row["k"], 1)
            assert 1 <= row["mean_feasible"] <= row["unfiltered"]
            assert row["mean_reduced"] <= row["mean_feasible"]
            assert row["reduced_kind"] == "residual_pruned"

    @pytest.mark.parametrize("seed", (0, 1, 2029))
    def test_scene_seed_is_the_spawn_chains_state(self, monkeypatch, seed):
        # scene i is drawn from SeedSequence(seed, spawn_key=(i, 0)), built
        # directly; it must give the state of spawn(trials)[i].spawn(1)[0]
        seen = []
        sample = harness.sample_targets

        def record(*args, **kwargs):
            seen.append(args[4].generate_state(8))
            return sample(*args, **kwargs)

        monkeypatch.setattr(harness, "sample_targets", record)
        cardinality_experiment(default_config(1, trials=10, seed=seed), k_values=(2,))
        chain = [
            s.spawn(1)[0].generate_state(8) for s in np.random.SeedSequence(seed).spawn(10)
        ]
        assert len(seen) == 10
        for got, want in zip(seen, chain):
            np.testing.assert_array_equal(got, want)

    def test_multi_irs_uses_closest_filter(self):
        cfg = default_config(3, trials=10, seed=5)
        rows = cardinality_experiment(cfg, k_values=(2,))
        assert rows[0]["reduced_kind"] == "closest_irs"
        assert rows[0]["n_irs"] == 3

    @pytest.mark.parametrize("n_irs", (1, 3))
    def test_unplaceable_scene_is_skipped_and_counted(self, monkeypatch, n_irs):
        cfg = default_config(n_irs, trials=2, seed=5)
        alone = cardinality_experiment(replace(cfg, trials=1), k_values=(2, 3))
        sample = harness.sample_targets

        def fail_second_scene(*args, **kwargs):
            # each K draws scene i from spawn key (i, 0)
            if args[4].spawn_key == (1, 0):
                raise SceneSamplingError("unplaceable")
            return sample(*args, **kwargs)

        monkeypatch.setattr(harness, "sample_targets", fail_second_scene)
        rows = cardinality_experiment(cfg, k_values=(2, 3))
        assert [row["sampling_failures"] for row in alone] == [0, 0]
        for row, one in zip(rows, alone):
            # the sweep goes on, with means over the one placed scene
            assert row == {**one, "trials": 2, "sampling_failures": 1}

    @pytest.mark.parametrize("n_irs, k_values", ((2, (2, 3, 4)), (3, (2, 3, 4, 5, 6))))
    def test_multi_irs_rows_match_two_oracle_enumerations(self, n_irs, k_values):
        cfg = default_config(n_irs, trials=12, seed=1)
        rows = cardinality_experiment(cfg, k_values=k_values)
        assert rows == oracle_cardinality_rows(cfg, k_values)
        # the nearest-surface rule removes solutions at every K here
        assert all(row["mean_reduced"] < row["mean_feasible"] for row in rows)

    @pytest.mark.parametrize("threshold", (1.0, 16.0))
    def test_single_irs_rows_match_enumeration_and_selection(self, threshold):
        cfg = default_config(1, trials=12, seed=1)
        cfg = replace(cfg, gn=replace(cfg.gn, residual_threshold=threshold))
        rows = cardinality_experiment(cfg, k_values=(2, 3, 4, 5))
        assert rows == oracle_cardinality_rows(cfg, (2, 3, 4, 5))
        assert any(row["mean_reduced"] < row["mean_feasible"] for row in rows)

    def test_one_count_per_placed_scene(self, monkeypatch):
        calls = []
        completion_counts = harness.completion_counts
        sample = harness.sample_targets

        def recording_counts(picks, *args, **kwargs):
            calls.append(len(picks))
            return completion_counts(picks, *args, **kwargs)

        def fail_first_scene(*args, **kwargs):
            if args[4].spawn_key == (0, 0):
                raise SceneSamplingError("unplaceable")
            return sample(*args, **kwargs)

        monkeypatch.setattr(harness, "completion_counts", recording_counts)
        monkeypatch.setattr(harness, "sample_targets", fail_first_scene)
        rows = cardinality_experiment(default_config(3, trials=5, seed=2), k_values=(3, 4))
        assert [row["sampling_failures"] for row in rows] == [1, 1]
        assert calls == [3] * 4 + [4] * 4

    @pytest.mark.parametrize("n_irs", (1, 3))
    def test_counts_fewest_picks_first(self, monkeypatch, n_irs):
        # each scene's table arrives with its levels in a stable sort by
        # pick count, and holds exactly candidate_picks' picks
        cfg = default_config(n_irs, trials=8, seed=4)
        tables = []
        completion_counts = harness.completion_counts

        def recording_counts(picks, *args, **kwargs):
            tables.append(picks)
            return completion_counts(picks, *args, **kwargs)

        monkeypatch.setattr(harness, "completion_counts", recording_counts)
        cardinality_experiment(cfg, k_values=(4, 6))
        natural = []
        for k in (4, 6):
            for s in np.random.SeedSequence(cfg.seed).spawn(cfg.trials):
                scene = sample_targets(
                    cfg.bs, cfg.irs, k, cfg.target_radius_m, s.spawn(1)[0],
                    cell_m=cfg.ofdm.cell_m,
                )
                sets = RangeSets.from_geometry(scene, cell_m=cfg.ofdm.cell_m)
                natural.append(association.candidate_picks(sets, scene, cfg.tau_m))
        assert len(tables) == len(natural) == 16
        for got, picks in zip(tables, natural):
            sizes = [len(level) for level in got]
            assert sizes == sorted(sizes)
            assert got == sorted(picks, key=len)
        # the sort reorders some scene's levels here
        assert any(got != picks for got, picks in zip(tables, natural))

    @pytest.mark.parametrize("n_irs", (1, 3))
    def test_counts_without_listing_or_selecting(self, monkeypatch, n_irs):
        # counting must not fall back to listing the feasible set or to the
        # selection search, at either kind of second stage
        def forbidden(*args, **kwargs):
            raise AssertionError("cardinality_experiment listed or selected")

        for module, name in (
            (harness, "lexmin_select"),
            (association, "enumerate_feasible"),
            (locate, "select_association"),
            (locate, "lexmin_select"),
        ):
            monkeypatch.setattr(module, name, forbidden)
        rows = cardinality_experiment(default_config(n_irs, trials=4, seed=3), k_values=(3, 4))
        assert all(row["mean_feasible"] >= 1 for row in rows)

    def test_no_placed_scene_gives_nan_means(self, monkeypatch):
        def never_place(*args, **kwargs):
            raise SceneSamplingError("unplaceable")

        monkeypatch.setattr(harness, "sample_targets", never_place)
        (row,) = cardinality_experiment(default_config(1, trials=3), k_values=(2,))
        assert row["sampling_failures"] == 3
        for key in ("mean_feasible", "se_feasible", "mean_reduced", "se_reduced"):
            assert math.isnan(row[key])


class TestTopology:
    def test_variant_geometry(self):
        variants = topology_variants(DEFAULT_BS)
        assert set(variants) == {"c1_hold", "c1_fail", "c2_hold", "c2_fail"}
        # failing variants pair an anchor with its mirror image
        for name in ("c1_fail", "c2_fail"):
            a, b = variants[name]
            assert b == mirror_across_bs_line(DEFAULT_BS, a)
        for name, expect_c1, expect_c2 in [
            ("c1_hold", True, True),
            ("c1_fail", False, True),
            ("c2_hold", True, True),
            ("c2_fail", True, False),
        ]:
            report = check_topology(DEFAULT_BS, variants[name])
            assert (report.c1_ok, report.c2_ok) == (expect_c1, expect_c2), name

    def test_experiment_rows(self):
        cfg = default_config(2, k=2, trials=8, seed=9)
        rows = topology_experiment(cfg)
        assert len(rows) == 4
        by_name = {row["variant"]: row for row in rows}
        assert by_name["c1_fail"]["c1_ok"] is False
        assert by_name["c2_fail"]["c2_ok"] is False
        for row in rows:
            assert 0.0 <= row["error_probability"] <= 1.0


    @pytest.mark.parametrize(
        "ofdm, phase1",
        [
            (None, True),
            (OfdmConfig(cp_len=700, n_taps=512, tx_power_dbm=30.0), True),
            (OfdmConfig(cp_len=900, n_taps=800), False),
        ],
        ids=("stock_waveform", "narrow_waveform", "wide_geometry"),
    )
    def test_each_variant_gets_a_window_that_fits(self, monkeypatch, ofdm, phase1):
        seen = {}
        run = harness.run_localization

        def spy(vcfg, oracle=False):
            outcomes = run(vcfg, oracle)
            seen[vcfg.irs] = (vcfg.ofdm, [o.failure for o in outcomes])
            return outcomes

        monkeypatch.setattr(harness, "run_localization", spy)
        overrides = {} if ofdm is None else {"ofdm": ofdm}
        cfg = default_config(1, k=2, trials=2, seed=9, skip_phase1=not phase1, **overrides)
        topology_experiment(cfg)
        assert len(seen) == 4
        for irs, (vofdm, failures) in seen.items():
            assert "delay_window" not in failures
            need = required_taps(cfg.bs, irs, cfg.target_radius_m, cfg.ofdm)
            assert vofdm.n_taps == max(need, cfg.ofdm.n_taps)
            assert vofdm.cp_len == max(cfg.ofdm.cp_len, vofdm.n_taps)
            assert replace(vofdm, n_taps=cfg.ofdm.n_taps, cp_len=cfg.ofdm.cp_len) == cfg.ofdm

    def test_geometry_rows_do_not_depend_on_the_window(self):
        cfg = default_config(2, k=2, trials=8, seed=9)
        rows = topology_experiment(cfg)
        for row, irs in zip(rows, topology_variants(cfg.bs).values()):
            outcomes = run_localization(replace(cfg, irs=tuple(irs)))
            assert row["error_probability"] == error_probability(outcomes, cfg.error_radius_m)
            assert row["association_accuracy"] == association_accuracy(outcomes)


@dataclass(frozen=True)
class BaselineTriple:
    """Index pick (rank-pinned anchor 1, anchors 2 and 3) for one target."""

    i1: int
    i2: int
    i3: int


def _baseline_truth(scene3, anchors, ranges, cell_m):
    k = scene3.n_targets
    order = sorted(range(k), key=lambda i: distance(anchors[0], scene3.targets[i]))
    used = [set(), set(), set()]

    def claim(a: int, value: float) -> int | None:
        q = quantize_range(value, cell_m)
        for idx, v in enumerate(ranges[a]):
            if idx not in used[a] and abs(v - q) <= 1e-9:
                used[a].add(idx)
                return idx
        return None

    triples = []
    for rank, i in enumerate(order):
        t = scene3.targets[i]
        picks = [claim(a, 2.0 * distance(anchors[a], t)) for a in range(3)]
        if any(p is None for p in picks) or picks[0] != rank:
            return None
        triples.append(BaselineTriple(i1=picks[0], i2=picks[1], i3=picks[2]))
    return tuple(triples)


def _baseline_init(anchors, radii):
    points = circle_intersections(anchors[0], radii[0], anchors[1], radii[1])
    if not points:
        return anchors[2]
    fit = [abs(distance(anchors[2], p) - radii[2]) for p in points]
    return points[int(np.argmin(fit))]


def _true_positions_by_rank(scene):
    order = sorted(
        range(scene.n_targets), key=lambda i: distance(scene.bs[0], scene.targets[i])
    )
    return tuple(scene.targets[i] for i in order)


def reference_baseline_trial(cfg, trial, seed_seq, oracle=False):
    """The three-active-BS trial as a standalone pipeline; oracle only.

    Its own target labeling, truth matching, search and scoring, written
    out in full so the package's shared versions are pinned against it.
    """
    start = time.perf_counter()
    k = cfg.k
    anchors = (cfg.bs[0], cfg.bs[1], cfg.irs[0])
    n_unfiltered = math.factorial(k) ** 2
    scene_seed, _ = seed_seq.spawn(2)
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
        return harness._failed_outcome(trial, k, None, start, "sampling")

    cell = cfg.ofdm.cell_m
    ranges = [
        tuple(sorted(quantize_range(2.0 * distance(a, t), cell) for t in scene3.targets))
        for a in anchors
    ]
    truth = _baseline_truth(scene3, anchors, ranges, cell)
    if truth is None:
        return harness._failed_outcome(trial, k, scene3, start, "no_truth")

    w = cfg.weights
    cache: dict[BaselineTriple, LocEstimate] = {}

    def solve(t: BaselineTriple) -> LocEstimate:
        if t not in cache:
            radii = (
                0.5 * ranges[0][t.i1],
                0.5 * ranges[1][t.i2],
                0.5 * ranges[2][t.i3],
            )
            triples = [
                (anchors[a], radii[a], w.sigma_direct) for a in range(3)
            ]
            cache[t] = fit_position(triples, _baseline_init(anchors, radii))
        return cache[t]

    if oracle:
        estimates = tuple(solve(t) for t in truth)
        best = truth
        survivors = 1
        fallback = False
    else:
        bad: set[BaselineTriple] = set()
        best = None
        best_total = math.inf
        survivors = 0
        partial: list[BaselineTriple] = []
        free2 = [True] * k
        free3 = [True] * k

        def recurse(level: int, total: float, enforce: bool) -> None:
            nonlocal best, best_total, survivors
            if level == k:
                if enforce:
                    survivors += 1
                if total < best_total:
                    best_total = total
                    best = tuple(partial)
                return
            for j2 in range(k):
                if not free2[j2]:
                    continue
                for j3 in range(k):
                    if not free3[j3]:
                        continue
                    t = BaselineTriple(i1=level, i2=j2, i3=j3)
                    if enforce and t in bad:
                        continue
                    est = solve(t)
                    if enforce and est.residual >= cfg.gn.residual_threshold:
                        bad.add(t)
                        continue
                    partial.append(t)
                    free2[j2] = free3[j3] = False
                    recurse(level + 1, total + est.residual, enforce)
                    free2[j2] = free3[j3] = True
                    partial.pop()

        recurse(0, 0.0, True)
        fallback = best is None
        if fallback:
            recurse(0, 0.0, False)
        estimates = tuple(solve(t) for t in best)

    truths = _true_positions_by_rank(scene3)
    ests = tuple(e.position for e in estimates)
    errors = tuple(distance(p, t) for p, t in zip(ests, truths))
    correct = all(
        ranges[0][a.i1] == ranges[0][b.i1]
        and ranges[1][a.i2] == ranges[1][b.i2]
        and ranges[2][a.i3] == ranges[2][b.i3]
        for a, b in zip(best, truth)
    )
    return TrialOutcome(
        trial=trial,
        k=k,
        detection_failed=False,
        failure=None,
        association_correct=correct,
        errors_m=errors,
        true_positions=truths,
        est_positions=ests,
        residuals=tuple(e.residual for e in estimates),
        chosen=None,
        n_feasible=n_unfiltered,
        n_survivors=survivors,
        solver_calls=len(cache),
        fallback=fallback,
        wall_time_s=time.perf_counter() - start,
    )


def _without_wall_time(outcome):
    return replace(outcome, wall_time_s=0.0)


# a residual threshold no fit meets forces the baseline's unpruned second pass
FORCED_FALLBACK = GnConfig(residual_threshold=1e-12)


class TestBaseline:
    def test_smoke_and_limits(self):
        cfg = default_config(1, k=2, trials=5, seed=2)
        outcomes = baseline_3bs(cfg)
        assert len(outcomes) == 5
        assert error_probability(outcomes, 0.8) <= 1.0
        # no K limit: prefixes that use the same slots share one search node
        (big,) = baseline_3bs(default_config(1, k=8, trials=1))
        assert big.k == 8 and big.failure is None

    def test_forced_fallback_at_k7_within_budget(self):
        # the unpruned walk visits C(14, 7) nodes, not the (7!)² paths a
        # plain depth-first search walks
        cfg = default_config(1, k=7, trials=1, seed=2, gn=FORCED_FALLBACK)
        start = time.perf_counter()
        outcome = harness.run_baseline_trial(cfg, 0, np.random.SeedSequence(2))
        assert time.perf_counter() - start < 5.0
        assert outcome.fallback and outcome.n_survivors == 0
        assert len(outcome.est_positions) == 7 and None not in outcome.est_positions

    @pytest.mark.parametrize(
        "k, oracle, gn",
        [(k, oracle, GnConfig()) for k in (2, 3, 4, 5) for oracle in (False, True)]
        + [(k, False, FORCED_FALLBACK) for k in (2, 3, 4)],
    )
    def test_matches_reference(self, k, oracle, gn):
        cfg = default_config(1, k=k, trials=20, seed=2, gn=gn)
        outcomes = baseline_3bs(cfg, oracle=oracle)
        seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
        for i, s in enumerate(seeds):
            ref = reference_baseline_trial(cfg, i, s, oracle=oracle)
            assert _without_wall_time(outcomes[i]) == _without_wall_time(ref)
        # stock seeds never reach the fallback pass; the forced cases always do
        assert [o.fallback for o in outcomes] == [gn == FORCED_FALLBACK] * cfg.trials

    @settings(max_examples=30, deadline=None)
    @given(
        k=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
        threshold=st.sampled_from((1e-12, 1.0, 16.0)),
    )
    def test_trial_matches_reference_on_any_seed(self, k, seed, threshold):
        cfg = default_config(1, k=k, trials=1, gn=GnConfig(residual_threshold=threshold))
        outcome = harness.run_baseline_trial(cfg, 0, np.random.SeedSequence(seed))
        ref = reference_baseline_trial(cfg, 0, np.random.SeedSequence(seed))
        assert _without_wall_time(outcome) == _without_wall_time(ref)


class TestUniqueness:
    def test_small_run_all_localized(self):
        report = uniqueness_experiment(18, seed=3)
        assert report["scenes"] == 18
        assert report["sampling_failures"] == 0
        assert report["unique_and_correct"] == 18
        assert report["localized"] == 18
        assert report["worst_position_error_m"] < 1e-6
        assert report["failures"] == []

    def test_unplaceable_scene_is_skipped_and_counted(self, monkeypatch):
        sample = harness.sample_targets

        def fail_second_scene(*args, **kwargs):
            if args[4].spawn_key == (1,):
                raise SceneSamplingError("unplaceable")
            return sample(*args, **kwargs)

        monkeypatch.setattr(harness, "sample_targets", fail_second_scene)
        report = uniqueness_experiment(9, seed=3)
        assert report["scenes"] == 9
        assert report["sampling_failures"] == 1
        assert report["unique_and_correct"] == report["localized"] == 8
        assert report["failures"] == []

    def test_runs_without_listing(self, monkeypatch):
        # criterion 2 counts, selects and fits on the pick table, as
        # localization does: it must not list the feasible set
        def forbidden(*args, **kwargs):
            raise AssertionError("uniqueness_experiment listed the feasible set")

        for module, name in (
            (association, "enumerate_feasible"),
            (locate, "select_association"),
        ):
            monkeypatch.setattr(module, name, forbidden)
        assert not hasattr(harness, "enumerate_feasible")
        report = uniqueness_experiment(18)
        assert report["sampling_failures"] == 0
        assert report["localized"] == report["unique_and_correct"] == 18
        assert report["failures"] == []

    @pytest.mark.parametrize("n_scenes", (0, -3))
    def test_no_scenes_is_an_error(self, n_scenes):
        # a check over no scenes would pass with nothing checked
        with pytest.raises(ValueError, match="n_scenes"):
            uniqueness_experiment(n_scenes)


class TestNoReferenceCycles:
    """Every per-call memo is freed by reference counting: with the cyclic
    collector off while an entry point runs, a collection afterwards finds
    no unreachable object, so no collection pass runs inside a trial."""

    @staticmethod
    def unreachable_after(fn, *args):
        """``fn(*args)`` run with the cyclic collector off, and the number of
        unreachable objects a collection then finds."""
        gc.collect()
        gc.disable()
        try:
            result = fn(*args)
            return result, gc.collect()
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "n_irs, skip_phase1, oracle",
        [(1, True, False), (2, True, False), (3, False, False), (1, True, True)],
        ids=["geometry-r1", "geometry-r2", "waveform-r3", "oracle"],
    )
    def test_run_trial(self, n_irs, skip_phase1, oracle):
        cfg = default_config(n_irs, k=4, trials=5, skip_phase1=skip_phase1)
        outcomes, unreachable = self.unreachable_after(run_localization, cfg, oracle)
        assert unreachable == 0
        assert sum(o.failure is None for o in outcomes) >= 4

    @pytest.mark.parametrize("n_irs", (1, 3), ids=["fit-keep", "rule-keep"])
    def test_cardinality_experiment(self, n_irs):
        cfg = default_config(n_irs, k=4, trials=5)
        (row,), unreachable = self.unreachable_after(cardinality_experiment, cfg, (4,))
        assert unreachable == 0
        assert row["mean_feasible"] >= row["mean_reduced"] >= 1

    @pytest.mark.parametrize("gn", (GnConfig(), FORCED_FALLBACK), ids=["pruned", "fallback"])
    def test_run_baseline_trial(self, gn):
        cfg = default_config(1, k=4, trials=5, gn=gn)
        outcomes, unreachable = self.unreachable_after(baseline_3bs, cfg)
        assert unreachable == 0
        assert [o.fallback for o in outcomes] == [gn == FORCED_FALLBACK] * 5

    def test_uniqueness_experiment(self):
        report, unreachable = self.unreachable_after(uniqueness_experiment, 9)
        assert unreachable == 0
        assert report["localized"] == 9

    def test_select_association(self):
        # the listed set is built first: enumerate_feasible, the listed
        # reference, still recurses through a self-referencing closure
        cfg = default_config(2, k=4)
        scene = sample_targets(
            cfg.bs, cfg.irs, cfg.k, cfg.target_radius_m, np.random.SeedSequence(6),
            cell_m=cfg.ofdm.cell_m,
        )
        sets = RangeSets.from_geometry(scene, cell_m=cfg.ofdm.cell_m)
        feasible = enumerate_feasible(sets, scene, cfg.tau_m, use_closest_irs=True)
        assert len(feasible.solutions) == 2
        result, unreachable = self.unreachable_after(
            select_association, feasible, sets, scene, cfg.weights, cfg.gn
        )
        assert unreachable == 0
        assert result.solution in feasible.solutions


class TestCsv:
    def test_localization_csv(self, tmp_path):
        cfg = default_config(1, k=2, trials=3, seed=6)
        outcomes = run_localization(cfg)
        path = tmp_path / "loc.csv"
        write_localization_csv(path, outcomes)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 2
        for row in rows:
            assert float(row["error_m"]) >= 0.0

    def test_rows_csv(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_rows_csv(path, [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows == [{"a": "1", "b": "x"}, {"a": "2", "b": "y"}]
        with pytest.raises(ValueError):
            write_rows_csv(path, [])

    def test_summary_keys(self):
        cfg = default_config(1, k=2, trials=2, seed=1)
        outcomes = run_localization(cfg)
        row = summarize_localization(outcomes, 0.8, "algorithm")
        assert row["mode"] == "algorithm"
        assert row["trials"] == 2
        assert 0.0 <= row["error_probability"] <= 1.0


class TestCli:
    def test_cardinality_command(self, tmp_path, capsys):
        rc = main(
            [
                "cardinality",
                "--k-values",
                "2,3",
                "--trials",
                "5",
                "--seed",
                "2",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        assert (tmp_path / "cardinality.csv").exists()
        assert "K=2" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["localize", "cardinality", "topology", "baseline"])
    def test_bad_config_is_a_usage_error(self, tmp_path, capsys, command):
        d = default_config(1).to_dict()
        d["tau_m"] = math.nan
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(d))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg_path), "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "tau_m must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value",
        [
            (("bs",), 5),
            (("ofdm", "n_subcarriers"), "2048"),
            (("ofdm", "n_taps"), 512.5),
            (("ofdm", "subcarrier_spacing_hz"), math.nan),
            (("ofdm", "tx_power_dbm"), math.nan),
            (("ofdm", "noise_psd_dbm_hz"), math.inf),
            (("ofdm", "irs_reflect_gain"), math.inf),
            (("ofdm", "c0"), math.nan),
            (("gn", "residual_threshold"), math.nan),
            (("gn", "max_iters"), 2.5),
            (("gn", "max_iters"), True),
        ],
        ids=repr,
    )
    def test_bad_setting_is_a_usage_error(self, tmp_path, capsys, path, value):
        d = default_config(1).to_dict()
        (d[path[0]] if len(path) == 2 else d)[path[-1]] = value
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(d))
        with pytest.raises(SystemExit) as exc:
            main(["localize", "--config", str(cfg_path), "--trials", "2", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert f"{path[-1]} " in capsys.readouterr().err

    def test_cardinality_n_irs_against_config(self, tmp_path, capsys):
        cfg_path = str(Path(__file__).parents[1] / "configs" / "single-irs-localize.json")
        argv = ["cardinality", "--k-values", "2", "--trials", "2", "--out", str(tmp_path)]
        # a count that contradicts the config is a usage error, not ignored
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", cfg_path, "--n-irs", "3"])
        assert exc.value.code == 2
        assert "--n-irs 3" in capsys.readouterr().err
        assert main(argv + ["--config", cfg_path, "--n-irs", "1"]) == 0
        assert "R=1" in capsys.readouterr().out
        # without a config the stock layout is used, one surface by default
        assert main(argv + ["--n-irs", "3"]) == 0
        assert "R=3" in capsys.readouterr().out
        assert main(argv) == 0
        assert "R=1" in capsys.readouterr().out

    def test_localize_command(self, tmp_path, capsys):
        rc = main(
            [
                "localize",
                "--k",
                "2",
                "--trials",
                "4",
                "--seed",
                "3",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        assert (tmp_path / "localization.csv").exists()
        assert (tmp_path / "localization_summary.csv").exists()
        assert "error probability" in capsys.readouterr().out

    def test_localize_with_config_file(self, tmp_path):
        cfg = default_config(2, k=2, trials=3, seed=5)
        cfg_path = tmp_path / "cfg.json"
        cfg.save(cfg_path)
        rc = main(
            ["localize", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        )
        assert rc == 0
        assert (tmp_path / "out" / "localization.csv").exists()

    def test_topology_command(self, tmp_path):
        rc = main(
            ["topology", "--k", "2", "--trials", "4", "--seed", "1", "--out", str(tmp_path)]
        )
        assert rc == 0
        assert (tmp_path / "topology.csv").exists()

    def test_baseline_command(self, tmp_path):
        rc = main(
            ["baseline", "--k", "2", "--trials", "3", "--seed", "1", "--out", str(tmp_path)]
        )
        assert rc == 0
        assert (tmp_path / "baseline.csv").exists()

    def test_uniqueness_command(self, tmp_path, capsys):
        rc = main(
            ["uniqueness-check", "--scenes", "9", "--seed", "1", "--out", str(tmp_path)]
        )
        assert rc == 0
        assert (tmp_path / "uniqueness.json").exists()
        report = json.loads((tmp_path / "uniqueness.json").read_text())
        assert report["localized"] == 9

    def test_uniqueness_command_honours_seed_zero(self, tmp_path, monkeypatch):
        seen = []

        def fake(n_scenes, seed):
            seen.append(seed)
            return {"scenes": n_scenes, "localized": n_scenes, "worst_position_error_m": 0.0}

        monkeypatch.setattr("irsloc.cli.uniqueness_experiment", fake)
        argv = ["uniqueness-check", "--scenes", "2", "--out", str(tmp_path)]
        assert main(argv + ["--seed", "0"]) == 0
        assert main(argv) == 0
        assert seen == [0, 1]

    @pytest.mark.parametrize(
        "argv, flag, value",
        (
            (["uniqueness-check", "--scenes", "0"], "--scenes", "'0'"),
            (["uniqueness-check", "--scenes", "-3"], "--scenes", "'-3'"),
            (["localize", "--trials", "0"], "--trials", "'0'"),
            (["localize", "--k", "0"], "--k", "'0'"),
            (["localize", "--trials", "x"], "--trials", "'x'"),
            (["topology", "--trials", "-1"], "--trials", "'-1'"),
            (["cardinality", "--k-values", "2,,3"], "--k-values", "''"),
            (["cardinality", "--k-values", "2,0"], "--k-values", "'0'"),
            (["cardinality", "--trials", "0"], "--trials", "'0'"),
        ),
    )
    def test_count_that_makes_no_sense_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch, argv, flag, value
    ):
        def never(*args, **kwargs):
            raise AssertionError("an experiment ran")

        for name in (
            "uniqueness_experiment",
            "run_localization",
            "cardinality_experiment",
            "topology_experiment",
        ):
            monkeypatch.setattr(f"irsloc.cli.{name}", never)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {value} is not a positive integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        (
            ["localize", "--seed", "-1"],
            ["uniqueness-check", "--seed", "-2"],
            ["cardinality", "--seed", "-1"],
            ["topology", "--seed", "-5"],
            ["baseline", "--seed", "-1"],
            ["localize", "--seed", "x"],
        ),
    )
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, monkeypatch, argv):
        # SeedSequence rejects negative entropy with a traceback; argparse
        # must reject the seed first
        def never(*args, **kwargs):
            raise AssertionError("an experiment ran")

        for name in (
            "uniqueness_experiment",
            "run_localization",
            "cardinality_experiment",
            "topology_experiment",
            "baseline_3bs",
        ):
            monkeypatch.setattr(f"irsloc.cli.{name}", never)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --seed: {argv[-1]!r} is not a non-negative integer" in err
        assert "Traceback" not in err

    def test_k_values_are_parsed_into_ints(self, tmp_path, capsys):
        argv = ["cardinality", "--trials", "1", "--out", str(tmp_path)]
        assert main(argv + ["--k-values", "3, 5"]) == 0
        assert re.findall(r"^K=(\d+) ", capsys.readouterr().out, re.M) == ["3", "5"]
        # the default list goes through the same parser
        assert main(argv) == 0
        assert re.findall(r"^K=(\d+) ", capsys.readouterr().out, re.M) == list("234567")


class TestReadme:
    def test_library_example_prints_one_line_per_target(self, capsys):
        # the README's python block must run as written and localize every
        # target of its scene
        text = (Path(__file__).parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
        namespace = {}
        exec(block, namespace)
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == namespace["cfg"].k
