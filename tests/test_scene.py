import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import reference_sample_targets
from test_harness import LAYOUT_BS_PAIRS, LAYOUT_IRS_POOL

from irsloc import scene as scene_module
from irsloc.scene import (
    DEFAULT_CELL_M,
    Point2D,
    Scene,
    SceneSamplingError,
    as_point,
    bs_distance_difference,
    check_layout,
    check_topology,
    distance,
    mirror_across_bs_line,
    nearest_irs,
    sample_targets,
)
from irsloc.waveform import OfdmConfig

BS = (Point2D(100.0, 0.0), Point2D(-100.0, 0.0))
# BS lines on neither axis: the layout pool's pairs are axis-aligned, which
# makes the draw's products and sums exact, so these are what test rounding
TILTED_BS_PAIRS = (
    (Point2D(100.0, 0.0), Point2D(-80.0, 35.0)),
    (Point2D(13.7, -42.1), Point2D(-91.3, 77.9)),
)


def make_scene(irs, targets, true_irs):
    return Scene(
        bs=BS,
        irs=tuple(as_point(q) for q in irs),
        targets=tuple(as_point(t) for t in targets),
        true_irs=tuple(true_irs),
    )


class TestDistance:
    def test_known_value(self):
        assert distance(Point2D(0, 0), Point2D(3, 4)) == 5.0

    def test_symmetry_and_triangle_property(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-200, 200, size=(50, 3, 2))
        for a, b, c in pts:
            a, b, c = as_point(a), as_point(b), as_point(c)
            assert distance(a, b) == pytest.approx(distance(b, a), abs=0.0)
            assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9
            assert distance(a, a) == 0.0

    def test_accepts_tuples_and_arrays(self):
        assert distance((0, 0), np.array([0.0, 2.0])) == 2.0


class TestLayoutRule:
    @pytest.mark.parametrize(
        "bs, irs, start",
        [
            ((BS[0],), ((0.0, 40.0),), "bs must"),
            ((BS[0], BS[0]), ((0.0, 40.0),), "bs must"),
            (BS, (), "irs must"),
            (BS, ((0.0, 40.0), (0.0, 40.0)), "irs must"),
            (BS, ((0.0, 40.0), BS[1]), "irs must"),
            (((0.0, 0.0), (200.0, 0.0)), ((1e-170, 0.0), (100.0, 40.0)), "irs must"),
        ],
        ids=[
            "one_bs",
            "coincident_bs",
            "no_irs",
            "duplicate_irs",
            "irs_on_bs",
            "irs_square_underflows_on_bs",
        ],
    )
    def test_every_entry_point_rejects_alike(self, bs, irs, start):
        with pytest.raises(ValueError, match=f"^{start}"):
            check_layout(bs, irs)
        with pytest.raises(ValueError, match=f"^{start}"):
            Scene(bs=bs, irs=irs, targets=((0.0, 30.0),), true_irs=(0,))
        with pytest.raises(ValueError, match=f"^{start}"):
            sample_targets(bs, irs, 2, 50.0, seed=1)

    def test_returns_coerced_points(self):
        bs, irs = check_layout([[100, 0], np.array([-100.0, 0.0])], [(0, 40)])
        assert bs == BS and irs == (Point2D(0.0, 40.0),)
        assert all(type(p) is Point2D for p in bs + irs)

    def test_near_bs_means_a_zero_squared_distance(self):
        # 1e-162 m squares to 0.0 and would divide by zero in the echo
        # gains; 1e-160 m and 1e-13 m square to nonzero values and still run
        bs = ((0.0, 0.0), (200.0, 0.0))
        with pytest.raises(ValueError, match="^irs must not sit on a base station"):
            check_layout(bs, ((1e-162, 0.0), (100.0, 40.0)))
        for offset in (1e-160, 1e-13):
            check_layout(bs, ((offset, 0.0), (100.0, 40.0)))

    def test_rejected_layout_raises_on_every_call(self):
        # the layout memo keeps no exception, so nothing is remembered as valid
        memo = scene_module._layout_constants
        before = memo.cache_info().currsize
        for _ in range(3):
            with pytest.raises(ValueError, match="^bs must"):
                check_layout((BS[0], BS[0]), ((0.0, 40.0),))
            with pytest.raises(ValueError, match="^irs must"):
                check_layout(BS, ((0.0, 40.0), (0.0, 40.0)))
        assert memo.cache_info().currsize <= before

    def test_list_and_array_inputs_coerce_on_every_call(self):
        # a memo hit still returns the caller's layout coerced to Point2D
        want = check_layout(BS, ((0.0, 40.0), (70.0, 40.0)))
        for bs, irs in [
            ([[100, 0], [-100, 0]], [[0, 40], [70, 40]]),
            (np.array([[100.0, 0.0], [-100.0, 0.0]]), np.array([[0, 40], [70, 40]])),
        ]:
            got = check_layout(bs, irs)
            assert got == want
            assert all(type(p) is Point2D and type(p.x) is float for p in got[0] + got[1])

    def test_layout_memo_is_bounded(self):
        memo = scene_module._layout_constants
        bound = memo.cache_info().maxsize
        assert bound is not None
        for i in range(2 * bound + 5):
            check_layout(BS, ((float(i), 40.0),))
        assert memo.cache_info().currsize <= bound
        hits = memo.cache_info().hits
        check_layout(BS, ((float(2 * bound), 40.0),))
        assert memo.cache_info().hits == hits + 1

    def test_memo_hit_keeps_the_callers_signed_zeros(self):
        # 0.0 == -0.0, so a layout and its twin share one memo entry; the
        # scene must still carry the caller's zeros and the reference's draws
        plus = ((100.0, 0.0), (-100.0, 0.0)), ((0.0, 40.0), (70.0, 40.0))
        minus = ((100.0, -0.0), (-100.0, 0.0)), ((-0.0, 40.0), (70.0, 40.0))
        for first, second in ((plus, minus), (minus, plus)):
            scene_module._layout_constants.cache_clear()
            for layout in (first, second):
                got = sample_targets(*layout, 6, 50.0, seed=4)
                assert repr(got) == repr(reference_sample_targets(*layout, 6, 50.0, seed=4))
            assert scene_module._layout_constants.cache_info().currsize == 1
        assert "-0.0" in repr(check_layout(*minus)) and "-0.0" not in repr(check_layout(*plus))

    def test_mirror_needs_a_bs_line(self):
        with pytest.raises(ValueError, match="^bs must"):
            mirror_across_bs_line((BS[0], BS[0]), (0.0, 40.0))


class TestNearestIrs:
    def test_picks_closest(self):
        irs = (Point2D(-60, 40), Point2D(70, 40))
        assert nearest_irs(irs, Point2D(-50, 30)) == 0
        assert nearest_irs(irs, Point2D(71, 45)) == 1

    def test_scene_rejects_wrong_assignment(self):
        irs = ((-60.0, 40.0), (70.0, 40.0))
        with pytest.raises(ValueError):
            make_scene(irs, [(-50.0, 30.0)], [1])


class TestTopology:
    def test_mirror_pair_breaks_distinct_differences(self):
        # mirror images across the BS line share their distance difference
        report = check_topology(BS, ((80.0, 60.0), (80.0, -60.0)))
        assert report.c1_ok is True
        assert report.c2_ok is False
        assert report.offending_pairs == ((0, 1),)
        assert report.ok is False

    def test_two_on_perpendicular_bisector(self):
        # both anchors equidistant from the BSs: zero difference twice
        report = check_topology(BS, ((0.0, 60.0), (0.0, 90.0)))
        assert report.c1_ok is False

    def test_broken_pair_fixed_by_moving_one(self):
        report = check_topology(BS, ((0.0, 60.0), (30.0, -60.0)))
        assert report.c1_ok and report.c2_ok
        assert report.offending_pairs == ()

    def test_single_irs_always_fine(self):
        report = check_topology(BS, ((0.0, 40.0),))
        assert report.c1_ok and report.c2_ok

    def test_difference_value(self):
        q = Point2D(30.0, 40.0)
        expected = distance(BS[0], q) - distance(BS[1], q)
        assert bs_distance_difference(BS, q) == pytest.approx(expected)


class TestMirror:
    def test_on_axis_fixed_point(self):
        p = Point2D(10.0, 0.0)
        assert mirror_across_bs_line(BS, p) == pytest.approx((10.0, 0.0))

    def test_preserves_bs_distances(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = Point2D(*rng.uniform(-100, 100, size=2))
            m = mirror_across_bs_line(BS, p)
            for b in BS:
                assert distance(b, m) == pytest.approx(distance(b, p), rel=1e-12)

    def test_involution(self):
        bs = (Point2D(5.0, -3.0), Point2D(-2.0, 11.0))
        p = Point2D(1.0, 7.0)
        back = mirror_across_bs_line(bs, mirror_across_bs_line(bs, p))
        assert back.x == pytest.approx(p.x, abs=1e-12)
        assert back.y == pytest.approx(p.y, abs=1e-12)


class TestSampling:
    def test_default_cell_is_the_waveform_range_cell(self):
        # scene cannot import waveform, so the two constants stay separate
        assert DEFAULT_CELL_M == OfdmConfig().cell_m

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_targets(BS, ((0.0, 40.0),), 0, 50.0, seed=1)
        with pytest.raises(ValueError):
            sample_targets(BS, ((0.0, 40.0),), 2, -1.0, seed=1)
        # a non-finite radius would place non-finite targets
        for radius in (math.inf, math.nan):
            with pytest.raises(ValueError, match="radius must"):
                sample_targets(BS, ((0.0, 40.0),), 2, radius, seed=1, cell_m=None)

    def test_radius_and_irs_side(self):
        irs = ((-60.0, 40.0), (70.0, 40.0))
        scene = sample_targets(BS, irs, 4, 50.0, seed=9)
        assert scene.n_targets == 4
        for k, t in enumerate(scene.targets):
            g = scene.true_irs[k]
            assert distance(scene.irs[g], t) <= 50.0 + 1e-9
            assert nearest_irs(scene.irs, t) == g
            # half disc opens toward the BS line: sampled y below the IRS row
            assert t.y <= scene.irs[g].y + 1e-9

    def test_half_disc_below_when_irs_under_axis(self):
        irs = ((0.0, -70.0),)
        scene = sample_targets(BS, irs, 6, 50.0, seed=2)
        for t in scene.targets:
            assert t.y >= -70.0 - 1e-9

    def test_deterministic_in_seed(self):
        irs = ((0.0, 40.0),)
        a = sample_targets(BS, irs, 5, 50.0, seed=123)
        b = sample_targets(BS, irs, 5, 50.0, seed=123)
        c = sample_targets(BS, irs, 5, 50.0, seed=124)
        assert a.targets == b.targets
        assert a.targets != c.targets

    def test_no_quantized_echo_collisions(self):
        irs = ((-60.0, 40.0), (70.0, 40.0))
        for seed in range(5):
            scene = sample_targets(BS, irs, 6, 50.0, seed=seed)
            for m, bs_pos in enumerate(scene.bs):
                cells = []
                for q in scene.irs:
                    cells.append(math.floor(2.0 * distance(bs_pos, q) / DEFAULT_CELL_M))
                for k, t in enumerate(scene.targets):
                    g = scene.true_irs[k]
                    direct = 2.0 * distance(bs_pos, t)
                    via = (
                        distance(bs_pos, t)
                        + distance(scene.irs[g], t)
                        + distance(bs_pos, scene.irs[g])
                    )
                    cells.append(math.floor(direct / DEFAULT_CELL_M))
                    cells.append(math.floor(via / DEFAULT_CELL_M))
                assert len(cells) == len(set(cells))

    def test_unquantized_mode_skips_cell_rejection(self):
        irs = ((0.0, 40.0),)
        scene = sample_targets(BS, irs, 3, 50.0, seed=7, cell_m=None)
        assert scene.n_targets == 3

    def test_impossible_scene_raises(self):
        # a tiny disc cannot host many collision-free targets
        irs = ((0.0, 40.0),)
        with pytest.raises(SceneSamplingError):
            sample_targets(BS, irs, 40, 0.5, seed=1, max_attempts_per_target=50)

    @settings(max_examples=200, deadline=None)
    @given(
        bs=st.sampled_from(LAYOUT_BS_PAIRS + TILTED_BS_PAIRS),
        irs=st.lists(st.sampled_from(LAYOUT_IRS_POOL), min_size=1, max_size=3),
        k=st.integers(1, 7),
        radius=st.sampled_from((10.0, 50.0, 150.0)),
        cell_m=st.sampled_from((None, DEFAULT_CELL_M, 0.3)),
        seed=st.integers(0, 2**32 - 1),
    )
    # seed 0 on a cell other than the stock one
    @example(
        bs=TILTED_BS_PAIRS[1],
        irs=[(0.0, 40.0), (-60.0, 80.0), (80.0, -60.0)],
        k=7,
        radius=50.0,
        cell_m=0.3,
        seed=0,
    )
    # the turned BS pair with surfaces on either side of its line
    @example(
        bs=LAYOUT_BS_PAIRS[1],
        irs=[(40.0, 0.0), (-60.0, 80.0), (80.0, -60.0)],
        k=7,
        radius=150.0,
        cell_m=DEFAULT_CELL_M,
        seed=3,
    )
    @example(
        bs=TILTED_BS_PAIRS[0],
        irs=[(0.0, 40.0), (80.0, -60.0)],
        k=5,
        radius=50.0,
        cell_m=DEFAULT_CELL_M,
        seed=1,
    )
    def test_matches_per_draw_reference(self, bs, irs, k, radius, cell_m, seed):
        # bit for bit: same points and surfaces, or the same error
        def outcome(sample):
            try:
                scene = sample(bs, irs, k, radius, seed, cell_m=cell_m, max_attempts_per_target=200)
            except (ValueError, SceneSamplingError) as err:
                return type(err), str(err)
            return repr(scene.targets), scene.true_irs

        assert outcome(sample_targets) == outcome(reference_sample_targets)

    @settings(max_examples=150, deadline=None)
    @given(
        bs=st.sampled_from(LAYOUT_BS_PAIRS + TILTED_BS_PAIRS),
        irs=st.lists(st.sampled_from(LAYOUT_IRS_POOL), min_size=1, max_size=3),
        k=st.integers(1, 7),
        radius=st.sampled_from((10.0, 50.0, 150.0)),
        cell_m=st.sampled_from((None, DEFAULT_CELL_M)),
        seed=st.integers(0, 2**32 - 1),
    )
    # signed zeros in both the BS pair and the surfaces
    @example(
        bs=((100.0, -0.0), (-100.0, 0.0)),
        irs=[(-0.0, 40.0), (70.0, 40.0)],
        k=5,
        radius=50.0,
        cell_m=DEFAULT_CELL_M,
        seed=1,
    )
    # a numpy radius: the targets must still hold plain floats
    @example(
        bs=TILTED_BS_PAIRS[1],
        irs=[(0.0, 40.0), (80.0, -60.0), (-60.0, 80.0)],
        k=6,
        radius=np.float64(50.0),
        cell_m=DEFAULT_CELL_M,
        seed=7,
    )
    def test_sampled_scene_passes_full_validation(self, bs, irs, k, radius, cell_m, seed):
        # the sampler skips Scene.__post_init__; the scene it returns must
        # be one that construction accepts and leaves unchanged
        try:
            s = sample_targets(bs, irs, k, radius, seed, cell_m=cell_m, max_attempts_per_target=200)
        except (ValueError, SceneSamplingError):
            return
        again = Scene(bs=s.bs, irs=s.irs, targets=s.targets, true_irs=s.true_irs)
        assert again == s
        assert repr(again) == repr(s)
