"""Reference forms that the package's fast paths are pinned to.

Each function here is the straightforward, slower form of a package
function, kept verbatim so property tests can demand identical output.
"""

import math

import numpy as np

from irsloc.association import circle_intersections
from irsloc.ranging import (
    RangeSets,
    build_range_sets,
    detect_support,
    irs_echo_bins,
    lasso_solve,
    weighted_lasso_solve,
)
from irsloc.scene import (
    DEFAULT_CELL_M,
    Point2D,
    Scene,
    SceneSamplingError,
    _bs_axis,
    check_layout,
    delay_cell,
    distance,
    echo_lengths,
    nearest_irs,
)
from irsloc.waveform import build_paths, make_pilots, make_plan, simulate_freq_rx


def reference_half_disc_sample(rng, center: Point2D, radius: float, bs_axis) -> Point2D:
    """One half-disc draw with the BS-line normal and side worked out per
    draw on numpy 2-vectors."""
    b1, u = bs_axis
    n = np.array([-u[1], u[0]])
    side = float(np.dot(np.asarray(center) - b1, n))
    toward = -n if side > 0 else n
    r = radius * math.sqrt(rng.uniform())
    phi = rng.uniform(0.0, math.pi)
    offset = r * (math.cos(phi) * u + math.sin(phi) * toward)
    return Point2D(center.x + offset[0], center.y + offset[1])


def reference_sample_targets(
    bs,
    irs,
    k: int,
    radius: float,
    seed,
    cell_m: float | None = DEFAULT_CELL_M,
    max_attempts_per_target: int = 1000,
) -> Scene:
    """``sample_targets`` with per-draw frames, ``nearest_irs`` and
    ``echo_lengths``: the same rng stream, rejections and errors."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if radius <= 0:
        raise ValueError("radius must be positive")
    bs, irs = check_layout(bs, irs)
    bs_axis = _bs_axis(bs)
    rng = np.random.default_rng(seed)

    occupied: list[set[int]] = [set(), set()]
    if cell_m is not None:
        for m, bs_pos in enumerate(bs):
            occupied[m].update(delay_cell(2.0 * distance(bs_pos, q), cell_m) for q in irs)

    targets: list[Point2D] = []
    assignment: list[int] = []
    for _ in range(k):
        for attempt in range(max_attempts_per_target):
            g = int(rng.integers(len(irs)))
            pos = reference_half_disc_sample(rng, irs[g], radius, bs_axis)
            if nearest_irs(irs, pos) != g:
                continue
            if cell_m is not None:
                cells = []
                for bs_pos in bs:
                    direct, via = echo_lengths(bs_pos, irs[g], pos)
                    cells.append((delay_cell(direct, cell_m), delay_cell(via, cell_m)))
                if any(
                    d == v or d in occupied[m] or v in occupied[m]
                    for m, (d, v) in enumerate(cells)
                ):
                    continue
                for m, pair in enumerate(cells):
                    occupied[m].update(pair)
            targets.append(pos)
            assignment.append(g)
            break
        else:
            raise SceneSamplingError(
                f"could not place target {len(targets)} after "
                f"{max_attempts_per_target} attempts"
            )
    return Scene(bs=bs, irs=irs, targets=tuple(targets), true_irs=tuple(assignment))


def reference_closest_irs_candidates(scene: Scene, sets, direct1: int, direct2: int) -> frozenset[int]:
    """The nearest-surface rule of one pick through ``circle_intersections``
    and ``distance``, recomputing the BS distance and axis per call."""
    r1 = 0.5 * sets.direct[0][direct1]
    r2 = 0.5 * sets.direct[1][direct2]
    points = circle_intersections(scene.bs[0], r1, scene.bs[1], r2)
    candidates = set()
    for p in points:
        dists = [distance(q, p) for q in scene.irs]
        best = min(dists)
        candidates.update(r for r, d in enumerate(dists) if d <= best + 1e-9)
    return frozenset(candidates)


def reference_steering_matrix(subcarriers, n_fft: int, n_taps: int) -> np.ndarray:
    """The delay steering matrix of any comb of 1-based subcarriers, entry
    (n, l) = exp(-2j*pi*(c_n - 1)*l / N), with the integer phase reduced mod
    N as ``waveform.steering_matrix``'s twiddle lookup reduces it."""
    k = np.outer(np.asarray(subcarriers) - 1, np.arange(n_taps)) % n_fft
    return np.exp(-2j * np.pi * k / n_fft)


def reference_phase1_range_sets(scene: Scene, cfg, seed_seq) -> RangeSets:
    """``harness._phase1_range_sets`` through the dense chain: both symbols'
    samples synthesized from ``build_paths``' tap lists, one solve and one
    detection per BS and symbol, seeds spawned as the harness spawns them."""
    ofdm = cfg.ofdm
    plan = make_plan(ofdm.n_subcarriers)
    rcfg = cfg.ranging_config(scene)
    pilot_seed, phase_seed_seq, noise1, noise2 = seed_seq.spawn(4)
    phase_seed = int(phase_seed_seq.generate_state(1)[0])
    pilots = make_pilots(plan, pilot_seed)
    snaps = [
        simulate_freq_rx(build_paths(scene, ofdm, symbol, phase_seed), pilots, ofdm, plan, seed)
        for symbol, seed in ((1, noise1), (2, noise2))
    ]
    known = irs_echo_bins(scene, ofdm)
    first = tuple(lasso_solve(snaps[0].by_bs[m], ofdm, rcfg) for m in (0, 1))
    second = tuple(
        weighted_lasso_solve(
            snaps[1].by_bs[m], known[m], detect_support(first[m], rcfg.delta1), ofdm, rcfg
        )
        for m in (0, 1)
    )
    return build_range_sets(first, second, scene, ofdm, rcfg)
