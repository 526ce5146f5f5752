"""Scene geometry for two-BS, multi-IRS device-free sensing.

A scene is a 2-D layout holding two active base stations (BSs) at known
positions, ``R >= 1`` passive reflecting surfaces (IRSs) acting as extra
anchors, and ``K >= 1`` passive targets to be localized.  Each target sits in
the coverage region of exactly one IRS, the one nearest to it, and that
assignment is recorded as ground truth for scoring.

The echo geometry lives here too, once for every stage.  A BS hears two
echoes per target: the BS-target-BS round trip and the BS-target-IRS-BS
compound path via the target's serving IRS (``echo_lengths``), and one static
BS-IRS-BS reflection per IRS (distances in ``_layout_constants``).  A path of
total length ``x`` lands in delay cell ``floor(x / cell)`` (``delay_cell``).
The sampler, the tap synthesis, threshold calibration, the range quantizer
and the known anchor-reflection bins all follow these, which is what keeps
the sampler's promise that no two echoes a BS hears share a cell; the
synthesis and the calibration take the echo amplitudes from
``waveform.echo_gain``.  The sampler's collision check and
``RangeSets.from_geometry`` inline the formulas in plain floats, in the
helpers' operation order, so their results match the helpers bit for bit.

The anchor layout has one rule, ``check_layout``: two BSs at distinct points
and at least one IRS, no two IRSs at one point and none on a BS.  Every place
a layout enters (``ExperimentConfig``, ``Scene``, ``sample_targets``) calls
it.  The config classes' settings have one rule too, ``check_fields``, which
checks each against its annotation.  The module also hosts the
anchor-placement checks used by the uniqueness experiments: pairwise
differences of BS-to-IRS distances must be distinct, otherwise two IRSs
become interchangeable in the association step.
"""

import dataclasses
import functools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# The round-trip range cell C0 / B of the default 400 MHz waveform (the same
# value as ``OfdmConfig().cell_m``); used only to keep sampled targets in
# distinct delay cells so range lists have K entries.
DEFAULT_CELL_M = 0.75


class Point2D(NamedTuple):
    """Planar point, coordinates in meters."""

    x: float
    y: float


class SceneSamplingError(RuntimeError):
    """Raised when rejection sampling cannot place all targets."""


def as_point(p) -> Point2D:
    """Coerce a pair of finite real numbers to a Point2D; ValueError otherwise."""
    try:
        x, y = p
        if type(x) is not float or type(y) is not float:
            if isinstance(x, (str, bytes, bool)) or isinstance(y, (str, bytes, bool)):
                raise TypeError
            x, y = float(x), float(y)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"not a point of two real coordinates: {p!r}") from None
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"non-finite coordinates: {p!r}")
    return Point2D(x, y)


# the annotations ``check_fields`` knows and what each admits
FIELD_KINDS = {int: "an integer", float: "a finite number", bool: "true or false"}
FIELD_KINDS[float | None] = "a finite number or null"


def check_fields(obj) -> None:
    """Check each field of dataclass ``obj`` against its annotation: a
    ``FIELD_KINDS`` entry (ints and floats but not bools; floats stored as
    ``float``) or a nested dataclass block.  The ValueError names the field.
    Layouts are the class's to check."""
    for name, exact, kind in _field_plan(type(obj)):
        v = getattr(obj, name)
        if type(v) is exact and (exact is not float or math.isfinite(v)):
            continue
        if kind is int:
            ok = isinstance(v, (int, np.integer)) and not isinstance(v, bool)
        elif exact is not float:
            ok = isinstance(v, kind)
        else:
            real = isinstance(v, numbers.Real) and not isinstance(v, bool)
            ok = real and abs(v) <= sys.float_info.max or v is None and kind is not float
        if not ok:
            raise ValueError(f"{name} must be {FIELD_KINDS.get(kind) or kind.__name__}, got {v!r}")
        if v is not None and exact in (int, float):
            object.__setattr__(obj, name, exact(v))


@functools.cache
def _field_plan(cls) -> tuple:
    """``(name, exact type, annotation)`` of each field ``check_fields`` checks."""
    return tuple(
        (f.name, float if f.type == float | None else f.type, f.type)
        for f in dataclasses.fields(cls)
        if f.type in FIELD_KINDS or dataclasses.is_dataclass(f.type)
    )


def distance(a, b) -> float:
    """Euclidean distance in meters between two planar points."""
    return math.hypot(float(a[0]) - float(b[0]), float(a[1]) - float(b[1]))


def delay_cell(length_m: float, cell_m: float) -> int:
    """Delay cell holding a path of total length ``length_m``: floor(length / cell)."""
    return math.floor(length_m / cell_m)


def echo_lengths(bs_pos, irs_pos, target, d_it=None, d_bi=None) -> tuple[float, float]:
    """Total lengths ``(direct, via)`` of the two echoes a BS hears from a target.

    ``direct`` is the BS-target-BS round trip, ``via`` the BS-target-IRS-BS
    compound path through the IRS at ``irs_pos``.  A caller that already
    holds the IRS-target or BS-IRS ``distance`` passes it as ``d_it`` or ``d_bi``.
    """
    d_bt = distance(bs_pos, target)
    d_it = distance(irs_pos, target) if d_it is None else d_it
    return 2.0 * d_bt, d_bt + d_it + (distance(bs_pos, irs_pos) if d_bi is None else d_bi)


def nearest_irs(irs: tuple, point) -> int:
    """Index of the IRS closest to ``point`` (first one on exact ties)."""
    dists = [distance(p, point) for p in irs]
    return min(range(len(dists)), key=dists.__getitem__)


def _bs_axis(bs) -> tuple[np.ndarray, np.ndarray]:
    """BS 1 and the unit vector from BS 1 toward BS 2, as float arrays."""
    b1 = np.asarray(bs[0], dtype=float)
    axis = np.asarray(bs[1], dtype=float) - b1
    norm = np.hypot(*axis)
    if norm < 1e-12:
        raise ValueError("bs must hold two base stations at distinct points")
    return b1, axis / norm


def check_layout(bs, irs) -> tuple[tuple[Point2D, ...], tuple[Point2D, ...]]:
    """The anchor-layout rule; returns ``(bs, irs)`` coerced with ``as_point``.

    Raises ValueError starting ``bs must`` unless ``bs`` lists exactly two
    finite points, distinct (so the BS line is defined), and one starting
    ``irs must`` unless ``irs`` lists at least one finite point, no two IRSs
    share a point and no IRS sits on a BS, or so near one that their squared
    distance is 0.0.
    The checks are memoized per coerced layout (``_layout_constants``); a
    rejection is not.  The caller's points are returned, never the memo's,
    which may hold a ``-0.0`` where the caller has ``0.0``.
    """
    bs, irs = _points("bs", bs), _points("irs", irs)
    _layout_constants(bs, irs)
    return bs, irs


def _points(name: str, points) -> tuple[Point2D, ...]:
    try:
        return tuple(as_point(p) for p in points)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must list finite 2-D points, got {points!r}") from None


@functools.lru_cache(maxsize=64)
def _layout_constants(bs: tuple[Point2D, ...], irs: tuple[Point2D, ...]):
    """Check a coerced layout; return its sampling constants ``(frames, d_bi)``.

    ``frames[r]`` holds the BS-line direction and the normal toward the line
    at IRS ``r``; ``d_bi[m][r]`` is ``distance(bs[m], irs[r])``.
    """
    if len(bs) != 2:
        raise ValueError("bs must hold exactly two base stations")
    b1, u = _bs_axis(bs)  # raises when the BS line is undefined
    if not irs:
        raise ValueError("irs must hold at least one surface")
    if len(set(irs)) != len(irs):
        raise ValueError("irs must hold distinct positions")
    d_bi = tuple(tuple(distance(b, q) for q in irs) for b in bs)
    # a square that underflows to 0.0 would divide by zero in the echo gains
    if any(d**2 == 0.0 for row in d_bi for d in row):
        raise ValueError("irs must not sit on a base station")
    n = np.array([-u[1], u[0]])
    toward = [-n if float(np.dot(np.asarray(q) - b1, n)) > 0 else n for q in irs]
    return tuple((*u.tolist(), *t.tolist()) for t in toward), d_bi


@dataclass(frozen=True)
class Scene:
    """Static layout of one trial.

    ``true_irs[k]`` is the index of the IRS nearest to target ``k``.  It is
    ground truth for scoring only; estimators never read it.
    """

    bs: tuple[Point2D, Point2D]
    irs: tuple[Point2D, ...]
    targets: tuple[Point2D, ...]
    true_irs: tuple[int, ...]

    def __post_init__(self):
        bs, irs = check_layout(self.bs, self.irs)
        object.__setattr__(self, "bs", bs)
        object.__setattr__(self, "irs", irs)
        object.__setattr__(self, "targets", tuple(as_point(p) for p in self.targets))
        object.__setattr__(self, "true_irs", tuple(int(g) for g in self.true_irs))
        if len(self.targets) < 1:
            raise ValueError("at least one target required")
        if len(self.true_irs) != len(self.targets):
            raise ValueError("true_irs must have one entry per target")
        for k, ((x, y), g) in enumerate(zip(self.targets, self.true_irs)):
            if not 0 <= g < len(irs):
                raise ValueError(f"true_irs[{k}] out of range")
            dists = [math.hypot(qx - x, qy - y) for qx, qy in irs]  # as distance
            if min(dists) < dists[g] - 1e-9:
                raise ValueError(f"true_irs[{k}] is not the nearest IRS")

    @property
    def n_irs(self) -> int:
        return len(self.irs)

    @property
    def n_targets(self) -> int:
        return len(self.targets)


@dataclass(frozen=True)
class TopologyReport:
    """Outcome of the anchor-placement check.

    ``offending_pairs`` lists IRS index pairs whose BS-distance differences
    coincide within tolerance.  A pair with both differences near zero means
    both IRSs sit on the perpendicular bisector of the BS segment
    (``c1_ok`` false); any other coincidence puts them on a common hyperbola
    branch with the BSs as foci (``c2_ok`` false).
    """

    c1_ok: bool
    c2_ok: bool
    offending_pairs: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return self.c1_ok and self.c2_ok


def bs_distance_difference(bs, irs_pos) -> float:
    """d(BS1, IRS) - d(BS2, IRS), the quantity that must be pairwise distinct."""
    return distance(bs[0], irs_pos) - distance(bs[1], irs_pos)


def check_topology(bs, irs, tol: float = 1e-6) -> TopologyReport:
    """Verify that the IRS placement ``irs`` admits unique association.

    Two IRSs with equal BS-distance differences (within ``tol`` meters)
    produce identical consistency gaps for swapped assignments, so the
    association step cannot tell them apart even with perfect ranges.
    """
    deltas = [bs_distance_difference(bs, p) for p in irs]
    offending = []
    c1_ok = True
    c2_ok = True
    for r in range(len(deltas)):
        for s in range(r + 1, len(deltas)):
            if abs(deltas[r] - deltas[s]) <= tol:
                offending.append((r, s))
                if abs(deltas[r]) <= tol and abs(deltas[s]) <= tol:
                    c1_ok = False
                else:
                    c2_ok = False
    return TopologyReport(c1_ok=c1_ok, c2_ok=c2_ok, offending_pairs=tuple(offending))


def sample_targets(
    bs,
    irs,
    k: int,
    radius: float,
    seed,
    cell_m: float | None = DEFAULT_CELL_M,
    max_attempts_per_target: int = 1000,
) -> Scene:
    """Draw a random scene with ``k`` targets.

    Each target picks a serving IRS uniformly, then lands uniformly in the
    half disc of the given radius around that IRS, on the side facing the
    BS line.  Draws are rejected when the sampled point is nearer to some
    other IRS, or when ``cell_m`` is set and one of the point's echoes
    (``echo_lengths``) falls in the same ``delay_cell`` as any other echo a
    BS hears: another target's echo, a static BS-IRS-BS reflection, or the
    point's own second echo at that BS.  A collision would merge two entries
    of a range list or hide one behind a known reflection, and downstream
    association assumes one direct plus one via entry per target in every
    list.  Deterministic in ``seed``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    radius = float(radius)
    if not 0 < radius < math.inf:
        raise ValueError("radius must be positive and finite")
    bs, irs = check_layout(bs, irs)
    frames, d_bi = _layout_constants(bs, irs)
    rng = np.random.default_rng(seed)
    # rng.uniform(lo, hi) is lo + (hi - lo) * rng.random(): the same draws
    draw, pick = rng.random, rng.integers

    taken1: set[int] = set()
    taken2: set[int] = set()
    row1, row2 = d_bi
    if cell_m is not None:
        taken1.update(delay_cell(2.0 * d, cell_m) for d in row1)
        taken2.update(delay_cell(2.0 * d, cell_m) for d in row2)
    (b1x, b1y), (b2x, b2y) = bs
    hypot, floor = math.hypot, math.floor

    targets: list[Point2D] = []
    assignment: list[int] = []
    for _ in range(k):
        for attempt in range(max_attempts_per_target):
            g = int(pick(len(irs)))
            # uniform over the half disc, in plain floats rounded like
            # numpy's elementwise 2-vectors
            (cx, cy), (ux, uy, tx, ty) = irs[g], frames[g]
            r = radius * math.sqrt(draw())
            phi = math.pi * draw()
            c, s = math.cos(phi), math.sin(phi)
            x, y = cx + r * (c * ux + s * tx), cy + r * (c * uy + s * ty)
            dists = [hypot(qx - x, qy - y) for qx, qy in irs]  # as nearest_irs
            d_it = min(dists)
            if dists.index(d_it) != g:
                continue
            if cell_m is not None:
                # echo_lengths and delay_cell at each BS, in their float order
                t = hypot(b1x - x, b1y - y)
                d1, v1 = floor(2.0 * t / cell_m), floor((t + d_it + row1[g]) / cell_m)
                if d1 == v1 or d1 in taken1 or v1 in taken1:
                    continue
                t = hypot(b2x - x, b2y - y)
                d2, v2 = floor(2.0 * t / cell_m), floor((t + d_it + row2[g]) / cell_m)
                if d2 == v2 or d2 in taken2 or v2 in taken2:
                    continue
                taken1.update((d1, v1))
                taken2.update((d2, v2))
            targets.append(Point2D(x, y))
            assignment.append(g)
            break
        else:
            raise SceneSamplingError(
                f"could not place target {len(targets)} after "
                f"{max_attempts_per_target} attempts"
            )
    # no Scene.__post_init__: the draw made its checks, the argmin more strictly
    scene = object.__new__(Scene)
    scene.__dict__.update(bs=bs, irs=irs, targets=tuple(targets), true_irs=tuple(assignment))
    return scene


def mirror_across_bs_line(bs, point) -> Point2D:
    """Reflect ``point`` across the line through the two BSs.

    Reflection preserves the distance to every point on the line, so the
    image has the same BS-distance difference as the original.  Used to
    construct anchor placements that defeat the pairwise-distinctness check.
    """
    b1, u = _bs_axis((as_point(bs[0]), as_point(bs[1])))
    v = np.asarray(as_point(point), dtype=float) - b1
    along = np.dot(v, u) * u
    reflected = b1 + 2.0 * along - v
    return Point2D(float(reflected[0]), float(reflected[1]))
