"""Range extraction from estimated multipath channels.

Phase I of the pipeline: recover the sparse tap vector of each BS's
monostatic channel from one pilot symbol, threshold it into a delay support,
and convert delays to ranges.  The first symbol sees only direct target
echoes; the second adds IRS reflections, whose delays are known from anchor
geometry, plus the compound target-via-IRS echoes: whatever its support
holds outside the first symbol's and the anchor bins.

The tap estimate minimizes ``0.5 * ||y - A h||^2 + rho * ||h||_1``, with
``A = sqrt(p) * diag(s) * G`` and ``G`` the delay steering matrix of the
BS's comb.  On an interleaved comb (N/2 bins at stride 2) with unit-modulus
pilots and ``L <= N/2`` taps, ``A'A = c * I``, ``c = p * N/2``, exactly, so
this is the orthonormal-design lasso and its minimizer is one complex soft
threshold of the matched-filter output ``v = A'y / c`` at ``rho / c``
(Tibshirani 1996; Donoho and Johnstone 1994).  ``A'y`` is one length-N
inverse FFT of the pilot-compensated samples scattered onto the comb.  A
bin is detected when ``|v| >= delta1 + rho / c``; calibrated, ``rho / c =
sigma * sqrt(2 ln L)``, 3.59 sigma above ``delta1`` at L = 640.

Experiments never form ``y``: ``waveform.tap_domain_rx`` gives ``v = h +
A'z / c`` of both symbols and both BSs straight from
``waveform.channel_taps``' arrays and the noise draws, and one comparison on
that ``(2, 2, L)`` array detects every bin.  ``lasso_solve`` and
``weighted_lasso_solve`` take ``v`` per BS from samples synthesized from
``waveform.build_paths`` (``waveform.simulate_freq_rx``) instead, and
``build_range_sets`` detects on their estimates; they are the reference
chain the acceptance tests and the benchmark's traced rebuild run.
"""

import math
from dataclasses import dataclass

import numpy as np

from .scene import Scene, _layout_constants, check_fields, delay_cell
from .waveform import BsSnapshot, LinkType, OfdmConfig, echo_gain, matched_filter


@dataclass(frozen=True)
class RangingConfig:
    """Phase I's l1 penalty and detection threshold.

    ``rho`` penalizes every tap of both symbols' solves, and ``delta1`` is
    the magnitude threshold that turns either estimate into a support.
    """

    rho: float
    delta1: float

    def __post_init__(self):
        check_fields(self)
        if self.rho < 0:
            raise ValueError("rho must be nonnegative")
        if self.delta1 <= 0:
            raise ValueError("delta1 must be positive")

    @classmethod
    def calibrated(
        cls, cfg: OfdmConfig, scene: Scene, coverage_radius: float
    ) -> "RangingConfig":
        """Penalty and threshold from the link budget of the worst covered geometry.

        Tap noise sigma follows from the per-subcarrier noise and the comb's
        matched-filter gain ``c = p * N/2``.  ``rho`` follows the universal
        rule ``rho / c = sigma * sqrt(2 ln L)``; ``delta1`` sits at six
        sigma, clamped to half of the weakest echo amplitude any target
        inside the coverage radius can produce.  A bin is detected when
        ``|v| >= delta1 + rho / c``, so the cap bounds ``delta1`` only: at
        24 dBm on one surface (L = 512) the threshold is 5.65 sigma, against
        an allowed weakest echo of 4.2 sigma.
        """
        if coverage_radius <= 0:
            raise ValueError("coverage_radius must be positive")
        n_sc = cfg.n_subcarriers // 2
        p = cfg.subcarrier_power_w
        sigma_tap = math.sqrt(cfg.noise_var / (p * n_sc))

        weakest = math.inf
        for row in _layout_constants(scene.bs, scene.irs)[1]:
            for d_bi in row:
                d_bt_max = d_bi + coverage_radius
                weakest = min(
                    weakest,
                    echo_gain(cfg, LinkType.IRS_ECHO, d_bi, d_bi),
                    echo_gain(cfg, LinkType.TARGET_ECHO, d_bt_max, d_bt_max),
                    echo_gain(cfg, LinkType.TARGET_VIA_IRS, d_bt_max, coverage_radius, d_bi),
                )
        cap = 0.5 * weakest
        delta = cap if sigma_tap == 0 or 6.0 * sigma_tap > cap else 6.0 * sigma_tap

        # objective-domain weight giving a sigma*sqrt(2 log L) tap shrinkage
        rho = sigma_tap * math.sqrt(2.0 * math.log(cfg.n_taps)) * (p * n_sc)
        return cls(rho=rho, delta1=delta)


@dataclass(eq=False)
class ChannelEstimate:
    """Tap vector estimate and the solver passes it took."""

    h: np.ndarray
    n_iters: int

    @property
    def magnitudes(self) -> np.ndarray:
        return np.abs(self.h)


def soft_threshold(z, t):
    """Complex soft thresholding: shrink magnitude by ``t``, keep phase."""
    z = np.asarray(z, dtype=complex)
    mag = np.abs(z)
    scale = np.maximum(1.0 - t / np.maximum(mag, 1e-300), 0.0)
    out = z * scale
    if out.ndim == 0:
        return complex(out)
    return out


def shrink(v: np.ndarray, beta: float, cfg: OfdmConfig, p: float | None = None) -> ChannelEstimate:
    """Lasso estimate from its matched-filter vector ``v = A'y / c``.

    With ``A'A = c * I``, ``c = p * N/2``, the minimizer is ``v`` soft
    thresholded at ``beta / c``.  ``p`` defaults to the config's
    per-subcarrier power, the one ``waveform`` transmits at.
    """
    c = (cfg.subcarrier_power_w if p is None else p) * (cfg.n_subcarriers // 2)
    return ChannelEstimate(h=soft_threshold(v, beta / c), n_iters=1)


def _matched_filter(snap: BsSnapshot, cfg: OfdmConfig) -> np.ndarray:
    """``A'y / (p * N/2)`` of one received comb.

    Raises ValueError unless the comb is N/2 bins at stride 2 and the pilots
    are unit-modulus: only then is ``A'A`` the scaled identity the closed
    form relies on.
    """
    n = cfg.n_subcarriers
    comb = tuple(snap.subcarriers)
    if not comb or comb[0] not in (1, 2) or comb != tuple(range(comb[0], comb[0] + n, 2)):
        raise ValueError("closed-form recovery needs an interleaved comb of N/2 bins")
    s = np.asarray(snap.pilots, dtype=complex)
    if np.max(np.abs(np.abs(s) - 1.0)) > 1e-12:
        raise ValueError("closed-form recovery needs unit-modulus pilots")
    return matched_filter(s.conj() * snap.rx, comb[0] - 1, snap.tx_power_w, cfg)


def lasso_solve(snap: BsSnapshot, cfg: OfdmConfig, rcfg: RangingConfig) -> ChannelEstimate:
    """Tap recovery of either symbol at the uniform l1 penalty ``rho``."""
    return shrink(_matched_filter(snap, cfg), rcfg.rho, cfg, snap.tx_power_w)


def weighted_lasso_solve(
    snap: BsSnapshot,
    irs_bins,
    target_bins,
    cfg: OfdmConfig,
    rcfg: RangingConfig,
) -> ChannelEstimate:
    """Second-symbol recovery: ``lasso_solve`` of ``snap``.

    ``irs_bins`` are delay bins of the static anchor reflections (from
    geometry), ``target_bins`` the support detected in the first symbol.
    No weight on them can change a ``RangeSets``: soft thresholding acts per
    bin, and ``range_sets_from_bins`` drops exactly these bins from the
    second support, so the solve does not read them.
    """
    return lasso_solve(snap, cfg, rcfg)


def detect_support(est: ChannelEstimate, delta: float) -> set[int]:
    """Delay bins whose estimated magnitude reaches ``delta``."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return {int(l) for l in np.nonzero(est.magnitudes >= delta)[0]}


def delay_to_range(l: int, cfg: OfdmConfig) -> float:
    """Center of delay cell ``l`` as a total path length in meters."""
    return (l + 0.5) * cfg.cell_m


def quantize_range(value: float, cell_m: float | None) -> float:
    """Center of the ``delay_cell`` holding path length ``value``.

    Reports the range as detection on the waveform path does;
    ``cell_m=None`` leaves ``value`` exact.
    """
    if cell_m is None:
        return value
    return (delay_cell(value, cell_m) + 0.5) * cell_m


def irs_echo_bins(scene: Scene, cfg: OfdmConfig) -> tuple[frozenset[int], frozenset[int]]:
    """Known delay bins (``delay_cell``) of the static BS-IRS-BS reflections, per BS."""
    d_bi = _layout_constants(scene.bs, scene.irs)[1]
    return tuple(frozenset(delay_cell(2.0 * d, cfg.cell_m) for d in row) for row in d_bi)


@dataclass(frozen=True)
class RangeSets:
    """Phase-I output: per-BS sorted range lists.

    ``direct[m]`` holds round-trip lengths of BS -> target -> BS echoes,
    ``via_irs[m]`` total lengths of BS -> target -> IRS -> BS echoes.  The
    optional bin fields carry the detected delay supports when the sets came
    from waveform processing; geometry-built sets leave them unset.
    """

    direct: tuple[tuple[float, ...], tuple[float, ...]]
    via_irs: tuple[tuple[float, ...], tuple[float, ...]]
    direct_bins: tuple[frozenset[int], frozenset[int]] | None = None
    via_bins: tuple[frozenset[int], frozenset[int]] | None = None

    def __post_init__(self):
        for group in (self.direct, self.via_irs):
            for values in group:
                if list(values) != sorted(values):
                    raise ValueError("range lists must be sorted ascending")

    def counts(self) -> tuple[int, int, int, int]:
        return (
            len(self.direct[0]),
            len(self.direct[1]),
            len(self.via_irs[0]),
            len(self.via_irs[1]),
        )

    def balanced(self, k: int) -> bool:
        """True when every list has exactly one entry per target."""
        return all(c == k for c in self.counts())

    @classmethod
    def from_geometry(cls, scene: Scene, cell_m: float | None = None) -> "RangeSets":
        """Range sets straight from ground truth, bypassing the waveform.

        With ``cell_m`` set, every length is floor-quantized to the delay
        grid and reported at its cell center, exactly as the waveform path
        would produce under perfect detection.  Duplicate quantized values
        are kept as separate entries so each list still has K entries.
        """
        # echo_lengths and quantize_range inlined, in their float order
        hypot, floor, irs = math.hypot, math.floor, scene.irs
        served = []
        for (x, y), g in zip(scene.targets, scene.true_irs):
            qx, qy = irs[g]
            served.append((x, y, g, hypot(qx - x, qy - y)))
        direct = []
        via = []
        for (bx, by), d_bi in zip(scene.bs, _layout_constants(scene.bs, irs)[1]):
            ds, vs = [], []
            for x, y, g, d_it in served:
                d_bt = hypot(bx - x, by - y)
                ds.append(2.0 * d_bt)
                vs.append(d_bt + d_it + d_bi[g])
            if cell_m is not None:
                ds = [(floor(d / cell_m) + 0.5) * cell_m for d in ds]
                vs = [(floor(v / cell_m) + 0.5) * cell_m for v in vs]
            direct.append(tuple(sorted(ds)))
            via.append(tuple(sorted(vs)))
        # no __post_init__: the lists were just sorted
        sets = object.__new__(cls)
        sets.__dict__.update(
            direct=(direct[0], direct[1]), via_irs=(via[0], via[1]), direct_bins=None, via_bins=None
        )
        return sets


def build_range_sets(
    first_symbol: tuple[ChannelEstimate, ChannelEstimate],
    second_symbol: tuple[ChannelEstimate, ChannelEstimate],
    scene: Scene,
    cfg: OfdmConfig,
    rcfg: RangingConfig,
) -> RangeSets:
    """Threshold the two per-BS estimates at ``delta1`` into range lists.

    Direct-echo bins come from the first symbol.  The second symbol's
    support, minus those bins and minus the known anchor-reflection bins, is
    read as compound target-via-IRS echoes.  List lengths are whatever
    detection produced; callers decide whether unbalanced lists abort a
    trial.
    """
    return range_sets_from_bins(
        [detect_support(est, rcfg.delta1) for est in first_symbol],
        [detect_support(est, rcfg.delta1) for est in second_symbol],
        irs_echo_bins(scene, cfg),
        cfg,
    )


def range_sets_from_bins(direct_bins, second_bins, known, cfg: OfdmConfig) -> RangeSets:
    """Range lists and bin fields from each BS's detected delay bins.

    ``direct_bins[m]`` is BS ``m``'s first-symbol support and
    ``second_bins[m]`` its second-symbol one; what the second adds outside
    the first and outside the anchor bins ``known[m]`` is a compound echo.
    """
    d_bins = tuple(frozenset(bins) for bins in direct_bins)
    v_bins = tuple(
        frozenset(bins).difference(phi3, anchors)
        for bins, phi3, anchors in zip(second_bins, d_bins, known)
    )
    return RangeSets(
        direct=tuple(tuple(delay_to_range(l, cfg) for l in sorted(b)) for b in d_bins),
        via_irs=tuple(tuple(delay_to_range(l, cfg) for l in sorted(b)) for b in v_bins),
        direct_bins=d_bins,
        via_bins=v_bins,
    )
