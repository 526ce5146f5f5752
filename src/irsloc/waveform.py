"""OFDM echo synthesis for the two-BS sensing downlink.

Both BSs transmit pilot symbols on disjoint interleaved subcarrier combs, the
only layout modeled: BS 1 on the odd 1-based subcarriers, BS 2 on the even
ones.  Each BS hears only its own monostatic echoes after demodulation.  Echo
paths are modeled as integer-delay taps on a length-``L`` grid; the cyclic
prefix absorbs the full delay spread, which makes the frequency-domain model

    y[n] = sqrt(p) * s[n] * sum_l h[l] * exp(-2j*pi*(c_n - 1)*l / N) + z[n]

exact (``c_n`` is the 1-based subcarrier index).  ``simulate_freq_rx``
implements that model directly; the time-domain modulate/convolve/demodulate
chain is equivalent sample for sample and serves as its reference.

Experiments never synthesize ``y``: recovery reads only each comb's matched
filter, which is the taps plus matched-filtered noise (``tap_domain_rx``).
The dense synthesis draws the same noise and stays as its reference.

Echo kinds, named for the receiver ``m`` (transmitter is also ``m``):

* ``IRS_ECHO``: BS -> IRS -> BS static reflection, delay known from geometry.
* ``TARGET_ECHO``: BS -> target -> BS direct echo.
* ``TARGET_VIA_IRS``: BS -> target -> IRS -> BS compound echo.

During the first pilot symbol the IRSs are absorbing, so only target echoes
exist; from the second symbol on they reflect and the IRS-related taps appear.
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache, lru_cache

import numpy as np

from .scene import Scene, _layout_constants, check_fields, delay_cell, distance, echo_lengths


class LinkType(str, Enum):
    IRS_ECHO = "irs_echo"
    TARGET_ECHO = "target_echo"
    TARGET_VIA_IRS = "target_via_irs"


class DelayWindowError(ValueError):
    """An echo falls beyond the modeled tap window."""


C0 = 3.0e8  # speed of light, m/s


def dbm_to_watts(dbm: float) -> float:
    return 1e-3 * 10.0 ** (dbm / 10.0)


@dataclass(frozen=True)
class OfdmConfig:
    """Waveform and link-budget constants shared by both BSs.

    ``n_taps`` is the modeled delay-spread window ``L``; the cyclic prefix
    must cover it (``cp_len >= n_taps - 1``) and the interleaved combs limit
    it to ``n_subcarriers / 2`` taps before delay aliasing.  The reflection
    gains are dimensionless power constants of one bounce off a target and
    off an IRS; ``echo_gain`` is the one link budget that reads them.  The
    speed of light is the module constant ``C0``, not a setting.
    """

    n_subcarriers: int = 2048
    subcarrier_spacing_hz: float = 195312.5
    cp_len: int = 512
    n_taps: int = 512
    tx_power_dbm: float = 39.0
    noise_psd_dbm_hz: float | None = -174.0
    bs_reflect_gain: float = 1.0
    irs_reflect_gain: float = 0.04

    def __post_init__(self):
        check_fields(self)
        if self.n_subcarriers < 2 or self.n_subcarriers % 2 != 0:
            raise ValueError("n_subcarriers must be even and >= 2")
        if self.subcarrier_spacing_hz <= 0:
            raise ValueError("subcarrier_spacing_hz must be positive")
        if self.n_taps < 1:
            raise ValueError("n_taps must be >= 1")
        if self.cp_len < self.n_taps - 1:
            raise ValueError("cp_len must cover the delay spread (>= n_taps - 1)")
        if self.n_taps > self.n_subcarriers // 2:
            raise ValueError(
                "n_taps beyond n_subcarriers/2 aliases on an interleaved comb"
            )
        if self.bs_reflect_gain <= 0 or self.irs_reflect_gain <= 0:
            raise ValueError("reflection gains must be positive")

    @property
    def bandwidth_hz(self) -> float:
        return self.n_subcarriers * self.subcarrier_spacing_hz

    @property
    def cell_m(self) -> float:
        """Round-trip range quantization cell, C0 / bandwidth."""
        return C0 / self.bandwidth_hz

    @property
    def tx_power_w(self) -> float:
        return dbm_to_watts(self.tx_power_dbm)

    @property
    def subcarrier_power_w(self) -> float:
        """Per-subcarrier transmit power with the total split over one comb."""
        return self.tx_power_w / (self.n_subcarriers // 2)

    @property
    def noise_var(self) -> float:
        """Per-subcarrier noise variance; zero when the PSD is disabled."""
        if self.noise_psd_dbm_hz is None:
            return 0.0
        return dbm_to_watts(self.noise_psd_dbm_hz) * self.subcarrier_spacing_hz


def echo_gain(cfg: OfdmConfig, link: LinkType, *legs: float) -> float:
    """Amplitude of an echo of kind ``link`` over legs of the given lengths.

    A bounce off a target contributes ``sqrt(bs_reflect_gain)``, a bounce off
    an IRS ``sqrt(irs_reflect_gain)``, and every traversed leg divides by its
    length.  Synthesis and threshold calibration both read this rule.
    """
    target = cfg.bs_reflect_gain if link is not LinkType.IRS_ECHO else 1.0
    irs = cfg.irs_reflect_gain if link is not LinkType.TARGET_ECHO else 1.0
    return math.sqrt(target * irs) / math.prod(legs)


@dataclass(frozen=True)
class SubcarrierPlan:
    """The interleaved combs over 1..N for even N: odd 1-based subcarriers on
    BS 1, even ones on BS 2.  Any other layout is a ``ValueError``."""

    bs1: tuple[int, ...]
    bs2: tuple[int, ...]

    def __post_init__(self):
        n = 2 * len(self.bs1)
        if n < 2 or self.bs1 != tuple(range(1, n, 2)) or self.bs2 != tuple(range(2, n + 1, 2)):
            raise ValueError("combs must be the odd and even subcarriers of an even N >= 2")

    def for_bs(self, m: int) -> tuple[int, ...]:
        return (self.bs1, self.bs2)[m]


@cache
def make_plan(n_subcarriers: int) -> SubcarrierPlan:
    """Assign odd 1-based subcarriers to BS 1 and even ones to BS 2."""
    return SubcarrierPlan(
        bs1=tuple(range(1, n_subcarriers + 1, 2)),
        bs2=tuple(range(2, n_subcarriers + 1, 2)),
    )


@dataclass(frozen=True)
class PathTap:
    """One echo on the delay grid of a monostatic channel."""

    delay: int
    gain: complex
    link: LinkType
    bs: int


@dataclass(frozen=True)
class PathList:
    """All modeled taps for one pilot symbol, per receiving BS."""

    symbol: int
    taps: tuple[tuple[PathTap, ...], tuple[PathTap, ...]]

    def for_bs(self, m: int) -> tuple[PathTap, ...]:
        return self.taps[m]

    def absorbing(self) -> "PathList":
        """The first-symbol list: only the direct target echoes.

        ``build_paths`` lists them first for every symbol, with phases keyed
        by path identity, so this equals ``build_paths(..., symbol=1)``.
        """
        taps = tuple(
            tuple(t for t in per_bs if t.link is LinkType.TARGET_ECHO) for per_bs in self.taps
        )
        return PathList(symbol=1, taps=(taps[0], taps[1]))


def _path_phase(phase_seed: int, *key: int) -> float:
    """Stable uniform phase for one propagation path.

    Keyed by path identity so the same path carries the same phase in every
    pilot symbol; target echoes must not decorrelate between symbols.
    """
    entropy = (phase_seed & 0xFFFFFFFF,) + tuple(k & 0xFFFFFFFF for k in key)
    return float(np.random.default_rng(entropy).uniform(0.0, 2.0 * math.pi))


def build_paths(scene: Scene, cfg: OfdmConfig, symbol: int, phase_seed: int = 0) -> PathList:
    """Geometry to tap list for one pilot symbol.

    Symbol 1 models absorbing IRSs (target echoes only); symbol 2 and later
    add the static IRS reflections and the compound target-via-IRS echoes.
    Raises DelayWindowError when any modeled path exceeds the tap window.
    """
    if symbol < 1:
        raise ValueError("symbol index is 1-based")
    per_bs: list[tuple[PathTap, ...]] = []
    for m, (bs_pos, d_bi) in enumerate(zip(scene.bs, _layout_constants(scene.bs, scene.irs)[1])):
        taps: list[PathTap] = []

        def add(length_m, link, key, *legs):
            l = delay_cell(length_m, cfg.cell_m)
            if l >= cfg.n_taps:
                raise DelayWindowError(
                    f"{link.value} path of {length_m:.2f} m needs tap {l}, "
                    f"window is {cfg.n_taps}"
                )
            phase = _path_phase(phase_seed, m, *key)
            gain = echo_gain(cfg, link, *legs) * complex(math.cos(phase), math.sin(phase))
            taps.append(PathTap(delay=l, gain=gain, link=link, bs=m))

        compound = []
        for k, (t, r) in enumerate(zip(scene.targets, scene.true_irs)):
            d_it = distance(scene.irs[r], t)
            direct, via = echo_lengths(bs_pos, scene.irs[r], t, d_it, d_bi[r])
            d_bt = 0.5 * direct
            if d_bt <= 0:
                raise ValueError(f"target {k} coincides with BS {m}")
            add(direct, LinkType.TARGET_ECHO, (1, k), d_bt, d_bt)
            compound.append((k, r, via, d_bt, d_it))
        if symbol >= 2:
            for r, d in enumerate(d_bi):
                add(2.0 * d, LinkType.IRS_ECHO, (2, r), d, d)
            for k, r, via, d_bt, d_it in compound:
                if d_it <= 0:
                    raise ValueError(f"target {k} coincides with IRS {r}")
                add(via, LinkType.TARGET_VIA_IRS, (3, k), d_bt, d_it, d_bi[r])
        per_bs.append(tuple(taps))
    return PathList(symbol=symbol, taps=(per_bs[0], per_bs[1]))


def channel_vector(taps, n_taps: int) -> np.ndarray:
    """Sum taps (colliding delays add coherently) into a length-L vector."""
    h = np.zeros(n_taps, dtype=complex)
    for tap in taps:
        if not 0 <= tap.delay < n_taps:
            raise DelayWindowError(f"tap delay {tap.delay} outside window {n_taps}")
        h[tap.delay] += tap.gain
    return h


def ofdm_modulate(symbols: np.ndarray, cp_len: int) -> np.ndarray:
    """Unitary IDFT of one symbol vector plus cyclic prefix."""
    symbols = np.asarray(symbols, dtype=complex)
    if symbols.ndim != 1 or symbols.size < 1:
        raise ValueError("symbols must be a nonempty 1-D vector")
    if not 0 <= cp_len <= symbols.size:
        raise ValueError("cp_len must be within [0, N]")
    x = np.fft.ifft(symbols, norm="ortho")
    if cp_len == 0:
        return x
    return np.concatenate([x[-cp_len:], x])


def ofdm_demodulate(samples: np.ndarray, cp_len: int) -> np.ndarray:
    """Drop the cyclic prefix and return the unitary DFT of the body."""
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim != 1 or samples.size <= cp_len:
        raise ValueError("samples must contain a body after the prefix")
    return np.fft.fft(samples[cp_len:], norm="ortho")


@lru_cache(maxsize=16)
def _twiddles(n_fft: int) -> np.ndarray:
    """The N exact twiddles exp(-2j*pi*k/N), k = 0..N-1, read-only."""
    twiddle = np.exp(-2j * math.pi * np.arange(n_fft) / n_fft)
    twiddle.setflags(write=False)
    return twiddle


@lru_cache(maxsize=1)
def steering_matrix(n_fft: int, n_taps: int) -> np.ndarray:
    """BS 1's delay steering matrix: entry (n, l) = exp(-2j*pi*(c_n - 1)*l / N).

    BS 1's comb is the odd subcarriers, so ``c_n - 1 = 2n`` and entries are
    looked up in row blocks of the twiddle table at k = 2n*l mod N.  BS 2's
    comb is shifted by one bin, so ``simulate_freq_rx`` reaches it through a
    phase ramp instead of a second matrix.  Only the latest (N, L) is cached:
    every trial of an experiment shares it.  The returned array is read-only.
    """
    twiddle = _twiddles(n_fft)
    rows = np.arange(0, n_fft, 2)
    g = np.empty((rows.size, n_taps), dtype=complex)
    for i in range(0, rows.size, 64):
        twiddle.take(np.outer(rows[i:i + 64], np.arange(n_taps)) % n_fft, out=g[i:i + 64])
    g.setflags(write=False)
    return g


def make_pilots(plan: SubcarrierPlan, seed) -> tuple[np.ndarray, np.ndarray]:
    """Random unit-modulus QPSK pilots, one vector per BS comb."""
    rng = np.random.default_rng(seed)
    out = []
    for comb in (plan.bs1, plan.bs2):
        out.append(np.exp(0.5j * math.pi * rng.integers(0, 4, size=len(comb))))
    return out[0], out[1]


@dataclass(eq=False)
class BsSnapshot:
    """Received pilots on one BS comb for one symbol."""

    subcarriers: tuple[int, ...]
    rx: np.ndarray
    pilots: np.ndarray
    tx_power_w: float


@dataclass(eq=False)
class FreqSnapshot:
    """Per-BS received frequency samples for one pilot symbol."""

    by_bs: tuple[BsSnapshot, BsSnapshot]


def _comb_noise(cfg: OfdmConfig, seed) -> tuple[np.ndarray, np.ndarray] | None:
    """Per-BS receiver noise on the N/2 bins of each comb; None when disabled.

    Circular complex Gaussian with variance ``cfg.noise_var`` per bin, drawn
    from one generator in a fixed order: BS 1's real parts, its imaginary
    parts, then BS 2's.
    """
    if cfg.noise_var <= 0:
        return None
    rng = np.random.default_rng(seed)
    n = cfg.n_subcarriers // 2
    scale = math.sqrt(cfg.noise_var / 2.0)
    w1 = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    w2 = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return w1, w2


def matched_filter(values: np.ndarray, m: int, p: float, cfg: OfdmConfig) -> np.ndarray:
    """``A'v / (p * N/2)`` for pilot-compensated samples ``v`` on BS ``m``'s comb.

    ``A'v = sqrt(p) * G'v`` is one length-N inverse FFT of ``v`` scattered
    onto the comb's bins (0-based ``m, m + 2, ...``), truncated to L taps.
    """
    n = cfg.n_subcarriers
    z = np.zeros(n, dtype=complex)
    z[m::2] = values
    return math.sqrt(p) * n * np.fft.ifft(z)[: cfg.n_taps] / (p * (n // 2))


def tap_domain_rx(
    paths: PathList,
    pilots: tuple[np.ndarray, np.ndarray],
    cfg: OfdmConfig,
    seed=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-BS matched-filter vectors of ``simulate_freq_rx``'s samples.

    On the interleaved comb with unit-modulus pilots ``A'A = p * N/2 * I``,
    so ``A'y / (p * N/2) = h + A'z / (p * N/2)``: the tap vector plus the
    matched filter of the same noise ``z`` that ``simulate_freq_rx`` draws
    for ``seed``.  No frequency sample is synthesized.
    """
    p = cfg.subcarrier_power_w
    noise = _comb_noise(cfg, seed)
    out = []
    for m in (0, 1):
        s = np.asarray(pilots[m], dtype=complex)
        if s.shape != (cfg.n_subcarriers // 2,):
            raise ValueError(f"pilots for BS {m + 1} do not match N/2 subcarriers")
        v = channel_vector(paths.for_bs(m), cfg.n_taps)
        if noise is not None:
            v = v + matched_filter(s.conj() * noise[m], m, p, cfg)
        out.append(v)
    return out[0], out[1]


def simulate_freq_rx(
    paths: PathList,
    pilots: tuple[np.ndarray, np.ndarray],
    cfg: OfdmConfig,
    plan: SubcarrierPlan,
    seed=None,
) -> FreqSnapshot:
    """Frequency-domain receive model on each BS's own comb.

    Implements the exact post-DFT relation for integer-delay taps within the
    cyclic prefix; additive noise is ``_comb_noise``.  BS 1's vector is
    ``G1 @ h`` with the cached steering matrix, about 10 MB at the stock 2048
    subcarriers and 640 taps.  BS 2's comb is BS 1's shifted by one bin, so
    by the DFT shift theorem its vector is ``G1 @ (ramp * h)`` with
    ``ramp[l] = W**l`` and ``W = exp(-2j*pi/N)``: the first L twiddles, since
    L <= N/2.  Experiments read ``tap_domain_rx`` instead; this synthesis is
    its reference.
    """
    p = cfg.subcarrier_power_w
    g1 = steering_matrix(cfg.n_subcarriers, cfg.n_taps)
    ramp = _twiddles(cfg.n_subcarriers)[:cfg.n_taps]
    noise = _comb_noise(cfg, seed)
    snaps = []
    for m in (0, 1):
        comb = plan.for_bs(m)
        s = np.asarray(pilots[m], dtype=complex)
        if s.shape != (len(comb),) or len(comb) != g1.shape[0]:
            raise ValueError(f"pilots or comb for BS {m + 1} do not match N/2 subcarriers")
        h = channel_vector(paths.for_bs(m), cfg.n_taps)
        y = math.sqrt(p) * s * (g1 @ (ramp * h if m else h))
        if noise is not None:
            y = y + noise[m]
        snaps.append(BsSnapshot(subcarriers=comb, rx=y, pilots=s, tx_power_w=p))
    return FreqSnapshot(by_bs=(snaps[0], snaps[1]))
