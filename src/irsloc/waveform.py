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

Experiments never synthesize ``y`` and never build ``PathTap`` lists:
``channel_taps`` gives both symbols' tap vectors as arrays, and recovery reads
only each comb's matched filter, the taps plus matched-filtered noise
(``tap_domain_rx``), with the pilots as quarter turns (``pilot_turns``).
``build_paths``, with one phase generator per path, ``make_pilots`` and the
dense synthesis, with the same noise, stay as their references.

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


# derived quantities that must be finite and positive, and their settings
_DERIVED = (
    ("tx_power_w", "tx_power_dbm"),
    ("subcarrier_power_w", "tx_power_dbm and n_subcarriers"),
    ("noise_var", "noise_psd_dbm_hz and subcarrier_spacing_hz"),
    ("cell_m", "n_subcarriers and subcarrier_spacing_hz"),
)


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
        for name, settings in _DERIVED:
            try:
                value = getattr(self, name)
            except OverflowError:
                value = math.inf
            unset = name == "noise_var" and self.noise_psd_dbm_hz is None
            if not (0.0 < value < math.inf or unset):
                raise ValueError(f"{settings} must give a finite positive {name}, not {value}")
        sigma = self.cell_m / (2.0 * math.sqrt(3.0))  # as in ResidualWeights.from_cell
        if sigma * sigma == 0.0 or math.isinf(1.0 / (sigma * sigma)):
            raise ValueError("n_subcarriers and subcarrier_spacing_hz overflow the fit weights")

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


def _path_phase(phase_seed: int, *key: int) -> float:
    """Stable uniform phase for one propagation path.

    Keyed by path identity so the same path carries the same phase in every
    pilot symbol; target echoes must not decorrelate between symbols.
    """
    entropy = (phase_seed & 0xFFFFFFFF,) + tuple(k & 0xFFFFFFFF for k in key)
    return float(np.random.default_rng(entropy).uniform(0.0, 2.0 * math.pi))


def _hash_constants(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiplier words of ``n`` successive SeedSequence hashes, as columns."""
    xor = np.array([init * pow(mult, i, 1 << 32) & _MASK32 for i in range(n)], dtype=np.uint32)
    return xor[:, None], xor[:, None] * np.uint32(mult)


_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
# NumPy's SeedSequence on a 4-word pool: 4 fills and 12 cross mixes, then
# 8 output words (NEP 19 fixes these streams)
_XOR_A, _MUL_A = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_XOR_B, _MUL_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _hashmix(v: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mul
    return v ^ (v >> _SHIFT)


def path_phases(phase_seed: int, keys) -> list[float]:
    """``[_path_phase(phase_seed, *key) for key in keys]`` for 3-int keys, bit for bit.

    Runs SeedSequence's mixing over every key's 4-word entropy at once as
    ``uint32`` arrays, then PCG64's seeding and first ``next_double`` on
    Python ints, instead of one ``default_rng`` per key.
    """
    words = [(phase_seed & _MASK32, *(k & _MASK32 for k in key)) for key in keys]
    pool = _hashmix(np.array(words, dtype=np.uint32).reshape(-1, 4).T, _XOR_A[:4], _MUL_A[:4])
    for s in range(4):
        rest = [d for d in range(4) if d != s]
        hashed = _hashmix(pool[s], _XOR_A[4 + 3 * s : 7 + 3 * s], _MUL_A[4 + 3 * s : 7 + 3 * s])
        mixed = _MIX_L * pool[rest] - _MIX_R * hashed
        pool[rest] = mixed ^ (mixed >> _SHIFT)
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _XOR_B, _MUL_B).astype(np.uint64)
    phases = []
    for s0, s1, s2, s3 in (state[0::2] | state[1::2] << np.uint64(32)).T.tolist():
        inc = (s2 << 65 | s3 << 1 | 1) & _MASK128
        x = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) * _PCG_MULT + inc & _MASK128
        rot = x >> 122
        x = ((x >> 64) ^ x) & _MASK64
        x = (x >> rot | x << (64 - rot)) & _MASK64
        phases.append(0.0 + 2.0 * math.pi * ((x >> 11) * 2.0**-53))
    return phases


def _echoes(scene: Scene, cfg: OfdmConfig, symbol: int):
    """Yield each modeled echo of one pilot symbol as ``(bs, delay, link, key, amplitude)``.

    Per receiving BS: the direct target echoes, then from symbol 2 on the
    static IRS echoes and the compound ones.  ``key`` names the path for
    ``_path_phase``.  Raises DelayWindowError when an echo exceeds the tap
    window and ValueError when a target sits on a BS or on its IRS.
    """
    cell = cfg.cell_m
    for m, (bs_pos, d_bi) in enumerate(zip(scene.bs, _layout_constants(scene.bs, scene.irs)[1])):

        def echo(length_m, link, key, *legs):
            l = delay_cell(length_m, cell)
            if l >= cfg.n_taps:
                raise DelayWindowError(
                    f"{link.value} path of {length_m:.2f} m needs tap {l}, "
                    f"window is {cfg.n_taps}"
                )
            return m, l, link, key, echo_gain(cfg, link, *legs)

        compound = []
        for k, (t, r) in enumerate(zip(scene.targets, scene.true_irs)):
            d_it = distance(scene.irs[r], t)
            direct, via = echo_lengths(bs_pos, scene.irs[r], t, d_it, d_bi[r])
            d_bt = 0.5 * direct
            if d_bt <= 0:
                raise ValueError(f"target {k} coincides with BS {m}")
            yield echo(direct, LinkType.TARGET_ECHO, (1, k), d_bt, d_bt)
            compound.append((k, r, via, d_bt, d_it))
        if symbol >= 2:
            for r, d in enumerate(d_bi):
                yield echo(2.0 * d, LinkType.IRS_ECHO, (2, r), d, d)
            for k, r, via, d_bt, d_it in compound:
                if d_it <= 0:
                    raise ValueError(f"target {k} coincides with IRS {r}")
                yield echo(via, LinkType.TARGET_VIA_IRS, (3, k), d_bt, d_it, d_bi[r])


def build_paths(scene: Scene, cfg: OfdmConfig, symbol: int, phase_seed: int = 0) -> PathList:
    """Geometry to tap list for one pilot symbol.

    Symbol 1 models absorbing IRSs (target echoes only); symbol 2 and later
    add the static IRS reflections and the compound target-via-IRS echoes.
    Raises DelayWindowError when any modeled path exceeds the tap window.
    Each path's phase comes from its own ``_path_phase`` generator; this is
    the reference that ``channel_taps`` matches bit for bit.
    """
    if symbol < 1:
        raise ValueError("symbol index is 1-based")
    per_bs: tuple[list[PathTap], list[PathTap]] = ([], [])
    for m, l, link, key, amp in _echoes(scene, cfg, symbol):
        phase = _path_phase(phase_seed, m, *key)
        gain = amp * complex(math.cos(phase), math.sin(phase))
        per_bs[m].append(PathTap(delay=l, gain=gain, link=link, bs=m))
    return PathList(symbol=symbol, taps=(tuple(per_bs[0]), tuple(per_bs[1])))


def channel_taps(scene: Scene, cfg: OfdmConfig, phase_seed: int) -> np.ndarray:
    """Both pilot symbols' tap vectors as one ``(2, 2, L)`` array.

    Entry ``[s - 1, m]`` equals ``channel_vector(build_paths(scene, cfg, s,
    phase_seed).for_bs(m), L)`` exactly: the same echoes, with the phases of
    one ``path_phases`` pass.  Symbol 1 holds only the direct target echoes.
    """
    echoes = list(_echoes(scene, cfg, 2))
    phases = path_phases(phase_seed, [(m, *key) for m, _, _, key, _ in echoes])
    h = np.zeros((2, 2, cfg.n_taps), dtype=complex)
    for (m, l, link, _, amp), phase in zip(echoes, phases):
        gain = amp * complex(math.cos(phase), math.sin(phase))
        if link is LinkType.TARGET_ECHO:
            h[0, m, l] += gain
        h[1, m, l] += gain
    return h


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


def pilot_turns(n_subcarriers: int, seed) -> np.ndarray:
    """``make_pilots``' QPSK indices as one ``(2, N/2)`` array of quarter turns.

    Row ``m`` holds BS ``m``'s pilots as ``exp(0.5j*pi*turns[m])``: one draw
    of the same generator stream that ``make_pilots`` reads in two.
    """
    return np.random.default_rng(seed).integers(0, 4, size=(2, n_subcarriers // 2))


# conj(exp(0.5j*pi*k)) for k = 0..3, exactly
_CONJ_QPSK = np.array([1, -1j, -1, 1j])


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
    taps: np.ndarray,
    turns: np.ndarray,
    cfg: OfdmConfig,
    seeds,
) -> np.ndarray:
    """Both symbols' per-BS matched-filter vectors of ``simulate_freq_rx``'s samples.

    ``taps`` is ``channel_taps``' ``(2, 2, L)`` array, ``turns`` the pilots
    as ``pilot_turns`` gives them and ``seeds`` each symbol's noise seed.  On
    the interleaved comb with unit-modulus pilots ``A'A = p * N/2 * I``, so
    ``A'y / (p * N/2) = h + A'z / (p * N/2)``: the taps plus the matched
    filter of the same noise ``z`` that ``simulate_freq_rx`` draws for each
    seed.  Compensating a QPSK pilot is an exact quarter turn of the noise.
    BS ``m``'s comb holds the 0-based bins ``m, m + 2, ...``, so
    ``matched_filter``'s length-N inverse DFT is half the length-N/2 one of
    the comb's values times ``exp(2j*pi*m*l/N)``: one batched transform
    forms all four vectors.  No frequency sample is synthesized.
    """
    if np.shape(turns) != (2, cfg.n_subcarriers // 2):
        raise ValueError("pilots do not match the N/2 subcarriers of each comb")
    noise = [_comb_noise(cfg, seed) for seed in seeds]
    if noise[0] is None:
        return np.array(taps)
    mf = np.fft.ifft(_CONJ_QPSK[turns] * np.array(noise))[..., : cfg.n_taps]
    mf[:, 1] *= _twiddles(cfg.n_subcarriers)[: cfg.n_taps].conj()
    return taps + mf / math.sqrt(cfg.subcarrier_power_w)


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
