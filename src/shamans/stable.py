"""Alpha-stable spatial measure estimation.

The chain: estimate the characteristic exponent from the mixture, p-norm
normalize the TF observations, sketch nonnegative Lévy-exponent estimates
against normalized steering vectors, build the SV cross-coherence matrix,
and invert the linear relation between the sketch and the spatial measure
with sparse multiplicative updates.
"""

from __future__ import annotations

import contextlib
import copy
import math
import time
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import EstimationError, ParameterError, ShapeError
from .signal import _CHUNK_BYTES, Spectrogram, _map_chunks
from .steering import (
    DoaGrid,
    NormalizedSVSet,
    SteeringVectorSet,
    match_freq_band,
    normalize_svs,
    same_freq_axis,
)

# fixed evaluation points of the empirical characteristic function; the
# projection directions are part of the estimator definition, hence seeded
_ECF_THETAS = np.array([0.1, 0.5, 1.0, 2.0])
_NUM_PROJECTIONS = 8
_PROJECTION_SEED = 0x5EED
_ALPHA_MIN, _ALPHA_MAX = 0.4, 2.0
# the sketch and the alpha estimate read _CHUNK_BYTES (from .signal) at
# call time as the bound on the phase scratch they hold at once; Psi, the
# p-normalization and a sketch done in one call work in blocks of at most
# _BLOCK_BYTES of scratch, which stay in cache
_BLOCK_BYTES = 256 * 2**10
# the solver forms its float64 ratio in blocks of at most this many rows:
# 32 KB of float64, one L1 data cache
_RATIO_ROWS = 4096
# empirical CF moduli below this are clamped before the log, so a Lévy
# estimate at (or within rounding of) -2 ln of it marks a clamped cell
_MAG_FLOOR = 1e-300
_LEVY_CEIL = -2.0 * math.log(_MAG_FLOOR) * (1.0 - 1e-12)


@dataclass
class AlphaParam:
    """Characteristic exponent in (0, 2]; 2 is the Gaussian edge case."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ParameterError(f"alpha must lie in (0, 2], got {self.alpha}")


@dataclass
class SolverConfig:
    """Multiplicative-update settings. ``beta`` names the divergence of the
    updates; only the KL divergence (beta = 1) is implemented."""

    beta: float = 1.0
    sparsity_lambda: float = 1e-3
    iterations: int = 500
    p_norm: float = 1.0

    def __post_init__(self):
        if self.beta != 1.0:
            raise ParameterError(f"beta must be 1 (KL updates), got {self.beta}")
        if self.iterations < 1:
            raise ParameterError("iterations must be >= 1")
        if self.sparsity_lambda < 0:
            raise ParameterError("sparsity_lambda must be nonnegative")
        if self.p_norm <= 0:
            raise ParameterError("p_norm must be positive")


@dataclass
class LevySketch:
    """Stacked Lévy-exponent estimates and SV coherence blocks.

    Row f * L + l of both arrays refers to direction l probed at retained
    frequency bin f (direction index moves fastest). ``i_hat`` is float64;
    a float32 ``psi`` is kept as given (``multiplicative_update`` then takes
    its products in float32), and any other ``psi`` becomes float64.
    """

    i_hat: np.ndarray  # [F' * L]
    psi: np.ndarray  # [F' * L, L]
    alpha: AlphaParam
    num_freqs: int

    def __post_init__(self):
        self.i_hat = np.asarray(self.i_hat, dtype=np.float64)
        keep = getattr(self.psi, "dtype", None) == np.float32
        self.psi = np.asarray(self.psi, dtype=np.float32 if keep else np.float64)
        if self.psi.ndim != 2 or self.i_hat.ndim != 1:
            raise ShapeError("i_hat must be a vector and psi a matrix")
        if self.psi.shape[0] != self.i_hat.size:
            raise ShapeError("psi row count must match i_hat length")
        if self.psi.shape[0] != self.num_freqs * self.psi.shape[1]:
            raise ShapeError("psi must stack num_freqs blocks of L rows")
        if np.any(self.i_hat < 0) or np.any(self.psi < 0):
            raise ParameterError("Lévy sketch entries must be nonnegative")


@dataclass
class SpatialMeasure:
    """Nonnegative mass per grid direction; peaks mark active sources."""

    upsilon: np.ndarray
    grid: DoaGrid | None = None
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        self.upsilon = np.asarray(self.upsilon, dtype=np.float64)
        if np.any(~np.isfinite(self.upsilon)) or np.any(self.upsilon < 0):
            raise ParameterError("spatial measure must be finite and nonnegative")
        if self.grid is not None and len(self.grid) != self.upsilon.size:
            raise ShapeError("measure length must match the grid")


def sample_sas(alpha: float, scale: float, count: int, seed) -> np.ndarray:
    """Isotropic complex SaS samples via the sub-Gaussian CMS construction.

    The scale follows the Lévy-exponent convention I(theta) = scale *
    |theta|^alpha for the scalar case: samples are sqrt(A) * g with A a
    totally skewed positive (alpha/2)-stable variable (Laplace transform
    exp(-u^(alpha/2))) and g circular Gaussian with component variance
    2 * scale^(2/alpha).
    """
    if not 0.0 < alpha <= 2.0:
        raise ParameterError("alpha must lie in (0, 2]")
    if scale < 0:
        raise ParameterError("scale must be nonnegative")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if scale == 0.0:
        return np.zeros(count, dtype=np.complex128)
    sigma_g = math.sqrt(2.0) * scale ** (1.0 / alpha)
    if alpha == 2.0:
        g = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        return sigma_g * g
    a_pos = _positive_stable(alpha / 2.0, count, rng)
    g = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return np.sqrt(a_pos) * sigma_g * g


def _positive_stable(gamma: float, count: int, rng) -> np.ndarray:
    """Totally skewed positive stable draws with E[exp(-u A)] = exp(-u^gamma)."""
    v = rng.uniform(-np.pi / 2.0, np.pi / 2.0, count)
    w = rng.exponential(1.0, count)
    b = np.pi / 2.0
    return (np.sin(gamma * (v + b)) / np.cos(v) ** (1.0 / gamma)
            * (np.cos(v - gamma * (v + b)) / w) ** ((1.0 - gamma) / gamma))


def sample_elliptic(alpha: float, epsilon: float, num_channels: int, count: int,
                    seed) -> np.ndarray:
    """Isotropic elliptic stable noise vectors [num_channels, count].

    One positive stable factor is shared across channels per draw, which is
    what distinguishes the elliptic family from independent SaS components;
    alpha = 2 degenerates to circular Gaussian with per-channel variance
    epsilon.
    """
    if not 0.0 < alpha <= 2.0:
        raise ParameterError("alpha must lie in (0, 2]")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    g = math.sqrt(epsilon / 2.0) * (rng.standard_normal((num_channels, count))
                                    + 1j * rng.standard_normal((num_channels, count)))
    if alpha == 2.0:
        return g
    a_pos = _positive_stable(alpha / 2.0, count, rng)
    return np.sqrt(a_pos)[None, :] * g


def _blocks(start: int, stop: int, unit_bytes: int) -> list:
    """Consecutive ``(b0, b1)`` ranges covering ``range(start, stop)``, each
    of at most ``_BLOCK_BYTES`` of scratch at ``unit_bytes`` per item (and
    at least one item)."""
    step = max(1, _BLOCK_BYTES // unit_bytes)
    return [(b, min(b + step, stop)) for b in range(start, stop, step)]


def _cos_sin_sums(half_phase: np.ndarray, weight: np.ndarray | None = None):
    """Sums over the last axis of cos(2h) and sin(2h) for half-angles h.

    Both come from one tangent t = tan(h): cos = 2/(1+t^2) - 1 and
    sin = 2t/(1+t^2). ``weight`` (0/1, broadcast against ``half_phase``)
    drops the terms it zeroes from both sums. ``half_phase`` is overwritten
    and one more float64 array of its shape is allocated: 16 bytes of
    scratch per phase.
    """
    t = np.tan(half_phase, out=half_phase)
    u = np.square(t)
    u += 1.0
    np.divide(2.0 if weight is None else 2.0 * weight, u, out=u)
    count = t.shape[-1] if weight is None else weight.sum(axis=-1)
    return u.sum(axis=-1) - count, np.einsum("...t,...t->...", u, t)


def _abs_median(y: np.ndarray) -> np.ndarray:
    """Row medians of |y|, equal to ``np.median(np.abs(y), axis=1)``.

    The mean of the middle one or two order statistics, as np.median takes
    it, but without its extra partition that looks for NaN: ``y`` is finite.
    """
    mags = np.abs(y)
    num = mags.shape[1]
    kth = [num // 2] if num % 2 else [num // 2 - 1, num // 2]
    mags.partition(kth, axis=1)
    return mags[:, kth].mean(axis=1)


def estimate_alpha(spec: Spectrogram) -> AlphaParam:
    """Characteristic exponent from log-log characteristic-function slopes.

    Projects TF observation vectors onto 8 fixed random complex unit
    directions, evaluates the empirical characteristic function of each
    real 1-D projection on a small theta grid, and averages the slopes of
    log(-log |phi|) against log theta. A degenerate projection (no decay of
    |phi|, e.g. a constant signal) carries no tail information; if all
    projections degenerate the Gaussian edge 2.0 is returned.

    The projections and all projection-theta pairs of the characteristic
    function are streamed over the samples in bounded chunks (see
    ``_map_chunks``), with cos and sin of each phase taken from one
    half-angle tangent; within a chunk the CF sums are taken one projection
    at a time.
    """
    flat = spec.bins.reshape(spec.num_channels, -1)
    if spec.valid_mask is not None:
        flat = flat[:, spec.valid_mask.reshape(-1)]
    if flat.shape[1] < 100:
        raise EstimationError("need at least 100 TF samples to estimate alpha")

    rng = np.random.default_rng(_PROJECTION_SEED)
    proj = rng.standard_normal((_NUM_PROJECTIONS, spec.num_channels)) \
        + 1j * rng.standard_normal((_NUM_PROJECTIONS, spec.num_channels))
    proj /= np.linalg.norm(proj, axis=1, keepdims=True)
    proj_h = proj.conj()
    num = flat.shape[1]

    def project(s0, s1):  # Re(proj^H x) for samples s0..s1
        part = (proj_h @ flat[:, s0:s1]).real
        # a chunk keeps only its real part, never a whole complex product;
        # one inline call returns its view, as the unchunked code did
        return part if s1 - s0 == num else part.copy()

    parts = _map_chunks(project, num, 16 * _NUM_PROJECTIONS, _CHUNK_BYTES)
    y = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)  # [D, n]
    del parts  # the chunk copies go before the median takes its moduli
    med = _abs_median(y)
    live = med > 0
    if not live.any():
        # the only case that needs the full pass over the input
        if not np.any(flat):
            raise EstimationError("cannot estimate alpha from an all-zero spectrogram")
        return AlphaParam(_ALPHA_MAX)  # no projection has a scale to read
    if not live.all():
        y = y[live]
    # not in place: the peak (y and its moduli) is the same, and an
    # in-place division raised the peak RSS of 1-s scenes by 3 MB (a
    # different heap layout under the sketch's arrays)
    y = y / med[live, None]  # [D', n]
    half_thetas = 0.5 * _ECF_THETAS[:, None]

    def cf_sums(s0, s1):  # [2, D', K]: no [D', K, n] phase array is ever whole
        sums = [_cos_sin_sums(half_thetas * row[s0:s1]) for row in y]
        return np.array(sums).transpose(1, 0, 2)

    # the chunk edges are those of a [D', K] phase block per sample
    parts = _map_chunks(cf_sums, num, 16 * y.shape[0] * _ECF_THETAS.size, _CHUNK_BYTES)
    cos_sum = np.zeros((y.shape[0], _ECF_THETAS.size))
    sin_sum = np.zeros_like(cos_sum)
    for c, s in parts:  # in chunk order, so the sums do not depend on threads
        cos_sum += c
        sin_sum += s
    phi = np.hypot(cos_sum, sin_sum) / num  # [D', K]

    log_thetas = np.log(_ECF_THETAS)
    slopes = []
    for neg_log in -np.log(np.minimum(phi, 1.0)):
        if neg_log.max() < 1e-9:
            continue  # no decay: no resolvable tail along this projection
        slope = np.polyfit(log_thetas, np.log(np.maximum(neg_log, 1e-12)), 1)[0]
        slopes.append(slope)
    if not slopes:
        return AlphaParam(_ALPHA_MAX)
    return AlphaParam(float(np.clip(np.mean(slopes), _ALPHA_MIN, _ALPHA_MAX)))


def _unchecked(obj, **changes):
    """A copy of a validated dataclass with fields swapped for values derived
    from it, without re-running its ``__post_init__`` checks (for a
    spectrogram, a full ``isfinite`` pass)."""
    out = copy.copy(obj)
    vars(out).update(changes)
    return out


def normalize_observations(spec: Spectrogram, p: float) -> Spectrogram:
    """Divide each TF vector by the p-th power of its p-norm.

    All-zero TF vectors cannot be normalized; they are zeroed out and
    excluded from downstream time averages through ``valid_mask``.

    The pass streams over chunks of bins (see ``_map_chunks``), and each
    chunk over blocks of bins with at most ``_BLOCK_BYTES`` of |x|^p
    scratch, written straight into the output. Every value is computed per
    TF cell, so the result does not depend on the chunks or the threads.
    Bins, not frames: a bin's frames are contiguous, and chunks of frames
    made a 40-s pass slower than the unchunked one.
    """
    if p <= 0:
        raise ParameterError("p must be positive")
    num_channels, num_freqs, num_frames = spec.bins.shape
    bins = np.empty(spec.bins.shape, dtype=np.complex128)
    mask = np.empty((num_freqs, num_frames), dtype=bool)

    unit_bytes = 8 * num_channels * num_frames  # |x|^p of one bin

    def normalize(c0, c1):
        for f0, f1 in _blocks(c0, c1, unit_bytes):
            x = spec.bins[:, f0:f1]
            powers = np.abs(x)
            powers **= p  # in place: one temporary, not two
            norms_p = powers.sum(axis=0)  # [Fb, T]
            del powers  # freed before the division's own block of scratch
            valid = mask[f0:f1]
            np.greater(norms_p, 0, out=valid)
            if spec.valid_mask is not None:
                valid &= spec.valid_mask[f0:f1]
            out = bins[:, f0:f1]
            np.divide(x, np.where(norms_p > 0, norms_p, 1.0), out=out)  # finite where x is
            out[:, ~valid] = 0.0

    _map_chunks(normalize, num_freqs, unit_bytes, _CHUNK_BYTES)
    return _unchecked(spec, bins=bins, valid_mask=mask)


def levy_estimator(spec: Spectrogram, svs: NormalizedSVSet,
                   alpha: AlphaParam) -> np.ndarray:
    """Nonnegative Lévy-exponent estimates, one per (bin, direction).

    For each probe vector the estimate is -2 ln |mean_t exp(i Re(a~^H x_t)
    / 2^(1/alpha))| over the valid frames of that bin. The time average of
    unit-modulus terms never exceeds 1, so estimates are nonnegative; an
    exactly-zero average is floored at 1e-300 before the log.

    The sketch streams over chunks of frames (see ``_map_chunks``): each
    chunk's phases come from one batched real matmul [F, L, 2M] @
    [F, 2M, Tc] and their cos and sin from one half-angle tangent, reduced
    to [F, L] sums. Working memory is bounded by ``_CHUNK_BYTES`` and does
    not grow with T. An input done in one inline call (such as a 1-s
    scene) is taken in blocks of bins with at most ``_BLOCK_BYTES`` of
    phases each; every (bin, direction) cell still sums the same frames in
    the same order.
    """
    if not same_freq_axis(spec.freqs_hz, svs.freqs_hz):
        raise ShapeError("spectrogram and SV set must share the frequency axis")
    if spec.num_channels != svs.num_mics:
        raise ShapeError("spectrogram and SV set must share the channel count")

    num_dirs, _, num_freqs = svs.values.shape
    num_frames = spec.num_frames
    # Re(a^H x) = Re(a).Re(x) + Im(a).Im(x); the half angle of the tangent
    # and the 1/2^(1/alpha) scale ride on the SV side
    a = svs.values.transpose(2, 0, 1)  # [F, L, M]
    probes = (0.5 / 2.0 ** (1.0 / alpha.alpha)) * np.concatenate((a.real, a.imag), axis=2)
    mask = spec.valid_mask

    def chunk_sums(t0, t1):
        x = spec.bins[:, :, t0:t1].transpose(1, 0, 2)  # [F, M, Tc]
        sums = np.empty((2, num_freqs, num_dirs))
        # a chunk of a longer input stays whole: split further, its many
        # small numpy calls kept the worker threads waiting on the
        # interpreter lock (on 2 CPUs, 256-KB blocks took a 20-s sketch
        # from 105 to 170 ms)
        blocks = _blocks(0, num_freqs, 16 * num_dirs * num_frames) \
            if t1 - t0 == num_frames else [(0, num_freqs)]
        for f0, f1 in blocks:
            xb = x[f0:f1]
            half = probes[f0:f1] @ np.concatenate((xb.real, xb.imag), axis=1)  # [Fb, L, Tc]
            sums[:, f0:f1] = _cos_sin_sums(
                half, None if mask is None else mask[f0:f1, None, t0:t1])
        return sums

    parts = _map_chunks(chunk_sums, num_frames, 16 * num_freqs * num_dirs, _CHUNK_BYTES)
    cos_sum = np.zeros((num_freqs, num_dirs))
    sin_sum = np.zeros_like(cos_sum)
    for c, s in parts:  # in chunk order, so the sums do not depend on threads
        cos_sum += c
        sin_sum += s
    counts = num_frames if mask is None else np.maximum(mask.sum(axis=1), 1)[:, None]
    mag = np.hypot(cos_sum, sin_sum) / counts  # [F, L]
    if np.any(mag < _MAG_FLOOR):
        warnings.warn("Lévy estimator hit an exactly-zero empirical average; "
                      "clamping before the log", RuntimeWarning)
    mag = np.clip(mag, _MAG_FLOOR, 1.0)
    return (-2.0 * np.log(mag)).reshape(-1)  # f-blocks, l fastest


def build_psi(svs: NormalizedSVSet, alpha: AlphaParam, dtype=np.float64) -> np.ndarray:
    """Stacked |a~_l^H a~_l'|^alpha coherence blocks, [F' * L, L].

    Psi comes out column-major, the layout ``multiplicative_update`` uses.
    The complex Gram blocks are formed a few bins at a time, and each
    block's moduli and power are taken in float64 scratch (at most
    ``_BLOCK_BYTES`` in all) and stored into a Psi of ``dtype``, so the
    only full-size array is Psi itself. A float32 Psi is the float64 one
    rounded to nearest, bit for bit, without a float64 Psi ever being held
    whole.
    """
    a = svs.values.transpose(2, 0, 1)  # [F, L, M]
    f, l, _ = a.shape
    blocks = np.empty((l, f, l), dtype=dtype).transpose(1, 2, 0)  # [F, L, L] over column-major Psi
    spans = _blocks(0, f, 24 * l * l)  # the complex Gram and its float64 moduli
    mods = np.empty((spans[0][1], l, l))
    for f0, f1 in spans:
        # operands are views of the SVs, so every bin's product takes the
        # matmul path (BLAS or not) that one product over all bins took
        blk = a[f0:f1]
        out = mods[:f1 - f0]
        np.abs(blk.conj() @ blk.transpose(0, 2, 1), out=out)
        out **= alpha.alpha
        blocks[f0:f1] = out
    return blocks.reshape(f * l, l)  # a view: rows f * L + l


def multiplicative_update(sketch: LevySketch, config: SolverConfig,
                          upsilon0: np.ndarray | None = None,
                          grid: DoaGrid | None = None) -> SpatialMeasure:
    """Sparse KL (beta = 1) multiplicative updates for the spatial measure.

    Starts from the all-ones vector (unless ``upsilon0`` is given) and
    applies exactly ``iterations`` updates

        ups <- ups * Psi^T(i_hat / (Psi ups)) / (Psi^T 1 + lambda)

    flooring Psi ups at 1e-12 before the division. Nonnegativity is
    preserved at every iterate.

    ``info["late_rel_change"]`` is ||ups_end - ups_k||_1 / ||ups_end||_1
    with k = iterations - max(1, iterations // 10): how far the last tenth
    of the iterations still moved the measure.

    The two products, Psi ups and Psi^T r, are taken in Psi's dtype;
    everything else is float64: the ratio r = i_hat / max(Psi ups, 1e-12)
    (rounded once into Psi's dtype for the second product), the column
    sums Psi^T 1, the measure and the update. A float32 Psi halves the
    bytes that each iteration's two matrix-vector passes stream. The ratio
    is formed ``_RATIO_ROWS`` rows at a time, so the solver holds one
    vector of Psi's dtype and a small float64 block, never a second Psi.

    Psi is used column-major: OpenBLAS splits the transposed product
    Psi^T r across threads far better in that layout (the same sums in
    another order, about a third less time with two threads).
    ``build_psi`` returns it in that layout, so no copy is made here; a
    C-ordered Psi is copied once.
    """
    psi = np.asfortranarray(sketch.psi)
    i_hat = sketch.i_hat
    num_rows, num_dirs = psi.shape
    ups = np.ones(num_dirs) if upsilon0 is None else np.asarray(upsilon0, dtype=np.float64).copy()
    if ups.size != num_dirs:
        raise ShapeError("upsilon0 length must match psi columns")
    den = np.maximum(psi.sum(axis=0, dtype=np.float64) + config.sparsity_lambda,
                     1e-300)  # constant
    ratio = np.empty(num_rows, dtype=psi.dtype)  # Psi ups, then r in place
    scratch = np.empty(min(num_rows, _RATIO_ROWS))  # r, a block at a time
    late_start = config.iterations - max(1, config.iterations // 10)
    for it in range(config.iterations):
        if it == late_start:
            ups_late = ups.copy()
        np.matmul(psi, ups.astype(psi.dtype, copy=False), out=ratio)
        for r0 in range(0, num_rows, _RATIO_ROWS):
            part = ratio[r0:r0 + _RATIO_ROWS]
            r64 = scratch[:part.size]
            np.copyto(r64, part)
            np.maximum(r64, 1e-12, out=r64)
            np.divide(i_hat[r0:r0 + _RATIO_ROWS], r64, out=r64)
            part[...] = r64
        ups = ups * (psi.T @ ratio) / den
    late_rel_change = float(np.abs(ups - ups_late).sum() / max(ups.sum(), 1e-300))
    return SpatialMeasure(upsilon=ups, grid=grid,
                          info={"late_rel_change": late_rel_change})


def kl_sparse_objective(sketch: LevySketch, upsilon: np.ndarray,
                        sparsity_lambda: float) -> float:
    """Generalized KL divergence D(i_hat || Psi ups) plus the L1 penalty.

    Psi ups is taken in Psi's dtype, so a float32 Psi is never copied to
    float64; the floor, the log terms and the sums are float64.
    """
    psi = sketch.psi
    pv = np.maximum(psi @ np.asarray(upsilon, dtype=psi.dtype), 1e-12, dtype=np.float64)
    i = sketch.i_hat
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(i > 0, i * np.log(np.where(i > 0, i, 1.0) / pv) - i + pv, pv)
    return float(term.sum() + sparsity_lambda * np.sum(upsilon))


@contextlib.contextmanager
def _timed(timings: dict, stage: str):
    """Record the wall time of the ``with`` body in ``timings[stage]`` (ms)."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[stage] = 1e3 * (time.perf_counter() - start)


def shamans_localize(spec: Spectrogram, svs: SteeringVectorSet,
                     config: SolverConfig | None = None) -> SpatialMeasure:
    """End-to-end alpha-stable localization over the SV grid.

    Estimates alpha from the raw mixture, p-normalizes observations,
    normalizes the steering vectors, sketches the Lévy exponents, and runs
    the multiplicative updates. The DC bin and any bin missing from the SV
    set's frequency axis never enter the sketch.

    The solve runs on a float32 Psi (``build_psi`` rounds the float64
    coherences once); the sketch, the ratio and the measure stay float64.
    ``info["psi_dtype"]`` names that precision, and ``info["timings_ms"]``
    holds the wall time of the stages ``alpha``, ``normalize`` (band,
    observations and SVs), ``sketch``, ``psi`` and ``solve``.
    """
    config = config or SolverConfig()
    timings = {}
    with _timed(timings, "alpha"):
        alpha = estimate_alpha(spec)
    if config.p_norm >= alpha.alpha:
        raise ParameterError(
            f"p = {config.p_norm} must be below the estimated alpha = {alpha.alpha:.3f}")

    with _timed(timings, "normalize"):
        band, sv_idx = match_freq_band(spec.freqs_hz, svs.freqs_hz)
        retained = _unchecked(
            spec, bins=spec.bins[:, band, :], first_bin=spec.first_bin + band.start,
            valid_mask=None if spec.valid_mask is None else spec.valid_mask[band])
        sub_spec = normalize_observations(retained, config.p_norm)
        sub_svs = _unchecked(svs, values=svs.values[:, :, sv_idx],
                             freqs_hz=svs.freqs_hz[sv_idx])
        tilde = normalize_svs(sub_svs)

    with _timed(timings, "sketch"):
        i_hat = levy_estimator(sub_spec, tilde, alpha)
    with _timed(timings, "psi"):
        psi = build_psi(tilde, alpha, dtype=np.float32)
    with _timed(timings, "solve"):
        sketch = LevySketch(i_hat=i_hat, psi=psi, alpha=alpha, num_freqs=sv_idx.size)
        measure = multiplicative_update(sketch, config, grid=svs.grid)
    measure.info.update({
        "alpha": alpha.alpha,
        **asdict(config),
        "num_freqs": int(sv_idx.size),
        "num_frames": spec.num_frames,
        "masked_bins": int(sub_spec.valid_mask.size - np.count_nonzero(sub_spec.valid_mask)),
        "levy_clamped": int(np.count_nonzero(i_hat >= _LEVY_CEIL)),
        "psi_dtype": str(psi.dtype),
        "timings_ms": timings,
    })
    return measure
