"""Alpha-stable spatial measure estimation.

The chain: estimate the characteristic exponent from the mixture, weigh
the TF observations by their p-norm, sketch nonnegative Lévy-exponent
estimates against normalized steering vectors, build the SV
cross-coherence matrix, and invert the linear relation between the sketch
and the spatial measure with sparse multiplicative updates.
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
from .signal import Spectrogram, _blocks
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
# the alpha estimate reads every s-th TF sample, s chosen so that at most
# this many are read: a 2-s scene is read whole
_ALPHA_SAMPLES = 2**15
# Psi, the p-norm weights and the sketch work in blocks of at most this
# many bytes of scratch, which stay in cache
_BLOCK_BYTES = 256 * 2**10
# empirical CF moduli below this are clamped before the log, so a Lévy
# estimate at (or within rounding of) -2 ln of it marks a clamped cell
_MAG_FLOOR = 1e-300
_LEVY_CEIL = -2.0 * math.log(_MAG_FLOOR) * (1.0 - 1e-12)
# the smallest normal float32; the solver zeroes operand entries below it
_TINY32 = float(np.finfo(np.float32).tiny)


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
    its products and ratio in float32), and any other ``psi`` becomes
    float64.
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


def _cos_sin_sums(half_phase: np.ndarray, weight: np.ndarray | None = None):
    """Sums over the last axis of cos(2h) and sin(2h) for half-angles h,
    from one tangent t = tan(h): cos = 2/(1+t^2) - 1, sin = 2t/(1+t^2).
    ``weight`` (0/1, broadcast against ``half_phase``) drops the terms it
    zeroes. The sums are in ``half_phase``'s dtype; it is overwritten, and
    one more array like it is allocated: 16 bytes of scratch per phase in
    float64, 8 in float32.
    """
    t = np.tan(half_phase, out=half_phase)
    u = np.square(t)
    u += 1.0
    np.divide(2.0 if weight is None else 2.0 * weight, u, out=u)
    count = t.shape[-1] if weight is None else weight.sum(axis=-1)
    return u.sum(axis=-1) - count, np.einsum("...t,...t->...", u, t)


def _row_medians(a: np.ndarray) -> np.ndarray:
    """``np.median(a, axis=1)`` of a 2-D float array with at least 2
    columns, bit for bit, partitioning ``a`` in place at the upper middle
    only: for an even width the lower middle is the largest of the entries
    before it. np.median's first call in a process imports numpy.ma, which
    a one-shot run paid for."""
    k = a.shape[1] // 2
    a.partition(k, axis=1)
    return a[:, k].copy() if a.shape[1] % 2 else 0.5 * (a[:, :k].max(axis=1) + a[:, k])


def estimate_alpha(spec: Spectrogram) -> AlphaParam:
    """Characteristic exponent from log-log characteristic-function slopes.

    Projects TF observation vectors onto 8 fixed random complex unit
    directions, evaluates the empirical characteristic function of each
    real 1-D projection on a small theta grid, and averages the slopes of
    log(-log |phi|) against log theta. A degenerate projection (no decay of
    |phi|, e.g. a constant signal) carries no tail information; if all
    projections degenerate the Gaussian edge 2.0 is returned. An all-zero
    TF vector (digital silence) carries none either and is left out.

    At most ``_ALPHA_SAMPLES`` of the n TF vectors are read: every s-th
    one, s = ceil(n / _ALPHA_SAMPLES), in bin-major (flattened [F, T])
    order, less the all-zero ones among them. So an input of up to 2^15
    vectors (a 2-s scene) is read whole and the cost does not grow with
    the audio length. Only when fewer than 100 of the strided vectors are
    nonzero is the whole input read, to take every s'-th of its n' nonzero
    vectors (s' = ceil(n' / _ALPHA_SAMPLES)) or, below 100 of them, to
    raise EstimationError. The CF sums are taken one projection at a time,
    with cos and sin of each phase from one half-angle tangent.
    """
    flat = spec.bins.reshape(spec.num_channels, -1)
    # one contiguous copy of the sample, which the zero test reads faster;
    # the projection's matmul copied a strided operand anyway, and this
    # copy is freed right after the projection as that one was
    x = np.ascontiguousarray(flat[:, ::-(-flat.shape[1] // _ALPHA_SAMPLES)])
    nonzero = np.any(x, axis=0)
    if np.count_nonzero(nonzero) < 100:
        picks = np.flatnonzero(np.any(flat, axis=0))
        if picks.size < 100:
            raise EstimationError("need at least 100 nonzero TF vectors to estimate alpha")
        x = flat[:, picks[::-(-picks.size // _ALPHA_SAMPLES)]]
    elif not nonzero.all():
        x = x[:, nonzero]

    rng = np.random.default_rng(_PROJECTION_SEED)
    proj = rng.standard_normal((_NUM_PROJECTIONS, spec.num_channels)) \
        + 1j * rng.standard_normal((_NUM_PROJECTIONS, spec.num_channels))
    proj /= np.linalg.norm(proj, axis=1, keepdims=True)
    y = (proj.conj() @ x).real  # [D, n]
    del x
    num = y.shape[1]
    med = _row_medians(np.abs(y))
    live = med > 0
    if not live.any():
        return AlphaParam(_ALPHA_MAX)  # no projection has a scale to read
    if not live.all():
        y = y[live]
    # not in place: the peak (y and its moduli) is the same, and an
    # in-place division raised the peak RSS of 1-s scenes by 3 MB (a
    # different heap layout under the sketch's arrays)
    y = y / med[live, None]  # [D', n]
    half_thetas = 0.5 * _ECF_THETAS[:, None]
    sums = np.array([_cos_sin_sums(half_thetas * row) for row in y])  # [D', 2, K]
    phi = np.hypot(sums[:, 0], sums[:, 1]) / num  # [D', K]

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


def _p_weights(bins: np.ndarray, p: float) -> np.ndarray:
    """The p-normalizing weight 1/S, S = sum_m |x_m|^p, of each TF vector of
    ``bins`` [M, F, T], as [F, T]. It is 0 (the sketch leaves the vector out)
    when S is 0 or subnormal, or when a normalized entry |x_m| / S passes
    2^55 (tiny vectors at p > 1, huge ones at p < 1), where a float64 phase
    has a rounding unit above 2 pi. Blocks of bins hold at most
    ``_BLOCK_BYTES`` of |x|^p scratch."""
    if p <= 0:
        raise ParameterError("p must be positive")
    weights = np.zeros(bins.shape[1:])
    for f0, f1 in _blocks(bins.shape[1], 8 * bins[:, 0].size, _BLOCK_BYTES):  # |x|^p of a bin
        powers = np.abs(bins[:, f0:f1])
        if p != 1.0:
            powers **= p  # in place: one temporary, not two
        norms_p = powers.sum(axis=0)  # [Fb, T]
        peaks = powers.max(axis=0) ** (1.0 / p)  # max_m |x_m|
        np.divide(1.0, norms_p, out=weights[f0:f1],
                  where=(norms_p >= np.finfo(np.float64).tiny) & (peaks <= 2.0**55 * norms_p))
    return weights


def levy_estimator(spec: Spectrogram, svs: NormalizedSVSet, alpha: AlphaParam,
                   weights: np.ndarray | None = None) -> np.ndarray:
    """Nonnegative Lévy-exponent estimates, one per (bin, direction).

    Each is -2 ln |mean_t exp(i Re(a~^H y_t) / 2^(1/alpha))| over the frames
    t of the bin not left out, floored at 1e-300 before the log; y_t = w_t
    x_t, w_t from ``weights`` [F, T] (``_p_weights`` in ``shamans_localize``)
    or, without them, 1 on the nonzero vectors and 0 on the all-zero ones. A
    vector of weight 0 is left out; a y_t that overflows the float32 phases
    (|y_t| near float32's 3.4e38 or beyond) raises ParameterError.

    The sketch runs in blocks of at most ``_BLOCK_BYTES`` of phases (see
    ``_blocks``): blocks of whole bins over all frames or, where one bin's
    frames pass that budget, runs of one bin's frames (a 1-s scene on the
    60-cell grid is blocks of 4 bins, one run each). A block takes its
    phases from one float32 matmul [Fb, L, 2M] @ [Fb, 2M, Tb], whose
    operand is the bins times the weights rounded once to float32, and cos
    and sin from one float32 half-angle tangent: 8 bytes of scratch per
    phase. Each block's [Fb, L] sums are added in float64, a bin's runs in
    frame order. Float32 rounds a phase theta by about 6e-8 |theta|, so
    each CF modulus is within a few float32 epsilons times (1 + max
    |theta|) of the float64 formula's.
    """
    if not same_freq_axis(spec.freqs_hz, svs.freqs_hz):
        raise ShapeError("spectrogram and SV set must share the frequency axis")
    if spec.num_channels != svs.num_mics:
        raise ShapeError("spectrogram and SV set must share the channel count")
    num_dirs, num_mics, num_freqs = svs.values.shape
    if weights is None:
        weights = np.any(spec.bins, axis=0).astype(np.float64)
    elif np.shape(weights) != (num_freqs, spec.num_frames):
        raise ShapeError("weights must hold one value per TF vector [F, T]")

    # Re(a^H y) = Re(a).Re(y) + Im(a).Im(y); the half angle of the tangent
    # and the 1/2^(1/alpha) scale ride on the SV side
    a = svs.values.transpose(2, 0, 1)  # [F, L, M]
    probes = ((0.5 / 2.0 ** (1.0 / alpha.alpha))
              * np.concatenate((a.real, a.imag), axis=2)).astype(np.float32)
    kept = weights != 0  # [F, T]
    mask = None if kept.all() else kept.astype(np.float32)

    bins = spec.bins.transpose(1, 0, 2)  # [F, M, T]
    sums = np.zeros((2, num_freqs, num_dirs))
    for f0, f1 in _blocks(num_freqs, 8 * num_dirs * spec.num_frames, _BLOCK_BYTES):
        for t0, t1 in _blocks(spec.num_frames, 8 * num_dirs * (f1 - f0), _BLOCK_BYTES):
            x, scale = bins[f0:f1, :, t0:t1], weights[f0:f1, None, t0:t1]
            operand = np.empty((f1 - f0, 2 * num_mics, t1 - t0), dtype=np.float32)
            np.multiply(x.real, scale, out=operand[:, :num_mics], casting="same_kind")
            np.multiply(x.imag, scale, out=operand[:, num_mics:], casting="same_kind")
            sums[:, f0:f1] += _cos_sin_sums(  # of [Fb, L, Tb] phases
                probes[f0:f1] @ operand, None if mask is None else mask[f0:f1, None, t0:t1])
    cos_sum, sin_sum = sums
    mag = np.hypot(cos_sum, sin_sum) / np.maximum(kept.sum(axis=1), 1)[:, None]  # [F, L]
    if not np.all(np.isfinite(mag)):
        raise ParameterError("the weighted observations overflow the float32 sketch")
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
    spans = _blocks(f, 24 * l * l, _BLOCK_BYTES)  # the complex Gram and its float64 moduli
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

    The two products, Psi ups and Psi^T r, and the ratio
    r = i_hat / max(Psi ups, 1e-12) between them run in Psi's dtype, in
    one vector written in place; the column sums Psi^T 1, the measure and
    the update are float64. A float32 Psi halves the bytes that each
    iteration's two matrix-vector passes stream, and the solver holds one
    vector of Psi's dtype (and i_hat rounded to it), never a second Psi.

    A float32 operand of Psi ups has its subnormal entries (|u| below
    float32's smallest normal, about 1.2e-38) set to 0: a measure whose
    directions no row supports decays to 1e-85 and below, and every
    product on a subnormal operand pays CPU microcode assists (on the
    ``sh`` SVs of a sweep scene a 500-iteration solve took 47 ms, and 30
    ms with them zeroed). Such an entry adds at
    most about 1e-38 times a Psi entry to a row, which the 1e-12 floor or
    the row's own rounding absorbs, so the measure keeps its bits; the
    float64 ``ups`` is never changed.

    Psi is used column-major: OpenBLAS splits the transposed product
    Psi^T r across threads far better in that layout (the same sums in
    another order, about a third less time with two threads).
    ``build_psi`` returns it in that layout, so no copy is made here; a
    C-ordered Psi is copied once.
    """
    psi = np.asfortranarray(sketch.psi)
    num_rows, num_dirs = psi.shape
    ups = np.ones(num_dirs) if upsilon0 is None else np.asarray(upsilon0, dtype=np.float64).copy()
    if ups.size != num_dirs:
        raise ShapeError("upsilon0 length must match psi columns")
    den = np.maximum(psi.sum(axis=0, dtype=np.float64) + config.sparsity_lambda,
                     1e-300)  # constant
    # after the column sums, whose float64 reduction buffers a block of Psi
    i_hat = sketch.i_hat.astype(psi.dtype, copy=False)
    ratio = np.empty(num_rows, dtype=psi.dtype)  # Psi ups, then r in place
    late_start = config.iterations - max(1, config.iterations // 10)
    flush = psi.dtype == np.float32
    for it in range(config.iterations):
        if it == late_start:
            ups_late = ups.copy()
        operand = ups.astype(psi.dtype, copy=False)  # ups itself if float64
        if flush:
            operand[np.abs(operand) < _TINY32] = 0.0
        np.matmul(psi, operand, out=ratio)
        np.maximum(ratio, 1e-12, out=ratio)
        np.divide(i_hat, ratio, out=ratio)
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
    """Add the wall time of the ``with`` body to ``timings[stage]`` (ms)."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[stage] = timings.get(stage, 0.0) + 1e3 * (time.perf_counter() - start)


@dataclass
class SceneStage:
    """The part of the shamans chain that depends on the spectrogram alone,
    shared by every SV set it is localized with.

    ``weights`` [F, T] holds the p-norm weight of every TF vector of
    ``spec`` (``_p_weights``; DC included, which the SV stage leaves out),
    and ``timings`` the wall time (ms) of ``alpha`` and of the weights, as
    the first part of ``normalize``.
    """

    spec: Spectrogram
    config: SolverConfig
    alpha: AlphaParam
    weights: np.ndarray
    timings: dict


def scene_stage(spec: Spectrogram, config: SolverConfig | None = None) -> SceneStage:
    """Estimate alpha from the raw mixture, check that ``p_norm`` lies below
    it, and weigh every TF vector of ``spec`` by its p-norm (no normalized
    copy of the bins is made)."""
    config = config or SolverConfig()
    timings = {}
    with _timed(timings, "alpha"):
        alpha = estimate_alpha(spec)
    if config.p_norm >= alpha.alpha:
        raise ParameterError(
            f"p = {config.p_norm} must be below the estimated alpha = {alpha.alpha:.3f}")
    with _timed(timings, "normalize"):
        weights = _p_weights(spec.bins, config.p_norm)
    return SceneStage(spec=spec, config=config, alpha=alpha, weights=weights,
                      timings=timings)


def sv_stage(scene: SceneStage, svs: SteeringVectorSet) -> SpatialMeasure:
    """The measure of one scene stage over one SV set's grid.

    Takes the band of ``scene.spec`` that the SV set covers (every bin but
    DC; ``match_freq_band``) with its weights, normalizes the steering
    vectors, sketches the Lévy exponents in float32 and runs the
    multiplicative updates on a float32 Psi (``build_psi`` rounds the
    float64 coherences once); the weights, the estimates and the measure
    are float64. ``info`` records the scene stage's alpha and config, the
    retained bins and frames, ``masked_bins`` (the retained TF vectors of
    weight 0, which the sketch leaves out), ``levy_clamped``, ``psi_dtype``
    (the solve's precision) and ``timings_ms``: ``alpha``, ``normalize``
    (the scene stage's weights, then the band and the SVs), ``sketch``,
    ``psi`` and ``solve``.
    """
    spec, config, alpha = scene.spec, scene.config, scene.alpha
    timings = dict(scene.timings)
    with _timed(timings, "normalize"):
        band, sv_idx = match_freq_band(spec.freqs_hz, svs.freqs_hz)
        sub_spec = _unchecked(spec, bins=spec.bins[:, band, :],
                              first_bin=spec.first_bin + band.start)
        weights = scene.weights[band]
        sub_svs = _unchecked(svs, values=svs.values[:, :, sv_idx],
                             freqs_hz=svs.freqs_hz[sv_idx])
        tilde = normalize_svs(sub_svs)

    with _timed(timings, "sketch"):
        i_hat = levy_estimator(sub_spec, tilde, alpha, weights)
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
        "masked_bins": int(weights.size - np.count_nonzero(weights)),
        "levy_clamped": int(np.count_nonzero(i_hat >= _LEVY_CEIL)),
        "psi_dtype": str(psi.dtype),
        "timings_ms": timings,
    })
    return measure


def shamans_localize(spec: Spectrogram, svs: SteeringVectorSet,
                     config: SolverConfig | None = None) -> SpatialMeasure:
    """End-to-end alpha-stable localization over the SV grid: the scene
    stage (``scene_stage``: alpha, the p-norm check and the weights) and
    then the SV stage (``sv_stage``: band, normalized SVs, sketch, Psi and
    solve). A caller localizing one spectrogram with several SV sets builds
    the scene stage once and runs ``sv_stage`` for each.
    """
    return sv_stage(scene_stage(spec, config), svs)
