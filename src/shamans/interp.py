"""Spatial upsampling of steering vectors from sparse measurements.

Two interpolators share one interface: per-frequency spherical-harmonic
ridge regression, and "NS-lite", a seeded random trigonometric feature
expansion of (x, y, z, normalized frequency) followed by ridge regression
per microphone. Both expose ``predict(directions) -> [N, M, F]`` and a
``freqs_hz`` attribute, which is all :func:`interp_svs` and
:func:`sample_ring` need. The synthetic measured field of ``scenes`` is an
SH expansion too, so it is an :class:`ShCoefficients` like an SH fit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ParameterError, ShapeError, SingularSystemError
from .steering import (
    DoaGrid,
    SteeringVectorSet,
    read_svset_raw,
    same_freq_axis,
    write_svset_raw,
)

_SQRT2 = math.sqrt(2.0)


def num_sh_coeffs(max_degree: int) -> int:
    return (max_degree + 1) ** 2


def sh_matrix(directions, max_degree: int) -> np.ndarray:
    """Real orthonormal spherical harmonics at unit direction vectors.

    Column ordering is (degree nu, order mu) with mu = -nu..nu, so column 0
    is the constant harmonic 1/sqrt(4 pi). Rows follow the input directions.
    """
    d = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    if d.shape[1] != 3:
        raise ParameterError("directions must be [N, 3] unit vectors")
    norms = np.linalg.norm(d, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise ParameterError("directions must be unit-norm")
    z = np.clip(d[:, 2], -1.0, 1.0)
    az = np.arctan2(d[:, 1], d[:, 0])
    legendre = _assoc_legendre(z, max_degree)

    out = np.empty((d.shape[0], num_sh_coeffs(max_degree)))
    col = 0
    for nu in range(max_degree + 1):
        for mu in range(-nu, nu + 1):
            m = abs(mu)
            norm = math.sqrt((2 * nu + 1) / (4.0 * np.pi)
                             * (math.factorial(nu - m) / math.factorial(nu + m)))
            assoc = legendre[nu, m]
            if mu == 0:
                out[:, col] = norm * assoc
            elif mu > 0:
                out[:, col] = _SQRT2 * norm * assoc * np.cos(m * az)
            else:
                out[:, col] = _SQRT2 * norm * assoc * np.sin(m * az)
            col += 1
    return out


def _assoc_legendre(z: np.ndarray, max_degree: int) -> np.ndarray:
    """Associated Legendre functions P_nu^m(z) with the Condon-Shortley
    phase, [nu, m, N] for 0 <= m <= nu <= max_degree (zero above nu).

    Per order m: P_m^m = (-1)^m (2m - 1)!! (1 - z^2)^(m/2), then the
    upward recurrence (nu - m) P_nu^m = (2 nu - 1) z P_{nu-1}^m
    - (nu + m - 1) P_{nu-2}^m, with P_{m-1}^m = 0.
    """
    p = np.zeros((max_degree + 1, max_degree + 1, z.size))
    sine = np.sqrt(1.0 - z * z)
    diagonal = np.ones_like(z)
    for m in range(max_degree + 1):
        if m > 0:
            diagonal = -(2 * m - 1) * sine * diagonal
        p[m, m] = diagonal
        if m < max_degree:
            p[m + 1, m] = (2 * m + 1) * z * diagonal
        for nu in range(m + 2, max_degree + 1):
            p[nu, m] = ((2 * nu - 1) * z * p[nu - 1, m]
                        - (nu + m - 1) * p[nu - 2, m]) / (nu - m)
    return p


def sh_expand(basis: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Apply a real [N, P] matrix to complex [P, M, F] coefficients, [N, M, F].

    With ``basis = sh_matrix(directions, degree)`` this evaluates an SH
    expansion. The real and imaginary parts go through one real matmul.
    """
    p, m, f = coeffs.shape
    flat = np.ascontiguousarray(coeffs, dtype=np.complex128).reshape(p, m * f)
    out = basis @ flat.view(np.float64)  # [N, 2 M F], re/im interleaved
    return out.view(np.complex128).reshape(-1, m, f)


def fibonacci_sphere(count: int) -> np.ndarray:
    """Near-uniform unit vectors [count, 3] on the sphere (Fibonacci lattice)."""
    i = np.arange(count)
    z = 1.0 - (2.0 * i + 1.0) / count
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    golden = np.pi * (3.0 - math.sqrt(5.0))
    az = golden * i
    return np.stack([r * np.cos(az), r * np.sin(az), z], axis=1)


@dataclass
class ShBasisConfig:
    """Spherical-harmonic fit settings."""

    max_degree: int
    ridge_lambda: float = 1e-6

    def __post_init__(self):
        if self.max_degree < 0:
            raise ParameterError("max_degree must be >= 0")
        if self.ridge_lambda < 0:
            raise ParameterError("ridge_lambda must be nonnegative")

    @staticmethod
    def default_degree(num_measurements: int) -> int:
        return max(0, int(math.floor(math.sqrt(num_measurements))) - 1)


@dataclass
class SparseSvMeasurements:
    """SV samples at scattered unit directions, values shaped [N, M, F]."""

    directions: np.ndarray
    values: np.ndarray
    freqs_hz: np.ndarray

    def __post_init__(self):
        self.directions = np.atleast_2d(np.asarray(self.directions, dtype=np.float64))
        self.values = np.asarray(self.values, dtype=np.complex128)
        self.freqs_hz = np.asarray(self.freqs_hz, dtype=np.float64)
        if self.directions.shape[0] < 1:
            raise ParameterError("need at least one measurement")
        if not (np.all(np.isfinite(self.directions)) and np.all(np.isfinite(self.values))):
            raise ParameterError("measurement directions and values must be finite")
        if np.any(np.abs(np.linalg.norm(self.directions, axis=1) - 1.0) > 1e-12):
            raise ParameterError("measurement directions must be unit-norm")
        if self.values.shape[0] != self.directions.shape[0]:
            raise ShapeError("values and directions disagree on N")
        if self.values.shape[2] != self.freqs_hz.size:
            raise ShapeError("values and freqs_hz disagree on F")


@dataclass
class ShCoefficients:
    """SH expansion of an SV field, coeffs shaped [(max_degree+1)^2, M, F]:
    an SH fit, or the synthetic measured field itself."""

    coeffs: np.ndarray
    freqs_hz: np.ndarray
    max_degree: int
    ridge_lambda: float = 0.0

    def predict(self, directions) -> np.ndarray:
        return sh_expand(sh_matrix(directions, self.max_degree), self.coeffs)


def _ridge_solve(gram: np.ndarray, rhs: np.ndarray, penalty: np.ndarray):
    # numpy has no triangular solve, so the Cholesky factor serves only as
    # the positive-definiteness check and the solve is one LU
    system = gram + penalty
    try:
        np.linalg.cholesky(system)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "normal equations are singular; increase ridge_lambda or the "
            "number of measurements") from exc
    return np.linalg.solve(system, rhs)


def fit_sh(measurements: SparseSvMeasurements, config: ShBasisConfig) -> ShCoefficients:
    """Ridge-regress SH coefficients independently per microphone and bin.

    Solves argmin ||B c - a||^2 + lambda ||c||^2 through the normal
    equations; with ridge_lambda = 0 an underdetermined or degenerate
    design raises SingularSystemError.
    """
    basis = sh_matrix(measurements.directions, config.max_degree)  # [N, P]
    p = basis.shape[1]
    gram = basis.T @ basis
    n, m, f = measurements.values.shape
    rhs = basis.T @ measurements.values.reshape(n, m * f)
    coeffs = _ridge_solve(gram, rhs, config.ridge_lambda * np.eye(p))
    return ShCoefficients(coeffs=coeffs.reshape(p, m, f),
                          freqs_hz=measurements.freqs_hz,
                          max_degree=config.max_degree,
                          ridge_lambda=config.ridge_lambda)


@dataclass
class CoordNetConfig:
    """NS-lite settings: seeded trigonometric features + ridge."""

    num_features: int = 128
    feature_scale: float = 2.0
    ridge_lambda: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.num_features < 0:
            raise ParameterError("num_features must be >= 0")
        if self.feature_scale <= 0:
            raise ParameterError("feature_scale must be positive")
        if self.ridge_lambda < 0:
            raise ParameterError("ridge_lambda must be nonnegative")


def _trig_features(directions, freqs_hz, freq_scale, omegas) -> np.ndarray:
    """Feature rows [N*F, 1 + 2K], direction-major then frequency."""
    n = directions.shape[0]
    f = freqs_hz.size
    ones = np.ones((n * f, 1))
    if omegas.shape[0] == 0:
        return ones
    coords = np.empty((n * f, 4))
    coords[:, :3] = np.repeat(directions, f, axis=0)
    coords[:, 3] = np.tile(freqs_hz / freq_scale, n)
    phase = coords @ omegas.T
    return np.concatenate([ones, np.cos(phase), np.sin(phase)], axis=1)


@dataclass
class CoordNetModel:
    """Fitted NS-lite regressor: weights [1 + 2K, M] over trig features."""

    weights: np.ndarray
    omegas: np.ndarray  # [K, 4] random feature frequencies
    freqs_hz: np.ndarray
    freq_scale: float
    config: CoordNetConfig

    def predict(self, directions) -> np.ndarray:
        directions = np.atleast_2d(np.asarray(directions, dtype=np.float64))
        phi = _trig_features(directions, self.freqs_hz, self.freq_scale, self.omegas)
        out = phi @ self.weights  # [N*F, M]
        n, f = directions.shape[0], self.freqs_hz.size
        return out.reshape(n, f, self.weights.shape[1]).transpose(0, 2, 1)


def coordnet_features(config: CoordNetConfig) -> np.ndarray:
    """Deterministic random feature frequencies for a given seed."""
    rng = np.random.default_rng(config.seed)
    return rng.normal(0.0, config.feature_scale, size=(config.num_features, 4))


def fit_coordnet(measurements: SparseSvMeasurements,
                 config: CoordNetConfig) -> CoordNetModel:
    """Fit the NS-lite regressor, one ridge solve per microphone.

    Frequency enters as a fourth coordinate normalized by the largest
    training frequency, so a single weight vector covers all bins. The
    bias column is left unpenalized; with num_features = 0 and any lambda
    the fit therefore degenerates to the per-microphone training mean.
    """
    omegas = coordnet_features(config)
    freq_scale = float(np.max(measurements.freqs_hz)) or 1.0
    phi = _trig_features(measurements.directions, measurements.freqs_hz,
                         freq_scale, omegas)  # [N*F, P]
    n, m, f = measurements.values.shape
    targets = measurements.values.transpose(0, 2, 1).reshape(n * f, m)
    penalty = config.ridge_lambda * np.eye(phi.shape[1])
    penalty[0, 0] = 0.0
    weights = _ridge_solve(phi.T @ phi, phi.T @ targets, penalty)
    return CoordNetModel(weights=weights, omegas=omegas,
                         freqs_hz=measurements.freqs_hz,
                         freq_scale=freq_scale, config=config)


def coordnet_objective(model: CoordNetModel,
                       measurements: SparseSvMeasurements) -> float:
    """Ridge-regularized training loss of a fitted NS-lite model."""
    n, m, f = measurements.values.shape
    targets = measurements.values.transpose(0, 2, 1).reshape(n * f, m)
    phi = _trig_features(measurements.directions, measurements.freqs_hz,
                         model.freq_scale, model.omegas)
    resid = phi @ model.weights - targets
    pen = np.sum(np.abs(model.weights[1:]) ** 2)
    return float(np.sum(np.abs(resid) ** 2) + model.config.ridge_lambda * pen)


def interp_svs(model, grid: DoaGrid, freqs_hz) -> SteeringVectorSet:
    """Evaluate a fitted interpolator on every grid direction.

    The request must use the model's own frequency axis; anything else is
    a shape error rather than silent extrapolation.
    """
    freqs_hz = np.asarray(freqs_hz, dtype=np.float64)
    if not same_freq_axis(freqs_hz, model.freqs_hz):
        raise ShapeError("requested frequencies differ from the fitted model's")
    values = model.predict(grid.directions())
    return SteeringVectorSet(values=values, grid=grid, freqs_hz=freqs_hz,
                             source_tag="interpolated")


def sample_ring(model, grid: DoaGrid, count: int, seed: int) -> SparseSvMeasurements:
    """``count`` seeded random directions on the grid's azimuth ring, with
    ``model``'s SVs there, mirroring an SVSET subsample."""
    rng = np.random.default_rng(seed)
    azimuths = np.sort(rng.uniform(0.0, 360.0, count))
    directions = DoaGrid(azimuths, grid.radius_m, grid.elevation_deg).directions()
    return SparseSvMeasurements(directions=directions, values=model.predict(directions),
                                freqs_hz=model.freqs_hz)


def interp_error_report(truth: SteeringVectorSet,
                        estimate: SteeringVectorSet) -> np.ndarray:
    """Per-frequency relative Frobenius error of an interpolated SV set."""
    if (len(truth.grid) != len(estimate.grid)
            or not np.allclose(truth.grid.azimuths_deg, estimate.grid.azimuths_deg)
            or not same_freq_axis(truth.freqs_hz, estimate.freqs_hz)):
        raise ShapeError("truth and estimate must share grid and frequencies")
    diff = np.linalg.norm((estimate.values - truth.values).reshape(-1, truth.num_freqs), axis=0)
    ref = np.linalg.norm(truth.values.reshape(-1, truth.num_freqs), axis=0)
    return diff / np.maximum(ref, 1e-300)


# ---------------------------------------------------------------------------
# fit artifacts on disk: SVSET container for the numbers, JSON sidecar for
# the fit metadata


def save_fit_artifact(model, path, extra: dict | None = None) -> None:
    """Write a fitted model, and its JSON sidecar with the ``extra`` fields."""
    path = Path(path)
    if isinstance(model, ShCoefficients):
        write_svset_raw(path, model.coeffs, np.arange(model.coeffs.shape[0]),
                        model.freqs_hz, 0.0, 0.0, 2)
        meta = {"kind": "sh", "max_degree": model.max_degree,
                "ridge_lambda": model.ridge_lambda}
    elif isinstance(model, CoordNetModel):
        write_svset_raw(path, model.weights[:, :, None],
                        np.arange(model.weights.shape[0]), [0.0], 0.0, 0.0, 2)
        cfg = model.config
        meta = {"kind": "nslite", "num_features": cfg.num_features,
                "feature_scale": cfg.feature_scale,
                "ridge_lambda": cfg.ridge_lambda, "seed": cfg.seed,
                "freq_scale": model.freq_scale,
                "freqs_hz": [float(v) for v in model.freqs_hz]}
    else:
        raise ParameterError(f"cannot serialize model of type {type(model).__name__}")
    path.with_suffix(".json").write_text(json.dumps({**meta, **(extra or {})},
                                                    sort_keys=True, indent=1))


def _finite_number(text: str) -> float:
    """A JSON number or constant (NaN, Infinity) that must be finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def load_fit_artifact(path):
    """Read a fit artifact; a value that is not finite, and a sidecar that
    is not JSON, lacks a field or disagrees with the container's
    coefficient rows, is a FormatError naming the file."""
    path, sidecar = Path(path), Path(path).with_suffix(".json")
    values, _axis0, freqs, _radius, _elev, _tag = read_svset_raw(path)
    values = values.astype(np.complex128)
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(freqs))):
        raise FormatError(f"{path}: the fit's coefficients or frequencies are not all finite")

    def check_rows(rows):  # before a model of that size is made
        if values.shape[0] != rows:
            raise FormatError(f"{sidecar}: the fit has {rows} coefficient rows, "
                              f"{path} holds {values.shape[0]}")

    try:  # not UTF-8, not JSON or a number that is not finite is a ValueError
        meta = json.loads(sidecar.read_text(), parse_float=_finite_number,
                          parse_constant=_finite_number)
        if meta["kind"] == "sh":
            max_degree = int(meta["max_degree"])
            check_rows(num_sh_coeffs(max_degree))
            model = ShCoefficients(values, freqs, max_degree, float(meta["ridge_lambda"]))
        elif meta["kind"] == "nslite":
            config = CoordNetConfig(int(meta["num_features"]), float(meta["feature_scale"]),
                                    float(meta["ridge_lambda"]), int(meta["seed"]))
            check_rows(1 + 2 * config.num_features)
            model = CoordNetModel(values[:, :, 0], coordnet_features(config),
                                  np.asarray(meta["freqs_hz"], dtype=np.float64),
                                  float(meta["freq_scale"]), config)
        else:
            raise FormatError(f"{sidecar}: unknown artifact kind {meta['kind']!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{sidecar}: not a fit-artifact sidecar "
                          f"({type(exc).__name__}: {exc})") from exc
    return model
