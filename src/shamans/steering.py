"""Steering-vector representations over a DOA grid.

Covers the free-field algebraic model, squared-norm normalization, and the
SVSET binary container used to exchange measured/interpolated SV sets.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    FormatError,
    GeometryError,
    NormalizationError,
    ParameterError,
    ShamansError,
    ShapeError,
    TruncationError,
)

SPEED_OF_SOUND = 343.0

_SVSET_MAGIC = b"SVST"
_SVSET_VERSION = 1
_TAG_TO_BYTE = {"measured": 0, "algebraic": 1, "interpolated": 2}
_BYTE_TO_TAG = {v: k for k, v in _TAG_TO_BYTE.items()}


def azel_to_unit(azimuth_deg, elevation_deg):
    """Unit direction vector(s) for azimuth/elevation in degrees."""
    az = np.deg2rad(np.asarray(azimuth_deg, dtype=np.float64))
    el = np.deg2rad(np.asarray(elevation_deg, dtype=np.float64))
    return np.stack(
        [np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el) * np.ones_like(az)],
        axis=-1,
    )


@dataclass
class DoaGrid:
    """Candidate source directions: an azimuth ring at fixed elevation."""

    azimuths_deg: np.ndarray
    radius_m: float
    elevation_deg: float = 0.0

    def __post_init__(self):
        self.azimuths_deg = np.asarray(self.azimuths_deg, dtype=np.float64)
        if self.azimuths_deg.ndim != 1 or self.azimuths_deg.size < 2:
            raise ParameterError("grid needs at least two azimuths")
        if not np.all(np.isfinite([*self.azimuths_deg, self.radius_m, self.elevation_deg])):
            raise ParameterError("grid azimuths, radius and elevation must be finite")
        if np.any(np.diff(self.azimuths_deg) <= 0):
            raise ParameterError("azimuths must be strictly increasing")
        if self.azimuths_deg[0] < 0 or self.azimuths_deg[-1] >= 360.0:
            raise ParameterError("azimuths must lie in [0, 360)")
        if self.radius_m <= 0:
            raise ParameterError("grid radius must be positive")

    @classmethod
    def uniform(cls, count: int = 60, radius_m: float = 1.7,
                elevation_deg: float = 0.0) -> "DoaGrid":
        if count < 2:
            raise ParameterError("grid needs at least two points")
        return cls(np.arange(count) * (360.0 / count), radius_m, elevation_deg)

    def __len__(self) -> int:
        return self.azimuths_deg.size

    @property
    def cell_deg(self) -> float:
        return 360.0 / len(self)

    def directions(self) -> np.ndarray:
        """Unit vectors [L, 3] for every grid azimuth."""
        return azel_to_unit(self.azimuths_deg, self.elevation_deg)

    def positions(self) -> np.ndarray:
        """Source positions [L, 3] in meters (array-centered frame)."""
        return self.radius_m * self.directions()


@dataclass
class ArrayGeometry:
    """Microphone positions [M, 3] in meters, array-centered."""

    mic_positions: np.ndarray

    def __post_init__(self):
        self.mic_positions = np.asarray(self.mic_positions, dtype=np.float64)
        if self.mic_positions.ndim != 2 or self.mic_positions.shape[1] != 3:
            raise ParameterError("mic_positions must be an [M, 3] matrix")
        if self.mic_positions.shape[0] < 2:
            raise ParameterError("need at least two microphones")
        diff = self.mic_positions[:, None, :] - self.mic_positions[None, :, :]
        dist = np.linalg.norm(diff, axis=-1)
        np.fill_diagonal(dist, np.inf)
        if np.min(dist) <= 0:
            raise GeometryError("two microphones coincide")

    @classmethod
    def random_array(cls, num_mics: int = 6, aperture_m: float = 0.1,
                     seed: int = 0) -> "ArrayGeometry":
        """Random mic cloud inside a sphere of radius ``aperture_m``."""
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1.0, 1.0, size=(num_mics, 3))
        pts *= aperture_m / np.maximum(np.linalg.norm(pts, axis=1, keepdims=True), 1e-9)
        pts *= rng.uniform(0.3, 1.0, size=(num_mics, 1))
        return cls(pts)

    @property
    def num_mics(self) -> int:
        return self.mic_positions.shape[0]


@dataclass
class SteeringVectorSet:
    """Complex SV filters indexed by (grid direction, microphone, frequency)."""

    values: np.ndarray  # [L, M, F]
    grid: DoaGrid
    freqs_hz: np.ndarray
    source_tag: str = "measured"

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.dtype != np.complex64:
            self.values = self.values.astype(np.complex128)
        self.freqs_hz = np.asarray(self.freqs_hz, dtype=np.float64)
        if self.values.ndim != 3:
            raise ParameterError("SV values must be an [L, M, F] tensor")
        if self.values.shape[0] != len(self.grid):
            raise ShapeError("SV tensor and grid disagree on L")
        if self.values.shape[2] != self.freqs_hz.size:
            raise ShapeError("SV tensor and frequency axis disagree on F")
        if self.source_tag not in _TAG_TO_BYTE:
            raise ParameterError(f"unknown source tag {self.source_tag!r}")
        if not np.all(np.isfinite(self.values)):
            raise ParameterError("SV tensor contains non-finite entries")
        if np.any(np.all(self.values == 0, axis=1)):
            raise NormalizationError("an (l, f) steering vector is identically zero")

    @property
    def num_dirs(self) -> int:
        return self.values.shape[0]

    @property
    def num_mics(self) -> int:
        return self.values.shape[1]

    @property
    def num_freqs(self) -> int:
        return self.values.shape[2]


@dataclass
class NormalizedSVSet(SteeringVectorSet):
    """SV set whose every (l, f) vector equals a / ||a||_2^2."""


def free_field(geometry: ArrayGeometry, positions: np.ndarray,
               freqs_hz: np.ndarray) -> np.ndarray:
    """Free-field Green's function from source positions [N, 3] to every
    microphone, [N, M, F]: exp(-i 2 pi f r / c) / (4 pi r) with r the
    source-microphone distance.

    It is taken in real arithmetic, in the operations numpy's complex
    formula performs: there a real factor promoted to complex leaves the
    phase ((-2 pi) r) f (1/c) (complex division by a real multiplies by
    its reciprocal), and the exponential of a purely imaginary phase is
    its cos and sin, each times 1/(4 pi r). So the values are the complex
    formula's, bit for bit, without its complex exponential and division.
    The phase is held in the output's imaginary part until its sine
    overwrites it, so the output is the only [N, M, F] array.
    """
    diff = positions[:, None, :] - geometry.mic_positions[None, :, :]
    r = np.linalg.norm(diff, axis=-1)  # [N, M]
    if np.any(r == 0):
        raise GeometryError("a source position coincides with a microphone")
    out = np.empty(r.shape + freqs_hz.shape, dtype=np.complex128)
    phase = out.imag
    np.multiply(((-2.0 * np.pi) * r)[:, :, None], freqs_hz[None, None, :], out=phase)
    phase *= 1.0 / SPEED_OF_SOUND
    gain = 1.0 / ((4.0 * np.pi) * r)[:, :, None]
    np.cos(phase, out=out.real)
    out.real *= gain
    np.sin(phase, out=phase)
    phase *= gain
    return out


def algebraic_svs(geometry: ArrayGeometry, grid: DoaGrid, freqs_hz) -> SteeringVectorSet:
    """Free-field point-source steering vectors on a grid (see ``free_field``)."""
    freqs_hz = np.asarray(freqs_hz, dtype=np.float64)
    if np.any(freqs_hz < 0):
        raise ParameterError("frequencies must be nonnegative")
    mic_radii = np.linalg.norm(geometry.mic_positions, axis=1)
    if grid.radius_m <= np.max(mic_radii):
        raise GeometryError("grid radius must exceed the farthest microphone")
    return SteeringVectorSet(values=free_field(geometry, grid.positions(), freqs_hz),
                             grid=grid, freqs_hz=freqs_hz, source_tag="algebraic")


def normalize_svs(svs: SteeringVectorSet) -> NormalizedSVSet:
    """Divide every (l, f) vector by its squared Euclidean norm."""
    sq_norms = np.sum(np.abs(svs.values) ** 2, axis=1)  # [L, F]
    if np.any(sq_norms == 0):
        l, f = np.argwhere(sq_norms == 0)[0]
        raise NormalizationError(f"zero steering vector at grid index {l}, bin {f}")
    values = svs.values / sq_norms[:, None, :]
    return NormalizedSVSet(values=values, grid=svs.grid, freqs_hz=svs.freqs_hz,
                           source_tag=svs.source_tag)


def save_svset(svs: SteeringVectorSet, path) -> None:
    """Write the SVSET container.

    Layout (all little-endian): magic "SVST" | version u32 | L, M, F u32 |
    radius f64 | elevation f64 | L azimuths f64 | F freqs f64 | tag byte |
    payload of L*M*F complex64 values (re, im float32 pairs), l-major.
    """
    write_svset_raw(path, svs.values, svs.grid.azimuths_deg, svs.freqs_hz,
                    svs.grid.radius_m, svs.grid.elevation_deg,
                    _TAG_TO_BYTE[svs.source_tag])


def load_svset(path) -> SteeringVectorSet:
    """Read an SVSET container back into a SteeringVectorSet."""
    values, azimuths, freqs, radius, elevation, tag_byte = read_svset_raw(path)
    if tag_byte not in _BYTE_TO_TAG:
        raise FormatError(f"{path}: unknown source tag byte {tag_byte}")
    # interp.save_fit_artifact reuses the container with radius 0 and the
    # coefficient indices in the azimuth slot
    if radius == 0.0 and np.array_equal(azimuths, np.arange(azimuths.size)):
        raise FormatError(f"{path}: a fit artifact (interpolator coefficients), "
                          "not an SV set")
    try:  # a bad grid or value is the file's fault: a format error naming it
        return SteeringVectorSet(values=values, grid=DoaGrid(azimuths, radius, elevation),
                                 freqs_hz=freqs, source_tag=_BYTE_TO_TAG[tag_byte])
    except ShamansError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_svset_raw(path, values, axis0, freqs_hz, radius, elevation, tag_byte: int) -> None:
    """Low-level SVSET writer; ``axis0`` holds the L leading coordinates."""
    values = np.asarray(values)
    n0, m, f = values.shape
    axis0 = np.asarray(axis0, dtype="<f8")
    freqs_hz = np.asarray(freqs_hz, dtype="<f8")
    if axis0.size != n0 or freqs_hz.size != f:
        raise ShapeError("axis lengths disagree with the value tensor")
    header = _SVSET_MAGIC
    header += struct.pack("<IIII", _SVSET_VERSION, n0, m, f)
    header += struct.pack("<dd", float(radius), float(elevation))
    payload = np.ascontiguousarray(values.astype(np.complex64))
    blob = header + axis0.tobytes() + freqs_hz.tobytes() + bytes([tag_byte]) + payload.tobytes()
    Path(path).write_bytes(blob)


def read_svset_raw(path):
    """Low-level SVSET reader, returning raw arrays and the tag byte."""
    data = Path(path).read_bytes()
    if len(data) < 4:
        raise FormatError(f"{path}: too short for an SVSET header")
    if data[:4] != _SVSET_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}")
    if len(data) < 4 + 16 + 16:
        raise TruncationError(f"{path}: header truncated")
    version, n0, m, f = struct.unpack_from("<IIII", data, 4)
    if version != _SVSET_VERSION:
        raise FormatError(f"{path}: unsupported SVSET version {version}")
    radius, elevation = struct.unpack_from("<dd", data, 20)
    if min(n0, m, f) < 1 or n0 * m * f > 2**28:
        raise FormatError(f"{path}: dimension overflow (L={n0}, M={m}, F={f})")

    pos = 36
    need = n0 * 8 + f * 8 + 1 + n0 * m * f * 8
    if len(data) - pos < need:
        raise TruncationError(f"{path}: payload shorter than header declares")
    axis0 = np.frombuffer(data, dtype="<f8", count=n0, offset=pos).copy()
    pos += n0 * 8
    freqs = np.frombuffer(data, dtype="<f8", count=f, offset=pos).copy()
    pos += f * 8
    tag_byte = data[pos]
    pos += 1
    flat = np.frombuffer(data, dtype="<c8", count=n0 * m * f, offset=pos).copy()
    return flat.reshape(n0, m, f), axis0, freqs, radius, elevation, tag_byte


# two frequency axes agree when every pair of bins is within this many Hz
_FREQ_TOL_HZ = 1e-6


def same_freq_axis(freqs_a, freqs_b) -> bool:
    """Whether two frequency axes have the same bins, each within 1e-6 Hz."""
    freqs_a = np.asarray(freqs_a, dtype=np.float64)
    freqs_b = np.asarray(freqs_b, dtype=np.float64)
    return freqs_a.shape == freqs_b.shape and bool(
        np.all(np.abs(freqs_a - freqs_b) <= _FREQ_TOL_HZ))


def match_freq_band(spec_freqs_hz, sv_freqs_hz):
    """Align a spectrogram frequency axis with an SV set's.

    Every spectrogram bin but DC needs an SV bin within 1e-6 Hz; the first
    such SV bin is used. Returns the retained spectrogram bins as a basic
    slice (on a spectrogram's axis DC can only lead, so they are one run
    and indexing gives a view) and their SV indices as an array. Raises
    ShapeError when a needed bin is missing or nothing is retained.
    """
    spec_freqs_hz = np.asarray(spec_freqs_hz, dtype=np.float64)
    sv_freqs_hz = np.asarray(sv_freqs_hz, dtype=np.float64)
    spec_idx = np.flatnonzero(spec_freqs_hz != 0.0)
    if spec_idx.size == 0:
        raise ShapeError("no overlapping frequency bins")
    hits = np.abs(sv_freqs_hz[None, :] - spec_freqs_hz[spec_idx, None]) <= _FREQ_TOL_HZ
    found = hits.any(axis=1)
    if not found.all():
        fz = spec_freqs_hz[spec_idx[np.argmin(found)]]
        raise ShapeError(f"SV set has no bin at {fz:.3f} Hz")
    return slice(int(spec_idx[0]), int(spec_idx[-1]) + 1), hits.argmax(axis=1)
