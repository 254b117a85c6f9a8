"""Synthetic acoustic scenes built directly in the STFT domain.

A scene is a sum of per-source steering-vector images plus optional white
Gaussian noise at a requested SNR and an optional diffuse late-field
surrogate. Sources draw their seeds from per-source substreams keyed by
grid index, so a union of disjoint source sets composes bit-exactly.

The module also provides a band-limited synthetic "measured" SV field: a
low-degree spherical-harmonic projection of the free-field model times a
smooth random gain/phase perturbation. It stands in for physically
measured SV sets when exercising interpolators end to end.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import SceneSpecError, ShapeError
from .evaluate import circular_cell_distance
from .interp import SparseSvMeasurements, fibonacci_sphere, sh_expand, sh_matrix
from .signal import AudioBuffer, Spectrogram, StftParams, read_wav, stft
from .stable import sample_sas
from .steering import ArrayGeometry, DoaGrid, SteeringVectorSet, free_field, same_freq_axis

_STREAM_SOURCE = 0x51
_STREAM_NOISE = 0x52
_STREAM_REVERB = 0x53


@dataclass
class SasSourceKind:
    """Sources emit i.i.d. isotropic complex SaS TF samples."""

    alpha: float = 1.5
    scale: float = 1.0


@dataclass
class WavSourceKind:
    """Sources read from WAV files, RMS-equalized before mixing."""

    paths: list


@dataclass
class SceneSpec:
    """Ground-truth description of one synthetic scene."""

    source_indices: list
    source_kind: SasSourceKind | WavSourceKind = field(default_factory=SasSourceKind)
    snr_db: float | None = 20.0  # None disables the additive noise
    # the isotropic late-field surrogate's 60 dB energy decay time; 0 or
    # None disables it
    t60_s: float | None = None
    seed: int = 0
    duration_s: float = 1.0
    min_sep_cells: int = 2

    def __post_init__(self):
        self.source_indices = [int(i) for i in self.source_indices]
        if len(set(self.source_indices)) != len(self.source_indices):
            raise SceneSpecError("source indices must be distinct")
        if self.duration_s <= 0:
            raise SceneSpecError("duration must be positive")
        if self.snr_db is not None and not np.isfinite(self.snr_db):
            raise SceneSpecError("snr_db must be finite (None disables noise)")
        if self.t60_s is not None and not self.t60_s >= 0:
            raise SceneSpecError(f"t60_s must be nonnegative (0 or None disables the "
                                 f"reverb), got {self.t60_s}")
        self.t60_s = float(self.t60_s) if self.t60_s else None

    @property
    def num_sources(self) -> int:
        return len(self.source_indices)


@dataclass
class SceneTruth:
    """Realized ground truth attached to a synthesized scene."""

    azimuths_deg: np.ndarray
    indices: np.ndarray
    realized_snr_db: float | None


def _close_pair(indices, num_cells: int, min_sep: int) -> tuple | None:
    """The first two indices less than ``min_sep`` grid cells apart, or None."""
    return next(((a, b) for i, a in enumerate(indices) for b in indices[i + 1:]
                 if circular_cell_distance(a, b, num_cells) < min_sep), None)


def substream(seed: int, stream: int, key: int = 0) -> np.random.Generator:
    """Named deterministic substream of a master seed."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream, int(key)]))


def derive_seed(master_seed: int, *tags) -> int:
    """Stable 63-bit seed derived from a master seed and string/number tags."""
    text = "|".join([str(int(master_seed))] + [str(t) for t in tags])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _wav_source_stfts(kind: WavSourceKind, n_sources: int, params: StftParams,
                      num_samples: int):
    """First N channels/files as per-source STFTs, equalized to common RMS."""
    channels = []
    for path in kind.paths:
        audio = read_wav(path)
        if audio.sample_rate != params.sample_rate:
            raise SceneSpecError(f"{path}: sample rate {audio.sample_rate} != "
                                 f"{params.sample_rate}")
        for ch in audio.samples:
            channels.append(ch)
    if len(channels) < n_sources:
        raise SceneSpecError(f"need {n_sources} source channels, got {len(channels)}")
    out = []
    for ch in channels[:n_sources]:
        if ch.size < num_samples:
            raise SceneSpecError("WAV source shorter than the scene duration")
        ch = ch[:num_samples]
        rms = np.sqrt(np.mean(ch ** 2))
        if rms == 0:
            raise SceneSpecError("WAV source is silent")
        buf = AudioBuffer(samples=(0.1 / rms) * ch[None, :], sample_rate=params.sample_rate)
        sg = stft(buf, params.frame_size, params.hop, params.f_max_hz)
        out.append(sg.bins[0])  # [F, T]
    return out


def synth_scene(spec: SceneSpec, svs: SteeringVectorSet,
                params: StftParams) -> tuple[Spectrogram, SceneTruth]:
    """Mix per-source SV images, noise and the reverb surrogate in STFT domain.

    The SNR is the ratio of total direct source-image energy to total noise
    energy over all retained bins; the drawn noise field is rescaled to hit
    it exactly. With no sources the noise keeps unit per-bin variance.
    """
    num_cells = len(svs.grid)
    if any(i < 0 or i >= num_cells for i in spec.source_indices):
        raise SceneSpecError("a source index lies outside the SV grid")
    pair = _close_pair(spec.source_indices, num_cells, spec.min_sep_cells)
    if pair:
        raise SceneSpecError(f"sources {pair[0]} and {pair[1]} closer than "
                             f"{spec.min_sep_cells} grid cells")

    num_samples = int(round(spec.duration_s * params.sample_rate))
    if num_samples < params.frame_size:
        raise SceneSpecError("scene too short for one STFT frame")
    num_frames = (num_samples - params.frame_size) // params.hop + 1

    if not same_freq_axis(svs.freqs_hz, params.freqs_hz):
        raise ShapeError("SV frequency axis does not match the STFT settings")

    m, f, t = svs.num_mics, svs.num_freqs, num_frames
    mix = np.zeros((m, f, t), dtype=np.complex128)

    if isinstance(spec.source_kind, WavSourceKind):
        source_stfts = _wav_source_stfts(spec.source_kind, spec.num_sources,
                                         params, num_samples)
    else:
        source_stfts = None

    for n, l_idx in enumerate(spec.source_indices):
        if source_stfts is not None:
            s = source_stfts[n][:, :t]
        else:
            rng = substream(spec.seed, _STREAM_SOURCE, l_idx)
            s = sample_sas(spec.source_kind.alpha, spec.source_kind.scale,
                           f * t, rng).reshape(f, t)
        mix += svs.values[l_idx][:, :, None] * s[None, :, :]

    direct_energy = float(np.sum(np.abs(mix) ** 2))

    if spec.t60_s is not None and spec.num_sources > 0:
        rng = substream(spec.seed, _STREAM_REVERB)
        w = (rng.standard_normal((num_cells, f, t))
             + 1j * rng.standard_normal((num_cells, f, t))) / np.sqrt(2.0)
        frame_t = np.arange(t) * (params.hop / params.sample_rate)
        gain = 10.0 ** (-3.0 * frame_t / spec.t60_s)  # amplitude decay
        late = np.einsum("lmf,lft->mft", svs.values, w)
        unit_frame_energy = float(np.sum(np.abs(svs.values) ** 2))
        rho = np.sqrt((direct_energy / t) / unit_frame_energy)
        mix += rho * gain[None, None, :] * late

    realized_snr = None
    if spec.snr_db is not None:
        rng = substream(spec.seed, _STREAM_NOISE)
        raw = (rng.standard_normal((m, f, t))
               + 1j * rng.standard_normal((m, f, t))) / np.sqrt(2.0)
        raw_energy = float(np.sum(np.abs(raw) ** 2))
        if direct_energy > 0:
            target = direct_energy / 10.0 ** (spec.snr_db / 10.0)
            raw *= np.sqrt(target / raw_energy)
            realized_snr = 10.0 * np.log10(direct_energy / target)
        mix += raw

    sg = Spectrogram(bins=mix, sample_rate=params.sample_rate,
                     frame_size=params.frame_size, hop=params.hop)
    truth = SceneTruth(
        azimuths_deg=svs.grid.azimuths_deg[np.asarray(spec.source_indices, dtype=int)]
        if spec.source_indices else np.empty(0),
        indices=np.asarray(spec.source_indices, dtype=int),
        realized_snr_db=realized_snr,
    )
    return sg, truth


def place_sources(rng: np.random.Generator, num_cells: int, n_sources: int,
                  min_sep_cells: int = 2, max_tries: int = 10_000) -> list:
    """Random distinct grid indices with pairwise circular separation."""
    if n_sources == 0:
        return []
    if n_sources > num_cells:
        raise SceneSpecError(f"cannot place {n_sources} sources on {num_cells} grid cells")
    for _ in range(max_tries):
        cand = sorted(rng.choice(num_cells, size=n_sources, replace=False).tolist())
        if _close_pair(cand, num_cells, min_sep_cells) is None:
            return cand
    raise SceneSpecError("could not place sources with the requested separation")


def scene_batch(base: SceneSpec, sweep: dict, count: int,
                grid_size: int) -> list:
    """Reproducible scene batch over a parameter grid.

    ``sweep`` maps axis names to value lists; the cartesian product is
    taken. Recognized axes: ``snr_db``, ``t60_s`` (0 or None means no
    reverb), ``n_sources``, ``source_alpha``. Every scene redraws its
    source placement from a seed derived from (base seed, sweep point,
    scene index), so batches are reproducible element by element.
    """
    if count < 1:
        raise SceneSpecError("count must be >= 1")
    axes = sorted(sweep.keys())
    points = [()]
    for ax in axes:
        points = [p + ((ax, v),) for p in points for v in sweep[ax]]

    specs = []
    for point in points:
        overrides = dict(point)
        for i in range(count):
            seed = derive_seed(base.seed, *[f"{k}={v}" for k, v in point], i)
            n_src = int(overrides.get("n_sources", base.num_sources))
            rng = np.random.default_rng(seed)
            indices = place_sources(rng, grid_size, n_src, base.min_sep_cells)
            kind = base.source_kind
            if "source_alpha" in overrides and isinstance(kind, SasSourceKind):
                kind = SasSourceKind(alpha=float(overrides["source_alpha"]),
                                     scale=kind.scale)
            specs.append(SceneSpec(
                source_indices=indices,
                source_kind=kind,
                snr_db=overrides.get("snr_db", base.snr_db),
                t60_s=overrides.get("t60_s", base.t60_s),
                seed=seed,
                duration_s=base.duration_s,
                min_sep_cells=base.min_sep_cells,
            ))
    return specs


# ---------------------------------------------------------------------------
# scene spec <-> JSON


def scene_to_dict(spec: SceneSpec) -> dict:
    doc = dataclasses.asdict(spec)
    doc["source_kind"]["kind"] = "sas" if isinstance(spec.source_kind, SasSourceKind) else "wav"
    return doc


def scene_from_dict(doc: dict) -> SceneSpec:
    """The scene a complete scene document describes (a checked scene file,
    or a config's scene section, whose seed defaults to 0)."""
    kind_doc = doc["source_kind"]
    if kind_doc["kind"] == "wav":
        kind = WavSourceKind(paths=list(kind_doc["paths"]))
    elif kind_doc["kind"] == "sas":
        kind = SasSourceKind(alpha=kind_doc["alpha"], scale=kind_doc["scale"])
    else:
        raise SceneSpecError(f"unknown source kind {kind_doc['kind']!r}")
    return SceneSpec(**{**doc, "source_kind": kind})


def save_scene(spec: SceneSpec, path) -> None:
    Path(path).write_text(json.dumps(scene_to_dict(spec), sort_keys=True, indent=1))


# ---------------------------------------------------------------------------
# synthetic "measured" steering vector field


@dataclass
class SyntheticSvField:
    """Band-limited ground-truth SV field standing in for measured data.

    The free-field model is evaluated on a dense Fibonacci design grid,
    multiplied by a smooth seeded complex perturbation per microphone, and
    least-squares projected onto spherical harmonics up to ``degree``. The
    resulting coefficients define the field everywhere on the sphere.
    """

    coeffs: np.ndarray  # [(degree+1)^2, M, F]
    freqs_hz: np.ndarray
    degree: int

    def evaluate(self, directions) -> np.ndarray:
        return sh_expand(sh_matrix(directions, self.degree), self.coeffs)

    def on_grid(self, grid: DoaGrid) -> SteeringVectorSet:
        return SteeringVectorSet(values=self.evaluate(grid.directions()),
                                 grid=grid, freqs_hz=self.freqs_hz,
                                 source_tag="measured")

    def sample_ring(self, grid: DoaGrid, count: int, seed: int) -> SparseSvMeasurements:
        """Random azimuth-ring measurements, mirroring an SVSET subsample."""
        rng = np.random.default_rng(seed)
        azimuths = np.sort(rng.uniform(0.0, 360.0, count))
        directions = DoaGrid(azimuths, grid.radius_m, grid.elevation_deg).directions()
        return SparseSvMeasurements(directions=directions,
                                    values=self.evaluate(directions),
                                    freqs_hz=self.freqs_hz)


def synthetic_measured_svs(geometry: ArrayGeometry, radius_m: float, freqs_hz,
                           seed: int = 0, degree: int = 8,
                           perturb_strength: float = 0.15,
                           design_points: int = 400) -> SyntheticSvField:
    """Build a synthetic measured SV field around a microphone array."""
    freqs_hz = np.asarray(freqs_hz, dtype=np.float64)
    design = fibonacci_sphere(design_points)
    design_grid_vals = free_field(geometry, radius_m * design, freqs_hz)

    rng = np.random.default_rng(seed)
    perturb_deg = 2
    p_basis = sh_matrix(design, perturb_deg)  # [N, 9]
    g = (rng.standard_normal(((perturb_deg + 1) ** 2, geometry.num_mics))
         + 1j * rng.standard_normal(((perturb_deg + 1) ** 2, geometry.num_mics)))
    gain = 1.0 + perturb_strength * (p_basis @ g)  # [N, M]
    perturbed = design_grid_vals * gain[:, :, None]

    # minimum-norm least squares through the real basis's pseudoinverse,
    # with lstsq's default singular-value cutoff
    basis = sh_matrix(design, degree)  # [N, P]
    basis_pinv = np.linalg.pinv(basis, rcond=np.finfo(np.float64).eps * max(basis.shape))
    return SyntheticSvField(coeffs=sh_expand(basis_pinv, perturbed),
                            freqs_hz=freqs_hz, degree=degree)
