"""Wideband MUSIC and SRP-PHAT angular spectra over the DOA grid."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .signal import Spectrogram
from .steering import DoaGrid, SteeringVectorSet, match_freq_band


@dataclass
class AngularSpectrum:
    """Per-direction score curve, max-normalized so peaks sit at 1."""

    values: np.ndarray
    grid: DoaGrid
    method_tag: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(self.values)):
            raise ParameterError("angular spectrum contains non-finite values")
        if self.values.size != len(self.grid):
            raise ShapeError("spectrum length must match the grid")


def _max_normalize(values: np.ndarray) -> np.ndarray:
    peak = values.max()
    return values / peak if peak > 0 else values


def music_subspaces(spec: Spectrogram) -> np.ndarray:
    """Eigenvectors of every bin's spatial covariance, [F, M, M], in the
    columns of each bin's matrix and in ascending order of eigenvalue.

    The covariance of a bin is its empirical one regularized by 1e-12 I;
    all bins of ``spec`` share one [F, M, M] covariance stack and one
    batched ``eigh``. They depend on the spectrogram alone, so one stack
    serves every subspace rank and every SV set.
    """
    m = spec.num_channels
    x = spec.bins.transpose(1, 0, 2)  # [F, M, T]
    cov = (x @ x.conj().transpose(0, 2, 1)) / spec.num_frames + 1e-12 * np.eye(m)
    return np.linalg.eigh(cov)[1]  # one batched call, ascending eigenvalues


def phat_covariances(spec: Spectrogram) -> np.ndarray:
    """The PHAT covariance C = sum_t w_t w_t^H of every bin, [F, M, M], with
    w_t the bin's TF vector reduced to pure phase (zero-magnitude entries
    stay zero). It depends on the spectrogram alone, so one stack serves
    every SV set."""
    if spec.num_channels < 2:
        raise ParameterError("SRP-PHAT needs at least two channels")
    mag = np.abs(spec.bins)
    white = np.where(mag > 0, spec.bins / np.where(mag > 0, mag, 1.0), 0.0)
    w = white.transpose(1, 0, 2)  # [F, M, T]
    return w @ w.conj().transpose(0, 2, 1)


def music_spectrum(spec: Spectrogram, svs: SteeringVectorSet,
                   subspace_rank: int = 1,
                   subspaces: np.ndarray | None = None) -> AngularSpectrum:
    """Frequency-averaged MUSIC pseudospectrum.

    Per retained bin: the noise projector from the M - k eigenvectors of
    the smallest eigenvalues (``subspaces``, from ``music_subspaces(spec)``
    when not given), pseudospectrum ||a||^2 / (a^H En En^H a) capped at
    1e12. Bins are max-normalized before averaging so loud bins do not
    dominate, and the averaged spectrum is max-normalized again. The SV
    set's band (``match_freq_band``) is read from the scene's stack through
    one [F, L, M-k] projection.
    """
    m = spec.num_channels
    if not 1 <= subspace_rank < m:
        raise ParameterError(f"subspace rank must lie in [1, {m - 1}]")
    band, sv_idx = match_freq_band(spec.freqs_hz, svs.freqs_hz)
    if subspaces is None:
        subspaces = music_subspaces(spec)

    noise_basis = subspaces[band, :, : m - subspace_rank]  # [F, M, M-k]
    a = svs.values[:, :, sv_idx].transpose(2, 0, 1)  # [F, L, M]
    proj = a.conj() @ noise_basis  # [F, L, M-k]
    denom = np.sum(np.abs(proj) ** 2, axis=2) / np.sum(np.abs(a) ** 2, axis=2)
    per_bin = 1.0 / np.maximum(denom, 1e-12)  # [F, L], positive
    per_bin /= per_bin.max(axis=1, keepdims=True)
    acc = np.zeros(len(svs.grid))
    for row in per_bin:  # in bin order, so the sum matches a per-bin loop bit for bit
        acc += row
    spectrum = _max_normalize(acc / sv_idx.size)
    return AngularSpectrum(values=spectrum, grid=svs.grid,
                           method_tag=f"music-{subspace_rank}")


def srp_phat_spectrum(spec: Spectrogram, svs: SteeringVectorSet,
                      covariances: np.ndarray | None = None) -> AngularSpectrum:
    """Steered response power with per-bin phase-transform whitening.

    Both the observations and the steering vectors are reduced to pure
    phase (zero-magnitude entries stay zero), so the spectrum is invariant
    to any per-channel or global rescaling of the input. The steered power
    sum_t |a^H w_t|^2 of a bin is the quadratic form a^H C a of its PHAT
    covariance C (``covariances``, from ``phat_covariances(spec)`` when not
    given), so no [L, F, T] response is formed; the SV set's band
    (``match_freq_band``) is read from the scene's stack.
    """
    if spec.num_channels < 2:
        raise ParameterError("SRP-PHAT needs at least two channels")
    band, sv_idx = match_freq_band(spec.freqs_hz, svs.freqs_hz)
    if covariances is None:
        covariances = phat_covariances(spec)

    a = svs.values[:, :, sv_idx].transpose(2, 0, 1)  # [F, L, M]
    a_mag = np.abs(a)
    a_phase = np.where(a_mag > 0, a / np.where(a_mag > 0, a_mag, 1.0), 0.0)
    quad = np.sum((a_phase.conj() @ covariances[band]) * a_phase, axis=2).real  # [F, L]
    power = quad.sum(axis=0)
    return AngularSpectrum(values=_max_normalize(power), grid=svs.grid,
                           method_tag="srp-phat")
