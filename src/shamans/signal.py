"""Audio ingestion and short-time Fourier analysis.

Produces the multichannel complex spectrograms consumed by every localizer.
The WAV reader/writer intentionally supports only RIFF PCM16 and IEEE
float32, little-endian.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ParameterError, TruncationError

_WAVE_FORMAT_PCM = 1
_WAVE_FORMAT_IEEE_FLOAT = 3
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# bytes of scratch per chunk of frames of the STFT (near the fastest size)
_STFT_BYTES = 4 * 2**20


def _blocks(total: int, unit_bytes: int, budget: int) -> list:
    """Consecutive ``(start, stop)`` ranges covering ``range(total)``, each
    of at most ``budget`` bytes of scratch at ``unit_bytes`` per item (and
    at least one item). The edges depend only on the arguments."""
    step = max(1, budget // unit_bytes)
    return [(s, min(s + step, total)) for s in range(0, total, step)]


@dataclass
class AudioBuffer:
    """Time-domain multichannel audio, samples shaped [channels, samples]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))
        if self.samples.ndim != 2 or self.samples.shape[0] < 1 or self.samples.shape[1] < 1:
            raise ParameterError("audio must be a [channels, samples] matrix with M, S >= 1")
        if not np.all(np.isfinite(self.samples)):
            raise ParameterError("audio contains non-finite samples")
        if self.sample_rate <= 0:
            raise ParameterError("sample rate must be positive")

    @property
    def num_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def num_samples(self) -> int:
        return self.samples.shape[1]


@dataclass
class Spectrogram:
    """One-sided multichannel STFT tensor, bins shaped [M, F, T].

    Bin k sits at frequency k * sample_rate / frame_size; frequencies above
    the analysis band were already dropped, so F <= frame_size / 2 + 1.
    An all-zero TF vector ``bins[:, f, t]`` carries no information: the
    alpha estimate and the Lévy sketch leave it out.
    """

    bins: np.ndarray
    sample_rate: int
    frame_size: int
    hop: int
    first_bin: int = 0  # nonzero after band subsetting (e.g. DC exclusion)

    def __post_init__(self):
        self.bins = np.asarray(self.bins, dtype=np.complex128)
        if self.bins.ndim != 3 or min(self.bins.shape) < 1:
            raise ParameterError("spectrogram bins must be a [M, F, T] tensor with M, F, T >= 1")
        if self.first_bin + self.bins.shape[1] > self.frame_size // 2 + 1:
            raise ParameterError("more frequency bins than frame_size/2 + 1")
        if not np.all(np.isfinite(self.bins)):
            raise ParameterError("spectrogram contains non-finite bins")

    @property
    def num_channels(self) -> int:
        return self.bins.shape[0]

    @property
    def num_freqs(self) -> int:
        return self.bins.shape[1]

    @property
    def num_frames(self) -> int:
        return self.bins.shape[2]

    @property
    def freqs_hz(self) -> np.ndarray:
        return (self.first_bin + np.arange(self.num_freqs)) * (self.sample_rate / self.frame_size)


def band_bin_count(sample_rate: int, frame_size: int, f_max_hz: float) -> int:
    """Number of one-sided STFT bins k * sample_rate / frame_size at or
    below ``f_max_hz``; the analysis band is this prefix of the rfft bins."""
    return int(np.floor(f_max_hz / (sample_rate / frame_size) + 1e-9)) + 1


@dataclass
class StftParams:
    """Analysis settings shared by the simulator, the CLI and ``stft``,
    which checks its arguments by building one."""

    frame_size: int = 768
    hop: int = 384
    f_max_hz: float = 8000.0
    sample_rate: int = 48000

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ParameterError("sample_rate must be positive")
        if self.frame_size % 2 != 0 or self.frame_size <= 0:
            raise ParameterError("frame_size must be even and positive")
        if self.hop <= 0 or self.hop > self.frame_size:
            raise ParameterError("hop must satisfy 0 < hop <= frame_size")
        if self.f_max_hz <= 0:
            raise ParameterError("f_max_hz must be positive")
        if self.f_max_hz > self.sample_rate / 2:
            raise ParameterError("f_max_hz exceeds the Nyquist frequency")

    @property
    def freqs_hz(self) -> np.ndarray:
        """Frequencies of the kept bins, as ``Spectrogram.freqs_hz`` gives them."""
        count = band_bin_count(self.sample_rate, self.frame_size, self.f_max_hz)
        return np.arange(count) * (self.sample_rate / self.frame_size)


def _parse_fmt_chunk(body: bytes):
    if len(body) < 16:
        raise TruncationError("fmt chunk shorter than 16 bytes")
    fmt_tag, channels, rate, _byte_rate, block_align, bits = struct.unpack("<HHIIHH", body[:16])
    if fmt_tag == _WAVE_FORMAT_EXTENSIBLE:
        if len(body) < 26:
            raise TruncationError("extensible fmt chunk truncated")
        # first two bytes of the SubFormat GUID carry the real format tag
        fmt_tag = struct.unpack("<H", body[24:26])[0]
    return fmt_tag, channels, rate, block_align, bits


def read_wav(path) -> AudioBuffer:
    """Read a RIFF WAV file (PCM16 or IEEE float32) into an AudioBuffer.

    Integer samples are scaled by 1/32768 so full-scale negative maps to
    -1.0; float payloads are passed through unchanged.
    """
    data = memoryview(Path(path).read_bytes())  # chunk bodies slice without copying
    if len(data) < 12:
        raise TruncationError(f"{path}: too short for a RIFF header")
    if data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = bytes(data[pos : pos + 4])
        size = struct.unpack("<I", data[pos + 4 : pos + 8])[0]
        body = data[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise TruncationError(f"{path}: chunk {chunk_id!r} truncated")
        if chunk_id == b"fmt ":
            fmt = _parse_fmt_chunk(body)
        elif chunk_id == b"data":
            payload = body
        pos += 8 + size + (size & 1)

    if fmt is None or payload is None:
        raise FormatError(f"{path}: missing fmt or data chunk")
    fmt_tag, channels, rate, block_align, bits = fmt
    if channels < 1 or rate < 1:
        raise FormatError(f"{path}: invalid channel count or sample rate")

    if fmt_tag == _WAVE_FORMAT_PCM and bits == 16:
        dtype, scale = np.dtype("<i2"), 1.0 / 32768.0
    elif fmt_tag == _WAVE_FORMAT_IEEE_FLOAT and bits == 32:
        dtype, scale = np.dtype("<f4"), 1.0
    else:
        raise FormatError(f"{path}: unsupported encoding (format {fmt_tag}, {bits}-bit)")

    frame_bytes = channels * dtype.itemsize
    if block_align and block_align != frame_bytes:
        raise FormatError(f"{path}: block alignment {block_align} inconsistent with format")
    if len(payload) % frame_bytes != 0:
        raise TruncationError(f"{path}: data chunk is not a whole number of frames")

    if len(payload) == 0:
        raise FormatError(f"{path}: data chunk holds no frames")

    raw = np.frombuffer(payload, dtype=dtype).reshape(-1, channels)
    # one strided cast-and-scale pass straight into [channels, samples]; a
    # NaN payload warns nothing here, AudioBuffer rejects it with a typed error
    samples = np.empty((channels, raw.shape[0]))
    with np.errstate(invalid="ignore"):
        np.multiply(raw.T, scale, out=samples)
    return AudioBuffer(samples=samples, sample_rate=int(rate))


def write_wav(audio: AudioBuffer, path, encoding: str = "float32") -> None:
    """Write an AudioBuffer as RIFF WAV, either IEEE float32 or PCM16."""
    if encoding == "float32":
        fmt_tag, bits = _WAVE_FORMAT_IEEE_FLOAT, 32
        payload = audio.samples.T.astype("<f4").tobytes()
    elif encoding == "pcm16":
        fmt_tag, bits = _WAVE_FORMAT_PCM, 16
        clipped = np.clip(np.round(audio.samples * 32768.0), -32768, 32767)
        payload = clipped.T.astype("<i2").tobytes()
    else:
        raise ParameterError(f"unsupported encoding {encoding!r}")

    channels = audio.num_channels
    block_align = channels * bits // 8
    byte_rate = audio.sample_rate * block_align
    fmt = struct.pack("<HHIIHH", fmt_tag, channels, audio.sample_rate, byte_rate, block_align, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    Path(path).write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


def hann_periodic(frame_size: int) -> np.ndarray:
    """Periodic Hann window (COLA-consistent at 50% overlap)."""
    n = np.arange(frame_size)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / frame_size)


def stft(audio: AudioBuffer, frame_size: int = 768, hop: int = 384,
         f_max_hz: float = 8000.0) -> Spectrogram:
    """Windowed one-sided STFT, keeping only bins at or below ``f_max_hz``.

    Frames are taken without padding, so T = floor((S - frame_size)/hop) + 1.
    Frames are transformed in chunks of at most ``_STFT_BYTES`` of scratch
    (see ``_blocks``), one after another, each writing its kept bins into
    the [M, F, T] output. Every frame is transformed alone, so the chunk
    edges do not change a bit.
    """
    StftParams(frame_size, hop, f_max_hz, audio.sample_rate)  # checks the settings
    if audio.num_samples < frame_size:
        raise ParameterError("signal shorter than one analysis frame")

    num_frames = (audio.num_samples - frame_size) // hop + 1
    window = hann_periodic(frame_size)
    num_keep = band_bin_count(audio.sample_rate, frame_size, f_max_hz)

    samples = np.ascontiguousarray(audio.samples)
    strides = samples.strides
    frames = np.lib.stride_tricks.as_strided(
        samples,
        shape=(audio.num_channels, num_frames, frame_size),
        strides=(strides[0], hop * strides[1], strides[1]),
        writeable=False,
    )
    bins = np.empty((audio.num_channels, num_keep, num_frames), dtype=np.complex128)

    # scratch per frame: the windowed frame and its full one-sided spectrum
    unit_bytes = audio.num_channels * (8 * frame_size + 16 * (frame_size // 2 + 1))
    for t0, t1 in _blocks(num_frames, unit_bytes, _STFT_BYTES):
        spectra = np.fft.rfft(frames[:, t0:t1] * window, axis=-1)  # [M, Tc, F_full]
        bins[:, :, t0:t1] = spectra[:, :, :num_keep].transpose(0, 2, 1)
        del spectra  # freed before the next chunk's are made
    return Spectrogram(bins=bins, sample_rate=audio.sample_rate,
                       frame_size=frame_size, hop=hop)
