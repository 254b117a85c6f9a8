"""Tests for WAV ingestion and the STFT front end."""

import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shamans import signal
from shamans.errors import FormatError, ParameterError, TruncationError
from shamans.signal import (
    AudioBuffer,
    Spectrogram,
    StftParams,
    _chunks,
    hann_periodic,
    read_wav,
    stft,
    write_wav,
)


def make_wav_bytes(samples, rate, fmt_tag, bits):
    """Hand-rolled RIFF writer, independent of the package writer."""
    channels = samples.shape[0]
    if fmt_tag == 1:
        payload = samples.T.astype("<i2").tobytes()
    else:
        payload = samples.T.astype("<f4").tobytes()
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", fmt_tag, channels, rate, rate * block, block, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body


class TestReadWav:
    def test_zero_mono_pcm16(self, tmp_path):
        path = tmp_path / "z.wav"
        path.write_bytes(make_wav_bytes(np.zeros((1, 48000), dtype=np.int16), 48000, 1, 16))
        buf = read_wav(path)
        assert buf.num_channels == 1
        assert buf.num_samples == 48000
        assert buf.sample_rate == 48000
        assert np.all(buf.samples == 0.0)

    def test_pcm16_scaling_convention(self, tmp_path):
        path = tmp_path / "m.wav"
        path.write_bytes(make_wav_bytes(np.array([[32767]], dtype=np.int16), 8000, 1, 16))
        buf = read_wav(path)
        assert buf.samples[0, 0] == 32767 / 32768

    def test_float32_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.standard_normal((6, 500)).astype(np.float32).astype(np.float64)
        path = tmp_path / "six.wav"
        write_wav(AudioBuffer(samples, 48000), path, encoding="float32")
        back = read_wav(path)
        assert back.num_channels == 6
        assert np.array_equal(back.samples, samples)

    def test_pcm16_roundtrip(self, tmp_path):
        samples = np.array([[0.0, 0.25, -0.5, 0.999]])
        path = tmp_path / "p.wav"
        write_wav(AudioBuffer(samples, 16000), path, encoding="pcm16")
        back = read_wav(path)
        assert np.allclose(back.samples, samples, atol=1 / 32768)

    def test_unsupported_encoding(self, tmp_path):
        path = tmp_path / "u.wav"
        blob = make_wav_bytes(np.zeros((1, 4), dtype=np.int16), 8000, 1, 16)
        # rewrite the bits-per-sample field to 24
        blob = blob[:34] + struct.pack("<H", 24) + blob[36:]
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            read_wav(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "t.wav"
        blob = make_wav_bytes(np.zeros((1, 100), dtype=np.int16), 8000, 1, 16)
        path.write_bytes(blob[:-30])
        with pytest.raises(TruncationError):
            read_wav(path)

    def test_not_a_wav(self, tmp_path):
        path = tmp_path / "n.wav"
        path.write_bytes(b"RIFFxxxxJUNK" + b"\x00" * 50)
        with pytest.raises(FormatError):
            read_wav(path)


def seed_wav_samples(payload, dtype, scale, channels):
    """Reference decode: cast and scale the flat payload, then transpose."""
    raw = np.frombuffer(payload, dtype=dtype).astype(np.float64) * scale
    return raw.reshape(-1, channels).T


class TestReadWavEquivalence:
    @pytest.mark.parametrize("channels", [1, 6])
    @pytest.mark.parametrize("frames", [1, 7, 4801])
    def test_pcm16_matches_seed_decode(self, tmp_path, channels, frames):
        rng = np.random.default_rng(frames + channels)
        ints = rng.integers(-32768, 32768, (channels, frames)).astype(np.int16)
        blob = make_wav_bytes(ints, 48000, 1, 16)
        path = tmp_path / "p.wav"
        path.write_bytes(blob)
        got = read_wav(path).samples
        assert got.flags.c_contiguous
        assert np.array_equal(got, seed_wav_samples(blob[44:], "<i2", 1.0 / 32768.0, channels))

    @pytest.mark.parametrize("channels", [1, 6])
    @pytest.mark.parametrize("frames", [1, 7, 4801])
    def test_float32_matches_seed_decode(self, tmp_path, channels, frames):
        rng = np.random.default_rng(frames * channels)
        blob = make_wav_bytes(rng.standard_normal((channels, frames)), 48000, 3, 32)
        path = tmp_path / "f.wav"
        path.write_bytes(blob)
        got = read_wav(path).samples
        assert got.flags.c_contiguous
        assert np.array_equal(got, seed_wav_samples(blob[44:], "<f4", 1.0, channels))

    def test_empty_data_chunk_is_format_error(self, tmp_path):
        path = tmp_path / "e.wav"
        path.write_bytes(make_wav_bytes(np.zeros((2, 0), dtype=np.int16), 8000, 1, 16))
        with pytest.raises(FormatError):
            read_wav(path)


def mutated_wav(data):
    """A valid PCM16 or float32 WAV, then truncated and with bytes rewritten."""
    channels = data.draw(st.integers(1, 4))
    frames = data.draw(st.integers(0, 12))
    fmt_tag = data.draw(st.sampled_from([1, 3]))
    payload = data.draw(st.binary(min_size=channels * frames * (2 if fmt_tag == 1 else 4),
                                  max_size=channels * frames * (2 if fmt_tag == 1 else 4)))
    bits = 16 if fmt_tag == 1 else 32
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", fmt_tag, channels, 8000, 8000 * block, block, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    blob = bytearray(b"RIFF" + struct.pack("<I", len(body)) + body)
    for _ in range(data.draw(st.integers(0, 3))):
        pos = data.draw(st.integers(0, len(blob) - 1))
        patch = data.draw(st.binary(min_size=1, max_size=4))
        blob[pos:pos + len(patch)] = patch
    cut = data.draw(st.one_of(st.none(), st.integers(0, len(blob))))
    return bytes(blob[:cut])


class TestReadWavFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_valid_buffer_or_typed_error(self, tmp_path, data):
        path = tmp_path / "fuzz.wav"
        path.write_bytes(mutated_wav(data))
        try:
            buf = read_wav(path)
        except (FormatError, TruncationError):
            return
        except ParameterError as exc:
            assert "non-finite" in str(exc)  # a float payload holding NaN or inf
            return
        assert buf.samples.dtype == np.float64 and buf.samples.flags.c_contiguous
        assert buf.num_channels >= 1 and buf.num_samples >= 1 and buf.sample_rate >= 1
        assert np.all(np.isfinite(buf.samples))


def dft_oracle_frame(frame):
    """Direct O(N^2) DFT of one windowed frame (one-sided)."""
    n = frame.size
    w = hann_periodic(n)
    k = np.arange(n // 2 + 1)
    s = np.arange(n)
    dft = np.exp(-2j * np.pi * np.outer(k, s) / n)
    return dft @ (w * frame)


class TestStft:
    def test_zero_signal(self):
        buf = AudioBuffer(np.zeros((2, 2000)), 48000)
        sg = stft(buf, 512, 256, 8000.0)
        assert np.all(sg.bins == 0)

    def test_matches_direct_dft_oracle(self):
        rng = np.random.default_rng(1)
        buf = AudioBuffer(rng.standard_normal((1, 1024)), 16000)
        sg = stft(buf, 256, 128, 8000.0)
        for t in range(sg.num_frames):
            frame = buf.samples[0, t * 128 : t * 128 + 256]
            expect = dft_oracle_frame(frame)
            assert np.allclose(sg.bins[0, :, t], expect, atol=1e-9)

    def test_constant_signal_against_oracle(self):
        # frozen from the direct DFT oracle: a Hann-windowed constant has
        # energy in bins 0 and 1 (window spectrum), nothing above
        c = 0.7
        buf = AudioBuffer(np.full((1, 512), c), 16000)
        sg = stft(buf, 256, 128, 8000.0)
        wsum = hann_periodic(256).sum()
        expect = dft_oracle_frame(np.full(256, c))
        assert np.allclose(sg.bins[0, 0, :], c * wsum)
        assert np.allclose(expect[0], c * wsum)
        assert abs(expect[1] - (-0.25 * 256 * c)) < 1e-9
        for t in range(sg.num_frames):
            assert np.allclose(sg.bins[0, :, t], expect, atol=1e-9)
        assert np.all(np.abs(sg.bins[0, 2:, :]) < 1e-9 * c * wsum)

    def test_retained_bin_count_48k(self):
        buf = AudioBuffer(np.zeros((1, 48000)), 48000)
        sg = stft(buf, 768, 384, 8000.0)
        # 62.5 Hz spacing: 8000/62.5 = 128 plus DC
        assert sg.num_freqs == 129
        assert sg.freqs_hz[0] == 0.0
        assert sg.freqs_hz[-1] == 8000.0
        assert sg.num_frames == (48000 - 768) // 384 + 1

    def test_linearity(self):
        rng = np.random.default_rng(2)
        x = AudioBuffer(rng.standard_normal((2, 1500)), 48000)
        y = AudioBuffer(rng.standard_normal((2, 1500)), 48000)
        a, b = 0.3, -1.7
        combo = AudioBuffer(a * x.samples + b * y.samples, 48000)
        sx = stft(x, 512, 256, 8000.0).bins
        sy = stft(y, 512, 256, 8000.0).bins
        sc = stft(combo, 512, 256, 8000.0).bins
        ref = a * sx + b * sy
        assert np.max(np.abs(sc - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_frame_energy_bound(self):
        rng = np.random.default_rng(3)
        buf = AudioBuffer(rng.standard_normal((1, 4096)), 48000)
        frame_size = 512
        sg = stft(buf, frame_size, 256, 24000.0)
        w = hann_periodic(frame_size)
        for t in range(sg.num_frames):
            frame = buf.samples[0, t * 256 : t * 256 + frame_size]
            lhs = np.sum(np.abs(sg.bins[0, :, t]) ** 2)
            rhs = frame_size * np.sum((w * frame) ** 2)
            assert lhs <= rhs * (1 + 1e-12)

    def test_too_short_signal(self):
        with pytest.raises(ParameterError):
            stft(AudioBuffer(np.zeros((1, 100)), 48000), 768, 384, 8000.0)

    def test_bad_params(self):
        buf = AudioBuffer(np.zeros((1, 2000)), 48000)
        with pytest.raises(ParameterError):
            stft(buf, 767, 384, 8000.0)  # odd frame
        with pytest.raises(ParameterError):
            stft(buf, 768, 0, 8000.0)
        with pytest.raises(ParameterError):
            stft(buf, 768, 384, 30000.0)  # beyond Nyquist

    @pytest.mark.parametrize("changes, message", [
        ({"sample_rate": 0}, "sample_rate must be positive"),
        ({"sample_rate": -48000}, "sample_rate must be positive"),
        ({"frame_size": 0}, "frame_size must be even and positive"),
        ({"frame_size": -768}, "frame_size must be even and positive"),
        ({"frame_size": 767}, "frame_size must be even and positive"),
        ({"hop": 0}, "hop must satisfy"),
        ({"hop": -1}, "hop must satisfy"),
        ({"hop": 769}, "hop must satisfy"),
        ({"f_max_hz": 0.0}, "f_max_hz must be positive"),
        ({"f_max_hz": -5.0}, "f_max_hz must be positive"),
        ({"f_max_hz": 24000.5}, "f_max_hz exceeds the Nyquist frequency"),
    ])
    def test_params_reject_out_of_range(self, changes, message):
        with pytest.raises(ParameterError, match=message):
            StftParams(**changes)

    def test_params_accept_their_edges(self):
        params = StftParams(frame_size=2, hop=2, f_max_hz=24000.0, sample_rate=48000)
        assert params.freqs_hz.tolist() == [0.0, 24000.0]

    def test_subband_freqs(self):
        sg = Spectrogram(bins=np.ones((1, 4, 3), dtype=complex), sample_rate=48000,
                         frame_size=768, hop=384, first_bin=2)
        assert np.allclose(sg.freqs_hz, [125.0, 187.5, 250.0, 312.5])


def seed_stft_bins(audio, frame_size, hop, f_max_hz):
    """Reference: window and rfft all frames at once, then keep and transpose."""
    num_frames = (audio.num_samples - frame_size) // hop + 1
    strides = audio.samples.strides
    frames = np.lib.stride_tricks.as_strided(
        audio.samples, shape=(audio.num_channels, num_frames, frame_size),
        strides=(strides[0], hop * strides[1], strides[1]), writeable=False)
    spectra = np.fft.rfft(frames * hann_periodic(frame_size), axis=-1)
    keep = np.arange(frame_size // 2 + 1) * (audio.sample_rate / frame_size) <= f_max_hz + 1e-9
    return np.ascontiguousarray(np.transpose(spectra[:, :, keep], (0, 2, 1)))


class TestChunkedStft:
    """The chunked STFT against the one-shot seed code."""

    FRAME, HOP, CHANNELS = 64, 32, 3
    CHUNK = 3  # frames per chunk under the patched budget below
    INLINE = signal._CHUNKS_PER_BUDGET * CHUNK  # most frames done in one inline call

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        # scratch per frame: each channel's windowed frame and its spectrum
        unit = self.CHANNELS * (8 * self.FRAME + 16 * (self.FRAME // 2 + 1))
        monkeypatch.setattr(signal, "_CHUNK_BYTES", self.INLINE * unit)

    def audio(self, num_frames, seed=0):
        # a few samples past the last frame, which the STFT drops
        num_samples = (num_frames - 1) * self.HOP + self.FRAME + 5
        rng = np.random.default_rng(seed)
        return AudioBuffer(rng.standard_normal((self.CHANNELS, num_samples)), 16000)

    @pytest.mark.parametrize("num_frames", [1, INLINE - 1, INLINE, INLINE + 1,
                                            5 * CHUNK - 1, 5 * CHUNK, 5 * CHUNK + 1,
                                            7 * CHUNK + 2])
    def test_matches_seed_stft(self, num_frames):
        audio = self.audio(num_frames)
        sg = stft(audio, self.FRAME, self.HOP, 5000.0)
        assert sg.num_frames == num_frames
        assert np.array_equal(sg.bins, seed_stft_bins(audio, self.FRAME, self.HOP, 5000.0))

    def test_non_contiguous_samples(self):
        audio = self.audio(4 * self.INLINE)
        audio.samples = np.asfortranarray(audio.samples)
        assert np.array_equal(stft(audio, self.FRAME, self.HOP, 5000.0).bins,
                              seed_stft_bins(audio, self.FRAME, self.HOP, 5000.0))


def test_input_within_budget_starts_no_thread(monkeypatch):
    # a 1-s input is transformed in one inline chunk
    spy = mock.Mock(wraps=_chunks)
    monkeypatch.setattr(signal, "_chunks", spy)
    audio = AudioBuffer(np.random.default_rng(5).standard_normal((6, 48000)), 48000)
    assert stft(audio, 768, 384, 8000.0).num_frames == 124
    spy.assert_called_once()
    assert _chunks(*spy.call_args.args) == [(0, 124)]


def test_chunks_cover_range_in_order():
    # chunks of 8 // 4 // 3 -> 1 item each, in order
    assert _chunks(10, 3, 8) == [(i, i + 1) for i in range(10)]
    assert _chunks(10, 3, 30) == [(0, 10)]


def test_peak_memory_within_output_plus_budget():
    audio = AudioBuffer(np.random.default_rng(6).standard_normal((6, 20 * 48000)), 48000)
    tracemalloc.start()
    try:
        sg = stft(audio, 768, 384, 8000.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the one-shot transform held about 184 MB of windowed frames and spectra
    assert peak < sg.bins.nbytes + signal._CHUNK_BYTES
