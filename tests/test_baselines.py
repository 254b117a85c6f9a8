"""Tests for the MUSIC and SRP-PHAT baselines."""

from pathlib import Path

import numpy as np
import pytest

from shamans import cli
from shamans.errors import ParameterError
from shamans.baselines import (
    music_spectrum,
    music_subspaces,
    phat_covariances,
    srp_phat_spectrum,
)
from shamans.scenes import SceneSpec, synth_scene
from shamans.signal import Spectrogram, StftParams
from shamans.steering import (
    ArrayGeometry,
    DoaGrid,
    SteeringVectorSet,
    algebraic_svs,
    match_freq_band,
)

GOLDEN_CONFIG = Path(__file__).parent / "data" / "golden_config.json"


def setup_scene(seed, source_indices, snr_db=None, grid_size=60, n_mics=6):
    grid = DoaGrid.uniform(grid_size, 1.7)
    geom = ArrayGeometry.random_array(n_mics, 0.1, seed=seed)
    params = StftParams()
    bin_hz = params.sample_rate / params.frame_size
    freqs = np.arange(int(params.f_max_hz / bin_hz) + 1) * bin_hz
    svs = algebraic_svs(geom, grid, freqs)
    scene = SceneSpec(source_indices=source_indices, seed=seed + 1, snr_db=snr_db)
    sg, truth = synth_scene(scene, svs, params)
    return sg, svs, truth


class TestMusic:
    def test_single_noiseless_source_argmax(self):
        sg, svs, truth = setup_scene(0, [25])
        spec = music_spectrum(sg, svs, 1)
        assert int(np.argmax(spec.values)) == 25
        assert spec.values.max() == 1.0

    def test_white_noise_is_flat(self):
        rng = np.random.default_rng(3)
        sg, svs, _ = setup_scene(2, [])
        spec = music_spectrum(sg, svs, 1)
        assert spec.values.max() / spec.values.min() < 2.0

    def test_two_orthogonal_sources_rank2(self):
        # hand-built SVs: sources at indices 4 and 9 use orthogonal vectors
        grid = DoaGrid.uniform(12, 1.0)
        values = np.ones((12, 4, 3), dtype=complex)
        values[4] = 0.0
        values[4, 0, :] = 1.0
        values[9] = 0.0
        values[9, 1, :] = 1.0
        svs = SteeringVectorSet(values, grid, np.array([62.5, 125.0, 187.5]))
        rng = np.random.default_rng(4)
        t = 64
        s = rng.standard_normal((2, 3, t)) + 1j * rng.standard_normal((2, 3, t))
        bins = (values[4][:, :, None] * s[0][None] + values[9][:, :, None] * s[1][None])
        sg = Spectrogram(bins, 48000, 768, 384, first_bin=1)
        spec = music_spectrum(sg, svs, 2)
        top2 = set(np.argsort(spec.values)[-2:].tolist())
        assert top2 == {4, 9}

    def test_pseudospectrum_diverges_noiseless(self):
        # rebuild without per-frequency normalization: check raw pseudospectrum
        sg, svs, truth = setup_scene(5, [7])
        m = sg.num_channels
        i = 40  # some retained bin
        x = sg.bins[:, i, :]
        cov = x @ x.conj().T / sg.num_frames + 1e-12 * np.eye(m)
        _vals, vecs = np.linalg.eigh(cov)
        noise_basis = vecs[:, : m - 1]
        a = svs.values[7, :, i]
        denom = np.sum(np.abs(a.conj() @ noise_basis) ** 2) / np.sum(np.abs(a) ** 2)
        assert 1.0 / max(denom, 1e-12) >= 1e6

    def test_global_scaling_invariance(self):
        sg, svs, _ = setup_scene(6, [12], snr_db=10.0)
        base = music_spectrum(sg, svs, 1).values
        scaled = Spectrogram((3.0 - 4.0j) * sg.bins, sg.sample_rate, sg.frame_size, sg.hop)
        out = music_spectrum(scaled, svs, 1).values
        assert np.allclose(out, base, atol=1e-9)

    def test_bad_rank(self):
        sg, svs, _ = setup_scene(8, [3])
        with pytest.raises(ParameterError):
            music_spectrum(sg, svs, 6)
        with pytest.raises(ParameterError):
            music_spectrum(sg, svs, 0)


class TestSrpPhat:
    def test_single_noiseless_source_argmax(self):
        sg, svs, _ = setup_scene(10, [33])
        spec = srp_phat_spectrum(sg, svs)
        assert int(np.argmax(spec.values)) == 33

    def test_global_time_shift_invariance(self):
        sg, svs, _ = setup_scene(11, [20], snr_db=15.0)
        base = srp_phat_spectrum(sg, svs).values
        shift = np.exp(-2j * np.pi * sg.freqs_hz * 0.0021)  # 2.1 ms delay
        shifted = Spectrogram(sg.bins * shift[None, :, None], sg.sample_rate,
                              sg.frame_size, sg.hop)
        out = srp_phat_spectrum(shifted, svs).values
        assert np.allclose(out, base, atol=1e-9)

    def test_single_channel_scaling_invariance(self):
        sg, svs, _ = setup_scene(12, [5], snr_db=10.0)
        base = srp_phat_spectrum(sg, svs).values
        bins = sg.bins.copy()
        bins[2] *= 10.0
        out = srp_phat_spectrum(Spectrogram(bins, sg.sample_rate, sg.frame_size,
                                            sg.hop), svs).values
        assert np.max(np.abs(out - base)) < 1e-10

    def test_global_complex_scaling_invariance(self):
        sg, svs, _ = setup_scene(13, [29], snr_db=10.0)
        base = srp_phat_spectrum(sg, svs).values
        scaled = Spectrogram((0.001 + 2j) * sg.bins, sg.sample_rate,
                             sg.frame_size, sg.hop)
        out = srp_phat_spectrum(scaled, svs).values
        assert np.allclose(out, base, atol=1e-10)

    def test_needs_two_channels(self):
        sg, svs, _ = setup_scene(14, [5])
        mono = Spectrogram(sg.bins[:1], sg.sample_rate, sg.frame_size, sg.hop)
        with pytest.raises(ParameterError):
            srp_phat_spectrum(mono, svs)


# ---------------------------------------------------------------------------
# the batched baselines against the per-bin loop and the steered-response
# einsum they replaced, kept here as oracles


def _oracle_max_normalize(values):
    peak = values.max()
    return values / peak if peak > 0 else values


def music_loop_oracle(spec, svs, subspace_rank):
    m = spec.num_channels
    band, sv_idx = match_freq_band(spec.freqs_hz, svs.freqs_hz)
    spec_idx = np.arange(spec.num_freqs)[band]
    acc = np.zeros(len(svs.grid))
    for i_spec, i_sv in zip(spec_idx, sv_idx):
        x = spec.bins[:, i_spec, :]
        cov = (x @ x.conj().T) / spec.num_frames + 1e-12 * np.eye(m)
        _vals, vecs = np.linalg.eigh(cov)
        noise_basis = vecs[:, : m - subspace_rank]
        a = svs.values[:, :, i_sv]
        proj = a.conj() @ noise_basis
        denom = np.sum(np.abs(proj) ** 2, axis=1) / np.sum(np.abs(a) ** 2, axis=1)
        acc += _oracle_max_normalize(1.0 / np.maximum(denom, 1e-12))
    return _oracle_max_normalize(acc / spec_idx.size)


def srp_einsum_oracle(spec, svs):
    band, sv_idx = match_freq_band(spec.freqs_hz, svs.freqs_hz)
    x = spec.bins[:, np.arange(spec.num_freqs)[band], :]
    mag = np.abs(x)
    white = np.where(mag > 0, x / np.where(mag > 0, mag, 1.0), 0.0)
    a = svs.values[:, :, sv_idx]
    a_mag = np.abs(a)
    a_phase = np.where(a_mag > 0, a / np.where(a_mag > 0, a_mag, 1.0), 0.0)
    steered = np.einsum("lmf,mft->lft", a_phase.conj(), white)
    return _oracle_max_normalize(np.sum(np.abs(steered) ** 2, axis=(1, 2)))


@pytest.fixture(scope="module", params=["default", "golden"])
def config_scenes(request):
    """Three 3-source scenes synthesized with the config's field, plus its
    ``ref`` and ``alg`` SV sets."""
    config = cli.load_config(None if request.param == "default" else str(GOLDEN_CONFIG))
    params, grid = cli.build_stft_params(config), cli.build_grid(config)
    geometry = cli.build_array(config)
    ref = cli.build_ref(config, geometry, grid, params)
    alg = algebraic_svs(geometry, grid, params.freqs_hz)
    specs = [synth_scene(SceneSpec(source_indices=idx, seed=seed, snr_db=snr), ref,
                         params)[0]
             for idx, seed, snr in (([3, 20, 41], 1, 20.0), ([0, 30, 58], 2, 5.0),
                                    ([12, 15, 50], 3, None))]
    return specs, {"ref": ref, "alg": alg}


class TestBatchedEquivalence:
    @pytest.mark.parametrize("rank", [1, 4])
    def test_music_bit_identical_to_loop(self, config_scenes, rank):
        specs, svsets = config_scenes
        for sg in specs:
            for svs in svsets.values():
                out = music_spectrum(sg, svs, rank).values
                assert np.array_equal(out, music_loop_oracle(sg, svs, rank))

    def test_srp_phat_matches_einsum(self, config_scenes):
        specs, svsets = config_scenes
        for sg in specs:
            for svs in svsets.values():
                out = srp_phat_spectrum(sg, svs).values
                assert np.max(np.abs(out - srp_einsum_oracle(sg, svs))) <= 1e-12

    def test_srp_phat_matches_einsum_with_zero_entries(self):
        sg, svs, _ = setup_scene(15, [9, 40], snr_db=10.0)
        bins = sg.bins.copy()
        bins[1] = 0.0  # a dead channel
        bins[:, 7, :] = 0.0  # a silent bin
        bins[3, :, ::5] = 0.0  # scattered zero samples
        values = svs.values.copy()
        values[:, 2, 10:20] = 0.0  # an SV entry with no magnitude
        values[4, :, 30] = 0.0
        values[4, 0, 30] = 1.0  # one direction hears one microphone in a bin
        zeroed = Spectrogram(bins, sg.sample_rate, sg.frame_size, sg.hop)
        svs = SteeringVectorSet(values, svs.grid, svs.freqs_hz)
        out = srp_phat_spectrum(zeroed, svs).values
        assert np.max(np.abs(out - srp_einsum_oracle(zeroed, svs))) <= 1e-12


class TestSceneStacks:
    """One [F, M, M] stack per spectrogram, over all its bins, serves every
    MUSIC rank and every SV set; each reads its band through
    ``match_freq_band``."""

    def test_stacks_cover_every_bin(self, config_scenes):
        specs, _ = config_scenes
        sg = specs[0]
        m = sg.num_channels
        vecs, cov = music_subspaces(sg), phat_covariances(sg)
        assert vecs.shape == cov.shape == (sg.num_freqs, m, m)
        for f in (0, sg.num_freqs - 1):  # DC and the top bin
            x = sg.bins[:, f, :]
            want = x @ x.conj().T / sg.num_frames + 1e-12 * np.eye(m)
            back = vecs[f] @ np.diag(np.linalg.eigvalsh(want)) @ vecs[f].conj().T
            assert np.allclose(back, want, rtol=0.0, atol=1e-9 * np.abs(want).max())
            white = np.where(x != 0, x / np.where(x != 0, np.abs(x), 1.0), 0.0)
            assert np.allclose(cov[f], white @ white.conj().T)

    def test_shared_stacks_give_the_spectra_bit_for_bit(self, config_scenes):
        specs, svsets = config_scenes
        for sg in specs:
            vecs, cov = music_subspaces(sg), phat_covariances(sg)
            for svs in svsets.values():
                for rank in range(1, sg.num_channels):
                    assert np.array_equal(music_spectrum(sg, svs, rank, vecs).values,
                                          music_spectrum(sg, svs, rank).values)
                assert np.array_equal(srp_phat_spectrum(sg, svs, cov).values,
                                      srp_phat_spectrum(sg, svs).values)

    def test_phat_stack_needs_two_channels(self):
        sg, _, _ = setup_scene(3, [5])
        mono = Spectrogram(sg.bins[:1], sg.sample_rate, sg.frame_size, sg.hop)
        with pytest.raises(ParameterError, match="at least two channels"):
            phat_covariances(mono)
