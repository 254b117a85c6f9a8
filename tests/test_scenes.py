"""Tests for the STFT-domain scene generator and the synthetic SV field."""

import numpy as np
import pytest

from shamans.cli import load_scene
from shamans.errors import SceneSpecError, ShapeError
from shamans.interp import (
    ShBasisConfig,
    SparseSvMeasurements,
    fibonacci_sphere,
    fit_sh,
    sh_matrix,
)
from shamans.scenes import (
    SasSourceKind,
    SceneSpec,
    WavSourceKind,
    derive_seed,
    place_sources,
    save_scene,
    scene_batch,
    scene_from_dict,
    scene_to_dict,
    synth_scene,
    synthetic_measured_svs,
)
from shamans.signal import AudioBuffer, StftParams, write_wav
from shamans.steering import (
    ArrayGeometry,
    DoaGrid,
    SteeringVectorSet,
    algebraic_svs,
    free_field,
)


@pytest.fixture(scope="module")
def setup():
    grid = DoaGrid.uniform(30, 1.7)
    geom = ArrayGeometry.random_array(4, 0.08, seed=0)
    params = StftParams(frame_size=512, hop=256, f_max_hz=6000.0, sample_rate=16000)
    bin_hz = params.sample_rate / params.frame_size
    freqs = np.arange(int(params.f_max_hz / bin_hz) + 1) * bin_hz
    svs = algebraic_svs(geom, grid, freqs)
    return grid, params, svs


class TestSynthScene:
    def test_no_sources_pure_noise(self, setup):
        _grid, params, svs = setup
        spec = SceneSpec(source_indices=[], snr_db=0.0, seed=1, duration_s=0.5)
        sg, truth = synth_scene(spec, svs, params)
        assert truth.indices.size == 0
        assert truth.realized_snr_db is None
        assert np.sum(np.abs(sg.bins) ** 2) > 0

    def test_single_source_no_noise_rank1(self, setup):
        _grid, params, svs = setup
        spec = SceneSpec(source_indices=[7], snr_db=None, seed=2, duration_s=0.5)
        sg, truth = synth_scene(spec, svs, params)
        assert truth.azimuths_deg[0] == svs.grid.azimuths_deg[7]
        for i in (3, 20):  # spot-check two bins
            x = sg.bins[:, i, :]
            cov = x @ x.conj().T
            vals = np.linalg.eigvalsh(cov)
            assert vals[-2] < 1e-10 * vals[-1]

    def test_realized_snr_exact(self, setup):
        _grid, params, svs = setup
        for seed in range(20):
            spec = SceneSpec(source_indices=[4, 13], snr_db=7.0, seed=seed,
                             duration_s=0.4)
            sg, truth = synth_scene(spec, svs, params)
            assert abs(truth.realized_snr_db - 7.0) < 0.1

    def test_mixture_linearity_bit_exact(self, setup):
        _grid, params, svs = setup
        a = SceneSpec(source_indices=[3], snr_db=None, seed=9, duration_s=0.4)
        b = SceneSpec(source_indices=[20], snr_db=None, seed=9, duration_s=0.4)
        ab = SceneSpec(source_indices=[3, 20], snr_db=None, seed=9, duration_s=0.4)
        sa, _ = synth_scene(a, svs, params)
        sb, _ = synth_scene(b, svs, params)
        sab, _ = synth_scene(ab, svs, params)
        assert np.array_equal(sab.bins, sa.bins + sb.bins)

    def test_noise_reproducible_and_additive(self, setup):
        _grid, params, svs = setup
        clean = SceneSpec(source_indices=[3, 20], snr_db=None, seed=9, duration_s=0.4)
        noisy = SceneSpec(source_indices=[3, 20], snr_db=12.0, seed=9, duration_s=0.4)
        sc, _ = synth_scene(clean, svs, params)
        sn1, _ = synth_scene(noisy, svs, params)
        sn2, _ = synth_scene(noisy, svs, params)
        assert np.array_equal(sn1.bins, sn2.bins)
        noise = sn1.bins - sc.bins
        assert np.sum(np.abs(noise) ** 2) > 0

    def test_off_grid_index_raises(self, setup):
        _grid, params, svs = setup
        with pytest.raises(SceneSpecError):
            synth_scene(SceneSpec(source_indices=[99], seed=0), svs, params)

    def test_min_separation_enforced(self, setup):
        _grid, params, svs = setup
        with pytest.raises(SceneSpecError):
            synth_scene(SceneSpec(source_indices=[5, 6], seed=0), svs, params)

    def test_wrong_sv_freq_axis_raises(self, setup):
        grid, params, _svs = setup
        geom = ArrayGeometry.random_array(4, 0.08, seed=0)
        bad = algebraic_svs(geom, grid, np.array([0.0, 100.0, 200.0]))
        with pytest.raises(ShapeError):
            synth_scene(SceneSpec(source_indices=[7], seed=0), bad, params)

    def test_sv_freq_axis_off_by_micro_hz_raises(self, setup):
        # at most 0.03 Hz off: the localizers' band matcher has no bin there
        grid, params, svs = setup
        scaled = SteeringVectorSet(svs.values, grid, svs.freqs_hz * (1 + 5e-6))
        with pytest.raises(ShapeError, match="frequency axis"):
            synth_scene(SceneSpec(source_indices=[7], seed=0), scaled, params)

    def test_reverb_surrogate_adds_energy_and_decays(self, setup):
        _grid, params, svs = setup
        dry = SceneSpec(source_indices=[7], snr_db=None, seed=5, duration_s=0.5)
        wet = SceneSpec(source_indices=[7], snr_db=None, seed=5, duration_s=0.5,
                        t60_s=0.3)
        sd, _ = synth_scene(dry, svs, params)
        sw, _ = synth_scene(wet, svs, params)
        tail = sw.bins - sd.bins
        energy_t = np.sum(np.abs(tail) ** 2, axis=(0, 1))
        assert energy_t[0] > 0
        # energy must have decayed by roughly 60 dB per t60 (frames at
        # 16 ms hop; compare first frame with one 0.3 s later)
        k = int(0.3 / (params.hop / params.sample_rate))
        if k < energy_t.size:
            ratio = energy_t[k] / energy_t[0]
            assert ratio < 10 ** (-4)  # allow slack around the 1e-6 mean

    def test_wav_sources(self, setup, tmp_path):
        _grid, params, svs = setup
        rng = np.random.default_rng(0)
        for i, amp in enumerate((0.5, 0.01)):
            buf = AudioBuffer(amp * rng.standard_normal((1, 16000)),
                              params.sample_rate)
            write_wav(buf, tmp_path / f"s{i}.wav")
        spec = SceneSpec(source_indices=[2, 11],
                         source_kind=WavSourceKind([str(tmp_path / "s0.wav"),
                                                    str(tmp_path / "s1.wav")]),
                         snr_db=None, seed=3, duration_s=0.5)
        sg, _ = synth_scene(spec, svs, params)
        assert np.sum(np.abs(sg.bins) ** 2) > 0

    def test_wav_too_short_raises(self, setup, tmp_path):
        _grid, params, svs = setup
        buf = AudioBuffer(np.ones((1, 1000)), params.sample_rate)
        write_wav(buf, tmp_path / "short.wav")
        spec = SceneSpec(source_indices=[2],
                         source_kind=WavSourceKind([str(tmp_path / "short.wav")]),
                         snr_db=None, seed=3, duration_s=0.5)
        with pytest.raises(SceneSpecError):
            synth_scene(spec, svs, params)


class TestSceneBatch:
    def base(self):
        return SceneSpec(source_indices=[0], seed=77, snr_db=10.0, duration_s=0.3)

    def test_thirty_distinct_seeds(self):
        batch = scene_batch(self.base(), {}, 30, grid_size=60)
        seeds = {s.seed for s in batch}
        assert len(batch) == 30
        assert len(seeds) == 30

    def test_deterministic(self):
        b1 = scene_batch(self.base(), {"snr_db": [0.0, 10.0]}, 5, grid_size=60)
        b2 = scene_batch(self.base(), {"snr_db": [0.0, 10.0]}, 5, grid_size=60)
        assert [scene_to_dict(s) for s in b1] == [scene_to_dict(s) for s in b2]

    def test_product_count(self):
        batch = scene_batch(self.base(), {"snr_db": [-5, 0, 5, 10, 20]}, 30,
                            grid_size=60)
        assert len(batch) == 150

    def test_n_sources_axis_respects_separation(self):
        batch = scene_batch(self.base(), {"n_sources": [4, 6]}, 10, grid_size=60)
        assert len(batch) == 20
        for spec in batch:
            from shamans.scenes import circular_cell_distance

            idx = spec.source_indices
            assert len(idx) in (4, 6)
            for i in range(len(idx)):
                for j in range(i + 1, len(idx)):
                    assert circular_cell_distance(idx[i], idx[j], 60) >= 2

    def test_derive_seed_stable(self):
        assert derive_seed(5, "snr=0", 3) == derive_seed(5, "snr=0", 3)
        assert derive_seed(5, "snr=0", 3) != derive_seed(5, "snr=0", 4)


class TestSceneJson:
    def test_roundtrip(self, tmp_path):
        spec = SceneSpec(source_indices=[4, 13], snr_db=-3.0, seed=21,
                         duration_s=0.7, t60_s=0.25,
                         source_kind=SasSourceKind(alpha=1.2, scale=0.4))
        path = tmp_path / "scene.json"
        save_scene(spec, path)
        back = load_scene(path)
        assert scene_to_dict(back) == scene_to_dict(spec)

    def test_wav_kind_roundtrip(self):
        spec = SceneSpec(source_indices=[1], source_kind=WavSourceKind(["a.wav"]),
                         snr_db=None, seed=0)
        assert scene_to_dict(scene_from_dict(scene_to_dict(spec))) == scene_to_dict(spec)


class TestPlaceSources:
    def test_respects_min_sep(self):
        rng = np.random.default_rng(0)
        from shamans.scenes import circular_cell_distance

        for _ in range(50):
            idx = place_sources(rng, 60, 6, 2)
            for i in range(6):
                for j in range(i + 1, 6):
                    assert circular_cell_distance(idx[i], idx[j], 60) >= 2

    def test_impossible_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(SceneSpecError):
            place_sources(rng, 10, 6, 2, max_tries=200)

    def test_more_sources_than_cells_raises(self):
        # before: a ValueError from the draw without replacement
        with pytest.raises(SceneSpecError, match="cannot place 61 sources on 60 grid cells"):
            place_sources(np.random.default_rng(0), 60, 61, 2)


class TestSyntheticField:
    def test_field_reproducible_and_close_to_algebraic(self):
        geom = ArrayGeometry.random_array(4, 0.06, seed=2)
        freqs = np.array([0.0, 500.0, 1000.0, 2000.0])
        f1 = synthetic_measured_svs(geom, 1.7, freqs, seed=9, degree=6)
        f2 = synthetic_measured_svs(geom, 1.7, freqs, seed=9, degree=6)
        assert np.array_equal(f1.coeffs, f2.coeffs)
        grid = DoaGrid.uniform(24, 1.7)
        measured = f1.on_grid(grid)
        assert measured.source_tag == "measured"
        alg = algebraic_svs(geom, grid, freqs)
        rel = np.linalg.norm(measured.values - alg.values) / np.linalg.norm(alg.values)
        assert 0.01 < rel < 1.0  # perturbed and truncated, but recognizably close

    def test_band_limited_recoverable_by_sh(self):
        # the field is degree-limited by construction, so an SH fit with the
        # same degree on enough sphere samples reproduces it
        geom = ArrayGeometry.random_array(3, 0.05, seed=3)
        freqs = np.array([250.0, 500.0])
        field = synthetic_measured_svs(geom, 1.5, freqs, seed=4, degree=4)
        xyz = np.random.default_rng(5).standard_normal((80, 3))
        xyz /= np.linalg.norm(xyz, axis=1, keepdims=True)
        meas = SparseSvMeasurements(xyz, field.evaluate(xyz), freqs)
        fitted = fit_sh(meas, ShBasisConfig(max_degree=4, ridge_lambda=1e-10))
        grid = DoaGrid.uniform(16, 1.5)
        ref = field.evaluate(grid.directions())
        est = fitted.predict(grid.directions())
        assert np.linalg.norm(est - ref) / np.linalg.norm(ref) < 1e-6

    def test_ring_sampling(self):
        geom = ArrayGeometry.random_array(3, 0.05, seed=6)
        field = synthetic_measured_svs(geom, 1.5, [1000.0], seed=7, degree=4)
        grid = DoaGrid.uniform(12, 1.5)
        meas = field.sample_ring(grid, 10, seed=8)
        assert meas.num_measurements == 10
        assert np.allclose(np.linalg.norm(meas.directions, axis=1), 1.0)
        assert np.allclose(meas.directions[:, 2], 0.0)  # elevation 0 ring


def lstsq_field_coeffs(geometry, radius_m, freqs_hz, seed, degree, perturb_strength,
                       design_points):
    """The field's SH coefficients by the complex ``lstsq`` projection that
    ``synthetic_measured_svs`` used before its pseudoinverse; an oracle."""
    design = fibonacci_sphere(design_points)
    values = free_field(geometry, radius_m * design, freqs_hz)
    rng = np.random.default_rng(seed)
    p_basis = sh_matrix(design, 2)
    g = rng.standard_normal((9, geometry.num_mics)) \
        + 1j * rng.standard_normal((9, geometry.num_mics))
    perturbed = values * (1.0 + perturb_strength * (p_basis @ g))[:, :, None]
    basis = sh_matrix(design, degree)
    coeffs, *_ = np.linalg.lstsq(basis, perturbed.reshape(design_points, -1), rcond=None)
    return coeffs.reshape(basis.shape[1], geometry.num_mics, freqs_hz.size)


class TestFieldProjection:
    @pytest.mark.parametrize("num_mics, aperture, degree, design_points", [
        (6, 0.18, 8, 400),  # the CLI default
        (4, 0.08, 6, 400),
        (6, 0.18, 8, 60),  # fewer design points than harmonics: minimum norm
    ])
    def test_coeffs_match_lstsq(self, num_mics, aperture, degree, design_points):
        geom = ArrayGeometry.random_array(num_mics, aperture, seed=21)
        freqs = StftParams().freqs_hz
        field = synthetic_measured_svs(geom, 1.7, freqs, seed=22, degree=degree,
                                       design_points=design_points)
        oracle = lstsq_field_coeffs(geom, 1.7, freqs, 22, degree, 0.15, design_points)
        assert field.coeffs.shape == oracle.shape
        assert np.max(np.abs(field.coeffs - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_evaluate_matches_einsum(self):
        geom = ArrayGeometry.random_array(6, 0.18, seed=23)
        field = synthetic_measured_svs(geom, 1.7, StftParams().freqs_hz, seed=24)
        directions = DoaGrid.uniform(60, 1.7).directions()
        oracle = np.einsum("np,pmf->nmf", sh_matrix(directions, field.degree), field.coeffs)
        assert np.max(np.abs(field.evaluate(directions) - oracle)) <= 1e-12
