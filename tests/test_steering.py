"""Tests for the algebraic SV model, normalization and the SVSET container."""

import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shamans import cli, scenes
from shamans.errors import (
    FormatError,
    GeometryError,
    NormalizationError,
    ParameterError,
    ShapeError,
    TruncationError,
)
from shamans.steering import (
    ArrayGeometry,
    DoaGrid,
    SteeringVectorSet,
    algebraic_svs,
    free_field,
    load_svset,
    match_freq_band,
    same_freq_axis,
    normalize_svs,
    save_svset,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture
def grid():
    return DoaGrid.uniform(12, radius_m=1.7)


class TestAlgebraicSvs:
    def test_dc_is_real_positive(self, grid):
        geom = ArrayGeometry.random_array(4, 0.08, seed=1)
        svs = algebraic_svs(geom, grid, [0.0, 500.0])
        dc = svs.values[:, :, 0]
        assert np.all(dc.imag == 0)
        assert np.all(dc.real > 0)
        r = np.linalg.norm(grid.positions()[:, None, :] - geom.mic_positions[None], axis=-1)
        assert np.allclose(dc.real, 1.0 / (4 * np.pi * r))

    def test_broadside_symmetry(self):
        # mics mirrored through the origin; the 90-degree grid point is
        # equidistant from both, so the two channels coincide at every f
        geom = ArrayGeometry(np.array([[0.05, 0.0, 0.0], [-0.05, 0.0, 0.0]]))
        grid = DoaGrid(np.array([0.0, 90.0, 180.0, 270.0]), 2.0)
        svs = algebraic_svs(geom, grid, [100.0, 1000.0, 4000.0])
        assert np.allclose(svs.values[1, 0, :], svs.values[1, 1, :])
        assert np.allclose(svs.values[3, 0, :], svs.values[3, 1, :])

    def test_scalar_green_function_value(self):
        geom = ArrayGeometry(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1e-4]]))
        grid = DoaGrid(np.array([0.0, 180.0]), 1.7)
        svs = algebraic_svs(geom, grid, [1000.0])
        val = svs.values[0, 0, 0]
        expect_phase = -2 * np.pi * 1000.0 * 1.7 / 343.0
        assert abs(abs(val) - 1.0 / (4 * np.pi * 1.7)) < 1e-12
        assert abs(np.angle(val) - np.angle(np.exp(1j * expect_phase))) < 1e-9

    def test_magnitude_frequency_independent_phase_linear(self, grid):
        geom = ArrayGeometry.random_array(3, 0.05, seed=2)
        freqs = np.array([500.0, 1000.0, 1500.0, 2000.0])
        svs = algebraic_svs(geom, grid, freqs)
        mags = np.abs(svs.values)
        assert np.allclose(mags, mags[:, :, :1])
        phases = np.unwrap(np.angle(svs.values), axis=2)
        d1 = np.diff(phases, axis=2)
        assert np.allclose(d1, d1[:, :, :1], atol=1e-9)

    def test_source_on_mic_raises(self):
        geom = ArrayGeometry(np.array([[1.7, 0.0, 0.0], [0.0, 0.01, 0.0]]))
        grid = DoaGrid(np.array([0.0, 180.0]), 1.7)
        with pytest.raises(GeometryError):
            algebraic_svs(geom, grid, [1000.0])

    def test_radius_inside_array_raises(self):
        geom = ArrayGeometry(np.array([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]]))
        grid = DoaGrid(np.array([0.0, 180.0]), 0.3)
        with pytest.raises(GeometryError):
            algebraic_svs(geom, grid, [1000.0])


def seed_free_field(mic_positions, positions, freqs_hz):
    """The free-field formula as algebraic_svs and the synthetic field each
    wrote it inline before they shared ``free_field``."""
    diff = positions[:, None, :] - mic_positions[None, :, :]
    r = np.linalg.norm(diff, axis=-1)
    phase = -2.0j * np.pi * r[:, :, None] * freqs_hz[None, None, :] / 343.0
    return np.exp(phase) / (4.0 * np.pi * r[:, :, None])


@pytest.mark.parametrize("config_path", [None, DATA / "golden_config.json"],
                         ids=["default", "golden"])
def test_free_field_matches_seed_formula(config_path, monkeypatch):
    config = cli.load_config(config_path)
    params = cli.build_stft_params(config)
    grid = cli.build_grid(config)
    geometry = cli.build_array(config)
    alg = algebraic_svs(geometry, grid, params.freqs_hz)
    assert np.array_equal(alg.values, seed_free_field(
        geometry.mic_positions, grid.positions(), params.freqs_hz))

    field = cli.build_field(config, geometry, grid, params)
    monkeypatch.setattr(scenes, "free_field", lambda geom, positions, freqs:
                        seed_free_field(geom.mic_positions, positions, freqs))
    oracle = cli.build_field(config, geometry, grid, params)
    assert np.array_equal(field.coeffs, oracle.coeffs)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), num_mics=st.integers(2, 8),
       num_points=st.integers(1, 70), num_freqs=st.integers(1, 150),
       scale=st.floats(0.05, 20.0))
def test_free_field_real_arithmetic_is_the_complex_formula(seed, num_mics, num_points,
                                                          num_freqs, scale):
    # cos and sin of the real phase, each times 1/(4 pi r), give numpy's
    # complex exponential and division bit for bit, on any geometry
    rng = np.random.default_rng(seed)
    mics = rng.uniform(-0.3, 0.3, (num_mics, 3))
    positions = scale * rng.standard_normal((num_points, 3))
    freqs = np.sort(rng.uniform(0.0, 24000.0, num_freqs))
    freqs[0] = 0.0  # DC
    got = free_field(ArrayGeometry(mics), positions, freqs)
    assert np.array_equal(got, seed_free_field(mics, positions, freqs))


class TestNormalizeSvs:
    def test_unit_norm_unchanged(self, grid):
        values = np.zeros((12, 2, 1), dtype=complex)
        values[:, 0, 0] = 1.0
        svs = SteeringVectorSet(values, grid, [1000.0])
        assert np.allclose(normalize_svs(svs).values, values)

    def test_two_zero_vector(self, grid):
        values = np.zeros((12, 2, 1), dtype=complex)
        values[:, 0, 0] = 2.0
        svs = SteeringVectorSet(values, grid, [1000.0])
        out = normalize_svs(svs).values
        assert np.allclose(out[:, 0, 0], 0.5)
        assert np.allclose(out[:, 1, 0], 0.0)

    def test_norm_identity_random(self, grid):
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            tilde = v / np.sum(np.abs(v) ** 2)
            assert abs(np.linalg.norm(tilde) * np.linalg.norm(v) - 1.0) < 1e-12

    def test_pointwise_identity(self, grid):
        rng = np.random.default_rng(8)
        values = rng.standard_normal((12, 4, 3)) + 1j * rng.standard_normal((12, 4, 3))
        svs = SteeringVectorSet(values, grid, [100.0, 200.0, 300.0])
        out = normalize_svs(svs)
        sq = np.sum(np.abs(values) ** 2, axis=1)
        assert np.allclose(out.values, values / sq[:, None, :])

    def test_zero_vector_names_location(self, grid):
        values = np.ones((12, 2, 2), dtype=complex)
        svs = SteeringVectorSet(values, grid, [100.0, 200.0])
        svs.values[3, :, 1] = 0.0
        with pytest.raises(NormalizationError, match="3"):
            normalize_svs(svs)


class TestSvsetContainer:
    def make_set(self, seed=0, tag="measured"):
        rng = np.random.default_rng(seed)
        values = (rng.standard_normal((8, 3, 5))
                  + 1j * rng.standard_normal((8, 3, 5))).astype(np.complex64)
        grid = DoaGrid(np.arange(8) * 45.0, 1.5, elevation_deg=10.0)
        return SteeringVectorSet(values, grid, np.arange(5) * 125.0, tag)

    @pytest.mark.parametrize("tag", ["measured", "algebraic", "interpolated"])
    def test_roundtrip_bit_exact(self, tmp_path, tag):
        svs = self.make_set(tag=tag)
        path = tmp_path / "s.svst"
        save_svset(svs, path)
        back = load_svset(path)
        assert np.array_equal(back.values, svs.values)
        assert np.array_equal(back.grid.azimuths_deg, svs.grid.azimuths_deg)
        assert back.grid.radius_m == svs.grid.radius_m
        assert back.grid.elevation_deg == svs.grid.elevation_deg
        assert np.array_equal(back.freqs_hz, svs.freqs_hz)
        assert back.source_tag == tag

    def test_save_load_save_identical_bytes(self, tmp_path):
        svs = self.make_set()
        p1, p2 = tmp_path / "a.svst", tmp_path / "b.svst"
        save_svset(svs, p1)
        save_svset(load_svset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.svst"
        path.write_bytes(b"")
        with pytest.raises(FormatError):
            load_svset(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.svst"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_svset(path)

    def test_bad_version(self, tmp_path):
        svs = self.make_set()
        path = tmp_path / "v.svst"
        save_svset(svs, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            load_svset(path)

    def test_truncated_payload(self, tmp_path):
        svs = self.make_set()
        path = tmp_path / "t.svst"
        save_svset(svs, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-17])
        with pytest.raises(TruncationError):
            load_svset(path)

    def test_dimension_overflow(self, tmp_path):
        svs = self.make_set()
        path = tmp_path / "d.svst"
        save_svset(svs, path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", 2**31 - 1)  # absurd L
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_svset(path)

    @settings(max_examples=300, deadline=None)
    @given(edits=st.lists(st.tuples(st.integers(0, 2**20), st.integers(0, 255)),
                          min_size=1, max_size=3))
    def test_byte_mutations_load_or_raise_format_error(self, tmp_path_factory, edits):
        # 1-3 changed bytes anywhere in a valid 8 x 3 x 5 set: a bad grid,
        # value or steering vector is a format error naming the file too
        # (before: ParameterError or NormalizationError)
        path = tmp_path_factory.getbasetemp() / "fuzz.svst"
        save_svset(self.make_set(), path)
        blob = bytearray(path.read_bytes())
        for pos, byte in edits:
            blob[pos % len(blob)] = byte
        path.write_bytes(bytes(blob))
        try:
            grid = load_svset(path).grid
        except FormatError as exc:
            assert str(exc).startswith(f"{path}: ")
        else:  # a set that loads has a finite grid
            assert np.all(np.isfinite([*grid.azimuths_deg, grid.radius_m,
                                       grid.elevation_deg]))

    @pytest.mark.parametrize("azimuths, radius, elevation", [
        ([0.0, 90.0], np.nan, 0.0),
        ([0.0, np.nan], 1.0, 0.0),
        ([0.0, 90.0], np.inf, 0.0),
        ([0.0, 90.0], 1.0, -np.inf),
    ])
    def test_nonfinite_grid_raises(self, azimuths, radius, elevation):
        # NaN passes every range check (each comparison with it is False),
        # and an infinite radius is positive
        with pytest.raises(ParameterError, match="finite"):
            DoaGrid(azimuths, radius, elevation)


class TestMatchFreqBins:
    def test_dc_excluded(self):
        spec_f = np.array([0.0, 62.5, 125.0])
        sv_f = np.array([0.0, 62.5, 125.0])
        band, vi = match_freq_band(spec_f, sv_f)
        assert np.arange(3)[band].tolist() == [1, 2]
        assert vi.tolist() == [1, 2]

    def test_missing_bin_raises(self):
        with pytest.raises(ShapeError):
            match_freq_band(np.array([62.5, 125.0]), np.array([62.5, 100.0]))

    def test_sv_superset_ok(self):
        band, vi = match_freq_band(np.array([62.5]), np.array([0.0, 31.25, 62.5]))
        assert np.arange(1)[band].tolist() == [0]
        assert vi.tolist() == [2]

    @pytest.mark.parametrize("scale, same", [(1 + 5e-6, False), (1 + 1e-12, True)])
    def test_one_tolerance_for_axes_and_bands(self, scale, same):
        # whole-axis checks and the band matcher share the 1e-6 Hz rule
        sv_f = np.arange(129) * 62.5
        assert same_freq_axis(sv_f * scale, sv_f) is same
        if same:
            assert match_freq_band(sv_f * scale, sv_f)[1].tolist() == list(range(1, 129))
        else:
            with pytest.raises(ShapeError, match="no bin at"):
                match_freq_band(sv_f * scale, sv_f)
