"""Tests for spherical-harmonic and NS-lite steering-vector interpolation."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shamans import cli, interp
from shamans.errors import FormatError, ParameterError, ShapeError, SingularSystemError
from shamans.interp import (
    CoordNetConfig,
    ShBasisConfig,
    ShCoefficients,
    SparseSvMeasurements,
    coordnet_objective,
    fibonacci_sphere,
    fit_coordnet,
    fit_sh,
    interp_error_report,
    interp_svs,
    load_fit_artifact,
    num_sh_coeffs,
    save_fit_artifact,
    sh_expand,
    sh_matrix,
)
from shamans.steering import DoaGrid, SteeringVectorSet, load_svset


def random_sphere(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestShBasis:
    def test_constant_harmonic(self):
        for y in sh_matrix(random_sphere(5, 0), 3):
            assert abs(y[0] - 1.0 / np.sqrt(4 * np.pi)) < 1e-12

    def test_pole_kills_azimuthal_orders(self):
        y = sh_matrix(np.array([[0.0, 0.0, 1.0]]), 4)[0]
        idx = 0
        for nu in range(5):
            for mu in range(-nu, nu + 1):
                if mu != 0:
                    assert abs(y[idx]) < 1e-12
                idx += 1

    def test_monte_carlo_orthonormality(self):
        pts = random_sphere(100_000, 42)
        basis = sh_matrix(pts, 3)  # [N, 16]
        gram = 4 * np.pi * (basis.T @ basis) / pts.shape[0]
        assert np.max(np.abs(gram - np.eye(16))) < 0.01

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.0, 2 * np.pi), st.floats(-1.0, 1.0))
    def test_addition_theorem(self, az, z):
        r = np.sqrt(1.0 - z * z)
        d = np.array([[r * np.cos(az), r * np.sin(az), z]])
        y = sh_matrix(d, 5)[0]
        idx = 0
        for nu in range(6):
            block = y[idx : idx + 2 * nu + 1]
            assert abs(np.sum(block**2) - (2 * nu + 1) / (4 * np.pi)) < 1e-10
            idx += 2 * nu + 1


def bandlimited_field(degree, n_mics, n_freqs, seed):
    """Synthetic SV field with known SH coefficients up to ``degree``."""
    rng = np.random.default_rng(seed)
    p = num_sh_coeffs(degree)
    coeffs = rng.standard_normal((p, n_mics, n_freqs)) \
        + 1j * rng.standard_normal((p, n_mics, n_freqs))
    return ShCoefficients(coeffs=coeffs, freqs_hz=np.arange(n_freqs) * 100.0 + 100.0,
                          max_degree=degree)


class TestFitSh:
    def test_constant_function_projects_onto_dc(self):
        kappa = 2.5 + 0.5j
        dirs = fibonacci_sphere(16)
        values = np.full((16, 1, 1), kappa, dtype=complex)
        meas = SparseSvMeasurements(dirs, values, [1000.0])
        coeffs = fit_sh(meas, ShBasisConfig(max_degree=2, ridge_lambda=0.0)).coeffs
        assert abs(coeffs[0, 0, 0] - kappa * np.sqrt(4 * np.pi)) < 1e-8
        assert np.max(np.abs(coeffs[1:, 0, 0])) < 1e-8

    def test_degree2_exact_recovery_heldout(self):
        truth = bandlimited_field(2, 2, 3, seed=5)
        train = fibonacci_sphere(25)
        meas = SparseSvMeasurements(train, truth.predict(train), truth.freqs_hz)
        fitted = fit_sh(meas, ShBasisConfig(max_degree=2, ridge_lambda=1e-10))
        held = random_sphere(40, 6)
        est, ref = fitted.predict(held), truth.predict(held)
        rel = np.linalg.norm(est - ref) / np.linalg.norm(ref)
        assert rel < 1e-6

    def test_single_measurement_ridge_is_finite(self):
        meas = SparseSvMeasurements(np.array([[0.0, 0.0, 1.0]]),
                                    np.ones((1, 2, 2), dtype=complex),
                                    [100.0, 200.0])
        coeffs = fit_sh(meas, ShBasisConfig(max_degree=2, ridge_lambda=1e-3)).coeffs
        assert np.all(np.isfinite(coeffs))

    @pytest.mark.parametrize("where", ["directions", "values"])
    def test_non_finite_measurements_raise(self, where):
        dirs = fibonacci_sphere(9)
        values = np.ones((9, 1, 1), dtype=complex)
        (dirs if where == "directions" else values)[4] = np.nan
        with pytest.raises(ParameterError):
            SparseSvMeasurements(dirs, values, [100.0])

    def test_underdetermined_without_ridge_raises(self):
        meas = SparseSvMeasurements(fibonacci_sphere(4), np.ones((4, 1, 1), dtype=complex),
                                    [100.0])
        with pytest.raises(SingularSystemError):
            fit_sh(meas, ShBasisConfig(max_degree=3, ridge_lambda=0.0))

    def test_square_system_interpolates(self):
        # N_SV = (nu_max+1)^2 well-spread points, lambda = 0
        truth = bandlimited_field(3, 1, 2, seed=9)
        pts = fibonacci_sphere(num_sh_coeffs(3))
        meas = SparseSvMeasurements(pts, truth.predict(pts), truth.freqs_hz)
        fitted = fit_sh(meas, ShBasisConfig(max_degree=3, ridge_lambda=0.0))
        resid = np.linalg.norm(fitted.predict(pts) - meas.values)
        assert resid / np.linalg.norm(meas.values) < 1e-8

    def test_ridge_monotone_shrinkage(self):
        truth = bandlimited_field(3, 2, 2, seed=11)
        pts = random_sphere(20, 12)
        meas = SparseSvMeasurements(pts, truth.predict(pts), truth.freqs_hz)
        norms = []
        for lam in [0.0, 1e-6, 1e-3, 1e-1, 1.0, 10.0]:
            c = fit_sh(meas, ShBasisConfig(max_degree=3, ridge_lambda=lam)).coeffs
            norms.append(np.linalg.norm(c))
        assert all(a >= b - 1e-9 for a, b in zip(norms, norms[1:]))


class TestInterpSvs:
    def test_training_point_consistency(self):
        truth = bandlimited_field(2, 3, 4, seed=13)
        grid = DoaGrid.uniform(12, 1.7)
        pts = np.concatenate([grid.directions(), fibonacci_sphere(30)])
        meas = SparseSvMeasurements(pts, truth.predict(pts), truth.freqs_hz)
        fitted = fit_sh(meas, ShBasisConfig(max_degree=2, ridge_lambda=1e-12))
        out = interp_svs(fitted, grid, truth.freqs_hz)
        assert out.source_tag == "interpolated"
        ref = truth.predict(grid.directions())
        assert np.linalg.norm(out.values - ref) / np.linalg.norm(ref) < 1e-6

    def test_constant_model_constant_everywhere(self):
        coeffs = np.zeros((9, 2, 1), dtype=complex)
        coeffs[0, :, 0] = [1.0 + 1j, 2.0]
        model = ShCoefficients(coeffs, np.array([500.0]), 2)
        out = interp_svs(model, DoaGrid.uniform(10, 1.0), [500.0])
        assert np.allclose(out.values, out.values[:1])

    def test_frequency_mismatch_raises(self):
        model = bandlimited_field(1, 1, 2, seed=14)
        with pytest.raises(ShapeError):
            interp_svs(model, DoaGrid.uniform(6, 1.0), [1.0, 2.0])

    def test_frequency_axis_off_by_micro_hz_raises(self):
        model = bandlimited_field(1, 1, 2, seed=14)
        with pytest.raises(ShapeError):
            interp_svs(model, DoaGrid.uniform(6, 1.0), model.freqs_hz * (1 + 5e-6))

    def test_nslite_bias_only_is_mean(self):
        rng = np.random.default_rng(15)
        values = rng.standard_normal((10, 2, 3)) + 1j * rng.standard_normal((10, 2, 3))
        meas = SparseSvMeasurements(random_sphere(10, 16), values,
                                    [100.0, 200.0, 300.0])
        model = fit_coordnet(meas, CoordNetConfig(num_features=0, ridge_lambda=1e-2))
        grid = DoaGrid.uniform(8, 1.0)
        out = interp_svs(model, grid, meas.freqs_hz)
        mean = values.mean(axis=(0, 2))
        for l in range(8):
            for f in range(3):
                assert np.allclose(out.values[l, :, f], mean)


class TestShExpand:
    """The one SH-expansion product against the einsum it replaced."""

    def test_predict_matches_einsum(self):
        model = bandlimited_field(8, 6, 129, seed=17)
        grid = DoaGrid.uniform(60, 1.7)
        for directions in (grid.directions(), random_sphere(25, 18)):
            oracle = np.einsum("np,pmf->nmf", sh_matrix(directions, 8), model.coeffs)
            assert np.max(np.abs(model.predict(directions) - oracle)) <= 1e-12
        out = interp_svs(model, grid, model.freqs_hz)
        assert np.array_equal(out.values, model.predict(grid.directions()))

    def test_any_coefficient_layout(self):
        coeffs = bandlimited_field(3, 4, 10, seed=19).coeffs
        basis = sh_matrix(random_sphere(7, 20), 3)
        for c in (coeffs[:, :, ::2], coeffs.real, coeffs.transpose(0, 2, 1)):
            oracle = np.einsum("np,pmf->nmf", basis, c)
            out = sh_expand(basis, c)
            assert out.shape == oracle.shape
            assert np.max(np.abs(out - oracle)) <= 1e-12


class TestFitCoordnet:
    def make_meas(self, seed=20):
        truth = bandlimited_field(3, 2, 4, seed=seed)
        pts = random_sphere(64, seed + 1)
        return truth, SparseSvMeasurements(pts, truth.predict(pts), truth.freqs_hz)

    def test_deterministic_given_seed(self):
        _, meas = self.make_meas()
        cfg = CoordNetConfig(num_features=32, seed=77)
        m1 = fit_coordnet(meas, cfg)
        m2 = fit_coordnet(meas, cfg)
        assert np.array_equal(m1.weights, m2.weights)
        pts = random_sphere(10, 3)
        assert np.array_equal(m1.predict(pts), m2.predict(pts))

    def test_features_never_hurt_objective(self):
        _, meas = self.make_meas()
        lam = 1e-3
        bias_only = fit_coordnet(meas, CoordNetConfig(num_features=0, ridge_lambda=lam))
        with_feats = fit_coordnet(meas, CoordNetConfig(num_features=64, ridge_lambda=lam,
                                                       seed=5))
        assert (coordnet_objective(with_feats, meas)
                <= coordnet_objective(bias_only, meas) + 1e-9)

    def test_beats_low_order_sh_on_degree3_field(self):
        truth, meas = self.make_meas(seed=30)
        ns = fit_coordnet(meas, CoordNetConfig(num_features=256, ridge_lambda=1e-6,
                                               seed=1))
        sh1 = fit_sh(meas, ShBasisConfig(max_degree=1, ridge_lambda=1e-6))
        held = random_sphere(50, 31)
        ref = truth.predict(held)
        err_ns = np.linalg.norm(ns.predict(held) - ref)
        err_sh = np.linalg.norm(sh1.predict(held) - ref)
        assert err_ns < err_sh


class TestErrorReport:
    def make_pair(self):
        grid = DoaGrid.uniform(10, 1.0)
        rng = np.random.default_rng(33)
        values = rng.standard_normal((10, 2, 4)) + 1j * rng.standard_normal((10, 2, 4))
        freqs = np.arange(4) * 250.0
        truth = SteeringVectorSet(values, grid, freqs)
        return truth, grid, freqs

    def test_identical_is_zero(self):
        truth, grid, freqs = self.make_pair()
        est = SteeringVectorSet(truth.values.copy(), grid, freqs)
        assert np.allclose(interp_error_report(truth, est), 0.0)

    def test_double_is_one(self):
        truth, grid, freqs = self.make_pair()
        est = SteeringVectorSet(2.0 * truth.values, grid, freqs)
        assert np.allclose(interp_error_report(truth, est), 1.0)

    def test_grid_mismatch_raises(self):
        truth, _grid, freqs = self.make_pair()
        other = SteeringVectorSet(np.ones((8, 2, 4), dtype=complex),
                                  DoaGrid.uniform(8, 1.0), freqs)
        with pytest.raises(ShapeError):
            interp_error_report(truth, other)

    def test_sparse_noisy_fit_produces_finite_curve(self):
        truth = bandlimited_field(4, 3, 6, seed=40)
        rng = np.random.default_rng(41)
        pts = random_sphere(12, 42)
        noisy = truth.predict(pts) + 0.05 * (rng.standard_normal((12, 3, 6))
                                             + 1j * rng.standard_normal((12, 3, 6)))
        meas = SparseSvMeasurements(pts, noisy, truth.freqs_hz)
        model = fit_coordnet(meas, CoordNetConfig(num_features=64, seed=4))
        grid = DoaGrid.uniform(16, 1.0)
        est = interp_svs(model, grid, truth.freqs_hz)
        ref = SteeringVectorSet(truth.predict(grid.directions()), grid, truth.freqs_hz)
        curve = interp_error_report(ref, est)
        assert curve.shape == (6,)
        assert np.all(np.isfinite(curve))


class TestArtifacts:
    def test_sh_roundtrip(self, tmp_path):
        truth = bandlimited_field(2, 2, 3, seed=50)
        pts = fibonacci_sphere(25)
        meas = SparseSvMeasurements(pts, truth.predict(pts), truth.freqs_hz)
        model = fit_sh(meas, ShBasisConfig(max_degree=2, ridge_lambda=1e-8))
        path = tmp_path / "model.svst"
        save_fit_artifact(model, path)
        back = load_fit_artifact(path)
        held = random_sphere(10, 51)
        # container stores complex64, so compare at that precision
        assert np.allclose(back.predict(held), model.predict(held), atol=1e-5)

    def test_nslite_roundtrip(self, tmp_path):
        truth = bandlimited_field(2, 2, 3, seed=52)
        pts = random_sphere(20, 53)
        meas = SparseSvMeasurements(pts, truth.predict(pts), truth.freqs_hz)
        model = fit_coordnet(meas, CoordNetConfig(num_features=16, seed=9))
        path = tmp_path / "ns.svst"
        save_fit_artifact(model, path)
        back = load_fit_artifact(path)
        held = random_sphere(10, 54)
        assert np.allclose(back.predict(held), model.predict(held), atol=1e-5)

    def test_sidecar_rows_checked_before_features_are_drawn(self, tmp_path):
        # before: 4e6 features x 4 normals (128 MB) were drawn, and then the
        # row count failed
        truth = bandlimited_field(2, 2, 3, seed=56)
        pts = random_sphere(20, 57)
        meas = SparseSvMeasurements(pts, truth.predict(pts), truth.freqs_hz)
        path = tmp_path / "ns.svst"
        save_fit_artifact(fit_coordnet(meas, CoordNetConfig(num_features=8, seed=9)), path)
        sidecar = path.with_suffix(".json")
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()),
                                       "num_features": 4_000_000}))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="8000001 coefficient rows"):
                load_fit_artifact(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize("kind", ["sh", "nslite"])
    def test_not_read_as_svset(self, tmp_path, kind):
        truth = bandlimited_field(2, 2, 3, seed=55)
        pts = fibonacci_sphere(25)
        meas = SparseSvMeasurements(pts, truth.predict(pts), truth.freqs_hz)
        model = fit_sh(meas, ShBasisConfig(max_degree=2, ridge_lambda=1e-8)) \
            if kind == "sh" else fit_coordnet(meas, CoordNetConfig(num_features=8, seed=9))
        path = tmp_path / "model.svst"
        save_fit_artifact(model, path)
        with pytest.raises(FormatError, match="model.svst: a fit artifact"):
            load_svset(path)


def lpmv_sh_matrix(directions, max_degree):
    """The real SH basis from scipy's lpmv and gammaln: the oracle for the
    recurrence in sh_matrix."""
    from scipy import special

    z = np.clip(directions[:, 2], -1.0, 1.0)
    az = np.arctan2(directions[:, 1], directions[:, 0])
    cols = []
    for nu in range(max_degree + 1):
        for mu in range(-nu, nu + 1):
            m = abs(mu)
            norm = np.sqrt((2 * nu + 1) / (4 * np.pi) * np.exp(
                special.gammaln(nu - m + 1) - special.gammaln(nu + m + 1)))
            azimuthal = 1.0 if mu == 0 else np.sqrt(2.0) * (
                np.cos(m * az) if mu > 0 else np.sin(m * az))
            cols.append(norm * special.lpmv(m, nu, z) * azimuthal)
    return np.stack(cols, axis=1)


def cho_ridge_solve(gram, rhs, penalty):
    """The ridge solve through scipy's Cholesky factor and solve."""
    from scipy import linalg

    return linalg.cho_solve(linalg.cho_factor(gram + penalty), rhs)


@pytest.fixture(scope="module")
def default_field_samples():
    """32 grid directions of the CLI's default field, sampled as `shamans fit`
    samples a measured set: all on the horizontal plane."""
    config = cli.load_config(None)
    params, grid = cli.build_stft_params(config), cli.build_grid(config)
    ref = cli.build_field(config, cli.build_array(config), grid, params).on_grid(grid)
    chosen = np.sort(np.random.default_rng(3).choice(len(grid), 32, replace=False))
    return grid, SparseSvMeasurements(grid.directions()[chosen], ref.values[chosen],
                                      ref.freqs_hz)


class TestScipyOracles:
    """The numpy SH basis and ridge solves against the scipy routines they
    replaced."""

    def test_sh_matrix_matches_lpmv(self):
        pytest.importorskip("scipy")
        directions = np.vstack([random_sphere(300, 26), fibonacci_sphere(200),
                                [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]],
                                DoaGrid.uniform(60, 1.7).directions()])
        for degree in (0, 1, 2, 5, 8, 16, 26):
            want = lpmv_sh_matrix(directions, degree)
            assert np.max(np.abs(sh_matrix(directions, degree) - want)) <= 1e-13

    @pytest.mark.parametrize("degree, count, ridge", [(3, 20, 1e-6), (4, 60, 0.0),
                                                      (8, 200, 1e-6)])
    def test_sh_fit_matches_cholesky(self, monkeypatch, degree, count, ridge):
        pytest.importorskip("scipy")
        truth = bandlimited_field(degree, 2, 3, seed=degree)
        pts = random_sphere(count, degree + 1)
        meas = SparseSvMeasurements(pts, truth.predict(pts), truth.freqs_hz)
        config = ShBasisConfig(max_degree=degree, ridge_lambda=ridge)
        got = fit_sh(meas, config).coeffs
        monkeypatch.setattr(interp, "_ridge_solve", cho_ridge_solve)
        want = fit_sh(meas, config).coeffs
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_sh_fit_on_the_default_field_predicts_the_same(self, monkeypatch,
                                                           default_field_samples):
        pytest.importorskip("scipy")
        # on the horizontal plane the harmonics are far from independent and
        # only the ridge holds the normal matrix up, so the coefficients move
        # along near-null directions; the predictions on the plane do not
        grid, meas = default_field_samples
        config = ShBasisConfig(max_degree=ShBasisConfig.default_degree(32))
        got = fit_sh(meas, config).predict(grid.directions())
        monkeypatch.setattr(interp, "_ridge_solve", cho_ridge_solve)
        want = fit_sh(meas, config).predict(grid.directions())
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_nslite_matches_cholesky(self, monkeypatch, default_field_samples):
        pytest.importorskip("scipy")
        # the default normal matrix has a condition number near 1e12, so
        # any two backward-stable solvers differ at this level
        grid, meas = default_field_samples
        got = fit_coordnet(meas, CoordNetConfig()).predict(grid.directions())
        monkeypatch.setattr(interp, "_ridge_solve", cho_ridge_solve)
        want = fit_coordnet(meas, CoordNetConfig()).predict(grid.directions())
        assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))
