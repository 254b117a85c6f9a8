"""Tests for alpha estimation, the Lévy sketch, and the multiplicative solver."""

import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shamans import stable
from shamans.errors import EstimationError, ParameterError, ShapeError
from shamans.evaluate import minmax_normalize, pick_peaks
from shamans.signal import Spectrogram, StftParams
from shamans.scenes import SasSourceKind, SceneSpec, scene_batch, synth_scene
from shamans.stable import (
    AlphaParam,
    LevySketch,
    SolverConfig,
    build_psi,
    estimate_alpha,
    kl_sparse_objective,
    levy_estimator,
    multiplicative_update,
    sample_elliptic,
    sample_sas,
    scene_stage,
    shamans_localize,
    sv_stage,
)
from shamans.steering import (
    ArrayGeometry,
    DoaGrid,
    NormalizedSVSet,
    SteeringVectorSet,
    algebraic_svs,
    match_freq_band,
    normalize_svs,
)


def spectrogram_from_samples(samples, n_channels=1):
    """Wrap flat complex samples as a minimal Spectrogram for estimators."""
    samples = np.asarray(samples)
    n = samples.size // n_channels
    bins = samples.reshape(n_channels, 1, n)
    return Spectrogram(bins=bins, sample_rate=48000, frame_size=768, hop=384)


class TestSampleSas:
    def test_zero_scale(self):
        assert np.all(sample_sas(1.5, 0.0, 100, 0) == 0)

    def test_seed_reproducible(self):
        a = sample_sas(1.3, 1.0, 1000, 42)
        b = sample_sas(1.3, 1.0, 1000, 42)
        assert np.array_equal(a, b)

    def test_gaussian_case_levy_exponent(self):
        # alpha = 2: components jointly Gaussian; the empirical Lévy
        # exponent at theta = 1 must match the scale convention
        for scale in (0.5, 2.0):
            s = sample_sas(2.0, scale, 100_000, 7)
            emp = -np.log(np.abs(np.mean(np.exp(1j * np.real(s)))))
            assert abs(emp - scale) / scale < 0.05
        s = sample_sas(2.0, 1.0, 100_000, 8)
        # normality of marginals via excess kurtosis near 0
        for part in (s.real, s.imag):
            k = np.mean((part - part.mean()) ** 4) / np.var(part) ** 2 - 3.0
            assert abs(k) < 0.1

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 1.9])
    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_estimator_consistency(self, alpha, scale):
        # pinned convention: M = 1, a = 1 so the estimator reads the scale
        for seed in range(3):
            x = sample_sas(alpha, scale, 100_000, seed)
            z = np.exp(1j * np.real(x) / 2 ** (1 / alpha))
            i_hat = -2.0 * np.log(np.abs(np.mean(z)))
            assert abs(i_hat - scale) / scale < 0.10

    def test_bad_alpha(self):
        with pytest.raises(ParameterError):
            sample_sas(2.5, 1.0, 10, 0)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.3, 2.0), st.floats(0.01, 100.0), st.integers(0, 2**31))
    def test_kernel_finite_across_alpha(self, alpha, scale, seed):
        s = sample_sas(alpha, scale, 256, seed)
        assert np.all(np.isfinite(s))


class TestEstimateAlpha:
    def test_gaussian_input(self):
        for seed in range(3):
            x = sample_sas(2.0, 1.0, 100_000, seed)
            est = estimate_alpha(spectrogram_from_samples(x))
            assert 1.85 <= est.alpha <= 2.0

    def test_cauchy_like_input(self):
        for seed in range(3):
            x = sample_sas(1.0, 1.0, 100_000, seed + 10)
            est = estimate_alpha(spectrogram_from_samples(x))
            assert 0.9 <= est.alpha <= 1.1

    def test_constant_signal_returns_gaussian_edge(self):
        x = np.full(10_000, 3.0 + 0.0j)
        assert estimate_alpha(spectrogram_from_samples(x)).alpha == 2.0

    def test_all_zero_raises(self):
        with pytest.raises(EstimationError):
            estimate_alpha(spectrogram_from_samples(np.zeros(10_000, dtype=complex)))

    def test_zero_medians_of_a_nonzero_input_give_gaussian_edge(self):
        # every projection's median modulus is 0, but the input is not zero
        x = np.zeros(10_000, dtype=complex)
        x[::7] = 1.0 + 2.0j
        assert estimate_alpha(spectrogram_from_samples(x)).alpha == 2.0

    def test_too_few_samples_raises(self):
        with pytest.raises(EstimationError):
            estimate_alpha(spectrogram_from_samples(np.ones(50, dtype=complex)))

    def test_row_medians_match_numpy(self):
        rng = np.random.default_rng(8)
        for num in (100, 101, 2**15, 2**15 + 1):  # even and odd sample counts
            mags = np.abs(rng.standard_normal((8, num)))
            assert np.array_equal(stable._row_medians(mags.copy()), np.median(mags, axis=1))

    def test_first_estimate_imports_no_numpy_ma(self):
        # np.median's first call in a process imports numpy.ma, which every
        # one-shot `shamans localize` paid for
        script = ("import sys; import numpy as np; "
                  "from shamans.signal import Spectrogram; "
                  "from shamans.stable import estimate_alpha; "
                  "rng = np.random.default_rng(0); "
                  "bins = rng.standard_normal((2, 9, 301)) + 0j; "
                  "estimate_alpha(Spectrogram(bins, 48000, 768, 384)); "
                  "print('numpy.ma' in sys.modules)")
        src = Path(__file__).parent.parent / "src"
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(src),
                                                           os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False"]

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_matches_complex_exp_formula(self, alpha):
        x = sample_sas(alpha, 1.0, 2 * 20_000, 40 + int(10 * alpha))
        spec = spectrogram_from_samples(x, n_channels=2)
        assert abs(estimate_alpha(spec).alpha - seed_estimate_alpha(spec)) <= 1e-12

    @pytest.mark.parametrize("zeros", [False, True])
    def test_above_the_cap_reads_every_sth_sample_bin_major(self, zeros):
        # 9 bins x 11111 frames = 99999 samples per channel, stride 4; the
        # all-zero vectors among the strided ones are left out
        rng = np.random.default_rng(77)
        bins = sample_sas(1.2, 1.0, 2 * 9 * 11111, 77).reshape(2, 9, 11111)
        if zeros:
            bins[:, rng.random((9, 11111)) >= 0.9] = 0.0
        spec = Spectrogram(bins, 48000, 768, 384)
        flat = bins.reshape(2, -1)
        picked = flat[:, ::math.ceil(flat.shape[1] / 2**15)]
        picked = picked[:, np.any(picked, axis=0)]
        assert 2**15 // 2 < picked.shape[1] <= 2**15
        want = seed_estimate_alpha(spectrogram_from_samples(picked, n_channels=2))
        assert abs(estimate_alpha(spec).alpha - want) <= 1e-12

    def test_zero_on_every_strided_sample_gives_gaussian_edge(self):
        # stride 4 over 100000 samples reads only zeros, so the whole input
        # is read: its nonzero samples are one constant, no error
        x = np.zeros(100_000, dtype=complex)
        x[1::4] = 1.0 + 2.0j
        assert estimate_alpha(spectrogram_from_samples(x)).alpha == 2.0

    def test_fewer_than_100_nonzero_vectors_raise(self):
        # 100000 vectors, of which 99, then 100, are nonzero: the strided
        # read finds too few, and the whole-input read counts them
        x = np.zeros(2 * 100_000, dtype=complex)
        spots = np.random.default_rng(5).choice(100_000, 100, replace=False)
        x.reshape(2, -1)[:, spots] = sample_sas(1.5, 1.0, 200, 5).reshape(2, 100)
        few = x.copy()
        few.reshape(2, -1)[:, spots[0]] = 0.0
        with pytest.raises(EstimationError, match="100 nonzero"):
            estimate_alpha(spectrogram_from_samples(few, n_channels=2))
        want = seed_estimate_alpha(spectrogram_from_samples(
            x.reshape(2, -1)[:, np.sort(spots)], n_channels=2))
        assert abs(estimate_alpha(spectrogram_from_samples(x, n_channels=2)).alpha
                   - want) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31), alpha=st.floats(0.8, 2.0),
           zero_share=st.floats(0.0, 0.9), leading=st.booleans())
    def test_zero_frames_leave_alpha(self, seed, alpha, zero_share, leading):
        # digital silence before or between the 320 frames of an input, up
        # to 90 % of all frames, moves alpha by less than 0.1
        bins = sample_sas(alpha, 1.0, 2 * 64 * 320, seed).reshape(2, 64, 320)
        total = round(320 / (1.0 - zero_share))
        frames = np.arange(total - 320, total) if leading else \
            np.sort(np.random.default_rng(seed).choice(total, 320, replace=False))
        padded = np.zeros((2, 64, total), dtype=complex)
        padded[:, :, frames] = bins
        got = estimate_alpha(Spectrogram(padded, 48000, 768, 384)).alpha
        assert abs(got - estimate_alpha(Spectrogram(bins, 48000, 768, 384)).alpha) < 0.1

    @pytest.mark.parametrize("num", [20_000, 100_000])  # below and above the cap
    @settings(max_examples=25, deadline=None)
    @given(log_c=st.floats(-8.0, 9.0))
    def test_scale_invariant(self, num, log_c):
        x = sample_sas(1.4, 1.0, 2 * num, num)
        spec = spectrogram_from_samples(x, n_channels=2)
        scaled = spectrogram_from_samples(10.0 ** log_c * x, n_channels=2)
        assert abs(estimate_alpha(scaled).alpha - estimate_alpha(spec).alpha) <= 1e-12


def seed_estimate_alpha(spec):
    """Reference: one projection at a time, CF moduli from complex exp."""
    flat = spec.bins.reshape(spec.num_channels, -1)
    rng = np.random.default_rng(stable._PROJECTION_SEED)
    proj = rng.standard_normal((8, spec.num_channels)) \
        + 1j * rng.standard_normal((8, spec.num_channels))
    proj /= np.linalg.norm(proj, axis=1, keepdims=True)
    y = np.real(proj.conj() @ flat)
    med = np.median(np.abs(y), axis=1)
    thetas = stable._ECF_THETAS
    slopes = []
    for d in range(8):
        if med[d] == 0:
            continue
        phi = np.abs(np.exp(1j * np.outer(thetas, y[d] / med[d])).mean(axis=1))
        neg_log = -np.log(np.minimum(phi, 1.0))
        if neg_log.max() < 1e-9:
            continue
        slopes.append(np.polyfit(np.log(thetas), np.log(np.maximum(neg_log, 1e-12)), 1)[0])
    return float(np.clip(np.mean(slopes), 0.4, 2.0)) if slopes else 2.0


class TestNormalizeObservations:
    """The p-normalization, as per-vector weights applied inside the sketch."""

    def test_unit_l1_unchanged(self):
        bins = np.zeros((3, 2, 2), dtype=complex)
        bins[0] = 1.0
        spec = Spectrogram(bins, 48000, 768, 384, first_bin=1)
        weights = stable._p_weights(bins, 1.0)
        assert np.array_equal(weights, np.ones((2, 2)))
        svs = unit_svs(np.ones((4, 3, 2), dtype=complex), [62.5, 125.0])
        assert np.array_equal(levy_estimator(spec, svs, AlphaParam(1.5), weights),
                              levy_estimator(spec, svs, AlphaParam(1.5)))

    def test_two_two_vector(self):
        bins = np.full((2, 1, 1), 2.0, dtype=complex)
        weights = stable._p_weights(bins, 1.0)
        assert np.allclose(weights * bins, 0.5)
        spec = Spectrogram(bins, 48000, 768, 384, first_bin=1)
        half = Spectrogram(np.full((2, 1, 1), 0.5, dtype=complex), 48000, 768, 384,
                           first_bin=1)
        svs = unit_svs(np.ones((3, 2, 1), dtype=complex), [62.5])
        assert np.array_equal(levy_estimator(spec, svs, AlphaParam(1.5), weights),
                              levy_estimator(half, svs, AlphaParam(1.5)))

    def test_zero_bins_masked(self):
        # a zero vector, and one whose |x|^p underflows to 0, get weight 0,
        # and the sketch leaves them out of the average
        bins = np.ones((2, 2, 3), dtype=complex)
        bins[:, 1, 2] = 0.0
        bins[:, 0, 1] = 1e-250
        weights = stable._p_weights(bins, 1.5)
        assert weights[1, 2] == 0 and weights[0, 1] == 0
        assert np.allclose(weights[0, 0] * bins[:, 0, 0], 0.5)
        svs = unit_svs(np.ones((3, 2, 2), dtype=complex), [62.5, 125.0])
        spec = Spectrogram(bins, 48000, 768, 384, first_bin=1)
        kept = Spectrogram(np.full((2, 2, 2), 0.5, dtype=complex), 48000, 768, 384,
                           first_bin=1)
        alpha = AlphaParam(1.7)
        assert_cf_close(levy_estimator(spec, svs, alpha, weights),
                        seed_levy(kept, svs, alpha), max_phase(kept, svs, alpha))

    def test_p_nonpositive_raises(self):
        with pytest.raises(ParameterError):
            stable._p_weights(np.ones((1, 1, 1), dtype=complex), 0.0)

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("zeros", [False, True])
    def test_matches_seed_formula(self, p, zeros):
        rng = np.random.default_rng(int(10 * p))
        bins = rng.standard_normal((4, 9, 30)) + 1j * rng.standard_normal((4, 9, 30))
        bins[:, 2, :] = 0.0
        bins[:, :, 7] = 0.0
        if zeros:
            bins[:, rng.random((9, 30)) >= 0.8] = 0.0
        spec = Spectrogram(bins, 48000, 768, 384, first_bin=1)
        before = spec.bins.copy()
        check_weighted_sketch(spec, p)
        assert np.array_equal(spec.bins, before)

    @pytest.mark.parametrize("zeros", [False, True])
    def test_blocks_of_one_bin_match_seed_formula(self, monkeypatch, zeros):
        # |x|^p is 8 * 4 * 61 bytes per bin: blocks of 1 bin
        monkeypatch.setattr(stable, "_BLOCK_BYTES", 8 * 4 * 61)
        rng = np.random.default_rng(3)
        bins = rng.standard_normal((4, 9, 61)) + 1j * rng.standard_normal((4, 9, 61))
        bins[:, :, 5] = 0.0
        if zeros:
            bins[:, rng.random((9, 61)) >= 0.8] = 0.0
        check_weighted_sketch(Spectrogram(bins, 48000, 768, 384, first_bin=1), 1.3)

    @pytest.mark.parametrize("p", [0.03, 0.05])
    def test_small_p_keeps_loud_and_quiet_vectors(self, p):
        # at small p, S = sum |x_m|^p grows slowly with |x|, so a full-scale
        # STFT bin (about 200 through a Hann-768 frame) normalizes to
        # entries |x_m| / S of a few dozen and a 1e-9 one to about 1e-9:
        # neither is near 2^55, so both keep their weight
        rng = np.random.default_rng(5)
        bins = rng.standard_normal((6, 3, 40)) + 1j * rng.standard_normal((6, 3, 40))
        bins[:, :, :20] *= 200.0
        bins[:, :, 20:30] *= 1e-9
        bins[:, 1, 35] = 0.0
        check_weighted_sketch(Spectrogram(bins, 48000, 768, 384, first_bin=1), p)

    @pytest.mark.parametrize("p", [1.5, 0.5])
    def test_out_of_range_normalization_left_out(self, p):
        # p-normalized entries that pass 2^55 (tiny vectors at p > 1,
        # huge ones at p < 1) have float64 phases that are noise already,
        # and would overflow the sketch's float32 operand (tan(inf) is NaN):
        # such vectors get weight 0, like a zero vector
        rng = np.random.default_rng(4)
        bins = rng.standard_normal((4, 3, 20)) + 1j * rng.standard_normal((4, 3, 20))
        bins[:, :, :5] *= 1e-150 if p > 1 else 1e40
        weights = stable._p_weights(bins, p)
        assert np.all(weights[:, :5] == 0) and np.all(weights[:, 5:] > 0)
        spec = Spectrogram(bins, 48000, 768, 384, first_bin=1)
        svs = random_levy_inputs(4, 20, 1.0, False, num_mics=4, num_freqs=3)[1]
        rest = Spectrogram(seed_normalize(spec, p)[:, :, 5:], 48000, 768, 384, first_bin=1)
        alpha = AlphaParam(1.7)
        assert_cf_close(levy_estimator(spec, svs, alpha, weights),
                        seed_levy(rest, svs, alpha), max_phase(rest, svs, alpha))


def seed_normalize(spec, p):
    """Reference: the p-norm normalization with full-size temporaries."""
    norms_p = np.sum(np.abs(spec.bins) ** p, axis=0)
    safe = np.where(norms_p > 0, norms_p, 1.0)
    return np.where(norms_p[None, :, :] > 0, spec.bins / safe[None, :, :], 0.0)


def unit_svs(values, freqs):
    """Wrap explicit values as a NormalizedSVSet on a dummy grid."""
    grid = DoaGrid(np.arange(values.shape[0]) * (360.0 / values.shape[0]), 1.0)
    return NormalizedSVSet(values, grid, freqs, "measured")


class TestLevyEstimator:
    def test_zero_observations(self):
        # no frame of any bin has a nonzero vector: every average is empty,
        # so every cell is clamped, as a zero bin is in shamans_localize
        svs = unit_svs(np.ones((4, 2, 3), dtype=complex), np.arange(1, 4) * 62.5)
        spec = Spectrogram(np.zeros((2, 3, 5), dtype=complex), 48000, 768, 384,
                           first_bin=1)
        with pytest.warns(RuntimeWarning, match="exactly-zero"):
            i_hat = levy_estimator(spec, svs, AlphaParam(1.5))
        assert i_hat.shape == (12,)
        assert np.all(i_hat >= stable._LEVY_CEIL)

    def test_orthogonal_phase_gives_zero(self):
        # real probe, purely imaginary observations: Re(a^H x) = 0
        svs = unit_svs(np.ones((3, 2, 1), dtype=complex), [62.5])
        spec = Spectrogram(1j * np.ones((2, 1, 7)), 48000, 768, 384, first_bin=1)
        i_hat = levy_estimator(spec, svs, AlphaParam(1.2))
        assert np.allclose(i_hat, 0.0)

    def test_scalar_consistency(self):
        x = sample_sas(1.5, 0.7, 100_000, 3)
        spec = Spectrogram(x.reshape(1, 1, -1), 48000, 768, 384, first_bin=1)
        svs = unit_svs(np.ones((2, 1, 1), dtype=complex), [62.5])
        i_hat = levy_estimator(spec, svs, AlphaParam(1.5))
        assert abs(i_hat[0] - 0.7) / 0.7 < 0.10

    def test_nonnegative_on_random_data(self):
        rng = np.random.default_rng(0)
        svs = unit_svs(rng.standard_normal((5, 3, 4)) + 1j * rng.standard_normal((5, 3, 4)),
                       np.arange(1, 5) * 62.5)
        spec = Spectrogram(rng.standard_normal((3, 4, 50)) + 1j * rng.standard_normal((3, 4, 50)),
                           48000, 768, 384, first_bin=1)
        i_hat = levy_estimator(spec, svs, AlphaParam(1.7))
        assert np.all(i_hat >= 0)

    def test_masked_frames_excluded(self):
        svs = unit_svs(np.ones((2, 1, 1), dtype=complex), [62.5])
        bins = np.ones((1, 1, 4), dtype=complex)
        bins[0, 0, 2] = 0.0  # a zero frame, left out of the average
        spec = Spectrogram(bins, 48000, 768, 384, first_bin=1)
        ref = Spectrogram(np.ones((1, 1, 3), dtype=complex), 48000, 768, 384,
                          first_bin=1)
        assert np.allclose(levy_estimator(spec, svs, AlphaParam(1.5)),
                           levy_estimator(ref, svs, AlphaParam(1.5)))

    def test_beyond_float32_range_raises(self):
        # observations near 1e39 overflow the float32 operand, and tan(inf)
        # is NaN: an error, not a NaN sketch
        spec, svs = random_levy_inputs(1, 20, 1e39, False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow
            with pytest.raises(ParameterError, match="float32"):
                levy_estimator(spec, svs, AlphaParam(1.5))

    def test_freq_axis_off_by_micro_hz_raises(self):
        spec = Spectrogram(np.ones((2, 3, 5), dtype=complex), 48000, 768, 384,
                           first_bin=1)
        svs = unit_svs(np.ones((4, 2, 3), dtype=complex),
                       spec.freqs_hz * (1 + 5e-6))
        with pytest.raises(ShapeError):
            levy_estimator(spec, svs, AlphaParam(1.5))


def seed_levy(spec, svs, alpha):
    """Reference sketch: complex einsum and exp over the full [L, F, T] cube."""
    inner = np.einsum("lmf,mft->lft", svs.values.conj(), spec.bins).real
    z = np.exp(1j * inner / 2.0 ** (1.0 / alpha.alpha))
    nonzero = np.any(spec.bins != 0, axis=0)
    mean = (z * nonzero).sum(axis=2) / np.maximum(nonzero.sum(axis=1), 1)
    i_hat = -2.0 * np.log(np.clip(np.abs(mean), 1e-300, 1.0))
    return np.ascontiguousarray(i_hat.T).reshape(-1)


def cf_modulus(i_hat):
    """The empirical CF modulus |mean_t exp(i phase)| a sketch entry encodes."""
    return np.exp(-0.5 * i_hat)


# The float32 sketch's CF modulus m is held to |m - m64| <= c eps32 (1 +
# max |theta|) of the float64 formula's, theta = Re(a~^H y) / 2^(1/alpha)
# the phase. Rounding the operand, the probe and their 2M-term product to
# float32 moves each phase by about eps32 |theta|, and each unit-modulus
# term by as much. The 1 covers the rest: the tangent and the half-angle
# map give u = 2/(1+t^2) near 2 for small phases, so each term carries
# about 2 eps32, and the mean cos = sum(u)/n - 1 inherits the rounding of
# a float32 sum of n terms near 2, a few eps32 more. c = 8 is twice the
# largest c measured over 1500 random inputs at phase scales 0.01-1000
# with up to 60 frames (3.9, at phase scales below 0.2).
CF_BOUND_C = 8.0


def max_phase(spec, svs, alpha):
    """max |theta| over the sketch's phases of ``spec`` as given."""
    inner = np.einsum("lmf,mft->lft", svs.values.conj(), spec.bins).real
    return np.abs(inner).max() / 2.0 ** (1.0 / alpha.alpha)


def assert_cf_close(got, want, theta_max):
    """``got`` within the float32 bound of ``want`` (see CF_BOUND_C)."""
    err = np.max(np.abs(cf_modulus(got) - cf_modulus(want)))
    bound = CF_BOUND_C * np.finfo(np.float32).eps * (1.0 + theta_max)
    assert err <= bound, (err, bound)


def check_weighted_sketch(spec, p, alpha=AlphaParam(1.5)):
    """The p-norm weights of ``spec`` are 1/sum|x|^p of the seed formula (0
    for a zero vector), and the sketch they weigh is within the float32
    bound of the float64 sketch of the seed-normalized bins."""
    weights = stable._p_weights(spec.bins, p)
    norms_p = np.sum(np.abs(spec.bins) ** p, axis=0)
    assert np.array_equal(weights, np.where(norms_p > 0, 1.0, 0.0)
                          / np.where(norms_p > 0, norms_p, 1.0))
    normalized = Spectrogram(seed_normalize(spec, p), 48000, 768, 384, first_bin=1)
    svs = random_levy_inputs(0, 1, 1.0, False, num_mics=spec.num_channels,
                             num_freqs=spec.num_freqs)[1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-zero bins
        got = levy_estimator(spec, svs, alpha, weights)
        want = seed_levy(normalized, svs, alpha)
    assert_cf_close(got, want, max_phase(normalized, svs, alpha))


def random_levy_inputs(seed, num_frames, phase_scale, zeros, num_dirs=5,
                       num_mics=3, num_freqs=4):
    """Random SVs and bins; with ``zeros``, about 30 % of the TF vectors are
    all zero."""
    rng = np.random.default_rng(seed)
    shape = (num_dirs, num_mics, num_freqs)
    svs = unit_svs(rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                   np.arange(1, num_freqs + 1) * 62.5)
    shape = (num_mics, num_freqs, num_frames)
    bins = phase_scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    if zeros:
        bins[:, rng.random((num_freqs, num_frames)) >= 0.7] = 0.0
    return Spectrogram(bins, 48000, 768, 384, first_bin=1), svs


class TestStreamedSketch:
    """The blocked real-matmul sketch against the complex-exp formula."""

    CHUNK = 16  # frames per run under the patched budget below

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # 8 bytes of phase scratch per direction and frame of 5 directions:
        # a bin of more than 16 frames is sketched in runs of 16 frames, so
        # the run edges are reached with a few dozen frames
        monkeypatch.setattr(stable, "_BLOCK_BYTES", 8 * 5 * self.CHUNK)

    @pytest.mark.parametrize("num_frames", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
    @pytest.mark.parametrize("zeros", [False, True])
    def test_matches_oracle(self, num_frames, zeros):
        spec, svs = random_levy_inputs(1, num_frames, 0.5, zeros)
        alpha = AlphaParam(1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # all-zero bins
            got, want = levy_estimator(spec, svs, alpha), seed_levy(spec, svs, alpha)
        assert_cf_close(got, want, max_phase(spec, svs, alpha))

    @pytest.mark.parametrize("num_frames", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
    @pytest.mark.parametrize("zeros", [False, True])
    def test_matches_oracle_past_tangent_poles(self, num_frames, zeros):
        # phases up to ~1e3 wrap through hundreds of tangent poles; a float32
        # phase that large is rounded by ~6e-5, and -2 ln m magnifies that by
        # 2 / m, so the comparison is made on the CF modulus m, which is
        # what the two formulas compute
        spec, svs = random_levy_inputs(2, num_frames, 150.0, zeros)
        alpha = AlphaParam(1.5)
        theta_max = max_phase(spec, svs, alpha)
        assert theta_max > 300
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got, want = levy_estimator(spec, svs, alpha), seed_levy(spec, svs, alpha)
        assert_cf_close(got, want, theta_max)

    def test_peak_memory_independent_of_frames(self, monkeypatch):
        monkeypatch.setattr(stable, "_BLOCK_BYTES", 256 * 2**10)
        run = stable._BLOCK_BYTES // (8 * 40)  # frames of one bin per block
        peaks = []
        for num_frames in (run // 2, 5 * run):  # blocks of 2 bins; runs of 1 bin
            spec, svs = random_levy_inputs(3, num_frames, 1.0, True, num_dirs=40,
                                           num_freqs=16)
            tracemalloc.start()
            try:
                levy_estimator(spec, svs, AlphaParam(1.5))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # a full [L, F, T] complex cube would take 4 MB and 42 MB; beyond
        # the [F, T] weights, kept flags and mask (13 bytes per TF vector),
        # the sketch held 1.3 blocks of scratch at both lengths, and one run
        # of a bin's 4095 frames would take 1.3 MB more
        assert abs(peaks[1] - peaks[0]) < 2e6
        assert peaks[1] < 13 * 16 * 5 * run + 3 * stable._BLOCK_BYTES

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31), num_frames=st.integers(1, 60),
           log_scale=st.floats(-2.0, 3.0), zeros=st.booleans(), alpha=st.floats(0.5, 2.0))
    def test_properties(self, seed, num_frames, log_scale, zeros, alpha):
        # at phase scales 0.01-1000, with and without zero vectors: the
        # estimates are nonnegative, and they, a flip of every vector's sign
        # and a shuffle of the frames are within the float32 bound of the
        # float64 formula
        spec, svs = random_levy_inputs(seed, num_frames, 10.0 ** log_scale, zeros)
        alpha = AlphaParam(alpha)
        perm = np.random.default_rng(seed).permutation(num_frames)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = seed_levy(spec, svs, alpha)
            i_hat = levy_estimator(spec, svs, alpha)
            flipped = levy_estimator(
                Spectrogram(-spec.bins, 48000, 768, 384, first_bin=1), svs, alpha)
            shuffled = levy_estimator(
                Spectrogram(spec.bins[:, :, perm], 48000, 768, 384, first_bin=1), svs, alpha)
        assert np.all(i_hat >= 0)
        for got in (i_hat, flipped, shuffled):
            assert_cf_close(got, want, max_phase(spec, svs, alpha))


def unblocked_levy(spec, svs, alpha, chunk=None, weights=None):
    """Reference: the float32 real-matmul sketch over all bins at once, in
    chunks of ``chunk`` frames (default: all) summed in order in float64."""
    a = svs.values.transpose(2, 0, 1)
    probes = ((0.5 / 2.0 ** (1.0 / alpha.alpha))
              * np.concatenate((a.real, a.imag), axis=2)).astype(np.float32)
    if weights is None:
        weights = np.any(spec.bins, axis=0).astype(np.float64)
    kept = weights != 0
    mask = None if kept.all() else kept.astype(np.float32)
    cos_sum = np.zeros((svs.num_freqs, len(svs.grid)))
    sin_sum = np.zeros_like(cos_sum)
    chunk = chunk or spec.num_frames
    for t0 in range(0, spec.num_frames, chunk):
        x = spec.bins[:, :, t0:t0 + chunk].transpose(1, 0, 2) * weights[:, None, t0:t0 + chunk]
        operand = np.concatenate((x.real, x.imag), axis=1).astype(np.float32)
        c, s = stable._cos_sin_sums(probes @ operand, None if mask is None
                                    else mask[:, None, t0:t0 + chunk])
        cos_sum += c
        sin_sum += s
    counts = np.maximum(kept.sum(axis=1), 1)[:, None]
    mag = np.clip(np.hypot(cos_sum, sin_sum) / counts, 1e-300, 1.0)
    return (-2.0 * np.log(mag)).reshape(-1)


class TestBlockedScratch:
    """The sketch and Psi in cache-sized blocks give the unblocked bits, and
    hold little more than their outputs."""

    @pytest.mark.parametrize("num_freqs", [1, 7])
    @pytest.mark.parametrize("bins_per_block", [1, 3, 100])
    @pytest.mark.parametrize("zeros", [False, True])
    def test_sketch_matches_unblocked(self, monkeypatch, num_freqs, bins_per_block, zeros):
        spec, svs = random_levy_inputs(4, 37, 1.0, zeros, num_freqs=num_freqs)
        # 8 bytes of phase scratch per (direction, frame) of a bin
        monkeypatch.setattr(stable, "_BLOCK_BYTES", 8 * 5 * 37 * bins_per_block)
        alpha = AlphaParam(1.4)
        assert np.array_equal(levy_estimator(spec, svs, alpha),
                              unblocked_levy(spec, svs, alpha))
        weights = stable._p_weights(spec.bins, 1.2)
        assert np.array_equal(levy_estimator(spec, svs, alpha, weights),
                              unblocked_levy(spec, svs, alpha, weights=weights))

    @pytest.mark.parametrize("zeros", [False, True])
    def test_chunked_sketch_matches_unblocked(self, monkeypatch, zeros):
        # a budget below one bin's 61 frames x 5 directions: blocks of 1
        # bin, in runs of 1, 8 or 60 frames
        spec, svs = random_levy_inputs(5, 61, 1.0, zeros, num_freqs=7)
        alpha = AlphaParam(1.4)
        weights = stable._p_weights(spec.bins, 0.7)
        for run in (1, 8, 60):
            monkeypatch.setattr(stable, "_BLOCK_BYTES", 8 * 5 * run)
            assert np.array_equal(levy_estimator(spec, svs, alpha),
                                  unblocked_levy(spec, svs, alpha, chunk=run))
            assert np.array_equal(levy_estimator(spec, svs, alpha, weights),
                                  unblocked_levy(spec, svs, alpha, chunk=run, weights=weights))

    @pytest.mark.parametrize("num_freqs", [1, 7])
    @pytest.mark.parametrize("bins_per_block", [1, 3])
    def test_psi_matches_unblocked(self, monkeypatch, num_freqs, bins_per_block):
        monkeypatch.setattr(stable, "_BLOCK_BYTES", 16 * 12 * 12 * bins_per_block)
        rng = np.random.default_rng(num_freqs)
        shape = (12, 4, num_freqs)
        svs = normalize_svs(SteeringVectorSet(
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
            DoaGrid.uniform(12, 1.7), np.arange(1, num_freqs + 1) * 62.5))
        a = svs.values.transpose(2, 0, 1)
        psi = build_psi(svs, AlphaParam(1.37))
        assert psi.flags.f_contiguous
        want = np.abs(a.conj() @ a.transpose(0, 2, 1)) ** 1.37
        assert np.array_equal(psi, want.reshape(-1, 12))

    @staticmethod
    def peak_bytes(fn):
        tracemalloc.start()
        try:
            out = fn()
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("num_dirs, num_freqs", [(60, 128), (360, 16)])
    def test_peak_memory_of_psi(self, num_dirs, num_freqs):
        rng = np.random.default_rng(num_dirs)
        shape = (num_dirs, 6, num_freqs)
        svs = normalize_svs(SteeringVectorSet(
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
            DoaGrid.uniform(num_dirs, 1.7), np.arange(1, num_freqs + 1) * 62.5))
        peak, psi = self.peak_bytes(lambda: build_psi(svs, AlphaParam(1.5)))
        # the full complex Gram and its moduli took 3 times Psi
        assert peak <= 1.2 * psi.nbytes

    def test_solver_makes_no_copy_of_column_major_psi(self):
        sketch, _ = random_sketch(12, num_dirs=60, num_freqs=128, noise=0.1)
        sketch.psi = np.asfortranarray(sketch.psi)
        peak, _ = self.peak_bytes(
            lambda: multiplicative_update(sketch, SolverConfig(iterations=20)))
        assert peak < 0.05 * sketch.psi.nbytes

    def test_solver_makes_no_copy_of_float32_psi(self):
        sketch, _ = random_sketch(12, num_dirs=60, num_freqs=128, noise=0.1)
        sketch.psi = np.asfortranarray(sketch.psi.astype(np.float32))
        peak, _ = self.peak_bytes(
            lambda: multiplicative_update(sketch, SolverConfig(iterations=20)))
        # one float32 vector for the product and the ratio, and i_hat
        # rounded to float32; a float64 copy of Psi would be twice Psi's bytes
        assert peak < 0.05 * sketch.psi.nbytes

    def test_objective_makes_no_copy_of_float32_psi(self):
        sketch, _ = random_sketch(12, num_dirs=60, num_freqs=128, noise=0.1)
        ups = np.random.default_rng(3).uniform(0.0, 2.0, 60)
        want = kl_sparse_objective(sketch, ups, 1e-3)
        sketch.psi = np.asfortranarray(sketch.psi.astype(np.float32))
        peak, value = self.peak_bytes(lambda: kl_sparse_objective(sketch, ups, 1e-3))
        # before: Psi was cast to float64 for Psi ups, twice Psi's bytes
        assert peak < 0.5 * sketch.psi.nbytes
        assert value == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("num_dirs, num_freqs", [(60, 128), (360, 16)])
    def test_float32_psi_is_the_float64_one_rounded(self, num_dirs, num_freqs):
        rng = np.random.default_rng(num_dirs + 1)
        shape = (num_dirs, 6, num_freqs)
        svs = normalize_svs(SteeringVectorSet(
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
            DoaGrid.uniform(num_dirs, 1.7), np.arange(1, num_freqs + 1) * 62.5))
        alpha = AlphaParam(1.37)
        peak, psi = self.peak_bytes(lambda: build_psi(svs, alpha, dtype=np.float32))
        assert psi.dtype == np.float32 and psi.flags.f_contiguous
        assert np.array_equal(psi, build_psi(svs, alpha).astype(np.float32))
        # a float64 Psi held whole would be twice the float32 one
        assert peak < 1.5 * psi.nbytes

    def test_peak_memory_of_one_second_scene(self):
        _, params, svs = make_scene_setup(seed=9)
        sg, _ = synth_scene(SceneSpec(source_indices=[5, 25, 45], seed=3, snr_db=20.0),
                            svs, params)
        assert sg.num_frames >= 124 and sg.bins.nbytes < 2e6
        peak, _ = self.peak_bytes(lambda: shamans_localize(sg, svs, SolverConfig()))
        # 5.0 MB: Psi (1.8 MB), the normalized SVs (0.7 MB) and the alpha
        # estimate's samples are most of it; the bins are weighed inside the
        # sketch, not copied normalized (1.5 MB, 6.4 MB in all). The
        # whole-cube sketch, Gram and alpha scratch reached 19 MB
        assert peak < 10e6

    def test_peak_memory_of_20_second_band(self):
        # a [6, 129, 2500] input, 20 s at the default STFT (31 MB of bins):
        # the weights (2.6 MB), Psi (1.8 MB) and the sketch's 256-KB blocks
        # make 6.4 MB; whole 4-MB chunks made 9.5 MB one at a time and
        # 19.4 MB two at a time, and the normalized copy of the bins took
        # the peak to 51.4 MB
        params = StftParams()
        svs = algebraic_svs(ArrayGeometry.random_array(6, 0.18, seed=5),
                            DoaGrid.uniform(60, 1.7), params.freqs_hz)
        rng = np.random.default_rng(12)
        shape = (6, 129, 2500)
        bins = np.empty(shape, dtype=complex)
        bins.real = rng.standard_normal(shape)
        bins.imag = rng.standard_normal(shape)
        spec = Spectrogram(bins, params.sample_rate, params.frame_size, params.hop)
        peak, _ = self.peak_bytes(lambda: shamans_localize(spec, svs, SolverConfig(iterations=5)))
        assert peak < 8e6


class TestSketchBlocksAndAlphaMemory:
    """A 1-s scene is sketched in blocks of whole bins, and the alpha
    estimate's memory does not grow with the input."""

    def test_one_second_scene_is_blocks_of_bins_with_one_run_each(self, monkeypatch):
        _, params, svs = make_scene_setup(seed=9)
        sg, _ = synth_scene(SceneSpec(source_indices=[5, 30], seed=10, snr_db=20.0),
                            svs, params)
        assert sg.num_frames >= 124
        blocks, calls = stable._blocks, []

        def spy(*args):
            calls.append((args, blocks(*args)))
            return calls[-1][1]

        monkeypatch.setattr(stable, "_blocks", spy)
        shamans_localize(sg, svs, SolverConfig(iterations=5))
        num_dirs, num_frames = len(svs.grid), sg.num_frames
        [first] = [i for i, (args, _) in enumerate(calls)
                   if args[1:] == (8 * num_dirs * num_frames, stable._BLOCK_BYTES)]
        bin_blocks = calls[first][1]
        assert bin_blocks[0] == (0, 4)  # 4 bins of 124 frames x 60 directions
        # then one call per block of bins, each one run of all frames
        assert calls[first + 1:first + 1 + len(bin_blocks)] == [
            ((num_frames, 8 * num_dirs * (f1 - f0), stable._BLOCK_BYTES), [(0, num_frames)])
            for f0, f1 in bin_blocks]

    def test_peak_memory_of_alpha_estimate(self):
        rng = np.random.default_rng(11)
        for num_frames in (2500, 5000):  # a 20-s and a 40-s input: 31 and 62 MB of bins
            shape = (6, 129, num_frames)
            bins = np.empty(shape, dtype=complex)
            bins.real = rng.standard_normal(shape)
            bins.imag = rng.standard_normal(shape)
            for zeros in (False, True):
                if zeros:  # silence over the first half
                    bins[:, :, :num_frames // 2] = 0.0
                spec = Spectrogram(bins, 48000, 768, 384)
                tracemalloc.start()
                try:
                    estimate_alpha(spec)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                # at most 2^15 samples are read, so the peak does not double
                # with the length; reading every sample took 41-116 MB here
                assert peak < 16e6, (num_frames, zeros)


class TestBuildPsi:
    def test_orthogonal_unit_svs_identity(self):
        values = np.zeros((2, 2, 3), dtype=complex)
        values[0, 0, :] = 1.0
        values[1, 1, :] = 1.0
        psi = build_psi(unit_svs(values, np.arange(1, 4) * 62.5), AlphaParam(1.5))
        assert psi.shape == (6, 2)
        for f in range(3):
            assert np.allclose(psi[2 * f : 2 * f + 2], np.eye(2))

    def test_norm2_diagonal_value(self):
        alpha = 1.5
        a = np.zeros((2, 4, 1), dtype=complex)
        a[0, :, 0] = 1.0  # ||a|| = 2
        a[1, 0, 0] = 1.0
        svs = SteeringVectorSet(a, DoaGrid(np.array([0.0, 180.0]), 1.0), [62.5])
        psi = build_psi(normalize_svs(svs), AlphaParam(alpha))
        assert abs(psi[0, 0] - 0.25**alpha) < 1e-12

    def test_symmetry_for_unit_norm_sets(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            v = rng.standard_normal((6, 3, 2)) + 1j * rng.standard_normal((6, 3, 2))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            psi = build_psi(unit_svs(v, [62.5, 125.0]), AlphaParam(1.3))
            for f in range(2):
                blk = psi[6 * f : 6 * (f + 1)]
                assert np.max(np.abs(blk - blk.T)) < 1e-12

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_matches_einsum_oracle(self, alpha):
        rng = np.random.default_rng(int(10 * alpha))
        shape = (60, 6, 32)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        svs = normalize_svs(SteeringVectorSet(values, DoaGrid.uniform(60, 1.7),
                                              np.arange(1, 33) * 62.5))
        got = build_psi(svs, AlphaParam(alpha))
        assert got.shape == (32 * 60, 60)
        assert np.max(np.abs(got - seed_build_psi(svs, AlphaParam(alpha)))) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.37, 2.0])
    def test_in_place_power_is_bit_identical(self, alpha):
        rng = np.random.default_rng(int(100 * alpha))
        shape = (60, 6, 16)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        svs = normalize_svs(SteeringVectorSet(values, DoaGrid.uniform(60, 1.7),
                                              np.arange(1, 17) * 62.5))
        a = svs.values.transpose(2, 0, 1)
        want = np.abs(a.conj() @ a.transpose(0, 2, 1)) ** alpha
        assert np.array_equal(build_psi(svs, AlphaParam(alpha)), want.reshape(-1, 60))


def seed_build_psi(svs, alpha):
    """Reference: the Gram blocks from one complex einsum."""
    gram = np.einsum("lmf,kmf->flk", svs.values.conj(), svs.values)
    psi = np.abs(gram) ** alpha.alpha
    return psi.reshape(-1, psi.shape[2])


def random_sketch(seed, num_dirs=8, num_freqs=16, num_mics=6, alpha=1.5,
                  support=((1, 2.0), (3, 0.5)), noise=0.0):
    """Synthetic sketch with i_hat = psi @ ups_true, SV-structured psi."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((num_dirs, num_mics, num_freqs)) \
        + 1j * rng.standard_normal((num_dirs, num_mics, num_freqs))
    a /= np.sum(np.abs(a) ** 2, axis=1, keepdims=True)
    gram = np.einsum("lmf,kmf->flk", a.conj(), a)
    psi = (np.abs(gram) ** alpha).reshape(num_freqs * num_dirs, num_dirs)
    ups_true = np.zeros(num_dirs)
    for idx, val in support:
        ups_true[idx] = val
    # noise > 0 scales each entry by a lognormal factor, so the sketch is
    # no longer exactly representable
    i_hat = psi @ ups_true * np.exp(noise * rng.standard_normal(psi.shape[0]))
    sketch = LevySketch(i_hat=i_hat, psi=psi, alpha=AlphaParam(alpha),
                        num_freqs=num_freqs)
    return sketch, ups_true


def seed_multiplicative_update(sketch, config):
    """Reference: the solver loop on Psi in the layout it is given."""
    psi, i_hat = sketch.psi, sketch.i_hat
    ups = np.ones(psi.shape[1])
    for _ in range(config.iterations):
        pv = np.maximum(psi @ ups, 1e-12)
        num = psi.T @ (i_hat / pv)
        den = psi.sum(axis=0) + config.sparsity_lambda
        ups = ups * num / np.maximum(den, 1e-300)
    return ups


def unflushed_multiplicative_update(sketch, config):
    """Reference: the solver loop in Psi's dtype with its float32 operand
    taken as cast, subnormals included; also returns the number of
    iterations whose operand held a subnormal."""
    psi = np.asfortranarray(sketch.psi)
    tiny = np.finfo(np.float32).tiny
    ups = np.ones(psi.shape[1])
    den = np.maximum(psi.sum(axis=0, dtype=np.float64) + config.sparsity_lambda, 1e-300)
    i_hat = sketch.i_hat.astype(psi.dtype)
    subnormal_iterations = 0
    for _ in range(config.iterations):
        operand = ups.astype(psi.dtype)
        subnormal_iterations += bool(np.any((operand != 0) & (np.abs(operand) < tiny)))
        ratio = i_hat / np.maximum(psi @ operand, psi.dtype.type(1e-12))
        ups = ups * (psi.T @ ratio) / den
    return ups, subnormal_iterations


class TestMultiplicativeUpdate:
    def test_identity_one_iteration_exact(self):
        y = np.array([0.3, 0.0, 2.0, 1.1])
        sketch = LevySketch(i_hat=y, psi=np.eye(4), alpha=AlphaParam(1.5), num_freqs=1)
        out = multiplicative_update(sketch, SolverConfig(beta=1.0, sparsity_lambda=0.0,
                                                         iterations=1))
        assert np.allclose(out.upsilon, y)

    def test_huge_lambda_dominates_denominator(self):
        # one step from ones already collapses every entry, and more
        # penalty means less retained mass
        sketch, _ = random_sketch(0)
        masses = []
        for lam in (1e6, 1e9):
            cfg = SolverConfig(beta=1.0, sparsity_lambda=lam, iterations=1)
            first = multiplicative_update(sketch, cfg, upsilon0=np.ones(8)).upsilon
            assert np.all(first < 1e-3)
            cfg10 = SolverConfig(beta=1.0, sparsity_lambda=lam, iterations=10)
            masses.append(multiplicative_update(sketch, cfg10).upsilon.sum())
        assert masses[1] < masses[0] < 1e-2

    def test_forward_synthesis_recovery(self):
        sketch, ups_true = random_sketch(1, num_dirs=4, num_freqs=3, num_mics=4,
                                         support=((1, 2.0), (3, 0.5)))
        out = multiplicative_update(sketch, SolverConfig(beta=1.0, sparsity_lambda=1e-3,
                                                         iterations=500))
        est = out.upsilon
        assert abs(est[1] - 2.0) / 2.0 < 0.05
        assert abs(est[3] - 0.5) / 0.5 < 0.05
        assert est[0] < 0.05 and est[2] < 0.05

    def test_nonnegativity_preserved(self):
        for seed in range(5):
            sketch, _ = random_sketch(seed)
            out = multiplicative_update(sketch, SolverConfig(iterations=50))
            assert np.all(out.upsilon >= 0)

    def test_kl_objective_monotone(self):
        for seed in range(20):
            sketch, _ = random_sketch(seed + 100)
            cfg1 = SolverConfig(beta=1.0, sparsity_lambda=1e-3, iterations=1)
            ups = np.ones(8)
            prev = kl_sparse_objective(sketch, ups, cfg1.sparsity_lambda)
            for _ in range(100):
                ups = multiplicative_update(sketch, cfg1, upsilon0=ups).upsilon
                cur = kl_sparse_objective(sketch, ups, cfg1.sparsity_lambda)
                assert cur <= prev + 1e-9 * abs(prev)
                prev = cur

    def test_exact_fixed_point(self):
        sketch, ups_true = random_sketch(7)
        cfg = SolverConfig(beta=1.0, sparsity_lambda=0.0, iterations=1)
        # fixed point needs a strictly positive iterate; perturb the zeros
        start = np.where(ups_true > 0, ups_true, 0.0)
        out = multiplicative_update(sketch, cfg, upsilon0=start).upsilon
        assert np.max(np.abs(out - start)) < 1e-10

    def test_layout_and_seed_loop_agree(self):
        # full-size system (60 directions, 128 bins), where BLAS splits the
        # products across threads differently for each layout
        sketch, _ = random_sketch(11, num_dirs=60, num_freqs=128,
                                  support=((5, 1.0), (20, 2.0), (41, 0.5)), noise=0.1)
        cfg = SolverConfig(iterations=500)
        assert sketch.psi.flags.c_contiguous
        fortran = LevySketch(sketch.i_hat, np.asfortranarray(sketch.psi),
                             sketch.alpha, sketch.num_freqs)
        got_c = multiplicative_update(sketch, cfg).upsilon
        got_f = multiplicative_update(fortran, cfg).upsilon
        want = seed_multiplicative_update(sketch, cfg)
        scale = np.max(want)
        assert np.max(np.abs(got_c - got_f)) <= 1e-12 * scale
        assert np.max(np.abs(got_c - want)) <= 1e-12 * scale

    @pytest.mark.parametrize("iterations", [1, 9, 50])
    def test_info_late_rel_change(self, iterations):
        sketch, _ = random_sketch(3, noise=0.2)
        out = multiplicative_update(sketch, SolverConfig(iterations=iterations))
        k = iterations - max(1, iterations // 10)
        late = np.ones(8) if k == 0 else \
            multiplicative_update(sketch, SolverConfig(iterations=k)).upsilon
        want = np.abs(out.upsilon - late).sum() / out.upsilon.sum()
        assert np.isfinite(out.info["late_rel_change"])
        assert out.info["late_rel_change"] == pytest.approx(want, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31), num_dirs=st.integers(2, 12),
           num_freqs=st.integers(1, 8), alpha=st.floats(0.5, 2.0),
           lam=st.sampled_from([0.0, 1e-3, 0.1]), noise=st.floats(0.0, 1.0))
    def test_properties(self, seed, num_dirs, num_freqs, alpha, lam, noise):
        # beta = 1 updates are majorize-minimize steps of the KL + L1
        # objective: iterates stay nonnegative and it never increases. The
        # objective sums terms as large as i_hat, so it is known to about
        # 1e-16 * sum(i_hat); an exactly fitted sketch reaches 0 and then
        # rounds to tiny positive values.
        sketch, _ = random_sketch(seed, num_dirs=num_dirs, num_freqs=num_freqs,
                                  num_mics=4, alpha=alpha, noise=noise,
                                  support=((0, 1.0), (num_dirs - 1, 0.5)))
        cfg1 = SolverConfig(beta=1.0, sparsity_lambda=lam, iterations=1)
        slack = 1e-12 * sketch.i_hat.sum()
        ups = np.ones(num_dirs)
        prev = kl_sparse_objective(sketch, ups, lam)
        for _ in range(30):
            ups = multiplicative_update(sketch, cfg1, upsilon0=ups).upsilon
            assert np.all(ups >= 0)
            cur = kl_sparse_objective(sketch, ups, lam)
            assert cur <= prev + 1e-9 * abs(prev) + slack
            prev = cur

    def test_sketch_keeps_float32_psi(self):
        sketch, _ = random_sketch(4)
        kept = LevySketch(sketch.i_hat, sketch.psi.astype(np.float32), sketch.alpha,
                          sketch.num_freqs)
        assert kept.psi.dtype == np.float32 and kept.i_hat.dtype == np.float64
        for other in (np.float16, np.int64):
            widened = LevySketch(sketch.i_hat, sketch.psi.astype(other), sketch.alpha,
                                 sketch.num_freqs)
            assert widened.psi.dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_products_and_ratio_in_psi_dtype(self, dtype):
        # the products, the floor and the ratio in Psi's dtype, the column
        # sums and the update in float64
        sketch, _ = random_sketch(13, num_dirs=60, num_freqs=128,
                                  support=((5, 1.0), (20, 2.0), (41, 0.5)), noise=0.1)
        psi = np.asfortranarray(sketch.psi.astype(dtype))
        i_hat = sketch.i_hat.astype(dtype)
        cfg = SolverConfig(iterations=50)
        ups = np.ones(60)
        den = psi.sum(axis=0, dtype=np.float64) + cfg.sparsity_lambda
        for _ in range(cfg.iterations):
            pv = np.maximum(psi @ ups.astype(dtype), dtype(1e-12))
            ratio = i_hat / pv
            assert ratio.dtype == dtype
            ups = ups * (psi.T @ ratio) / den
        got = multiplicative_update(
            LevySketch(sketch.i_hat, psi, sketch.alpha, sketch.num_freqs), cfg).upsilon
        assert got.dtype == np.float64
        assert np.array_equal(got, ups)

    @pytest.mark.parametrize("num_dirs, num_freqs, scale", [(8, 16, 1e-3),
                                                            (60, 128, 1e-5)])
    def test_measure_below_float32_normal_keeps_bits(self, num_dirs, num_freqs, scale):
        # direction 6 keeps a small fraction of its coherence, so no row
        # needs it: its mass decays through float32's subnormals to 1e-130
        # and below, and the zeroed subnormal operands change no bit of the
        # measure
        sketch, ups_true = random_sketch(0, num_dirs=num_dirs, num_freqs=num_freqs)
        psi = sketch.psi.copy()
        psi[:, 6] *= scale
        sketch = LevySketch(psi @ ups_true, np.asfortranarray(psi.astype(np.float32)),
                            sketch.alpha, sketch.num_freqs)
        cfg = SolverConfig(iterations=500)
        want, subnormal_iterations = unflushed_multiplicative_update(sketch, cfg)
        assert subnormal_iterations > 0 and want[6] < np.finfo(np.float32).tiny
        assert np.array_equal(multiplicative_update(sketch, cfg).upsilon, want)

    @pytest.mark.parametrize("beta", [0.0, 2.0])
    def test_beta_other_than_kl_rejected(self, beta):
        with pytest.raises(ParameterError, match="beta must be 1"):
            SolverConfig(beta=beta)


def make_scene_setup(seed, n_mics=6, grid_size=60):
    grid = DoaGrid.uniform(grid_size, 1.7)
    geom = ArrayGeometry.random_array(n_mics, 0.1, seed=seed)
    params = StftParams()
    bin_hz = params.sample_rate / params.frame_size
    freqs = np.arange(int(params.f_max_hz / bin_hz) + 1) * bin_hz
    svs = algebraic_svs(geom, grid, freqs)
    return grid, params, svs


class TestShamansLocalize:
    def test_single_source_argmax(self):
        grid, params, svs = make_scene_setup(seed=1)
        scene = SceneSpec(source_indices=[17], seed=2, snr_db=None)
        sg, _ = synth_scene(scene, svs, params)
        out = shamans_localize(sg, svs, SolverConfig(iterations=200))
        assert int(np.argmax(out.upsilon)) == 17

    def test_pure_elliptic_noise_is_flat(self):
        grid, params, svs = make_scene_setup(seed=3, grid_size=30)
        f, t = svs.num_freqs, 80
        noise = sample_elliptic(1.6, 1.0, 6, f * t, seed=4).reshape(6, f, t)
        sg = Spectrogram(noise, params.sample_rate, params.frame_size, params.hop)
        out = shamans_localize(sg, svs, SolverConfig(iterations=200))
        ups = out.upsilon
        assert ups.max() / ups.mean() < 3.0

    def test_two_sources_top2(self):
        grid, params, svs = make_scene_setup(seed=5)
        scene = SceneSpec(source_indices=[10, 40], seed=6, snr_db=20.0)
        sg, _ = synth_scene(scene, svs, params)
        out = shamans_localize(sg, svs, SolverConfig(iterations=300))
        top2 = set(np.argsort(out.upsilon)[-2:].tolist())
        for truth_idx in (10, 40):
            assert any(min(abs(p - truth_idx), 60 - abs(p - truth_idx)) <= 1
                       for p in top2)

    def test_scaling_argmax_invariance(self):
        grid, params, svs = make_scene_setup(seed=7)
        scene = SceneSpec(source_indices=[23], seed=8, snr_db=30.0)
        sg, _ = synth_scene(scene, svs, params)
        base = shamans_localize(sg, svs, SolverConfig(iterations=150))
        for c in (0.1, 10.0):
            scaled = Spectrogram(c * sg.bins, sg.sample_rate, sg.frame_size, sg.hop)
            out = shamans_localize(scaled, svs, SolverConfig(iterations=150))
            assert np.argmax(out.upsilon) == np.argmax(base.upsilon)

    def test_noise_scale_indifference(self):
        # sources plus elliptic noise at eps and 2*eps: same argmax
        grid, params, svs = make_scene_setup(seed=9, grid_size=30)
        scene = SceneSpec(source_indices=[11], seed=10, snr_db=None)
        sg, _ = synth_scene(scene, svs, params)
        sig_power = np.mean(np.abs(sg.bins) ** 2)
        eps = sig_power / 100.0  # roughly 20 dB below the source images
        argmaxes = []
        for mult in (1.0, 2.0):
            noise = sample_elliptic(1.5, mult * eps, 6,
                                    sg.num_freqs * sg.num_frames, seed=11)
            noisy = Spectrogram(sg.bins + noise.reshape(sg.bins.shape),
                                sg.sample_rate, sg.frame_size, sg.hop)
            out = shamans_localize(noisy, svs, SolverConfig(iterations=200))
            argmaxes.append(int(np.argmax(out.upsilon)))
        assert argmaxes[0] == argmaxes[1] == 11

    def test_info_counts_masked_bins_and_clamped_cells(self):
        grid, params, svs = make_scene_setup(seed=1, grid_size=30)
        scene = SceneSpec(source_indices=[7], seed=2, snr_db=20.0)
        sg, _ = synth_scene(scene, svs, params)
        clean = shamans_localize(sg, svs, SolverConfig(iterations=20))
        assert clean.info["masked_bins"] == 0 and clean.info["levy_clamped"] == 0
        assert np.isfinite(clean.info["late_rel_change"])
        bins = sg.bins.copy()
        bins[:, 5, :] = 0.0  # one retained bin all zero: masked, CF average 0
        zeroed = Spectrogram(bins, sg.sample_rate, sg.frame_size, sg.hop)
        with pytest.warns(RuntimeWarning, match="exactly-zero"):
            out = shamans_localize(zeroed, svs, SolverConfig(iterations=20))
        assert out.info["masked_bins"] == sg.num_frames
        assert out.info["levy_clamped"] == len(grid)

    def test_tiny_vectors_at_p_above_1_left_out(self):
        # ten frames of 1e-150 vectors at p = 1.5: normalized, their entries
        # reach ~1e75, whose float64 phases are noise and which overflow the
        # float32 sketch (tan(inf) is NaN), so they get weight 0 and count
        # as masked (with no such rule, the NaN measure raised ParameterError)
        grid, params, svs = make_scene_setup(seed=1, grid_size=30)
        scene = SceneSpec(source_indices=[7], source_kind=SasSourceKind(alpha=2.0), seed=2,
                          snr_db=20.0)
        sg, _ = synth_scene(scene, svs, params)
        bins = sg.bins.copy()
        bins[:, :, :10] *= 1e-150
        tiny = Spectrogram(bins, sg.sample_rate, sg.frame_size, sg.hop)
        out = shamans_localize(tiny, svs, SolverConfig(iterations=50, p_norm=1.5))
        assert np.all(np.isfinite(out.upsilon)) and np.argmax(out.upsilon) == 7
        assert out.info["masked_bins"] == 10 * out.info["num_freqs"]
        assert out.info["levy_clamped"] == 0

    def test_loud_vectors_at_small_p_kept(self):
        # at p = 0.05 the normalized entries of loud bins stay far below
        # 2^55 (S grows like |x|^p), so only the all-zero vectors count as
        # masked, as when the bins were normalized in float64
        grid, params, svs = make_scene_setup(seed=1, grid_size=30)
        scene = SceneSpec(source_indices=[7], seed=2, snr_db=20.0)
        sg, _ = synth_scene(scene, svs, params)
        bins = 200.0 * sg.bins / np.abs(sg.bins).max()
        bins[:, 3::5, ::4] = 0.0
        loud = Spectrogram(bins, sg.sample_rate, sg.frame_size, sg.hop)
        out = shamans_localize(loud, svs, SolverConfig(iterations=50, p_norm=0.05))
        band, _ = match_freq_band(loud.freqs_hz, svs.freqs_hz)
        assert np.all(np.isfinite(out.upsilon)) and np.argmax(out.upsilon) == 7
        assert out.info["masked_bins"] == np.count_nonzero(~np.any(bins[:, band], axis=0))
        assert out.info["levy_clamped"] == 0

    def test_info_records_stage_timings_and_precision(self):
        grid, params, svs = make_scene_setup(seed=1, grid_size=30)
        sg, _ = synth_scene(SceneSpec(source_indices=[7], seed=2, snr_db=20.0), svs, params)
        start = time.perf_counter()
        out = shamans_localize(sg, svs, SolverConfig(iterations=20))
        wall_ms = 1e3 * (time.perf_counter() - start)
        timings = out.info["timings_ms"]
        assert set(timings) == {"alpha", "normalize", "sketch", "psi", "solve"}
        assert all(v >= 0.0 for v in timings.values())
        assert sum(timings.values()) <= wall_ms
        assert out.info["psi_dtype"] == "float32"

    @pytest.mark.parametrize("zeros", [False, True])
    def test_matches_full_normalize_then_copy(self, zeros):
        # the band view and the unvalidated sub-sets give what weighing
        # every bin, then copying out the retained ones and their weights,
        # gives
        grid, params, svs = make_scene_setup(seed=16, grid_size=30)
        scene = SceneSpec(source_indices=[4, 19], seed=17, snr_db=20.0)
        sg, _ = synth_scene(scene, svs, params)
        zeroed = np.zeros((sg.num_freqs, sg.num_frames), dtype=bool)
        if zeros:
            zeroed[::7, ::3] = True
            sg = Spectrogram(np.where(zeroed, 0.0, sg.bins), sg.sample_rate,
                             sg.frame_size, sg.hop)
        config = SolverConfig(iterations=50)
        out = shamans_localize(sg, svs, config)

        alpha = estimate_alpha(sg)
        band, sv_idx = match_freq_band(sg.freqs_hz, svs.freqs_hz)
        spec_idx = np.arange(sg.num_freqs)[band]
        weights = stable._p_weights(sg.bins, config.p_norm)[spec_idx]
        sub = Spectrogram(sg.bins[:, spec_idx, :], sg.sample_rate, sg.frame_size,
                          sg.hop, first_bin=sg.first_bin + int(spec_idx[0]))
        tilde = normalize_svs(SteeringVectorSet(svs.values[:, :, sv_idx], svs.grid,
                                                svs.freqs_hz[sv_idx], svs.source_tag))
        i_hat = levy_estimator(sub, tilde, alpha, weights)
        sketch = LevySketch(i_hat, build_psi(tilde, alpha, dtype=np.float32), alpha,
                            spec_idx.size)
        ref = multiplicative_update(sketch, config, grid=svs.grid)
        assert np.array_equal(out.upsilon, ref.upsilon)
        assert out.info["masked_bins"] == int(np.count_nonzero(zeroed[spec_idx]))
        assert {k: out.info[k] for k in ref.info} == ref.info

    def test_p_above_alpha_rejected(self):
        grid, params, svs = make_scene_setup(seed=12, grid_size=30)
        scene = SceneSpec(source_indices=[5], source_kind=SasSourceKind(alpha=1.2),
                          seed=13, snr_db=None)
        sg, _ = synth_scene(scene, svs, params)
        with pytest.raises(ParameterError):
            shamans_localize(sg, svs, SolverConfig(p_norm=1.9))

    def test_normalized_vs_raw_argmax_agree(self):
        # high-SNR single source: p-normalization must not move the argmax
        grid, params, svs = make_scene_setup(seed=14)
        scene = SceneSpec(source_indices=[31], seed=15, snr_db=30.0)
        sg, _ = synth_scene(scene, svs, params)
        alpha = estimate_alpha(sg)
        band, sv_idx = match_freq_band(sg.freqs_hz, svs.freqs_hz)
        spec_idx = np.arange(sg.num_freqs)[band]
        tilde = normalize_svs(SteeringVectorSet(svs.values[:, :, sv_idx], svs.grid,
                                                svs.freqs_hz[sv_idx], svs.source_tag))

        sub = Spectrogram(sg.bins[:, spec_idx, :], sg.sample_rate, sg.frame_size, sg.hop,
                          first_bin=int(spec_idx[0]))

        def run(weights):
            i_hat = levy_estimator(sub, tilde, alpha, weights)
            psi = build_psi(tilde, alpha)
            sk = LevySketch(i_hat, psi, alpha, spec_idx.size)
            return multiplicative_update(sk, SolverConfig(iterations=200)).upsilon

        raw = run(None)
        norm = run(stable._p_weights(sub.bins, 1.0))
        assert np.argmax(raw) == np.argmax(norm) == 31


def solve_both_precisions(sg, svs, config):
    """The measure of shamans_localize (float32 sketch and solve) and that of
    a float64 sketch of seed-normalized bins with a float64 solve."""
    narrow = shamans_localize(sg, svs, config).upsilon
    alpha = estimate_alpha(sg)
    band, sv_idx = match_freq_band(sg.freqs_hz, svs.freqs_hz)
    sub = Spectrogram(sg.bins[:, band], sg.sample_rate, sg.frame_size, sg.hop,
                      first_bin=band.start)
    sub = Spectrogram(seed_normalize(sub, config.p_norm), sg.sample_rate, sg.frame_size,
                      sg.hop, first_bin=band.start)
    tilde = normalize_svs(SteeringVectorSet(svs.values[:, :, sv_idx], svs.grid,
                                            svs.freqs_hz[sv_idx]))
    sketch = LevySketch(seed_levy(sub, tilde, alpha), build_psi(tilde, alpha), alpha,
                        sv_idx.size)
    return narrow, multiplicative_update(sketch, config).upsilon


class TestFloat32Equivalence:
    """The float32 sketch and solve pick the peaks of a float64 sketch and
    solve, forced and thresholded (the default peak settings), with every
    measure value within 1e-4 of the scene's largest."""

    @staticmethod
    def check(batch, svs, params):
        worst = 0.0
        for spec in batch:
            sg, truth = synth_scene(spec, svs, params)
            narrow, wide = solve_both_precisions(sg, svs, SolverConfig())
            n = truth.indices.size
            for thr, count in ((0.0, n), (0.3, 10)):
                picked = [{i for i, _ in pick_peaks(minmax_normalize(u), thr, 2, count)}
                          for u in (narrow, wide)]
                assert picked[0] == picked[1], (spec, thr)
            worst = max(worst, np.max(np.abs(narrow - wide)) / np.max(wide))
        assert worst <= 1e-4

    def test_criterion_09_construction(self):
        # oracle SVs of the acceptance criterion 09 array, 5 scenes per N
        params = StftParams()
        svs = algebraic_svs(ArrayGeometry.random_array(6, 0.18, seed=5),
                            DoaGrid.uniform(60, 1.7), params.freqs_hz)
        base = SceneSpec(source_indices=[0], seed=2024, snr_db=20.0, duration_s=1.0)
        batch = [spec for n in range(1, 7)
                 for spec in scene_batch(base, {"n_sources": [n]}, 5, 60)]
        self.check(batch, svs, params)

    def test_360_directions_16_bins(self):
        params = StftParams(f_max_hz=16 * 62.5)
        svs = algebraic_svs(ArrayGeometry.random_array(6, 0.18, seed=5),
                            DoaGrid.uniform(360, 1.7), params.freqs_hz)
        assert svs.num_freqs == 17  # DC, then the 16 bins the sketch keeps
        base = SceneSpec(source_indices=[0], seed=4048, snr_db=20.0, duration_s=1.0,
                         min_sep_cells=12)
        batch = [spec for n in range(1, 7)
                 for spec in scene_batch(base, {"n_sources": [n]}, 1, 360)]
        self.check(batch, svs, params)


class TestSceneStage:
    """The scene stage (alpha, the p-norm check, the weights) depends on the
    spectrogram alone; one serves every SV set through ``sv_stage``."""

    def test_one_stage_serves_every_sv_set(self):
        grid, params, svs = make_scene_setup(seed=21, grid_size=30)
        sg, _ = synth_scene(SceneSpec(source_indices=[4, 19], seed=22, snr_db=20.0),
                            svs, params)
        other = algebraic_svs(ArrayGeometry.random_array(6, 0.12, seed=23), grid,
                              svs.freqs_hz)
        config = SolverConfig(iterations=60)
        stage = scene_stage(sg, config)
        for sv_set in (svs, other, svs):
            got, want = sv_stage(stage, sv_set), shamans_localize(sg, sv_set, config)
            assert np.array_equal(got.upsilon, want.upsilon)
            assert set(got.info.pop("timings_ms")) == set(want.info.pop("timings_ms"))
            assert got.info == want.info

    def test_weights_cover_every_bin(self):
        # DC included: the SV stage takes the band it needs from them
        _, params, svs = make_scene_setup(seed=24, grid_size=30)
        sg, _ = synth_scene(SceneSpec(source_indices=[9], seed=25, snr_db=20.0),
                            svs, params)
        stage = scene_stage(sg, SolverConfig(p_norm=0.7))
        assert stage.weights.shape == (sg.num_freqs, sg.num_frames)
        assert np.array_equal(stage.weights, stable._p_weights(sg.bins, 0.7))
        assert stage.alpha == estimate_alpha(sg)
        assert set(stage.timings) == {"alpha", "normalize"}

    def test_p_not_below_alpha_stops_the_scene_stage(self, monkeypatch):
        _, params, svs = make_scene_setup(seed=26, grid_size=30)
        sg, _ = synth_scene(SceneSpec(source_indices=[9], seed=27, snr_db=20.0),
                            svs, params)
        weighed = mock.Mock(wraps=stable._p_weights)
        monkeypatch.setattr(stable, "_p_weights", weighed)
        alpha = estimate_alpha(sg).alpha
        with pytest.raises(ParameterError, match=f"p = 1.99 must be below the "
                                                 f"estimated alpha = {alpha:.3f}"):
            scene_stage(sg, SolverConfig(p_norm=1.99))
        weighed.assert_not_called()
