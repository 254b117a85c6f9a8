"""Tests for metrics: angular error, peaks, assignment, accuracy, AUC."""

import csv
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shamans.errors import ParameterError, UndefinedMetricError
from shamans.evaluate import (
    MISS_COST_DEG,
    _shortest_augmenting_path,
    accuracy_at,
    angular_error,
    auc_source_count,
    SweepRow,
    circular_cell_distance,
    hungarian_assign,
    match_errors,
    minmax_normalize,
    pick_peaks,
    read_detail,
    write_detail,
    write_summary,
)


class TestAngularError:
    def test_wraparound(self):
        assert angular_error(350.0, 10.0) == 20.0

    def test_identity(self):
        assert angular_error(90.0, 90.0) == 0.0

    def test_antipodal(self):
        assert angular_error(0.0, 180.0) == 180.0

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-720, 720), st.floats(-720, 720), st.floats(-720, 720))
    def test_symmetry_and_triangle(self, a, b, c):
        assert angular_error(a, b) == pytest.approx(angular_error(b, a))
        assert 0.0 <= angular_error(a, b) <= 180.0
        assert angular_error(a, c) <= angular_error(a, b) + angular_error(b, c) + 1e-9


def brute_force_peaks(spectrum, threshold, min_sep, max_peaks):
    """Independent oracle: enumerate qualifying maxima, greedy suppression."""
    n = len(spectrum)
    cands = [i for i in range(n)
             if spectrum[i] >= spectrum[(i - 1) % n]
             and spectrum[i] >= spectrum[(i + 1) % n]
             and spectrum[i] >= threshold]
    cands.sort(key=lambda i: (-spectrum[i], i))
    out = []
    for i in cands:
        if len(out) >= max_peaks:
            break
        if all(min(abs(i - j), n - abs(i - j)) > min_sep for j in out):
            out.append(i)
    return out


class TestPickPeaks:
    def test_two_peaks_example(self):
        peaks = pick_peaks(np.array([0.1, 0.9, 0.2, 0.8, 0.1]), 0.5, 1, 10)
        assert {i for i, _ in peaks} == {1, 3}
        assert peaks[0][0] == 1  # sorted by value

    def test_flat_ones_tie_breaking(self):
        peaks = pick_peaks(np.ones(60), 0.5, 2, 60)
        idx = [i for i, _ in peaks]
        assert len(idx) <= 20
        assert idx[0] == 0  # lowest index wins the tie
        assert idx == sorted(idx)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = rng.integers(5, 40)
            spectrum = minmax_normalize(rng.random(n))
            threshold = rng.random() * 0.8
            min_sep = int(rng.integers(0, 4))
            max_peaks = int(rng.integers(1, 8))
            got = [i for i, _ in pick_peaks(spectrum, threshold, min_sep, max_peaks)]
            assert got == brute_force_peaks(spectrum, threshold, min_sep, max_peaks)

    @pytest.mark.parametrize("min_sep, max_peaks, message", [
        (2, 0, "max_peaks must be at least 1, got 0"),
        (2, -1, "max_peaks must be at least 1, got -1"),
        (-1, 10, "min_sep_cells must be nonnegative, got -1"),
    ])
    def test_out_of_range_settings_rejected(self, min_sep, max_peaks, message):
        # also on a spectrum too short to have neighbours
        for spectrum in (np.array([0.1, 0.9, 0.2]), np.ones(1)):
            with pytest.raises(ParameterError, match=message):
                pick_peaks(spectrum, 0.5, min_sep, max_peaks)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0, 1), min_size=4, max_size=30),
           st.floats(0, 1), st.floats(0, 1))
    def test_threshold_monotonicity(self, values, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        spectrum = np.asarray(values)
        assert len(pick_peaks(spectrum, hi, 1, 30)) <= len(pick_peaks(spectrum, lo, 1, 30))


def brute_force_assignment(cost):
    n, k = cost.shape
    best, best_cols = np.inf, None
    for perm in itertools.permutations(range(k), n):
        total = sum(cost[i, perm[i]] for i in range(n))
        if total < best:
            best, best_cols = total, perm
    return best, best_cols


class TestHungarian:
    def test_two_by_two(self):
        rows, cols, total = hungarian_assign([[1.0, 2.0], [2.0, 1.0]])
        assert total == 2.0
        assert dict(zip(rows.tolist(), cols.tolist())) == {0: 0, 1: 1}

    def test_zero_diagonal(self):
        cost = 1.0 - np.eye(4)
        rows, cols, total = hungarian_assign(cost)
        assert total == 0.0
        assert np.array_equal(rows, cols)

    def test_matches_brute_force_100_seeds(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            cost = rng.random((5, 5))
            _rows, _cols, total = hungarian_assign(cost)
            best, _ = brute_force_assignment(cost)
            assert total == pytest.approx(best, abs=1e-12)

    def test_constant_shift_invariance(self):
        # adding a constant to every entry shifts every assignment's total
        # equally, so the argmin assignment cannot change
        for seed in range(20):
            rng = np.random.default_rng(seed)
            cost = rng.random((4, 4))
            r1, c1, t1 = hungarian_assign(cost)
            r2, c2, t2 = hungarian_assign(cost + 13.7)
            assert np.array_equal(c1[np.argsort(r1)], c2[np.argsort(r2)])
            assert t2 == pytest.approx(t1 + 4 * 13.7)

    def test_empty(self):
        rows, cols, total = hungarian_assign(np.empty((0, 0)))
        assert rows.size == 0 and total == 0.0

    def test_more_truths_than_estimates_pads(self):
        cost = np.array([[1.0], [2.0], [3.0]])
        rows, cols, total = hungarian_assign(cost)
        real = [(r, c) for r, c in zip(rows, cols) if c < 1]
        assert len(real) == 1
        assert total == 1.0

    def test_non_finite_cost_raises(self):
        with pytest.raises(ParameterError):
            hungarian_assign([[1.0, np.nan], [2.0, 1.0]])


def grid_error_matrix(rng, n, k):
    """Circular errors between n truths and k estimates on a 6-degree grid:
    small integers, so equal-cost assignments are common."""
    truth = rng.integers(0, 60, n) * 6.0
    est = rng.integers(0, 60, k) * 6.0
    delta = np.abs(truth[:, None] - est[None, :]) % 360.0
    return np.minimum(delta, 360.0 - delta)


class TestAssignmentOracle:
    """The assignment against scipy's linear_sum_assignment, the same
    algorithm and tie-breaking: with tied totals, another optimal pairing
    would change the per-source errors, so the pairs themselves must match."""

    def test_same_pairs_on_tie_heavy_grid_errors(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(2016)
        for _ in range(10_000):
            n, k = int(rng.integers(1, 8)), int(rng.integers(1, 11))
            cost = grid_error_matrix(rng, n, k)
            rows, cols = _shortest_augmenting_path(cost)
            want_rows, want_cols = optimize.linear_sum_assignment(cost)
            assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
            rows, cols, total = hungarian_assign(cost)
            work = cost if n <= k else np.hstack(
                [cost, np.full((n, n - k), cost.max() + 1.0 + MISS_COST_DEG)])
            want_rows, want_cols = optimize.linear_sum_assignment(work)
            assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
            assert total == cost[rows[cols < k], cols[cols < k]].sum()

    def test_same_pairs_on_real_costs(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(6)
        for _ in range(500):
            cost = rng.random((int(rng.integers(1, 8)), int(rng.integers(1, 11))))
            rows, cols = _shortest_augmenting_path(cost)
            want_rows, want_cols = optimize.linear_sum_assignment(cost)
            assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)


class TestAccuracy:
    def test_half(self):
        assert accuracy_at([3.0, 20.0], 15.0) == 0.5

    def test_boundary_is_strict(self):
        assert accuracy_at([15.0], 15.0) == 0.0

    def test_all_zero(self):
        assert accuracy_at([0.0, 0.0, 0.0], 15.0) == 1.0

    def test_empty_raises(self):
        with pytest.raises(UndefinedMetricError):
            accuracy_at([], 15.0)

    def test_bad_threshold(self):
        with pytest.raises(ParameterError):
            accuracy_at([1.0], 0.0)


class TestMatchErrors:
    def test_perfect(self):
        errs = match_errors([0.0, 90.0], [90.0, 0.0])
        assert np.allclose(errs, 0.0)

    def test_missing_estimate_costs_180(self):
        errs = match_errors([0.0, 90.0], [2.0])
        assert sorted(errs.tolist()) == [2.0, 180.0]


def two_peak_spectrum(n, main_idx, side_idx, side_height):
    s = np.zeros(n)
    s[main_idx] = 1.0
    s[side_idx] = side_height
    return s


class TestAuc:
    def test_perfectly_separable(self):
        spectra, labels = [], []
        for i in range(10):
            # true singles have no secondary peak; doubles a high one
            if i % 2 == 0:
                spectra.append(two_peak_spectrum(32, 5, 20, 0.0))
                labels.append(1)
            else:
                spectra.append(two_peak_spectrum(32, 5, 20, 0.9))
                labels.append(2)
        auc = auc_source_count(spectra, labels, target_n=1,
                               thresholds=np.linspace(0.01, 0.99, 99))
        assert auc == pytest.approx(1.0)

    def test_constant_spectra_auc_half(self):
        spectra = [np.ones(16) for _ in range(8)]
        labels = [1, 2, 1, 2, 1, 2, 1, 2]
        auc = auc_source_count(spectra, labels, target_n=1,
                               thresholds=np.linspace(0.0, 1.0, 21))
        assert auc == pytest.approx(0.5)

    def test_matches_mann_whitney(self):
        # secondary-peak heights act as the latent score; with a threshold
        # ladder covering all midpoints the ROC is the empirical one and
        # AUC must equal the rank statistic P(h_pos < h_neg)
        rng = np.random.default_rng(3)
        h_pos = rng.uniform(0.05, 0.55, 15)  # true N = 1 scenes
        h_neg = rng.uniform(0.35, 0.95, 17)  # true N = 2 scenes
        spectra = [two_peak_spectrum(32, 4, 18, h) for h in h_pos]
        labels = [1] * 15
        spectra += [two_peak_spectrum(32, 4, 18, h) for h in h_neg]
        labels += [2] * 17
        all_h = np.sort(np.concatenate([h_pos, h_neg]))
        mids = (all_h[1:] + all_h[:-1]) / 2
        thresholds = np.concatenate([[0.001], mids, [0.999]])
        auc = auc_source_count(spectra, labels, target_n=1, thresholds=thresholds)
        mw = np.mean([[hp < hn for hn in h_neg] for hp in h_pos])
        assert auc == pytest.approx(mw, abs=1e-9)

    def test_single_class_raises(self):
        with pytest.raises(UndefinedMetricError):
            auc_source_count([np.ones(8)] * 4, [1, 1, 1, 1], 1, [0.5])


class TestReporting:
    def test_csv_and_summary(self, tmp_path):
        rows = [
            SweepRow("s0", "", "", "shamans", "ref", 1, 1, [0.0], 1.0),
            SweepRow("s1", "", "", "shamans", "ref", 1, 1, [30.0], 0.0),
            SweepRow("s2", "", "", "shamans", "ref", 1, status="error: x"),
        ]
        path = tmp_path / "m.csv"
        write_detail(rows, path)
        text = path.read_text()
        assert "shamans" in text and "error: x" in text
        assert read_detail(path) == rows
        write_summary(rows, tmp_path / "s.csv")
        with open(tmp_path / "s.csv", newline="") as fh:
            summary = list(csv.DictReader(fh))
        assert len(summary) == 1
        assert int(summary[0]["scenes"]) == 2
        assert float(summary[0]["err_mean_deg"]) == pytest.approx(15.0)
        assert float(summary[0]["acc15_mean"]) == pytest.approx(0.5)

    def test_summary_sorts_axis_values_numerically(self, tmp_path):
        rows = [SweepRow(f"s{v}", "snr_db", v, "shamans", "ref", 1, 1, [0.0], 1.0)
                for v in (5.0, 20.0)]
        write_summary(rows, tmp_path / "s.csv")
        with open(tmp_path / "s.csv", newline="") as fh:
            assert [r["value"] for r in csv.DictReader(fh)] == ["5.0", "20.0"]


class TestCircDist:
    def test_wraps(self):
        assert circular_cell_distance(0, 59, 60) == 1
        assert circular_cell_distance(10, 40, 60) == 30
