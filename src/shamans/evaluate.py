"""Metrics and decision procedures for localization results.

Circular angular error, thresholded peak picking on normalized spectra,
optimal truth-to-estimate assignment, accuracy at an error threshold,
ROC-AUC for source-count classification by peak counting, and the sweep's
per-row and summary CSVs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError, ParameterError, UndefinedMetricError

MISS_COST_DEG = 180.0


def angular_error(truth_deg: float, est_deg: float) -> float:
    """Shortest arc between two azimuths on the circle, in [0, 180]."""
    delta = abs(truth_deg - est_deg) % 360.0
    return min(delta, 360.0 - delta)


def minmax_normalize(values) -> np.ndarray:
    """Map a spectrum to [0, 1]; a constant spectrum maps to all ones."""
    values = np.asarray(values, dtype=np.float64)
    lo, hi = values.min(), values.max()
    if hi == lo:
        return np.ones_like(values)
    return (values - lo) / (hi - lo)


def pick_peaks(spectrum, threshold: float, min_sep_cells: int = 2,
               max_peaks: int = 10) -> list:
    """Greedy circular peak picking on a normalized spectrum.

    Candidates are local maxima (>= both circular neighbors) with value >=
    threshold, taken in descending value with ties broken by lowest index.
    A candidate within ``min_sep_cells`` cells of an already selected peak
    is suppressed, and at most ``max_peaks`` peaks are returned.

    Returns a list of (grid index, value) sorted by descending value.
    """
    if max_peaks < 1:
        raise ParameterError(f"max_peaks must be at least 1, got {max_peaks}")
    if min_sep_cells < 0:
        raise ParameterError(f"min_sep_cells must be nonnegative, got {min_sep_cells}")
    spectrum = np.asarray(spectrum, dtype=np.float64)
    n = spectrum.size
    if n < 2:
        return [(0, float(spectrum[0]))] if n == 1 and spectrum[0] >= threshold else []
    left = np.roll(spectrum, 1)
    right = np.roll(spectrum, -1)
    candidates = np.nonzero((spectrum >= left) & (spectrum >= right)
                            & (spectrum >= threshold))[0]
    order = sorted(candidates, key=lambda i: (-spectrum[i], i))

    picked = []
    for i in order:
        if len(picked) >= max_peaks:
            break
        if all(circular_cell_distance(i, j, n) > min_sep_cells for j, _ in picked):
            picked.append((int(i), float(spectrum[i])))
    return picked


def circular_cell_distance(i: int, j: int, num_cells: int) -> int:
    """Cells between grid indices i and j on a ring of ``num_cells``."""
    d = abs(i - j) % num_cells
    return min(d, num_cells - d)


def _shortest_augmenting_path(cost: np.ndarray) -> tuple:
    """Minimum-cost assignment of a finite [R, C] matrix, R <= C or transposed.

    The rectangular shortest-augmenting-path algorithm of Crouse (IEEE
    TAES 2016) with the tie-breaking of scipy's ``linear_sum_assignment``:
    the unvisited columns are scanned from the highest index down, and on
    equal reduced cost a column that has no row yet wins. Returns
    (row_indices, col_indices) sorted by row.
    """
    transpose = cost.shape[1] < cost.shape[0]
    rows_of = (cost.T if transpose else cost).tolist()
    nr, nc = len(rows_of), len(rows_of[0])
    u, v = [0.0] * nr, [0.0] * nc
    path, col4row, row4col = [-1] * nc, [-1] * nr, [-1] * nc
    for cur in range(nr):
        min_val, i, sink = 0.0, cur, -1
        remaining = list(range(nc - 1, -1, -1))
        seen_rows, seen_cols = [False] * nr, [False] * nc
        dist = [math.inf] * nc
        while sink == -1:
            index, lowest = -1, math.inf
            seen_rows[i] = True
            row, ui = rows_of[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < dist[j]:
                    path[j], dist[j] = i, r
                if dist[j] < lowest or (dist[j] == lowest and row4col[j] == -1):
                    lowest, index = dist[j], it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()
        # update the duals, then flip the path's assignments
        u[cur] += min_val
        for i in range(nr):
            if seen_rows[i] and i != cur:
                u[i] += min_val - dist[col4row[i]]
        for j in range(nc):
            if seen_cols[j]:
                v[j] -= min_val - dist[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    col4row = np.asarray(col4row, dtype=np.intp)
    if transpose:
        order = np.argsort(col4row)
        return col4row[order], order
    return np.arange(nr), col4row


def hungarian_assign(cost) -> tuple:
    """Minimum-cost one-to-one assignment of rows to columns.

    Expects N <= K; a wider-than-tall matrix is handled directly, a
    taller-than-wide one is padded with a large constant so every row still
    receives a column. Returns (row_indices, col_indices, total_cost).
    """
    cost = np.atleast_2d(np.asarray(cost, dtype=np.float64))
    if cost.size == 0:
        return np.empty(0, dtype=int), np.empty(0, dtype=int), 0.0
    if not np.all(np.isfinite(cost)):
        raise ParameterError("assignment costs must be finite")
    n, k = cost.shape
    work = cost
    if n > k:
        pad = np.full((n, n - k), cost.max() + 1.0 + MISS_COST_DEG)
        work = np.hstack([cost, pad])
    rows, cols = _shortest_augmenting_path(work)
    total = float(cost[rows[cols < k], cols[cols < k]].sum())
    return rows, cols, total


def accuracy_at(errors, threshold_deg: float = 15.0) -> float:
    """Fraction of errors strictly below the threshold."""
    if threshold_deg <= 0:
        raise ParameterError("threshold must be positive")
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise UndefinedMetricError("accuracy of an empty error list is undefined")
    return float(np.mean(errors < threshold_deg))


def match_errors(truth_azimuths_deg, est_azimuths_deg) -> np.ndarray:
    """Per-truth angular errors under the optimal assignment.

    Missing estimates (fewer peaks than truths) count as 180 degrees.
    """
    truth = np.asarray(truth_azimuths_deg, dtype=np.float64)
    est = np.asarray(est_azimuths_deg, dtype=np.float64)
    if truth.size == 0:
        return np.empty(0)
    if est.size == 0:
        return np.full(truth.size, MISS_COST_DEG)
    cost = np.array([[angular_error(t, e) for e in est] for t in truth])
    rows, cols, _ = hungarian_assign(cost)
    errors = np.full(truth.size, MISS_COST_DEG)
    for r, c in zip(rows, cols):
        if c < est.size:
            errors[r] = cost[r, c]
    return errors


def auc_source_count(spectra, true_counts, target_n: int, thresholds,
                     min_sep_cells: int = 2, max_peaks: int = 10) -> float:
    """ROC-AUC of the "exactly target_n peaks" source-count classifier.

    Each threshold yields one (FPR, TPR) operating point from classifying
    every scene by whether its peak count equals ``target_n``. The count is
    not monotone in the threshold, so the operating points are sorted by
    FPR and the TPR is monotonized by a running maximum (the attainable
    ROC); the curve is closed with (0,0) and (1,1) and integrated by the
    trapezoidal rule. For a threshold-monotone classifier this reduces to
    the ordinary empirical ROC.
    """
    labels = np.asarray([int(c) == target_n for c in true_counts], dtype=bool)
    if labels.all() or not labels.any():
        raise UndefinedMetricError("AUC needs both positive and negative scenes")
    spectra = [np.asarray(s, dtype=np.float64) for s in spectra]

    points = {(0.0, 0.0), (1.0, 1.0)}
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    for tau in thresholds:
        pred = np.array([len(pick_peaks(s, tau, min_sep_cells, max_peaks)) == target_n
                         for s in spectra])
        tpr = float((pred & labels).sum()) / n_pos
        fpr = float((pred & ~labels).sum()) / n_neg
        points.add((fpr, tpr))
    ordered = sorted(points)
    xs = np.array([p[0] for p in ordered])
    ys = np.maximum.accumulate(np.array([p[1] for p in ordered]))
    return float(np.trapezoid(ys, xs))


@dataclass
class SweepRow:
    """One evaluated (scene, method, SV model) combination of a sweep: a
    line of ``detail.csv``. ``value`` is the swept axis value, "" without an
    axis; a failed step leaves no errors and its message in ``status``."""

    scene_id: str
    axis: str
    value: float | str
    method: str
    sv_model: str
    n_true: int
    n_est: int = 0
    errors_deg: list = field(default_factory=list)
    acc15: float | None = None
    status: str = "ok"


DETAIL_COLUMNS = ["scene_id", "axis", "value", "method", "sv_model", "n_true",
                  "n_est", "err_mean_deg", "err_deg_per_source", "acc15", "status"]


def write_detail(rows, path) -> None:
    """Per-row CSV (RFC 4180, UTF-8), errors and acc15 to six decimals."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(DETAIL_COLUMNS)
        for r in rows:
            errs = r.errors_deg
            writer.writerow([
                r.scene_id, r.axis, r.value, r.method, r.sv_model, r.n_true, r.n_est,
                f"{np.mean(errs):.6f}" if errs else "",
                ";".join(f"{e:.6f}" for e in errs),
                f"{r.acc15:.6f}" if r.acc15 is not None else "", r.status])


def read_detail(path) -> list:
    """The rows of a ``write_detail`` CSV, axis values back as floats; a
    file without its columns, a row with another field count or a value of
    the wrong kind is a FormatError naming the file."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in DETAIL_COLUMNS if c not in (reader.fieldnames or [])]
            if missing:
                raise FormatError(f"{path}: not a detail CSV: no {missing[0]!r} column")
            rows = []
            for rec in reader:
                if None in rec or None in rec.values():  # a long or a short row
                    raise FormatError(f"{path}: line {reader.line_num} does not have "
                                      f"{len(reader.fieldnames)} fields")
                rows.append(SweepRow(
                    scene_id=rec["scene_id"], axis=rec["axis"],
                    value=float(rec["value"]) if rec["value"] else "",
                    method=rec["method"], sv_model=rec["sv_model"],
                    n_true=int(rec["n_true"]), n_est=int(rec["n_est"]),
                    errors_deg=[float(e) for e in rec["err_deg_per_source"].split(";") if e],
                    acc15=float(rec["acc15"]) if rec["acc15"] else None,
                    status=rec["status"]))
            return rows
    except (ValueError, csv.Error) as exc:  # not UTF-8, or a value not a number
        raise FormatError(f"{path}: not a detail CSV ({type(exc).__name__}: {exc})") from exc


def write_summary(rows, path) -> None:
    """Mean and std of the pooled errors and mean acc15 of the ok rows per
    (axis, value, method, SV model), in that order, values numerically."""
    groups: dict = {}
    for r in rows:
        if r.status == "ok":
            groups.setdefault((r.axis, r.value, r.method, r.sv_model), []).append(r)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis", "value", "method", "sv_model", "scenes",
                         "err_mean_deg", "err_std_deg", "acc15_mean"])
        for key, grp in sorted(groups.items()):
            errs = np.asarray([e for r in grp for e in r.errors_deg], dtype=np.float64)
            accs = [r.acc15 for r in grp if r.acc15 is not None]
            writer.writerow([
                *key, len(grp),
                f"{errs.mean():.6f}" if errs.size else "",
                f"{errs.std():.6f}" if errs.size else "",
                f"{np.mean(accs):.6f}" if accs else ""])


def save_spectrum_csv(azimuths_deg, values, path, method_tag: str,
                      metadata: dict | None = None) -> None:
    """Angular spectrum / spatial measure CSV plus a JSON metadata sidecar."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["azimuth_deg", "value", "method_tag"])
        for az, v in zip(azimuths_deg, values):
            writer.writerow([f"{az:.6f}", f"{v:.12g}", method_tag])
    if metadata is not None:
        Path(path).with_suffix(".json").write_text(
            json.dumps(metadata, sort_keys=True, indent=1))
