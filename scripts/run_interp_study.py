#!/usr/bin/env python3
"""Interpolation quality vs measurement budget.

Fits the SH and NS-lite interpolators from N_SV ring measurements of the
synthetic measured SV field, reports the per-frequency reconstruction
error of each fit, and scores source-count classification AUC for
SHAMaNS run with the interpolated steering vectors.
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from shamans.evaluate import auc_source_count, minmax_normalize
from shamans.interp import (
    CoordNetConfig,
    ShBasisConfig,
    fit_coordnet,
    fit_sh,
    interp_error_report,
    interp_svs,
)
from shamans.scenes import SceneSpec, scene_batch, synth_scene, synthetic_measured_svs
from shamans.signal import StftParams
from shamans.stable import SolverConfig, shamans_localize
from shamans.steering import ArrayGeometry, DoaGrid


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/interp_study")
    parser.add_argument("--budgets", default="8,16,32,64,128")
    parser.add_argument("--scenes", type=int, default=20, help="N=3 scenes for AUC")
    parser.add_argument("--seed", type=int, default=777)
    args = parser.parse_args(argv)

    grid = DoaGrid.uniform(60, 1.7)
    params = StftParams()
    freqs = params.freqs_hz
    geometry = ArrayGeometry.random_array(6, 0.18, seed=5)
    field = synthetic_measured_svs(geometry, grid.radius_m, freqs, seed=21)
    ref = field.on_grid(grid)

    base = SceneSpec(source_indices=[0], seed=args.seed, snr_db=20.0, duration_s=1.0)
    batch = scene_batch(base, {"n_sources": [3]}, args.scenes, len(grid)) \
        + scene_batch(base, {"n_sources": [2]}, args.scenes // 2, len(grid)) \
        + scene_batch(base, {"n_sources": [4]}, args.scenes // 2, len(grid))
    scenes_cache = [synth_scene(spec, ref, params) for spec in batch]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for n_sv in (int(v) for v in args.budgets.split(",")):
        meas = field.sample_ring(grid, n_sv, seed=9)
        models = {
            "sh": fit_sh(meas, ShBasisConfig(
                max_degree=min(8, ShBasisConfig.default_degree(n_sv) + 4),
                ridge_lambda=1e-4)),
            "nslite": fit_coordnet(meas, CoordNetConfig(
                num_features=256, feature_scale=32.0, ridge_lambda=1e-4, seed=11)),
        }
        for tag, model in models.items():
            svs = interp_svs(model, grid, freqs)
            err = interp_error_report(ref, svs)
            spectra, labels = [], []
            for (sg, truth) in scenes_cache:
                m = shamans_localize(sg, svs, SolverConfig())
                spectra.append(minmax_normalize(m.upsilon))
                labels.append(truth.indices.size)
            auc = auc_source_count(spectra, labels, 3, np.linspace(0.02, 0.98, 49))
            rows.append((n_sv, tag, float(np.median(err)), float(err.max()), auc))
            print(f"n_sv={n_sv:4d} {tag:7s} median sv err={rows[-1][2]:.4f} "
                  f"max={rows[-1][3]:.4f} AUC={auc:.3f}")

    with open(out / "interp_study.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n_sv", "interpolator", "sv_err_median", "sv_err_max", "auc_n3"])
        writer.writerows(rows)
    print(f"wrote {out / 'interp_study.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
