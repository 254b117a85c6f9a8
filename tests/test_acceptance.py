"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.

Desk-scale setup shared by the scene-level criteria: 60-point azimuth grid
at 6 degrees and 1.7 m, six microphones randomly placed in an 0.18 m
aperture, 48 kHz audio, 768-sample frames at 50% overlap, bins up to
8 kHz, alpha-stable sources at alpha = 1.5, solver defaults (beta = 1,
lambda = 1e-3, 500 iterations, p = 1).
"""

import itertools
import json
import time

import numpy as np

from shamans.baselines import music_spectrum, srp_phat_spectrum
from shamans.cli import main
from shamans.evaluate import (
    accuracy_at,
    auc_source_count,
    hungarian_assign,
    match_errors,
    minmax_normalize,
    pick_peaks,
)
from shamans.interp import ShBasisConfig, fit_sh, interp_svs, sample_ring
from shamans.scenes import (
    SceneSpec,
    scene_batch,
    synth_scene,
    synthetic_measured_svs,
)
from shamans.signal import Spectrogram, StftParams
from shamans.stable import (
    AlphaParam,
    LevySketch,
    SolverConfig,
    estimate_alpha,
    kl_sparse_objective,
    levy_estimator,
    multiplicative_update,
    sample_sas,
    shamans_localize,
)
from shamans.steering import (
    ArrayGeometry,
    DoaGrid,
    NormalizedSVSet,
    SteeringVectorSet,
    algebraic_svs,
)

GRID = DoaGrid.uniform(60, radius_m=1.7)
PARAMS = StftParams()  # 768/384 @ 48 kHz, 8 kHz band
ARRAY = ArrayGeometry.random_array(num_mics=6, aperture_m=0.18, seed=5)
BIN_HZ = PARAMS.sample_rate / PARAMS.frame_size
FREQS = np.arange(int(PARAMS.f_max_hz / BIN_HZ) + 1) * BIN_HZ


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def oracle_svs():
    return algebraic_svs(ARRAY, GRID, FREQS)


def top_n_errors(spectrum_values, truth, n):
    peaks = pick_peaks(minmax_normalize(spectrum_values), 0.0, 2, n)
    est = [GRID.azimuths_deg[i] for i, _ in peaks]
    return match_errors(truth.azimuths_deg, est)


def test_criterion_01_single_source():
    """30 seeded N=1 scenes at 20 dB: accuracy@15 = 100%, median <= 6 deg."""
    start = time.perf_counter()
    svs = oracle_svs()
    base = SceneSpec(source_indices=[0], seed=101, snr_db=20.0, duration_s=1.0)
    errors = []
    for spec in scene_batch(base, {"n_sources": [1]}, 30, len(GRID)):
        sg, truth = synth_scene(spec, svs, PARAMS)
        measure = shamans_localize(sg, svs, SolverConfig())
        errors.extend(top_n_errors(measure.upsilon, truth, 1).tolist())
    elapsed = time.perf_counter() - start
    acc = accuracy_at(errors, 15.0)
    med = float(np.median(errors))
    ok = acc == 1.0 and med <= 6.0 and elapsed < 300.0
    report(1, ok, f"accuracy@15={acc:.3f} (need 1.0), median={med:.2f} deg "
                  f"(need <= 6), runtime={elapsed:.0f}s (need < 300)")


def make_sketch(seed, num_dirs=8, num_freqs=16, num_mics=6, alpha=1.5):
    """Random SV-structured sketch with exact i_hat = psi @ ups_true."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((num_dirs, num_mics, num_freqs)) \
        + 1j * rng.standard_normal((num_dirs, num_mics, num_freqs))
    a /= np.sum(np.abs(a) ** 2, axis=1, keepdims=True)
    gram = np.einsum("lmf,kmf->flk", a.conj(), a)
    psi = (np.abs(gram) ** alpha).reshape(num_freqs * num_dirs, num_dirs)
    ups_true = np.zeros(num_dirs)
    ups_true[1], ups_true[3] = 2.0, 0.5
    return LevySketch(psi @ ups_true, psi, AlphaParam(alpha), num_freqs), ups_true


def test_criterion_02_update_rule_recovery():
    """Exact sketches: support error < 1%, off-support mass < 1%."""
    worst_sup, worst_off = 0.0, 0.0
    for seed in range(20):
        sketch, ups_true = make_sketch(seed)
        est = multiplicative_update(
            sketch, SolverConfig(beta=1.0, sparsity_lambda=0.0, iterations=500)).upsilon
        support = ups_true > 0
        sup_err = np.max(np.abs(est[support] - ups_true[support]) / ups_true[support])
        off_mass = est[~support].sum() / est.sum()
        worst_sup = max(worst_sup, float(sup_err))
        worst_off = max(worst_off, float(off_mass))
    ok = worst_sup < 0.01 and worst_off < 0.01
    report(2, ok, f"worst support rel err={worst_sup:.4f} (need < 0.01), "
                  f"worst off-support mass={worst_off:.4f} (need < 0.01)")


def test_criterion_03_objective_monotone():
    """KL + L1 objective nonincreasing at every iteration, 20 instances."""
    cfg = SolverConfig(beta=1.0, sparsity_lambda=0.0, iterations=1)
    worst = -np.inf
    for seed in range(20):
        sketch, _ = make_sketch(seed)
        ups = np.ones(8)
        prev = kl_sparse_objective(sketch, ups, cfg.sparsity_lambda)
        for _ in range(500):
            ups = multiplicative_update(sketch, cfg, upsilon0=ups).upsilon
            cur = kl_sparse_objective(sketch, ups, cfg.sparsity_lambda)
            worst = max(worst, (cur - prev) / max(abs(prev), 1e-300))
            prev = cur
    ok = worst <= 1e-9
    report(3, ok, f"worst relative objective increase={worst:.2e} (need <= 1e-9)")


def test_criterion_04_levy_estimator_consistency():
    """Scalar SaS at T=1e5: estimator within 10% of the scale, 10 seeds."""
    grid2 = DoaGrid(np.array([0.0, 180.0]), 1.0)
    svs = NormalizedSVSet(np.ones((2, 1, 1), dtype=complex), grid2, [BIN_HZ])
    worst = 0.0
    for alpha, scale in itertools.product((1.0, 1.5, 1.9), (0.5, 2.0)):
        for seed in range(10):
            x = sample_sas(alpha, scale, 100_000, seed)
            spec = Spectrogram(x.reshape(1, 1, -1), PARAMS.sample_rate,
                               PARAMS.frame_size, PARAMS.hop, first_bin=1)
            i_hat = levy_estimator(spec, svs, AlphaParam(alpha))
            worst = max(worst, abs(i_hat[0] - scale) / scale)
    ok = worst < 0.10
    report(4, ok, f"worst relative scale error={worst:.4f} (need < 0.10)")


def test_criterion_05_alpha_estimation():
    """Gaussian -> [1.85, 2.0]; alpha=1 SaS -> [0.9, 1.1]; 10 seeds each."""
    gauss, cauchy = [], []
    for seed in range(10):
        x = sample_sas(2.0, 1.0, 100_000, seed)
        spec = Spectrogram(x.reshape(1, 1, -1), 48000, 768, 384)
        gauss.append(estimate_alpha(spec).alpha)
        x = sample_sas(1.0, 1.0, 100_000, 1000 + seed)
        spec = Spectrogram(x.reshape(1, 1, -1), 48000, 768, 384)
        cauchy.append(estimate_alpha(spec).alpha)
    ok_g = all(1.85 <= a <= 2.0 for a in gauss)
    ok_c = all(0.9 <= a <= 1.1 for a in cauchy)
    report(5, ok_g and ok_c,
           f"gaussian range=[{min(gauss):.3f},{max(gauss):.3f}] (need [1.85,2]), "
           f"alpha=1 range=[{min(cauchy):.3f},{max(cauchy):.3f}] (need [0.9,1.1])")


def test_criterion_06_sh_exactness():
    """Degree-2 band-limited SVs from 25 samples: held-out error < 1e-6."""
    from shamans.interp import ShCoefficients, fibonacci_sphere, num_sh_coeffs

    rng = np.random.default_rng(606)
    coeffs = rng.standard_normal((num_sh_coeffs(2), 3, 4)) \
        + 1j * rng.standard_normal((num_sh_coeffs(2), 3, 4))
    truth = ShCoefficients(coeffs, np.arange(4) * 500.0 + 500.0, 2)
    train = fibonacci_sphere(25)
    from shamans.interp import SparseSvMeasurements

    meas = SparseSvMeasurements(train, truth.predict(train), truth.freqs_hz)
    fitted = fit_sh(meas, ShBasisConfig(max_degree=2, ridge_lambda=1e-10))
    held = rng.standard_normal((50, 3))
    held /= np.linalg.norm(held, axis=1, keepdims=True)
    ref = truth.predict(held)
    rel = np.linalg.norm(fitted.predict(held) - ref) / np.linalg.norm(ref)
    ok = rel < 1e-6
    report(6, ok, f"held-out relative error={rel:.2e} (need < 1e-6)")


def test_criterion_07_baselines_noiseless_argmax():
    """MUSIC-1 and SRP-PHAT exact argmax on 30 noiseless on-grid scenes."""
    svs = oracle_svs()
    base = SceneSpec(source_indices=[0], seed=707, snr_db=None, duration_s=0.5)
    music_hits = srp_hits = 0
    batch = scene_batch(base, {"n_sources": [1]}, 30, len(GRID))
    for spec in batch:
        sg, truth = synth_scene(spec, svs, PARAMS)
        if int(np.argmax(music_spectrum(sg, svs, 1).values)) == truth.indices[0]:
            music_hits += 1
        if int(np.argmax(srp_phat_spectrum(sg, svs).values)) == truth.indices[0]:
            srp_hits += 1
    ok = music_hits == 30 and srp_hits == 30
    report(7, ok, f"music-1 argmax hits={music_hits}/30, srp-phat hits={srp_hits}/30 "
                  f"(need 30/30 both)")


def test_criterion_08_hungarian_oracle():
    """100 random 5x5 cost matrices match the exhaustive minimum exactly."""
    mismatches = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        cost = rng.random((5, 5))
        _r, _c, total = hungarian_assign(cost)
        best = min(sum(cost[i, p[i]] for i in range(5))
                   for p in itertools.permutations(range(5)))
        if abs(total - best) > 1e-12:
            mismatches += 1
    ok = mismatches == 0
    report(8, ok, f"mismatches={mismatches}/100 (need 0)")


def test_criterion_09_multi_source_trend():
    """N=1..6, 30 seeds: accuracy floor for N<=4 and trend vs MUSIC-4."""
    start = time.perf_counter()
    svs = oracle_svs()
    base = SceneSpec(source_indices=[0], seed=2024, snr_db=20.0, duration_s=1.0)
    acc_sh, acc_mu = {}, {}
    for n in range(1, 7):
        sh_errs, mu_errs = [], []
        for spec in scene_batch(base, {"n_sources": [n]}, 30, len(GRID)):
            sg, truth = synth_scene(spec, svs, PARAMS)
            measure = shamans_localize(sg, svs, SolverConfig())
            sh_errs.extend(top_n_errors(measure.upsilon, truth, n).tolist())
            music = music_spectrum(sg, svs, 4)
            mu_errs.extend(top_n_errors(music.values, truth, n).tolist())
        acc_sh[n] = accuracy_at(sh_errs, 15.0)
        acc_mu[n] = accuracy_at(mu_errs, 15.0)
    elapsed = time.perf_counter() - start
    floor_ok = all(acc_sh[n] >= 0.55 for n in (1, 2, 3, 4))
    trend_ok = all(acc_sh[n] >= acc_mu[n] - 0.05 for n in (3, 4, 5))
    ok = floor_ok and trend_ok and elapsed < 1200.0
    detail = ", ".join(f"N={n}: sh={acc_sh[n]:.2f}/m4={acc_mu[n]:.2f}"
                       for n in range(1, 7))
    report(9, ok, f"{detail}; floors>=0.55 for N<=4: {floor_ok}, "
                  f"trend within 5pp for N in 3..5: {trend_ok}, "
                  f"runtime={elapsed:.0f}s (need < 1200)")


def test_criterion_10_source_count_auc():
    """AUC >= 0.80 for counting N=3 with SH SVs from 32 ring measurements."""
    field = synthetic_measured_svs(ARRAY, GRID.radius_m, FREQS, seed=21,
                                   degree=8, perturb_strength=0.15)
    ref = SteeringVectorSet(field.predict(GRID.directions()), GRID, FREQS)
    meas = sample_ring(field, GRID, 32, seed=9)
    fitted = fit_sh(meas, ShBasisConfig(max_degree=8, ridge_lambda=1e-4))
    interp = interp_svs(fitted, GRID, FREQS)

    base = SceneSpec(source_indices=[0], seed=777, snr_db=20.0, duration_s=1.0)
    batch = scene_batch(base, {"n_sources": [3]}, 30, len(GRID)) \
        + scene_batch(base, {"n_sources": [2]}, 15, len(GRID)) \
        + scene_batch(base, {"n_sources": [4]}, 15, len(GRID))
    spectra, labels = [], []
    for spec in batch:
        sg, truth = synth_scene(spec, ref, PARAMS)
        measure = shamans_localize(sg, interp, SolverConfig())
        spectra.append(minmax_normalize(measure.upsilon))
        labels.append(truth.indices.size)
    auc = auc_source_count(spectra, labels, 3, np.linspace(0.02, 0.98, 97))
    ok = auc >= 0.80
    report(10, ok, f"AUC={auc:.3f} over 60 scenes (need >= 0.80)")


def test_criterion_11a_scaling_argmax_invariance():
    """argmax(upsilon) unchanged under global input scaling, 20 seeds."""
    svs = oracle_svs()
    base = SceneSpec(source_indices=[0], seed=1111, snr_db=30.0, duration_s=0.6)
    failures = 0
    for spec in scene_batch(base, {"n_sources": [1]}, 20, len(GRID)):
        sg, _truth = synth_scene(spec, svs, PARAMS)
        ref_argmax = int(np.argmax(shamans_localize(sg, svs, SolverConfig()).upsilon))
        for c in (0.1, 10.0):
            scaled = Spectrogram(c * sg.bins, sg.sample_rate, sg.frame_size, sg.hop)
            got = int(np.argmax(shamans_localize(scaled, svs, SolverConfig()).upsilon))
            if got != ref_argmax:
                failures += 1
    ok = failures == 0
    report("11a", ok, f"argmax changes under x0.1/x10 scaling: {failures}/40 (need 0)")


def test_criterion_11b_cli_determinism(tmp_path):
    """Identical sweep CSVs for identical master seeds, 20 seeds."""
    cfg = {
        "sample_rate": 16000,
        "stft": {"frame_size": 512, "hop": 256, "f_max_hz": 2000.0},
        "grid": {"count": 16, "radius_m": 1.5},
        "array": {"kind": "random", "num_mics": 4, "aperture_m": 0.12, "seed": 3},
        "solver": {"beta": 1.0, "sparsity_lambda": 0.001, "iterations": 50,
                   "p_norm": 1.0},
        "field": {"degree": 5, "perturb_strength": 0.1, "seed": 5},
        "scene": {"source_indices": [4], "snr_db": 20.0, "duration_s": 0.35,
                  "source_kind": {"kind": "sas", "alpha": 1.5, "scale": 1.0}},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    mismatches = 0
    for seed in range(20):
        outputs = []
        for run in range(2):
            out = tmp_path / f"s{seed}_{run}"
            rc = main(["sweep", "--config", str(cfg_path), "--count", "1",
                       "--methods", "shamans", "--seed", str(seed),
                       "--out", str(out)])
            assert rc == 0
            outputs.append((out / "detail.csv").read_bytes())
        if outputs[0] != outputs[1]:
            mismatches += 1
    ok = mismatches == 0
    report("11b", ok, f"nondeterministic sweeps: {mismatches}/20 (need 0)")
