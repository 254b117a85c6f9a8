"""The benchmark's workloads: seeded inputs, one operation, output checks.

Every workload uses the CLI's default config, so the array geometry and
the synthetic measured SV field are the same for every seed; the seed only
draws the scenes (source placement, signals and noise). Each op is timed
by the caller around ``run``; ``prepare`` and ``check`` are not timed.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import hashlib
import io
import json
from pathlib import Path

import numpy as np

import shamans.signal
from shamans import cli, evaluate, scenes
from shamans.signal import AudioBuffer, write_wav
from shamans.stable import sample_sas
from shamans.steering import SPEED_OF_SOUND, azel_to_unit

NUM_SOURCES = 3
SOURCE_ALPHA = 1.5
SNR_DB = 20.0
# the WAV scene keeps its sources 60 degrees apart: it tests the sketch at
# length, not resolution, which scene-1s covers
AUDIO_MIN_SEP_CELLS = 10


def base_config() -> dict:
    """The CLI default config with 3-source scenes."""
    cfg = copy.deepcopy(cli.load_config(None))
    cfg["scene"]["source_indices"] = [0, 20, 40]  # only the count matters
    cfg["scene"]["snr_db"] = SNR_DB
    cfg["scene"]["source_kind"] = {"kind": "sas", "alpha": SOURCE_ALPHA, "scale": 1.0}
    return cfg


def build_svs(cfg: dict, models, artifact=None) -> list:
    """Grid, array and the SV sets of ``models`` as the CLI resolves them."""
    params = cli.build_stft_params(cfg)
    grid = cli.build_grid(cfg)
    geometry = cli.build_array(cfg)
    out = []
    for model in models:
        sub = copy.deepcopy(cfg)
        sub["sv"] = {"model": model, "path": artifact if model == "sh" else None}
        out.append(cli.resolve_svs(sub, grid, params, geometry))
    return out


class _Localize:
    """Shared op for the single-scene workloads: shamans, peaks, matching."""

    svs_models: tuple = ()
    scenes_per_op = rows_per_op = 1

    def localize(self, spectrogram, svs, truth_az):
        values, _tag, info = cli.run_method("shamans", spectrogram, svs, self.cfg)
        pk = self.cfg["peaks"]
        sep = int(pk["min_sep_cells"])
        peaks = evaluate.pick_peaks(values, float(pk["threshold"]), sep,
                                    int(pk["max_peaks"]))
        forced = evaluate.pick_peaks(values, 0.0, sep, len(truth_az))
        est = [float(svs.grid.azimuths_deg[i]) for i, _ in forced]
        errors = evaluate.match_errors(truth_az, est)
        return values, info, peaks, errors

    def check(self, out) -> tuple:
        """A finite, nonnegative measure of grid length, peaks on grid cells,
        a valid alpha estimate and one matched error per source."""
        values, info, peaks, errors = out
        problems = []
        if values.shape != (len(self.grid),):
            problems.append(f"measure shape {values.shape} != ({len(self.grid)},)")
        elif not (np.all(np.isfinite(values)) and np.all(values >= 0)):
            problems.append("measure not finite and nonnegative")
        for idx, _val in peaks:
            if not (isinstance(idx, int) and 0 <= idx < len(self.grid)):
                problems.append(f"peak {idx!r} is not a grid cell")
        alpha = info.get("alpha")
        if alpha is None or not 0.0 < alpha <= 2.0:
            problems.append(f"alpha estimate {alpha!r} outside (0, 2]")
        errors = np.asarray(errors, dtype=float)
        if errors.shape != (NUM_SOURCES,) or np.any(~np.isfinite(errors)) \
                or np.any(errors < 0) or np.any(errors > 180):
            problems.append("matched errors malformed")
        record = {"peaks": [i for i, _ in peaks], "errors_deg": errors.tolist(),
                  "rows_ok": 0 if problems else 1}
        return problems, record


class SceneWorkload(_Localize):
    """``scene-1s``: 1-s STFT-domain scenes, ref SVs, solver-bound."""

    name = "scene-1s"
    svs_models = ("ref",)

    def __init__(self, work: Path, seed: int, tiny: bool):
        self.cfg = base_config()
        self.params = cli.build_stft_params(self.cfg)
        (self.ref,) = build_svs(self.cfg, self.svs_models)
        self.grid = self.ref.grid
        base = scenes.scene_from_dict(self.cfg["scene"])
        base.seed = seed
        # quality is scored on the first ``quality_ops`` ops, whatever the
        # run length, so it depends on the seed only
        self.quality_ops = 2 if tiny else 80
        self.batch = scenes.scene_batch(base, {}, self.quality_ops, len(self.grid))

    def prepare(self, i: int):
        return scenes.synth_scene(self.batch[i % len(self.batch)], self.ref, self.params)

    def run(self, arg):
        spectrogram, truth = arg
        return self.localize(spectrogram, self.ref, truth.azimuths_deg)


class AudioWorkload(_Localize):
    """``audio-20s``: one 6-channel WAV through the ``localize --audio
    --sv-model alg`` path; bound by the Lévy sketch and by memory."""

    name = "audio-20s"
    svs_models = ("alg",)

    def __init__(self, work: Path, seed: int, tiny: bool):
        self.cfg = base_config()
        self.cfg["sv"]["model"] = "alg"
        self.params = cli.build_stft_params(self.cfg)
        self.grid = cli.build_grid(self.cfg)
        self.geometry = cli.build_array(self.cfg)
        self.wav = work / "scene.wav"
        self.truth_az = write_scene_wav(self.wav, self.cfg, self.geometry, self.grid,
                                        seed, 2.0 if tiny else 20.0)
        self.quality_ops = 1

    def prepare(self, i: int):
        return None

    def run(self, _arg):
        # called through their modules, so that a traced run sees them
        audio = shamans.signal.read_wav(self.wav)
        p = self.params
        spectrogram = shamans.signal.stft(audio, p.frame_size, p.hop, p.f_max_hz)
        svs = cli.resolve_svs(self.cfg, self.grid, p, self.geometry)
        return self.localize(spectrogram, svs, self.truth_az)


def write_scene_wav(path: Path, cfg: dict, geometry, grid, seed: int,
                    duration_s: float) -> np.ndarray:
    """Free-field mixture of SaS sources with white noise, as float32 WAV.

    Sources sit a third of a grid cell off grid directions at least
    ``AUDIO_MIN_SEP_CELLS`` apart, so a correct peak is 2 degrees from the
    truth. Delays and
    1/(4 pi r) gains are applied in the frequency domain; returns the true
    azimuths.
    """
    rate = int(cfg["sample_rate"])
    n = int(round(duration_s * rate))
    rng = np.random.default_rng([seed, 0xA0D10])
    cells = scenes.place_sources(rng, len(grid), NUM_SOURCES, AUDIO_MIN_SEP_CELLS)
    azimuths = grid.azimuths_deg[cells] + grid.cell_deg / 3.0
    positions = grid.radius_m * azel_to_unit(azimuths, grid.elevation_deg)
    dist = np.linalg.norm(positions[:, None, :] - geometry.mic_positions[None], axis=-1)
    freqs = np.fft.rfftfreq(n, 1.0 / rate)
    mix = np.zeros((geometry.num_mics, freqs.size), dtype=np.complex128)
    for s in range(NUM_SOURCES):
        spectrum = np.fft.rfft(sample_sas(SOURCE_ALPHA, 1.0, n, rng).real)
        for m in range(geometry.num_mics):
            r = dist[s, m]
            mix[m] += spectrum * np.exp(-2j * np.pi * freqs * r / SPEED_OF_SOUND) \
                / (4.0 * np.pi * r)
    samples = np.fft.irfft(mix, n, axis=1)
    noise = rng.standard_normal(samples.shape)
    noise *= np.sqrt(np.sum(samples ** 2) / np.sum(noise ** 2) / 10.0 ** (SNR_DB / 10.0))
    write_wav(AudioBuffer(samples + noise, rate), path)
    return azimuths


class SweepWorkload:
    """``sweep-3src``: ``shamans sweep`` over 3 methods x 3 SV models.

    An op is a one-scene sweep, which the CLI runs in-process: it rebuilds
    the SV field, synthesizes the scene, resolves ref, alg and sh SVs and
    runs every method on each. Op i sweeps scene i mod ``quality_ops``, and
    a repeat must reproduce that scene's detail.csv byte for byte.

    ``run_pooled`` is the CLI's process-pool form: one scene per default
    worker. Under the default thread settings its wall time flips between
    runs by 3-7x (BLAS threads of every worker share the cores), too widely
    for a bounded metric, so run.py reports it with the per-layer metrics.
    """

    name = "sweep-3src"
    svs_models = ("ref", "alg", "sh")
    methods = ("shamans", "music-1", "srp-phat")
    scenes_per_op = 1
    rows_per_op = len(methods) * len(svs_models)

    def __init__(self, work: Path, seed: int, tiny: bool):
        cfg = base_config()
        # pin array and field to the default config's derived seeds, so that
        # --seed draws only the scenes
        cfg["array"]["seed"] = scenes.derive_seed(cfg["seed"], "array")
        cfg["field"]["seed"] = scenes.derive_seed(cfg["seed"], "field")
        self.artifact = str(work / "sh.svst")
        cfg["sv"] = {"model": "ref", "path": self.artifact}
        self.config_path = work / "sweep.json"
        self.config_path.write_text(json.dumps(cfg))
        for argv in (["simulate", "--out", str(work / "sim"), "--count", "1",
                      "--emit-ref-svset"],
                     ["fit", "--measurements", str(work / "sim" / "ref.svst"),
                      "--out", self.artifact]):
            if self._cli(argv + ["--config", str(self.config_path)]) != 0:
                raise RuntimeError(f"set-up step failed: shamans {' '.join(argv)}")
        self.work = work
        self.seed = seed
        self.quality_ops = 2 if tiny else 20
        self.digests: dict = {}

    @staticmethod
    def _cli(argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def _sweep(self, out: Path, count: int, seed: int) -> int:
        return self._cli(["sweep", "--config", str(self.config_path), "--out", str(out),
                          "--count", str(count), "--seed", str(seed),
                          "--methods", ",".join(self.methods),
                          "--sv-models", ",".join(self.svs_models)])

    def prepare(self, i: int):
        return i % self.quality_ops

    def run(self, k: int):
        return k, self._sweep(self.work / "sweep", 1, scenes.derive_seed(self.seed, "op", k))

    def check(self, out) -> tuple:
        k, code = out
        problems, ok_rows, digest = read_detail(self.work / "sweep" / "detail.csv",
                                                code, self.rows_per_op)
        if self.digests.setdefault(k, digest) != digest:
            problems.append(f"scene {k}: detail.csv differs from its first sweep")
        # quality is scored on the shamans rows: the baselines' mean errors
        # are small and made of rare misses, so between seeds they swing by
        # 30-60 % (shamans rows: about 11 %, at 20 scenes)
        errors = [e for r in ok_rows if r["method"] == "shamans" for e in r["errors_deg"]]
        record = {"peaks": None, "errors_deg": errors, "digest": digest,
                  "rows_ok": 0 if problems else len(ok_rows)}
        return problems, record

    def run_pooled(self, workers: int) -> list:
        """One pooled sweep of ``workers`` scenes; returns output problems."""
        out = self.work / "pooled"
        code = self._sweep(out, workers, self.seed)
        return read_detail(out / "detail.csv", code, workers * self.rows_per_op)[0]


def read_detail(path: Path, code: int, expect_rows: int) -> tuple:
    """Checks a sweep's detail.csv: exit code, row count and per-source
    errors. Returns (problems, ok rows with parsed "errors_deg", sha256)."""
    problems = [] if code == 0 else [f"sweep exited with {code}"]
    data = path.read_bytes() if path.is_file() else b""
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    if len(rows) != expect_rows:
        problems.append(f"{path.name} has {len(rows)} rows, expected {expect_rows}")
    ok = [r for r in rows if r["status"] == "ok"]
    for r in ok:
        r["errors_deg"] = [float(e) for e in r["err_deg_per_source"].split(";") if e]
        if len(r["errors_deg"]) != NUM_SOURCES or not all(0.0 <= e <= 180.0
                                                           for e in r["errors_deg"]):
            problems.append(f"{r['scene_id']} {r['method']} {r['sv_model']}: "
                            "malformed errors")
    return problems, ok, hashlib.sha256(data).hexdigest()


WORKLOADS = {w.name: w for w in (SceneWorkload, AudioWorkload, SweepWorkload)}
