"""Command-line front end: fit interpolators, simulate scenes, localize,
sweep parameters, and aggregate results.

Every command takes a JSON config (see README) with a master seed; a few
common flags override config keys. Exit codes: 0 success, 2 I/O or file
format, 3 numerical/fit failure, 4 incompatible inputs.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

from . import evaluate, scenes
from .baselines import music_spectrum, music_subspaces, phat_covariances, srp_phat_spectrum
from .errors import EXIT_IO, FormatError, ParameterError, ShamansError, ShapeError
from .interp import (
    CoordNetConfig,
    ShBasisConfig,
    ShCoefficients,
    SparseSvMeasurements,
    fit_coordnet,
    fit_sh,
    interp_error_report,
    interp_svs,
    load_fit_artifact,
    save_fit_artifact,
)
from .scenes import (
    derive_seed,
    save_scene,
    scene_batch,
    synth_scene,
    synthetic_measured_svs,
)
from .signal import StftParams, read_wav, stft
from .stable import SolverConfig, scene_stage, sv_stage
from .steering import (
    ArrayGeometry,
    DoaGrid,
    SteeringVectorSet,
    algebraic_svs,
    load_svset,
    save_svset,
)

EXIT_OK = 0  # the error exit codes live on the error classes (errors.py)

# Every config key once, as (default, kind). A kind is "int", "float",
# "str", "ints" or "strs" (a list of them), "positions" (an [M, 3] list of
# numbers) or a tuple of the values the key takes; one ending in "?" also
# takes null, which means no noise (snr_db), no reverb (t60_s), a seed
# derived from the master seed (array.seed, field.seed), or the default.
# A value is read in its kind's type: 768.0 for an "int" key as 768, 1 for
# a "float" key as 1.0, and a number in a tuple as a float.
CONFIG_KEYS = {
    "seed": (0, "int"), "sample_rate": (48000, "int"),
    "stft": {"frame_size": (768, "int"), "hop": (384, "int"), "f_max_hz": (8000.0, "float")},
    "grid": {"count": (60, "int"), "radius_m": (1.7, "float"), "elevation_deg": (0.0, "float")},
    "array": {"kind": ("random", ("random", "positions")), "num_mics": (6, "int"),
              "aperture_m": (0.18, "float"), "seed": (None, "int?"),
              "mic_positions_m": (None, "positions?")},
    "sv": {"model": ("ref", "str"), "path": (None, "str?")}, "method": ("shamans", "str"),
    "solver": {"beta": (1.0, (1,)), "sparsity_lambda": (1e-3, "float"),
               "iterations": (500, "int"), "p_norm": (1.0, "float")},
    "peaks": {"threshold": (0.3, "float"), "min_sep_cells": (2, "int"), "max_peaks": (10, "int")},
    "field": {"degree": (8, "int"), "perturb_strength": (0.15, "float"), "seed": (None, "int?")},
    "scene": {"source_indices": ([17], "ints"), "snr_db": (20.0, "float?"),
              "duration_s": (1.0, "float"), "t60_s": (None, "float?"),
              "min_sep_cells": (2, "int"),
              "source_kind": {"kind": ("sas", ("sas", "wav")), "alpha": (1.5, "float"),
                              "scale": (1.0, "float"), "paths": (None, "strs?")}},
    "fit": {"method": ("sh", ("sh", "nslite")), "n_sv": (32, "int"),
            "max_degree": (None, "int?"), "ridge_lambda": (1e-6, "float"),
            "num_features": (128, "int"), "feature_scale": (2.0, "float")},
}
# a scene file: the config's scene section plus the scene's own seed
SCENE_KEYS = {**CONFIG_KEYS["scene"], "seed": (0, "int")}


def _defaults(keys: dict) -> dict:
    return {key: _defaults(spec) if isinstance(spec, dict) else copy.deepcopy(spec[0])
            for key, spec in keys.items()}


DEFAULT_CONFIG = _defaults(CONFIG_KEYS)


def _is_number(val) -> bool:
    """Whether ``val`` is a JSON number that a float holds: not NaN, not
    infinite, and no integer beyond the float range."""
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and abs(val) <= sys.float_info.max)


def _is_whole(val) -> bool:
    return _is_number(val) and float(val).is_integer()


def _is_positions(val) -> bool:
    """Whether ``val`` is a nonempty [M, 3] list of finite numbers."""
    return (isinstance(val, list) and len(val) > 0
            and all(isinstance(row, list) and len(row) == 3
                    and all(map(_is_number, row))
                    for row in val))


def _list_of(test):
    return lambda val: isinstance(val, list) and all(map(test, val))


def _each(typ):
    return lambda val: list(map(typ, val))


# each leaf kind's test, what a value failing it must be, and the type a
# value passing it is stored in (a value of a tuple kind is a string or a
# float)
_KINDS = {"float": (_is_number, "a number", float), "int": (_is_whole, "an integer", int),
          "str": (lambda val: isinstance(val, str), "a string", str),
          "floats": (_list_of(_is_number), "a list of numbers", _each(float)),
          "ints": (_list_of(_is_whole), "a list of integers", _each(int)),
          "strs": (_list_of(lambda val: isinstance(val, str)), "a list of strings", list),
          "positions": (_is_positions, "an [M, 3] list of numbers", _each(_each(float)))}


def _mismatch(val, kind) -> str | None:
    """What ``val`` must be when it is not of ``kind``, else None. An
    integer kind tests its number kind first: "x" must be "a number" and
    1.5 "an integer". A dict kind is a section."""
    if isinstance(kind, dict):
        return None if isinstance(val, dict) else "an object"
    if isinstance(kind, tuple):
        if val in kind and not isinstance(val, bool):
            return None
        return ("one of " if len(kind) > 1 else "") + ", ".join(map(json.dumps, kind))
    base, nullable = kind.rstrip("?"), kind.endswith("?")
    for name in ({"int": "float", "ints": "floats"}.get(base), base):
        if name and not (val is None and nullable) and not _KINDS[name][0](val):
            return _KINDS[name][1] + (" or null" if nullable else "")
    return None


def _check(doc: dict, keys: dict, source: str, prefix: str = "") -> dict:
    """``doc`` with each value in its key's kind's type. Reject a key that
    ``keys`` does not declare, and a value that is not of its key's kind."""
    out = {}
    for key, val in doc.items():
        name, spec = prefix + key, keys.get(key)
        if spec is None:
            raise FormatError(f"{source}: unknown key {name!r}")
        problem = _mismatch(val, spec if isinstance(spec, dict) else spec[1])
        if problem:
            raise FormatError(f"{source}: key {name!r} must be {problem}, "
                              f"got {json.dumps(val)}")
        if isinstance(spec, dict):
            out[key] = _check(val, spec, source, name + ".")
        elif val is None or isinstance(spec[1], tuple):
            out[key] = float(val) if _is_number(val) else val
        else:
            out[key] = _KINDS[spec[1].rstrip("?")][2](val)
    return out


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = val
    return out


def _given(overrides: dict) -> dict:
    """The overrides without the keys set to None (flags not given)."""
    return {key: _given(val) if isinstance(val, dict) else val
            for key, val in overrides.items() if val is not None}


def _load(path: str | None, keys: dict, overrides: dict | None = None) -> dict:
    """The defaults of ``keys`` merged with the JSON object in ``path`` and
    then with ``overrides``, as a fresh copy. An override of None leaves the
    value as it was."""
    doc = _defaults(keys)
    if path is not None:
        try:
            given = json.loads(Path(path).read_text())
        except ValueError as exc:  # not UTF-8, or not JSON
            raise FormatError(f"{path}: not JSON: {exc}") from exc
        if not isinstance(given, dict):
            raise FormatError(f"{path}: must be a JSON object, not {type(given).__name__}")
        doc = _deep_merge(doc, _check(given, keys, path))
    if overrides:
        # a float flag takes "nan" and "inf"
        doc = _deep_merge(doc, _check(_given(overrides), keys, "command line"))
    # the keys that one value of another key makes necessary
    prefix = "scene." if "scene" in doc else ""
    for section, name, kind, needed in (
            (doc.get("array"), "array.", "positions", "mic_positions_m"),
            (doc.get("scene", doc)["source_kind"], prefix + "source_kind.", "wav", "paths")):
        if section is not None and section["kind"] == kind and section[needed] is None:
            raise FormatError(f"{path or 'overrides'}: key '{name}{needed}' must be "
                              f"given when {name}kind is \"{kind}\"")
    return doc


def load_config(path: str | None, overrides: dict | None = None) -> dict:
    """The default config merged with a JSON config file and then with
    flag overrides; the caller may mutate it."""
    return _load(path, CONFIG_KEYS, overrides)


def load_scene(path) -> scenes.SceneSpec:
    """A scene file, checked and completed with defaults like a config's
    scene section."""
    return scenes.scene_from_dict(_load(path, SCENE_KEYS))


def build_stft_params(config: dict) -> StftParams:
    return StftParams(sample_rate=config["sample_rate"], **config["stft"])


def build_grid(config: dict) -> DoaGrid:
    return DoaGrid.uniform(**config["grid"])


def build_array(config: dict) -> ArrayGeometry:
    a = config["array"]
    if a["kind"] == "positions":
        return ArrayGeometry(np.asarray(a["mic_positions_m"]))
    seed = derive_seed(config["seed"], "array") if a["seed"] is None else a["seed"]
    return ArrayGeometry.random_array(num_mics=a["num_mics"], aperture_m=a["aperture_m"],
                                      seed=seed)


def build_ref(config: dict, geometry: ArrayGeometry, grid: DoaGrid,
              params: StftParams) -> SteeringVectorSet:
    """The ``ref`` SV set: the config's synthetic measured field on the grid."""
    f = config["field"]
    seed = derive_seed(config["seed"], "field") if f["seed"] is None else f["seed"]
    field = synthetic_measured_svs(geometry, grid.radius_m, params.freqs_hz,
                                   seed=seed, degree=f["degree"],
                                   perturb_strength=f["perturb_strength"])
    return SteeringVectorSet(values=field.predict(grid.directions()), grid=grid,
                             freqs_hz=field.freqs_hz, source_tag="measured")


def fit_interpolator(measured: SteeringVectorSet, method: str, config: dict):
    """Fit an ``sh`` or ``nslite`` interpolator to ``fit.n_sv`` directions of
    ``measured``, drawn from the master seed's "svsample" substream, with
    the config's ``fit`` settings."""
    fit_cfg = config["fit"]
    n_sv = fit_cfg["n_sv"]
    if n_sv < 1:
        raise ParameterError(f"fit.n_sv must be at least 1, got {n_sv}")
    if n_sv > measured.num_dirs:
        raise ShapeError(f"requested {n_sv} measurements, set has {measured.num_dirs}")
    rng = np.random.default_rng(derive_seed(config["seed"], "svsample"))
    chosen = np.sort(rng.choice(measured.num_dirs, size=n_sv, replace=False))
    samples = SparseSvMeasurements(directions=measured.grid.directions()[chosen],
                                   values=measured.values[chosen],
                                   freqs_hz=measured.freqs_hz)
    if method == "sh":
        degree = fit_cfg["max_degree"]
        if degree is None:
            degree = ShBasisConfig.default_degree(n_sv)
        return fit_sh(samples, ShBasisConfig(max_degree=degree,
                                             ridge_lambda=fit_cfg["ridge_lambda"]))
    return fit_coordnet(samples, CoordNetConfig(
        num_features=fit_cfg["num_features"], feature_scale=fit_cfg["feature_scale"],
        ridge_lambda=fit_cfg["ridge_lambda"], seed=derive_seed(config["seed"], "nslite")))


def resolve_svs(config: dict, grid: DoaGrid, params: StftParams,
                geometry: ArrayGeometry | None = None,
                ref: SteeringVectorSet | None = None) -> SteeringVectorSet:
    """Steering vectors per the configured model: ref | alg | sh | nslite.

    With ``sv.path`` set, ``ref`` loads that SVSET and ``sh``/``nslite``
    that fit artifact, which must be of their kind. Without it, ``ref`` is
    the measured field on the grid (the ``ref`` set given, else built by
    :func:`build_ref`) and ``sh``/``nslite`` are fitted to it by
    :func:`fit_interpolator`.
    """
    model = config["sv"]["model"]
    path = config["sv"]["path"]
    if model == "alg":
        return algebraic_svs(geometry or build_array(config), grid, params.freqs_hz)
    if model not in ("ref", "sh", "nslite"):
        raise ParameterError(f"unknown sv model {model!r}")
    if path is None:
        if ref is None:
            geometry = geometry or build_array(config)
            ref = build_ref(config, geometry, grid, params)
        if model == "ref":
            return ref
        return interp_svs(fit_interpolator(ref, model, config), grid, params.freqs_hz)
    if model == "ref":
        return load_svset(path)
    fitted = load_fit_artifact(path)
    kind = "sh" if isinstance(fitted, ShCoefficients) else "nslite"
    if kind != model:
        raise ParameterError(f"{path} is an {kind!r} fit artifact, not {model!r}")
    return interp_svs(fitted, grid, params.freqs_hz)


class SceneStages:
    """The stages of each method that depend on one spectrogram alone,
    built on first use and kept for every SV set: the shamans scene stage
    (``stable.scene_stage``), the MUSIC subspaces and the PHAT covariances.
    A failed build is kept too and raised again for each later use, so it
    costs every row that needs it, with one text."""

    def __init__(self, spectrogram, config: dict):
        self._build = {
            "shamans": lambda: scene_stage(spectrogram, SolverConfig(**config["solver"])),
            "music": lambda: music_subspaces(spectrogram),
            "srp-phat": lambda: phat_covariances(spectrogram),
        }
        self._built = {}

    def __getitem__(self, name: str):
        if name not in self._built:
            try:
                self._built[name] = (self._build[name](), None)
            except Exception as exc:
                self._built[name] = (None, (exc, exc.__traceback__))
        value, failure = self._built[name]
        if failure is not None:
            raise failure[0].with_traceback(failure[1])
        return value


def run_method(method: str, spectrogram, svs, config: dict,
               stages: SceneStages | None = None):
    """Dispatch a localizer; returns (normalized values, method tag, info).
    ``stages`` holds the spectrogram's stages shared between calls (a sweep
    passes one per scene to every SV model); without it they are built for
    this call."""
    if stages is None:
        stages = SceneStages(spectrogram, config)
    if method == "shamans":
        measure = sv_stage(stages["shamans"], svs)
        return evaluate.minmax_normalize(measure.upsilon), "shamans", measure.info
    if method.startswith("music-"):
        try:
            rank = int(method.split("-", 1)[1])
        except ValueError:
            raise ParameterError(f"method {method!r}: the MUSIC subspace rank "
                                 "must be an integer") from None
        spectrum = music_spectrum(spectrogram, svs, rank, stages["music"])
        return evaluate.minmax_normalize(spectrum.values), spectrum.method_tag, {}
    if method == "srp-phat":
        spectrum = srp_phat_spectrum(spectrogram, svs, stages["srp-phat"])
        return evaluate.minmax_normalize(spectrum.values), spectrum.method_tag, {}
    raise ParameterError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_fit(args) -> int:
    config = load_config(args.config, {
        "seed": args.seed,
        "fit": {"n_sv": args.n_sv, "method": args.method, "max_degree": args.max_degree,
                "ridge_lambda": args.ridge_lambda}})
    fit_cfg = config["fit"]
    measured = load_svset(args.measurements)
    model = fit_interpolator(measured, fit_cfg["method"], config)
    # the fit's relative SV error per bin, over every measured direction
    sv_err = interp_error_report(measured,
                                 interp_svs(model, measured.grid, measured.freqs_hz))

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_fit_artifact(model, out, {"n_sv": fit_cfg["n_sv"], "fit_method": fit_cfg["method"],
                                   "master_seed": config["seed"],
                                   "sv_err_median": float(np.median(sv_err)),
                                   "sv_err_max": float(sv_err.max())})
    print(f"wrote {out} ({fit_cfg['method']}, {fit_cfg['n_sv']} measurements)")
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = load_config(args.config, {"seed": args.seed})
    params = build_stft_params(config)
    grid = build_grid(config)
    geometry = build_array(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.emit_ref_svset:
        save_svset(build_ref(config, geometry, grid, params), out / "ref.svst")
        print(f"wrote {out / 'ref.svst'}")
    if args.emit_alg_svset:
        save_svset(algebraic_svs(geometry, grid, params.freqs_hz), out / "alg.svst")
        print(f"wrote {out / 'alg.svst'}")

    base = scenes.scene_from_dict({**config["scene"], "seed": config["seed"]})
    batch = scene_batch(base, {}, args.count, len(grid))
    for i, spec in enumerate(batch):
        save_scene(spec, out / f"scene_{i:04d}.json")
    print(f"wrote {len(batch)} scene specs to {out}")
    return EXIT_OK


def _localize_once(config, spectrogram, svs, truth, method, stages=None):
    values, tag, info = run_method(method, spectrogram, svs, config, stages)
    peaks = evaluate.pick_peaks(values, **config["peaks"])
    result = {"values": values, "tag": tag, "info": info, "peaks": peaks}
    if truth is not None and truth.indices.size > 0:
        forced = evaluate.pick_peaks(values, 0.0, config["peaks"]["min_sep_cells"],
                                     truth.indices.size)
        grid_az = svs.grid.azimuths_deg
        est_az = [grid_az[i] for i, _ in forced]
        errors = evaluate.match_errors(truth.azimuths_deg, est_az)
        result["errors_deg"] = errors.tolist()
        result["acc15"] = evaluate.accuracy_at(errors, 15.0)
    return result


def cmd_localize(args) -> int:
    config = load_config(args.config, {
        "seed": args.seed, "method": args.method,
        "sv": {"model": args.sv_model, "path": args.sv_path}})

    params = build_stft_params(config)
    grid = build_grid(config)
    geometry = build_array(config)

    truth = None
    if args.audio is not None:
        audio = read_wav(args.audio)
        spectrogram = stft(audio, params.frame_size, params.hop, params.f_max_hz)
        svs = resolve_svs(config, grid, params, geometry)
    else:
        scene = load_scene(args.scene) if args.scene else scenes.scene_from_dict(
            {**config["scene"], "seed": config["seed"]})
        ref = build_ref(config, geometry, grid, params)
        spectrogram, truth = synth_scene(scene, ref, params)
        svs = resolve_svs(config, grid, params, geometry, ref)

    result = _localize_once(config, spectrogram, svs, truth, config["method"])

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    evaluate.save_spectrum_csv(grid.azimuths_deg, result["values"],
                               out / "spectrum.csv", result["tag"], result["info"])
    doc = {"method": result["tag"], "sv_model": config["sv"]["model"],
           "peaks": [{"index": i, "azimuth_deg": float(grid.azimuths_deg[i]),
                      "value": v} for i, v in result["peaks"]]}
    if "errors_deg" in result:
        doc["errors_deg"] = result["errors_deg"]
        doc["acc15"] = result["acc15"]
    (out / "result.json").write_text(json.dumps(doc, sort_keys=True, indent=1))
    print(f"wrote {out / 'spectrum.csv'} and {out / 'result.json'}")
    return EXIT_OK


def _fault_status(prefix: str, exc: Exception) -> str:
    """Row status for a failed sweep step; an unexpected fault also logs its traceback."""
    if isinstance(exc, (ShamansError, OSError, np.linalg.LinAlgError)):
        return f"{prefix}: {exc}"
    traceback.print_exc(file=sys.stderr)
    return f"{prefix}: {type(exc).__name__}: {exc}"


def _sweep_value(axis: str, text: str) -> float:
    """One ``--values`` entry: a finite number, and for n_sources a
    nonnegative whole one."""
    try:
        val = float(text)
    except ValueError:
        val = math.nan
    if axis == "n_sources":
        need, ok = "a nonnegative whole number", val >= 0 and val.is_integer()
    else:
        need, ok = "a finite number", math.isfinite(val)
    if not ok:
        raise FormatError(f"--values: axis {axis} takes {need}, got {text!r}")
    return val


def cmd_sweep(args) -> int:
    config = load_config(args.config, {"seed": args.seed})
    methods = args.methods.split(",")
    sv_models = args.sv_models.split(",")
    grid = build_grid(config)

    base = scenes.scene_from_dict({**config["scene"], "seed": config["seed"]})
    axis = args.axis
    if bool(axis) != bool(args.values):
        raise FormatError("sweep: --axis and --values go together; give both or neither")
    values = [_sweep_value(axis, v) for v in args.values.split(",")] if axis else [None]
    sweep = {} if axis is None else {axis: values}
    batch = scene_batch(base, sweep, args.count, len(grid))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    # The field and the SV sets are built once and shared by every scene;
    # `ref` is the field the scenes are synthesized with, and a fitted model
    # without sv.path is fitted to it. A failing step costs the rows it
    # would have produced, never the sweep: the field every row, a scene's
    # synthesis that scene's rows, an SV set its model's rows, a method one
    # row. Each scene's SV-independent stages (alpha and the p-norm
    # weights, the MUSIC subspaces, the PHAT covariances) are built once,
    # on first use, and shared by every SV model; a failed one fails the
    # rows of its method, for every SV model.
    field_status, svsets = None, {}
    try:
        params = build_stft_params(config)
        geometry = build_array(config)
        ref = build_ref(config, geometry, grid, params)
    except Exception as exc:
        field_status = _fault_status("scene-error", exc)
    for sv_model in sv_models if field_status is None else ():
        try:
            svsets[sv_model] = ref if sv_model == "ref" else resolve_svs(
                {**config, "sv": {**config["sv"], "model": sv_model}}, grid, params,
                geometry, ref)
        except Exception as exc:
            svsets[sv_model] = _fault_status("sv-error", exc)

    rows = []
    for j, spec in enumerate(batch):
        row = functools.partial(evaluate.SweepRow, f"scene_{j:05d}", axis or "",
                                values[j // args.count] if axis else "",
                                n_true=len(spec.source_indices))
        status = field_status
        if status is None:
            try:
                spectrogram, truth = synth_scene(spec, ref, params)
                stages = SceneStages(spectrogram, config)
            except Exception as exc:
                status = _fault_status("scene-error", exc)
        for sv_model in sv_models:
            svs = status or svsets[sv_model]  # a status string stands for a failure
            for method in methods:
                if isinstance(svs, str):
                    rows.append(row(method, sv_model, status=svs))
                    continue
                try:
                    res = _localize_once(config, spectrogram, svs, truth, method, stages)
                    rows.append(row(method, sv_model, n_est=len(res["peaks"]),
                                    errors_deg=res.get("errors_deg", []),
                                    acc15=res.get("acc15")))
                except Exception as exc:
                    rows.append(row(method, sv_model, status=_fault_status("error", exc)))

    rows.sort(key=lambda r: (r.axis, r.value, r.scene_id, r.method, r.sv_model))
    detail = out / "detail.csv"
    evaluate.write_detail(rows, detail)
    evaluate.write_summary(rows, out / "summary.csv")
    print(f"wrote {detail} ({len(rows)} rows)")
    return EXIT_OK


def cmd_report(args) -> int:
    evaluate.write_summary(evaluate.read_detail(args.detail), args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shamans",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit an SV interpolator from a measured SVSET")
    p_fit.add_argument("--config")
    p_fit.add_argument("--measurements", required=True)
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument("--n-sv", dest="n_sv", type=int)
    p_fit.add_argument("--method", choices=["sh", "nslite"])
    p_fit.add_argument("--max-degree", dest="max_degree", type=int)
    p_fit.add_argument("--ridge-lambda", dest="ridge_lambda", type=float)
    p_fit.add_argument("--seed", type=int)
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="emit scene specs and SV sets")
    p_sim.add_argument("--config")
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--count", type=int, default=1)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--emit-ref-svset", action="store_true")
    p_sim.add_argument("--emit-alg-svset", action="store_true")
    p_sim.set_defaults(func=cmd_simulate)

    p_loc = sub.add_parser("localize", help="run one localizer on a scene or WAV")
    p_loc.add_argument("--config")
    p_loc.add_argument("--scene")
    p_loc.add_argument("--audio")
    p_loc.add_argument("--out", required=True)
    p_loc.add_argument("--method")
    p_loc.add_argument("--sv-model", dest="sv_model")
    p_loc.add_argument("--sv-path", dest="sv_path")
    p_loc.add_argument("--seed", type=int)
    p_loc.set_defaults(func=cmd_localize)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep over scene batches")
    p_sweep.add_argument("--config")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--axis", choices=["snr_db", "t60_s", "n_sources",
                                            "source_alpha"])
    p_sweep.add_argument("--values")
    p_sweep.add_argument("--count", type=int, default=30)
    p_sweep.add_argument("--methods", default="shamans")
    p_sweep.add_argument("--sv-models", dest="sv_models", default="ref")
    p_sweep.add_argument("--seed", type=int)
    p_sweep.set_defaults(func=cmd_sweep)

    p_rep = sub.add_parser("report", help="aggregate a detail CSV into a summary")
    p_rep.add_argument("--detail", required=True)
    p_rep.add_argument("--out", required=True)
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ShamansError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, ShamansError) else EXIT_IO


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
