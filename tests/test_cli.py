"""End-to-end tests of the command-line interface and its exit codes."""

import copy
import csv
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shamans import cli, scenes
from shamans.cli import DEFAULT_CONFIG, load_config, main
from shamans.interp import interp_error_report, interp_svs, load_fit_artifact
from shamans.steering import load_svset

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    """Desk-scale config shared by the CLI tests."""
    cfg = {
        "seed": 7,
        "sample_rate": 16000,
        "stft": {"frame_size": 512, "hop": 256, "f_max_hz": 2000.0},
        "grid": {"count": 24, "radius_m": 1.5},
        "array": {"kind": "random", "num_mics": 4, "aperture_m": 0.08, "seed": 3},
        "sv": {"model": "ref", "path": None},
        "solver": {"beta": 1.0, "sparsity_lambda": 0.001, "iterations": 80,
                   "p_norm": 1.0},
        "field": {"degree": 6, "perturb_strength": 0.1, "seed": 5},
        "scene": {"source_indices": [4], "snr_db": 20.0, "duration_s": 0.4,
                  "source_kind": {"kind": "sas", "alpha": 1.5, "scale": 1.0}},
    }
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def measured_svset(small_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("sv")
    rc = main(["simulate", "--config", str(small_config), "--out", str(out),
               "--emit-ref-svset", "--count", "1"])
    assert rc == 0
    return out / "ref.svst"


@pytest.fixture(scope="module")
def sh_artifact(small_config, measured_svset, tmp_path_factory):
    model = tmp_path_factory.mktemp("fit") / "sh.svst"
    rc = main(["fit", "--config", str(small_config), "--measurements", str(measured_svset),
               "--n-sv", "12", "--method", "sh", "--max-degree", "3", "--out", str(model)])
    assert rc == 0
    return model


@pytest.fixture(scope="module")
def artifact_config(small_config, sh_artifact):
    """The shared config with ``sv.path`` pointing at the SH fit artifact."""
    cfg = json.loads(Path(small_config).read_text())
    cfg["sv"] = {"model": "ref", "path": str(sh_artifact)}
    path = sh_artifact.parent / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def with_n_sv(small_config, tmp_path, n_sv):
    """The shared config with ``fit.n_sv`` set, written under ``tmp_path``."""
    cfg = json.loads(Path(small_config).read_text())
    cfg["fit"] = {"n_sv": n_sv}
    path = tmp_path / "n_sv.json"
    path.write_text(json.dumps(cfg))
    return path


# one value of each number kind, in the other JSON number type
RESPELT = {"int": 3.0, "float": 2, "ints": [3.0], "positions": [[0, 0, 2], [2, 0, 0]], (1,): 1}
# the type the values of each number kind are read in
KIND_TYPES = {"int": int, "float": float, "ints": int, "positions": float, (1,): float}


def kind_name(kind):
    return kind.rstrip("?") if isinstance(kind, str) else kind


def flat(val):
    return [x for v in val for x in flat(v)] if isinstance(val, list) else [val]


def every_number_respelt(keys):
    """A document that gives every number key of ``keys`` a value of
    ``RESPELT``."""
    doc = {}
    for key, spec in keys.items():
        if isinstance(spec, dict):
            doc[key] = every_number_respelt(spec)
        elif kind_name(spec[1]) in RESPELT:
            doc[key] = RESPELT[kind_name(spec[1])]
    return doc


def assert_kind_types(doc, keys):
    for key, val in doc.items():
        spec = keys[key]
        if isinstance(spec, dict):
            assert_kind_types(val, spec)
        elif val is not None and kind_name(spec[1]) in KIND_TYPES:
            want = KIND_TYPES[kind_name(spec[1])]
            assert all(type(x) is want for x in flat(val)), (key, val)


def respell(val):
    """``val`` with each integral number in the other JSON number type: an
    integer as N.0, an integral float as N."""
    if isinstance(val, dict):
        return {key: respell(v) for key, v in val.items()}
    if isinstance(val, list):
        return list(map(respell, val))
    if isinstance(val, bool) or not isinstance(val, (int, float)) \
            or not float(val).is_integer():
        return val
    return float(val) if isinstance(val, int) else int(val)


class TestFit:
    def test_fit_and_localize_roundtrip(self, small_config, measured_svset, tmp_path):
        model = tmp_path / "model.svst"
        rc = main(["fit", "--config", str(small_config),
                   "--measurements", str(measured_svset),
                   "--n-sv", "12", "--method", "sh", "--max-degree", "3",
                   "--ridge-lambda", "1e-4", "--out", str(model)])
        assert rc == 0
        assert model.exists() and model.with_suffix(".json").exists()
        out = tmp_path / "loc"
        rc = main(["localize", "--config", str(small_config),
                   "--sv-model", "sh", "--sv-path", str(model),
                   "--out", str(out)])
        assert rc == 0

    def test_underdetermined_exits_3(self, small_config, measured_svset, tmp_path):
        rc = main(["fit", "--config", str(small_config),
                   "--measurements", str(measured_svset),
                   "--n-sv", "8", "--method", "sh", "--max-degree", "5",
                   "--ridge-lambda", "0.0", "--out", str(tmp_path / "bad.svst")])
        assert rc == 3

    def test_same_seed_identical_bytes(self, small_config, measured_svset, tmp_path):
        p1, p2 = tmp_path / "a.svst", tmp_path / "b.svst"
        for p in (p1, p2):
            rc = main(["fit", "--config", str(small_config),
                       "--measurements", str(measured_svset),
                       "--n-sv", "12", "--method", "nslite",
                       "--seed", "99", "--out", str(p)])
            assert rc == 0
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.with_suffix(".json").read_text() == p2.with_suffix(".json").read_text()

    def test_missing_measurements_exits_2(self, small_config, tmp_path):
        rc = main(["fit", "--config", str(small_config),
                   "--measurements", str(tmp_path / "nope.svst"),
                   "--out", str(tmp_path / "m.svst")])
        assert rc == 2

    @pytest.mark.parametrize("n_sv, message", [
        ("-1", "fit.n_sv must be at least 1, got -1"),
        ("0", "fit.n_sv must be at least 1, got 0"),
        ("25", "requested 25 measurements, set has 24"),
    ])
    def test_n_sv_off_the_grid_exits_4(self, small_config, measured_svset, tmp_path,
                                       capsys, n_sv, message):
        # before: -1 and 0 died in Generator.choice with a ValueError traceback (rc 1)
        assert main(["fit", "--config", str(small_config),
                     "--measurements", str(measured_svset), "--n-sv", n_sv,
                     "--out", str(tmp_path / "m.svst")]) == 4
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("method, bound", [("sh", 1e-7), ("nslite", 1e-4)])
    def test_in_run_fit_matches_the_artifact_route(self, tmp_path, method, bound):
        # default config, n_sv 32: the same directions and settings as `fit`;
        # the artifact route rounds the measurements and the fit to complex64
        assert main(["simulate", "--out", str(tmp_path), "--emit-ref-svset"]) == 0
        model = tmp_path / f"{method}.svst"
        assert main(["fit", "--measurements", str(tmp_path / "ref.svst"),
                     "--method", method, "--out", str(model)]) == 0
        config = load_config(None)
        grid, params = cli.build_grid(config), cli.build_stft_params(config)
        in_run, loaded = (cli.resolve_svs({**config, "sv": {"model": method, "path": path}},
                                          grid, params)
                          for path in (None, str(model)))
        diff = np.abs(in_run.values - loaded.values).max()
        assert diff / np.abs(loaded.values).max() < bound


class TestConfig:
    def test_localize_leaves_defaults_unchanged(self, tmp_path):
        before = copy.deepcopy(DEFAULT_CONFIG)
        rc = main(["localize", "--sv-model", "alg", "--method", "music-1",
                   "--out", str(tmp_path / "loc")])
        assert rc == 0
        assert DEFAULT_CONFIG == before

    def test_loaded_config_shares_nothing_with_defaults(self, small_config):
        before = copy.deepcopy(DEFAULT_CONFIG)
        for cfg in (load_config(None), load_config(str(small_config)),
                    load_config(None, {"scene": {"snr_db": 5.0}})):
            cfg["method"] = "srp-phat"
            cfg["peaks"]["threshold"] = 0.9  # a section the file leaves out
            cfg["scene"]["source_kind"]["alpha"] = 1.1
            cfg["scene"]["source_indices"].append(3)
        assert DEFAULT_CONFIG == before

    @pytest.mark.parametrize("text", ["", "[]", "{not json"])
    def test_config_not_a_json_object_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        rc = main(["localize", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"{path}:" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, key, kind", [
        ({"grid": 5}, "grid", "an object"),
        ({"scene": {"source_kind": "sas"}}, "scene.source_kind", "an object"),
        ({"array": {"num_mics": "x"}}, "array.num_mics", "a number"),
        ({"solver": {"iterations": None}}, "solver.iterations", "a number"),
        ({"stft": {"hop": True}}, "stft.hop", "a number"),
    ])
    def test_mistyped_config_value_exits_2(self, tmp_path, capsys, doc, key, kind):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        rc = main(["localize", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{path}:" in err and f"{key!r} must be {kind}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("doc, key, kind", [
        ({"array": {"kind": "Positions", "mic_positions_m": [[0, 0, 0], [0.1, 0, 0]]}},
         "array.kind", 'one of "random", "positions"'),
        ({"array": {"seed": "x"}}, "array.seed", "a number or null"),
        ({"field": {"seed": "x"}}, "field.seed", "a number or null"),
        ({"scene": {"source_indices": 5}}, "scene.source_indices", "a list of numbers"),
        ({"scene": {"source_kind": {"kind": "WAV"}}}, "scene.source_kind.kind",
         'one of "sas", "wav"'),
    ])
    def test_unusable_config_value_exits_2(self, tmp_path, capsys, doc, key, kind):
        # before: a random array in place of the given positions (rc 0), a
        # ValueError or TypeError traceback (rc 1), SaS sources in place of WAVs
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        rc = main(["localize", "--config", str(path), "--sv-model", "alg",
                   "--method", "music-1", "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{path}:" in err and f"{key!r} must be {kind}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("doc, key, kind", [
        ({"seed": 1.5}, "seed", "an integer"),
        ({"solver": {"iterations": 80.7}}, "solver.iterations", "an integer"),
        ({"stft": {"hop": 384.5}}, "stft.hop", "an integer"),
        ({"array": {"seed": 2.5}}, "array.seed", "an integer or null"),
        ({"field": {"seed": 0.5}}, "field.seed", "an integer or null"),
        ({"fit": {"max_degree": 3.2}}, "fit.max_degree", "an integer or null"),
        ({"scene": {"source_indices": [17.5]}}, "scene.source_indices",
         "a list of integers"),
    ])
    def test_fractional_integer_key_exits_2(self, tmp_path, capsys, doc, key, kind):
        # before: run with the value truncated (rc 0)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        rc = main(["localize", "--config", str(path), "--sv-model", "alg",
                   "--method", "music-1", "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{path}:" in err and f"{key!r} must be {kind}" in err

    def test_values_take_their_kinds_type(self, tmp_path):
        # before: 768.0 for an integer key stayed a float, 1 for a float key an int
        path = tmp_path / "config.json"
        path.write_text(json.dumps(every_number_respelt(cli.CONFIG_KEYS)))
        assert_kind_types(load_config(str(path)), cli.CONFIG_KEYS)
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(every_number_respelt(cli.SCENE_KEYS)))
        doc = scenes.scene_to_dict(cli.load_scene(str(path)))
        assert_kind_types(doc, cli.SCENE_KEYS)
        assert doc["seed"] == 3 and doc["snr_db"] == 2.0

    def test_number_spelling_leaves_the_outputs(self, small_config, tmp_path):
        # every integer key written as N.0 and every integral float key as
        # N: the same bytes, and spectrum.json still records "beta": 1.0
        other = tmp_path / "respelled.json"
        other.write_text(json.dumps(respell(json.loads(small_config.read_text()))))
        assert '"beta": 1,' in other.read_text()
        outs = []
        for config in (small_config, other):
            out = tmp_path / config.stem
            assert main(["localize", "--config", str(config), "--out", str(out / "loc")]) == 0
            assert main(["sweep", "--config", str(config), "--count", "1",
                         "--methods", "shamans,music-1", "--out", str(out / "sweep")]) == 0
            info = json.loads((out / "loc" / "spectrum.json").read_text())
            del info["timings_ms"]
            outs.append([(out / "loc" / "spectrum.csv").read_bytes(),
                         (out / "loc" / "result.json").read_bytes(),
                         json.dumps(info, sort_keys=True, indent=1),
                         (out / "sweep" / "detail.csv").read_bytes()])
        assert outs[0] == outs[1]
        assert '"beta": 1.0,' in outs[1][2]

    def test_integral_float_accepted_for_integer_key(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 3.0, "stft": {"hop": 384.0},
                                    "array": {"seed": 4.0}, "fit": {"max_degree": 2.0},
                                    "scene": {"source_indices": [17.0]}}))
        config = load_config(str(path))
        assert cli.build_stft_params(config).hop == 384
        assert config["seed"] == 3 and config["fit"]["max_degree"] == 2

    @pytest.mark.parametrize("positions", [
        None, [[0, 0], [0.1, 0]], [[0, 0, "x"], [0.1, 0, 0]], "x", [],
    ])
    def test_positions_array_needs_mic_positions(self, tmp_path, capsys, positions):
        # before: a KeyError or ValueError traceback (rc 1), or a ParameterError
        # that names no key (rc 4)
        doc = {"array": {"kind": "positions"}}
        if positions is not None:
            doc["array"]["mic_positions_m"] = positions
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        rc = main(["localize", "--config", str(path), "--sv-model", "alg",
                   "--method", "music-1", "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{path}:" in err and "'array.mic_positions_m' must be" in err
        assert "Traceback" not in err

    def test_positions_array_localizes(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"array": {
            "kind": "positions",
            "mic_positions_m": [[0.05, 0, 0], [0, 0.05, 0], [-0.05, 0, 0.02]]}}))
        rc = main(["localize", "--config", str(path), "--sv-model", "alg",
                   "--method", "music-1", "--out", str(tmp_path / "o")])
        assert rc == 0

    def test_flags_not_given_keep_the_file_values(self, artifact_config, sh_artifact):
        config = load_config(str(artifact_config), {
            "seed": None, "sv": {"model": "sh", "path": None}, "fit": {"n_sv": 9}})
        assert config["seed"] == 7 and config["fit"]["n_sv"] == 9
        assert config["sv"] == {"model": "sh", "path": str(sh_artifact)}

    def test_null_allowed_where_the_default_is_null(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"sv": {"path": None}, "fit": {"max_degree": None},
                                    "array": {"seed": None}, "field": {"seed": None},
                                    "stft": {"f_max_hz": 8000}}))
        config = load_config(str(path))
        assert config["sv"]["path"] is None and config["array"]["seed"] is None
        assert config["stft"]["f_max_hz"] == 8000  # an int where the default is a float

    def test_null_snr_gives_noiseless_scenes(self, tmp_path, small_config):
        path = tmp_path / "config.json"
        doc = json.loads(small_config.read_text())
        doc.setdefault("scene", {})["snr_db"] = None
        path.write_text(json.dumps(doc))
        assert load_config(str(path))["scene"]["snr_db"] is None
        out = tmp_path / "sim"
        rc = main(["simulate", "--config", str(path), "--out", str(out), "--count", "2"])
        assert rc == 0
        for scene_path in sorted(out.glob("scene_*.json")):
            assert json.loads(scene_path.read_text())["snr_db"] is None


    def test_scene_file_takes_the_config_defaults(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"source_indices": [3], "seed": 8}))
        spec = cli.load_scene(str(path))
        assert spec.snr_db == 20.0 and spec.t60_s is None and spec.min_sep_cells == 2
        assert spec.seed == 8 and spec.source_kind.alpha == 1.5

    @pytest.mark.parametrize("flag, doc, key, rc", [
        ("--scene", {"t60_s": "x"}, "t60_s", 2),
        ("--scene", {"source_indices": "ab"}, "source_indices", 2),
        ("--scene", [17], None, 2),
        ("--scene", {"source_indices": [3], "source_kind": {"kind": "wav"}},
         "source_kind.paths", 2),
        ("--scene", {"source_indices": [3], "min_sep_cells": 1.5}, "min_sep_cells", 2),
        ("--scene", {"source_indices": [3], "source_kind": {"kind": "sass"}},
         "source_kind.kind", 2),
        ("--scene", {"source_indices": [3], "t60_s": -0.3}, "t60_s", 4),
        ("--config", {"scene": {"t60_s": "x"}}, "scene.t60_s", 2),
        ("--config", {"scene": {"seed": 99}}, "scene.seed", 2),
        ("--config", {"method": 5}, "method", 2),
        ("--config", {"sv": {"path": 5}}, "sv.path", 2),
        ("--config", {"scene": {"source_kind": {"kind": "wav", "paths": "a.wav"}}},
         "scene.source_kind.paths", 2),
        ("--config", {"solver": {"iteration": 80}}, "solver.iteration", 2),
        ("--config", {"solver": {"beta": 2.0}}, "solver.beta", 2),
        ("--config", {"scene": {"t60_s": -0.3}}, "t60_s", 4),
    ])
    def test_rejected_scene_or_config_names_the_key(self, tmp_path, capsys, flag, doc,
                                                    key, rc):
        # before: tracebacks (rc 1), a truncated min_sep_cells, SaS sources for
        # "sass", and a growing "reverb" for a negative t60_s (rc 0); an
        # ignored scene.seed, misspelt key or solver.beta for music-1 (rc 0)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["localize", flag, str(path), "--sv-model", "alg",
                     "--method", "music-1", "--out", str(tmp_path / "o")]) == rc
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if rc == 2:
            assert f"{path}:" in err
        assert key is None or f"'{key}'" in err or f"{key} must be" in err

    @pytest.mark.parametrize("flag, text, key", [
        ("--config", '{"peaks": {"threshold": NaN}}', "peaks.threshold"),
        ("--config", '{"scene": {"snr_db": Infinity}}', "scene.snr_db"),
        ("--config", '{"solver": {"sparsity_lambda": -Infinity}}', "solver.sparsity_lambda"),
        ("--config", '{"array": {"seed": Infinity}}', "array.seed"),
        ("--scene", '{"source_indices": [3], "duration_s": NaN}', "duration_s"),
    ])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, flag, text, key):
        # before: an empty peak list for a NaN threshold (rc 0), and an
        # infinite snr_db rejected only by SceneSpec (rc 4)
        path = tmp_path / "doc.json"
        path.write_text(text)
        assert main(["localize", flag, str(path), "--sv-model", "alg",
                     "--method", "music-1", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{path}: key {key!r} must be a number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["seed", "f_max_hz"])
    def test_number_beyond_the_float_range_exits_2(self, tmp_path, capsys, key):
        # before: an OverflowError traceback (rc 1)
        doc = {"seed": 10 ** 400} if key == "seed" else {"stft": {key: 10 ** 400}}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["localize", "--config", str(path), "--sv-model", "alg",
                     "--method", "music-1", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "must be a number" in err and "Traceback" not in err

    def test_non_finite_flag_exits_2(self, measured_svset, tmp_path, capsys):
        assert main(["fit", "--measurements", str(measured_svset), "--ridge-lambda", "nan",
                     "--out", str(tmp_path / "m.svst")]) == 2
        assert "key 'fit.ridge_lambda' must be a number" in capsys.readouterr().err

    def test_negative_t60_sweep_exits_4(self, small_config, tmp_path):
        # before: an ok row scored on an exponentially growing "reverb"
        assert main(["sweep", "--config", str(small_config), "--axis", "t60_s",
                     "--values=-0.3", "--count", "1", "--methods", "music-1",
                     "--out", str(tmp_path / "o")]) == 4


class TestFitArtifact:
    @pytest.fixture
    def artifacts(self, small_config, measured_svset, sh_artifact, tmp_path):
        ns = tmp_path / "src" / "ns.svst"
        assert main(["fit", "--config", str(small_config), "--measurements",
                     str(measured_svset), "--n-sv", "12", "--method", "nslite",
                     "--out", str(ns)]) == 0
        return {"sh": sh_artifact, "nslite": ns}

    @pytest.mark.parametrize("kind, edit", [
        ("sh", lambda text: "{not json"),
        ("sh", lambda text: text.replace('"max_degree"', '"degree"')),
        ("sh", lambda text: text.replace('"max_degree": 3', '"max_degree": 2')),
        ("nslite", lambda text: text.replace('"num_features": 128', '"num_features": 64')),
        ("nslite", lambda text: text.replace('"freq_scale"', '"scale"')),
    ])
    def test_broken_sidecar_exits_2(self, small_config, artifacts, tmp_path, capsys,
                                    kind, edit):
        # before: a JSONDecodeError, KeyError or matmul ValueError traceback (rc 1)
        src = artifacts[kind]
        model = tmp_path / "model.svst"
        model.write_bytes(src.read_bytes())
        sidecar = model.with_suffix(".json")
        text = src.with_suffix(".json").read_text()
        assert edit(text) != text
        sidecar.write_text(edit(text))
        assert main(["localize", "--config", str(small_config), "--method", "music-1",
                     "--sv-model", kind, "--sv-path", str(model),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{sidecar}:" in err and "Traceback" not in err

    def test_sidecar_records_the_fit_run(self, artifacts, measured_svset):
        measured = load_svset(measured_svset)
        for kind, model in artifacts.items():
            meta = json.loads(model.with_suffix(".json").read_text())
            assert (meta["n_sv"], meta["fit_method"], meta["master_seed"]) == (12, kind, 7)
            # the relative SV error per bin over every measured direction, up
            # to the artifact's complex64 rounding
            fitted = interp_svs(load_fit_artifact(model), measured.grid, measured.freqs_hz)
            err = interp_error_report(measured, fitted)
            assert meta["sv_err_median"] == pytest.approx(np.median(err), rel=1e-4)
            assert meta["sv_err_max"] == pytest.approx(err.max(), rel=1e-4)


class TestLocalize:
    def test_golden_scene_zero_error(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["localize", "--config", str(DATA / "golden_config.json"),
                   "--scene", str(DATA / "golden_scene.json"),
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "result.json").read_text())
        assert doc["errors_deg"] == [0.0]
        assert doc["acc15"] == 1.0
        assert doc["peaks"][0]["index"] == 17

    def test_music_matches_shamans_argmax(self, tmp_path):
        spectra = {}
        for method in ("shamans", "music-1"):
            out = tmp_path / method
            rc = main(["localize", "--config", str(DATA / "golden_config.json"),
                       "--scene", str(DATA / "golden_scene.json"),
                       "--method", method, "--out", str(out)])
            assert rc == 0
            with open(out / "spectrum.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            spectra[method] = np.array([float(r["value"]) for r in rows])
        assert np.argmax(spectra["shamans"]) == np.argmax(spectra["music-1"])

    def test_sidecar_records_sketch_counts(self, small_config, tmp_path):
        out = tmp_path / "loc"
        assert main(["localize", "--config", str(small_config), "--out", str(out)]) == 0
        info = json.loads((out / "spectrum.json").read_text())
        assert info["masked_bins"] == 0 and info["levy_clamped"] == 0
        assert 0.0 <= info["late_rel_change"] < 1.0

    def test_missing_scene_exits_2(self, small_config, tmp_path):
        rc = main(["localize", "--config", str(small_config),
                   "--scene", str(tmp_path / "none.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_frequency_mismatch_exits_4(self, small_config, measured_svset, tmp_path):
        model = tmp_path / "model.svst"
        rc = main(["fit", "--config", str(small_config),
                   "--measurements", str(measured_svset),
                   "--n-sv", "12", "--method", "sh", "--max-degree", "2",
                   "--out", str(model)])
        assert rc == 0
        # same artifact against a config with a different analysis band
        other = json.loads(Path(small_config).read_text())
        other["stft"]["f_max_hz"] = 1500.0
        other_path = tmp_path / "other.json"
        other_path.write_text(json.dumps(other))
        rc = main(["localize", "--config", str(other_path),
                   "--sv-model", "sh", "--sv-path", str(model),
                   "--out", str(tmp_path / "o2")])
        assert rc == 4

    def test_fit_artifact_as_ref_svset_exits_2(self, small_config, sh_artifact,
                                               tmp_path, capsys):
        rc = main(["localize", "--config", str(small_config), "--sv-model", "ref",
                   "--sv-path", str(sh_artifact), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "a fit artifact" in capsys.readouterr().err

    @pytest.mark.parametrize("sv_model", ["sh", "nslite"])
    @pytest.mark.parametrize("n_sv, rc", [(12, 0), (-1, 4), (0, 4), (25, 4)])
    def test_fitted_model_without_path_fits_in_run(self, small_config, tmp_path, capsys,
                                                   monkeypatch, sv_model, n_sv, rc):
        # before: "sv.path must point to a fit artifact" (rc 4) for every n_sv;
        # the fit takes the field the scene is synthesized with
        builds = []
        real = cli.build_field
        monkeypatch.setattr(cli, "build_field", lambda *args: builds.append(1) or real(*args))
        config = with_n_sv(small_config, tmp_path, n_sv)
        assert main(["localize", "--config", str(config), "--method", "music-1",
                     "--sv-model", sv_model, "--out", str(tmp_path / "o")]) == rc
        assert "Traceback" not in capsys.readouterr().err and len(builds) == 1

    def test_non_integer_music_rank_exits_4(self, small_config, tmp_path, capsys):
        # before: a ValueError traceback (rc 1)
        assert main(["localize", "--config", str(small_config), "--method", "music-x",
                     "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert "method 'music-x'" in err and "Traceback" not in err

    def test_artifact_kind_must_match_sv_model(self, small_config, sh_artifact,
                                               tmp_path, capsys):
        rc = main(["localize", "--config", str(small_config), "--sv-model", "nslite",
                   "--sv-path", str(sh_artifact), "--out", str(tmp_path / "o")])
        assert rc == 4
        assert "is an 'sh' fit artifact, not 'nslite'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_localize_wav_input(self, small_config, tmp_path):
        from shamans.signal import AudioBuffer, write_wav

        rng = np.random.default_rng(0)
        wav = tmp_path / "in.wav"
        write_wav(AudioBuffer(rng.standard_normal((4, 8000)), 16000), wav)
        rc = main(["localize", "--config", str(small_config),
                   "--audio", str(wav), "--method", "srp-phat",
                   "--out", str(tmp_path / "wavout")])
        assert rc == 0
        assert (tmp_path / "wavout" / "spectrum.csv").exists()


class TestSweep:
    def run_sweep(self, small_config, out, monkeypatch, threads="1"):
        monkeypatch.setenv("SHAMANS_THREADS", threads)
        return main(["sweep", "--config", str(small_config),
                     "--axis", "snr_db", "--values", "5,20", "--count", "2",
                     "--methods", "shamans,music-1", "--out", str(out)])

    def test_row_count_and_determinism(self, small_config, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert self.run_sweep(small_config, out1, monkeypatch) == 0
        assert self.run_sweep(small_config, out2, monkeypatch) == 0
        detail1 = (out1 / "detail.csv").read_text()
        assert detail1 == (out2 / "detail.csv").read_text()
        rows = detail1.strip().splitlines()
        assert len(rows) - 1 == 2 * 2 * 2  # values x count x methods
        assert (out1 / "summary.csv").exists()

    def test_parallel_matches_serial(self, small_config, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "p1", tmp_path / "p2"
        assert self.run_sweep(small_config, out1, monkeypatch, threads="1") == 0
        assert self.run_sweep(small_config, out2, monkeypatch, threads="2") == 0
        assert (out1 / "detail.csv").read_text() == (out2 / "detail.csv").read_text()

    def test_negative_values_sweep(self, small_config, tmp_path, monkeypatch):
        monkeypatch.setenv("SHAMANS_THREADS", "1")
        out = tmp_path / "neg"
        assert main(["sweep", "--config", str(small_config), "--axis", "snr_db",
                     "--values=-5,20", "--count", "1", "--methods", "music-1",
                     "--out", str(out)]) == 0
        with open(out / "summary.csv", newline="") as fh:
            assert [r["value"] for r in csv.DictReader(fh)] == ["-5.0", "20.0"]

    @pytest.mark.parametrize("axis, values, bad", [
        ("n_sources", "1.5,2.7", "1.5"), ("n_sources", "1,nan", "nan"),
        ("n_sources", "-1", "-1"), ("snr_db", "abc", "abc"), ("source_alpha", "1.5,inf", "inf"),
    ])
    def test_values_off_the_axis_exit_2(self, small_config, tmp_path, capsys, axis, values,
                                        bad):
        # before: rows labelled 1.5 and 2.7 holding 1 and 2 sources (rc 0),
        # and ValueError tracebacks (rc 1)
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(small_config), "--axis", axis,
                     f"--values={values}", "--count", "1", "--methods", "music-1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"axis {axis}" in err and repr(bad) in err and "Traceback" not in err
        assert not out.exists()

    def test_report_aggregates(self, small_config, tmp_path, monkeypatch):
        out = tmp_path / "s"
        assert self.run_sweep(small_config, out, monkeypatch) == 0
        summary = tmp_path / "resummary.csv"
        rc = main(["report", "--detail", str(out / "detail.csv"),
                   "--out", str(summary)])
        assert rc == 0
        assert summary.read_text() == (out / "summary.csv").read_text()

    def test_partial_failure_recorded_run_continues(self, small_config, tmp_path,
                                                    monkeypatch):
        # sh artifact path pointing nowhere: those rows carry an error
        # status while the ref rows still complete
        import json

        cfg = json.loads(Path(small_config).read_text())
        cfg["sv"] = {"model": "sh", "path": str(tmp_path / "missing.svst")}
        bad_cfg = tmp_path / "bad.json"
        bad_cfg.write_text(json.dumps(cfg))
        monkeypatch.setenv("SHAMANS_THREADS", "1")
        out = tmp_path / "pf"
        rc = main(["sweep", "--config", str(bad_cfg), "--count", "2",
                   "--methods", "shamans", "--sv-models", "ref,sh",
                   "--out", str(out)])
        assert rc == 0
        with open(out / "detail.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        by_model = {}
        for r in rows:
            by_model.setdefault(r["sv_model"], []).append(r["status"])
        assert all(s == "ok" for s in by_model["ref"])
        assert all(s.startswith("sv-error") for s in by_model["sh"])

    def test_unexpected_method_error_becomes_row(self, small_config, tmp_path,
                                                 monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "run_method", broken)
        monkeypatch.setenv("SHAMANS_THREADS", "1")
        out = tmp_path / "broken"
        rc = main(["sweep", "--config", str(small_config), "--count", "1",
                   "--methods", "shamans,music-1", "--sv-models", "ref,alg",
                   "--out", str(out)])
        assert rc == 0
        with open(out / "detail.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 * 2 * 2  # scenes x methods x SV models
        assert all(r["status"] == "error: RuntimeError: boom" for r in rows)

    @pytest.mark.parametrize("step, status, failed_models", [
        ("build_field", "scene-error", {"ref", "alg"}),
        ("synth_scene", "scene-error", {"ref", "alg"}),
        ("algebraic_svs", "sv-error", {"alg"}),
    ])
    def test_unexpected_step_error_becomes_rows(self, small_config, tmp_path,
                                                monkeypatch, capsys, step, status,
                                                failed_models):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, step, broken)
        monkeypatch.setenv("SHAMANS_THREADS", "1")
        out = tmp_path / "broken"
        rc = main(["sweep", "--config", str(small_config), "--count", "2",
                   "--methods", "shamans,music-1", "--sv-models", "ref,alg",
                   "--out", str(out)])
        assert rc == 0
        with open(out / "detail.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 2 * 2  # scenes x methods x SV models
        for r in rows:
            if r["sv_model"] in failed_models:
                assert r["status"] == f"{status}: RuntimeError: boom"
                assert r["n_true"] == "1" and r["n_est"] == "0"
            else:
                assert r["status"] == "ok"
        assert "RuntimeError: boom" in capsys.readouterr().err

    def test_field_and_sv_sets_built_once_per_sweep(self, artifact_config, tmp_path,
                                                   monkeypatch):
        calls = {}

        def counted(name):
            real = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)
            return wrapper

        for name in ("build_field", "algebraic_svs", "load_fit_artifact"):
            monkeypatch.setattr(cli, name, counted(name))
        monkeypatch.setenv("SHAMANS_THREADS", "1")
        out = tmp_path / "once"
        assert main(["sweep", "--config", str(artifact_config), "--count", "3",
                     "--methods", "music-1", "--sv-models", "ref,alg,sh",
                     "--out", str(out)]) == 0
        assert calls == {"build_field": 1, "algebraic_svs": 1, "load_fit_artifact": 1}
        rows = read_rows(out / "detail.csv")
        assert len(rows) == 3 * 3 and all(r["status"] == "ok" for r in rows)

    def test_in_run_fits_compare_both_interpolators(self, tmp_path, monkeypatch):
        # default config, no sv.path: sh and nslite are fitted to the sweep's
        # own ref, which is built once (before: exit 4, "sv.path needed")
        builds = []
        real = cli.build_field
        monkeypatch.setattr(cli, "build_field", lambda *args: builds.append(1) or real(*args))
        monkeypatch.setenv("SHAMANS_THREADS", "1")
        out = tmp_path / "fits"
        assert main(["sweep", "--count", "1", "--methods", "music-1",
                     "--sv-models", "ref,alg,sh,nslite", "--out", str(out)]) == 0
        rows = read_rows(out / "detail.csv")
        assert sorted(r["sv_model"] for r in rows) == ["alg", "nslite", "ref", "sh"]
        assert all(r["status"] == "ok" for r in rows) and len(builds) == 1

    @pytest.mark.parametrize("n_sv, message", [
        (-1, "fit.n_sv must be at least 1, got -1"),
        (25, "requested 25 measurements, set has 24"),
    ])
    def test_in_run_fit_off_the_grid_becomes_rows(self, small_config, tmp_path, capsys,
                                                  monkeypatch, n_sv, message):
        monkeypatch.setenv("SHAMANS_THREADS", "1")
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(with_n_sv(small_config, tmp_path, n_sv)),
                     "--count", "2", "--methods", "music-1", "--sv-models", "ref,sh,nslite",
                     "--out", str(out)]) == 0
        for r in read_rows(out / "detail.csv"):
            assert r["status"] == ("ok" if r["sv_model"] == "ref"
                                   else f"sv-error: {message}")
        assert "Traceback" not in capsys.readouterr().err

    def test_non_integer_music_rank_becomes_row(self, small_config, tmp_path, capsys,
                                                monkeypatch):
        # before: "error: ValueError: invalid literal ..." and a traceback
        monkeypatch.setenv("SHAMANS_THREADS", "1")
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(small_config), "--count", "1",
                     "--methods", "music-x,music-1", "--out", str(out)]) == 0
        status = {r["method"]: r["status"] for r in read_rows(out / "detail.csv")}
        assert status == {"music-1": "ok",
                          "music-x": "error: method 'music-x': the MUSIC subspace "
                                     "rank must be an integer"}
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda text: "a,b\n1,2\n",
        lambda text: "",
        lambda text: text.replace(",music-1,", ",music-1,,", 1),
        lambda text: text.replace(",ok\n", "\n", 1),
        lambda text: re.sub(r"\n(scene_\d+),snr_db,5.0,", r"\n\1,snr_db,abc,", text,
                            count=1),
        lambda text: re.sub(r"\n(scene_\d+,snr_db,[^,]+,[^,]+,[^,]+),1,",
                            r"\n\1,one,", text, count=1),
    ])
    def test_report_rejects_a_file_not_a_detail_csv(self, small_config, tmp_path,
                                                    monkeypatch, capsys, edit):
        # before: a KeyError or ValueError traceback (rc 1)
        out = tmp_path / "s"
        assert self.run_sweep(small_config, out, monkeypatch) == 0
        text = (out / "detail.csv").read_text()
        bad = tmp_path / "bad.csv"
        bad.write_text(edit(text))
        assert bad.read_text() != text
        assert main(["report", "--detail", str(bad), "--out", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:" in err and "Traceback" not in err

    def test_sv_model_mismatch_becomes_rows(self, artifact_config, sh_artifact, tmp_path,
                                            monkeypatch):
        monkeypatch.setenv("SHAMANS_THREADS", "1")
        out = tmp_path / "mismatch"
        assert main(["sweep", "--config", str(artifact_config), "--count", "2",
                     "--methods", "music-1", "--sv-models", "ref,nslite,foo",
                     "--out", str(out)]) == 0
        status = {(r["scene_id"], r["sv_model"]): r["status"]
                  for r in read_rows(out / "detail.csv")}
        assert len(status) == 2 * 3
        for (_scene, sv_model), s in status.items():
            assert s == {"ref": "ok",
                         "nslite": f"sv-error: {sh_artifact} is an 'sh' fit artifact, "
                                   "not 'nslite'",
                         "foo": "sv-error: unknown sv model 'foo'"}[sv_model]


class TestSimulate:
    def test_writes_scenes_and_svsets(self, small_config, tmp_path):
        out = tmp_path / "sim"
        rc = main(["simulate", "--config", str(small_config), "--out", str(out),
                   "--count", "3", "--emit-ref-svset", "--emit-alg-svset"])
        assert rc == 0
        assert (out / "ref.svst").exists()
        assert (out / "alg.svst").exists()
        assert len(list(out.glob("scene_*.json"))) == 3


def readme_commands():
    """Every ``shamans ...`` command in the README's shell blocks, with
    backslash continuations joined."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.strip().startswith("shamans "):
                commands.append(line.strip())
    return commands


def test_readme_config_block_is_the_defaults():
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"Config keys \(all optional, shown with defaults\):\n\n```json\n"
                      r"(.*?)```", text, flags=re.S)
    assert block and json.loads(block.group(1)) == DEFAULT_CONFIG


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 5
    for command in commands:
        argv = shlex.split(command, comments=True)[1:]
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


NO_SCIPY_SCRIPT = """
import sys
from shamans.cli import main

config, out = sys.argv[1], sys.argv[2]
for argv in (
    ["simulate", "--config", config, "--out", f"{out}/sim", "--emit-ref-svset"],
    ["fit", "--config", config, "--measurements", f"{out}/sim/ref.svst", "--n-sv", "12",
     "--method", "sh", "--max-degree", "3", "--out", f"{out}/sh.svst"],
    ["fit", "--config", config, "--measurements", f"{out}/sim/ref.svst", "--n-sv", "12",
     "--method", "nslite", "--out", f"{out}/ns.svst"],
    ["localize", "--config", config, "--out", f"{out}/loc"],
    ["localize", "--config", config, "--sv-model", "nslite", "--sv-path",
     f"{out}/ns.svst", "--out", f"{out}/loc-ns"],
    ["sweep", "--config", f"{out}/sweep.json", "--count", "1", "--methods",
     "shamans,music-1,srp-phat", "--sv-models", "ref,alg,sh", "--out", f"{out}/sweep"],
):
    assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_paths_import_no_scipy(small_config, tmp_path):
    # numpy is the only runtime dependency: scipy serves the tests as an oracle
    doc = json.loads(small_config.read_text())
    doc["sv"]["path"] = str(tmp_path / "sh.svst")
    (tmp_path / "sweep.json").write_text(json.dumps(doc))
    src = Path(__file__).parent.parent / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src),
                                                       os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(small_config),
                           str(tmp_path)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    rows = read_rows(tmp_path / "sweep" / "detail.csv")
    assert len(rows) == 9 and all(r["status"] == "ok" for r in rows)
