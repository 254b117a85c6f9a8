"""Benchmark of the shamans localizer; run from the root of a checkout.

    python3 perfbench/run.py --workload scene-1s --seed 1 --seconds 30 --trace 0

Each workload is a closed loop driven by one client (this process): the
next op starts when the previous one has returned. The run first sets up
the workload's inputs from the seed, then runs ops for ``--seconds`` (and
at least as many ops as the quality metrics are scored on), timing
``setup_s`` in fresh interpreters before and after. Thread settings
(OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, SHAMANS_THREADS) are left as they
are and recorded.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` splits the
time between untraced ops, ops with every public shamans function wrapped
(see spans.py) and, for the sweep, pooled sweeps, and reports the
per-layer metrics. The last line of stdout is one JSON object {"correct",
"attempted", "failed", "metrics"}; the line before it is a JSON object
{"meta": ...} with peaks, digests and settings. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
IMPORTTIME_RUNS = 3
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "SHAMANS_THREADS")

END_TO_END = {
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "scenes_per_s": "1/s",
    "peak_rss_mb": "MB",
    "acc15": "fraction",
    "err_deg_mean": "deg",
    "ok_frac": "fraction",
    "setup_s": "s",
}

SELF_MS = ("stable.multiplicative_update", "stable.levy_estimator",
           "stable.estimate_alpha", "stable.build_psi",
           "stable.normalize_observations", "stable.shamans_localize",
           "signal.read_wav", "signal.stft", "steering.algebraic_svs",
           "scenes.synthetic_measured_svs", "scenes.synth_scene",
           "interp.load_fit_artifact", "interp.interp_svs",
           "baselines.music_spectrum", "baselines.srp_phat_spectrum",
           "evaluate.pick_peaks", "evaluate.match_errors")
COUNTS = {"stable.multiplicative_update.iterations": "count",
          "stable.levy_estimator.macs": "count",
          "stable.levy_estimator.temp_mb": "MB"}
IMPORTS = ("shamans", "shamans.cli", "shamans.evaluate", "shamans.stable",
           "shamans.scenes", "shamans.interp", "numpy", "scipy.optimize")
PER_LAYER = {
    **{f"{name}.self_ms": "ms" for name in SELF_MS},
    **COUNTS,
    "cli.sweep.pooled_scenes_per_s": "1/s",
    "cli.sweep.worker_cpu_s_per_scene": "s",
    "cli.sweep.nivcsw_per_scene": "count",
    **{f"{mod}.import_ms": "ms" for mod in IMPORTS},
    "op.uncovered_ms": "ms",
    "trace.overhead_ms": "ms",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs and 1 set-up probe (smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def setup_times(src: Path, workload: str, artifact: str, probes: int,
                warm_up: bool) -> list:
    """Seconds to import shamans and build the workload's SVs, one sample per
    fresh interpreter; an untimed first probe warms the file cache."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload, artifact]
    out = []
    for i in range(probes + warm_up):
        res = subprocess.run(cmd, env=child_env(src), capture_output=True, text=True,
                             timeout=170, check=True)
        if i or not warm_up:
            out.append(float(res.stdout.split()[-1]))
    return out


def import_times(src: Path) -> dict:
    """Cumulative import time (ms) per module from ``python -X importtime``,
    median over a few interpreters."""
    samples: dict = {}
    for _ in range(IMPORTTIME_RUNS):
        res = subprocess.run([sys.executable, "-X", "importtime", "-c", "import shamans.cli"],
                             env=child_env(src), capture_output=True, text=True,
                             timeout=170, check=True)
        for line in res.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                samples.setdefault(parts[2].strip(), []).append(int(parts[1]) / 1e3)
    return {mod: statistics.median(samples[mod]) if mod in samples else 0.0
            for mod in IMPORTS}


def run_ops(wl, seconds: float, min_ops: int, tracer=None) -> dict:
    """Closed loop: one op after another until the time is spent."""
    res = {"lat": [], "records": [], "problems": [], "attempted": 0, "failed": 0,
           "scenes": 0, "layers": []}
    start = time.perf_counter()
    while res["attempted"] < min_ops or time.perf_counter() - start < seconds:
        arg = wl.prepare(res["attempted"])
        res["attempted"] += 1
        first = len(tracer.spans) if tracer else 0
        try:
            t0 = time.perf_counter()
            if tracer:
                with tracer.span("op"):
                    out = wl.run(arg)
            else:
                out = wl.run(arg)
            elapsed = time.perf_counter() - t0
            problems, record = wl.check(out)
        except Exception:  # an op that raises is a failed op; keep going
            problems, record, elapsed = [traceback.format_exc(limit=-3)], None, None
        if tracer:
            res["layers"].append(spans.self_times(tracer.spans[first:]))
            del tracer.spans[first:]
        if problems:
            res["failed"] += 1
            res["problems"].extend(problems[:3])
            continue
        res["lat"].append(elapsed)
        res["records"].append(record)
        res["scenes"] += wl.scenes_per_op
    return res


def run_pooled(wl, seconds: float, workers: int) -> dict:
    """Pooled sweeps, one scene per worker, with the workers' CPU time and
    involuntary context switches from RUSAGE_CHILDREN."""
    res = {"wall_s": 0.0, "cpu_s": 0.0, "nivcsw": 0, "scenes": 0, "attempted": 0,
           "failed": 0, "problems": []}
    while res["attempted"] < 1 or res["wall_s"] < seconds:
        res["attempted"] += 1
        ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        problems = wl.run_pooled(workers)
        res["wall_s"] += time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        if problems:
            res["failed"] += 1
            res["problems"].extend(problems[:3])
            continue
        res["scenes"] += workers
        res["cpu_s"] += ru1.ru_utime + ru1.ru_stime - ru0.ru_utime - ru0.ru_stime
        res["nivcsw"] += ru1.ru_nivcsw - ru0.ru_nivcsw
    return res


def tail(lat: list) -> tuple:
    """The 90th percentile, interpolated between samples.

    A fixed percentile, not "the highest with 10 samples above it": the op
    count of a fixed-length run grows as the program gets faster, and the
    percentile must not move with it. Returns (value, samples above it).
    """
    value = statistics.quantiles(lat, n=10, method="inclusive")[-1] if len(lat) > 1 else lat[0]
    return value, sum(x > value for x in lat)


def end_to_end(wl, res: dict, setup: list) -> tuple:
    """End-to-end metric values and their meta data from an untraced run."""
    quality = res["records"][:wl.quality_ops]
    errors = [e for r in quality for e in r["errors_deg"]]
    rows_ok = sum(r["rows_ok"] for r in res["records"])
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail_ms, beyond = tail(res["lat"])
    values = {
        "latency_ms_p50": 1e3 * statistics.median(res["lat"]),
        "latency_ms_tail": 1e3 * tail_ms,
        "scenes_per_s": res["scenes"] / sum(res["lat"]),
        "peak_rss_mb": rss_kb / 1024.0,
        "acc15": sum(e < 15.0 for e in errors) / max(len(errors), 1),
        "err_deg_mean": sum(errors) / max(len(errors), 1),
        "ok_frac": rows_ok / (res["attempted"] * wl.rows_per_op),
        "setup_s": statistics.median(setup),
    }
    meta = {"tail": {"percentile": 90, "samples": len(res["lat"]), "samples_above": beyond},
            "latency_ms_quartiles": [1e3 * q for q in statistics.quantiles(res["lat"], n=4)]
            if len(res["lat"]) > 1 else None,
            "quality_ops": len(quality),
            "peaks": [r["peaks"] for r in quality if r["peaks"] is not None],
            "detail_digests": [r["digest"] for r in quality if "digest" in r]}
    return values, meta


def per_layer(plain: dict, traced: dict, pool: dict | None, imports: dict) -> tuple:
    """Per-layer metric values: medians over traced ops of each layer's
    self time and counts, pool counters, import times and trace overhead."""
    def med(key, sub):
        return statistics.median(layer.get(key, {}).get(sub, 0) for layer in traced["layers"])

    values = {f"{name}.self_ms": 1e3 * med(name, "self_s") for name in SELF_MS}
    for metric in COUNTS:
        name, sub = metric.rsplit(".", 1)
        values[metric] = med(name, sub)
    pool = pool or {"scenes": 0, "wall_s": 1.0, "cpu_s": 0.0, "nivcsw": 0}
    scenes = max(pool["scenes"], 1)
    values["cli.sweep.pooled_scenes_per_s"] = pool["scenes"] / pool["wall_s"]
    values["cli.sweep.worker_cpu_s_per_scene"] = pool["cpu_s"] / scenes
    values["cli.sweep.nivcsw_per_scene"] = pool["nivcsw"] / scenes
    values.update({f"{mod}.import_ms": ms for mod, ms in imports.items()})
    values["op.uncovered_ms"] = 1e3 * med("op", "self_s")
    traced_p50 = statistics.median(traced["lat"])
    values["trace.overhead_ms"] = 1e3 * (traced_p50 - statistics.median(plain["lat"]))
    stable_ms = sum(v for k, v in values.items() if k.startswith("stable.") and k.endswith("_ms"))
    meta = {"traced_ops": len(traced["lat"]), "untraced_ops": len(plain["lat"]),
            "stable_self_share": stable_ms / (1e3 * traced_p50),
            "all_self_ms": {name: round(1e3 * med(name, "self_s"), 3)
                            for name in sorted({k for layer in traced["layers"] for k in layer})}}
    return values, meta


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "shamans" / "__init__.py").is_file():
        print("error: no src/shamans here; run from the root of a shamans checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads  # imports shamans from src/

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](work, args.seed, args.tiny)
        meta = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "nproc": os.cpu_count(),
                "thread_env": {k: os.environ.get(k) for k in THREAD_ENV}}
        pooled = hasattr(wl, "run_pooled")
        if pooled:
            # the CLI's documented default: one worker per CPU, capped by
            # SHAMANS_THREADS when set
            cap = os.environ.get("SHAMANS_THREADS")
            meta["workers"] = min(os.cpu_count(), int(cap)) if cap else os.cpu_count()
        if args.trace:
            imports = import_times(src)
            share = args.seconds / (3 if pooled else 2)
            plain = run_ops(wl, share, 1)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run_ops(wl, share, 1, tracer)
            finally:
                tracer.uninstall()
            parts = [plain, traced]
            pool = None
            if pooled:
                pool = run_pooled(wl, share, meta["workers"])
                parts.append(pool)
                meta["sweep_trace"] = ("in-process one-scene sweeps traced; pooled sweeps "
                                       "untraced, for the pool counters only")
            res = {"attempted": sum(p["attempted"] for p in parts),
                   "failed": sum(p["failed"] for p in parts),
                   "problems": [x for p in parts for x in p["problems"]]}
            values, extra = per_layer(plain, traced, pool, imports) \
                if plain["lat"] and traced["lat"] else ({}, {})
            units = PER_LAYER
        else:
            # half the set-up samples before the timed ops and half after,
            # so that one slow spell of the machine does not bias them all
            probes = 1 if args.tiny else SETUP_PROBES
            artifact = getattr(wl, "artifact", "")
            setup = setup_times(src, wl.name, artifact, (probes + 1) // 2, True)
            res = run_ops(wl, args.seconds, wl.quality_ops)
            setup += setup_times(src, wl.name, artifact, probes // 2, False)
            meta["setup_samples_s"] = setup
            values, extra = end_to_end(wl, res, setup) if res["lat"] else ({}, {})
            units = END_TO_END
        meta.update(extra)
        meta["problems"] = res["problems"][:20]
        print(json.dumps({"meta": meta}))
        correct = res["failed"] == 0 and set(values) == set(units)
        print(json.dumps({
            "correct": correct, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
