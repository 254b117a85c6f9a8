"""Smoke test of the benchmark; run from the root of a checkout:

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json once at tiny size (``--tiny``), with
and without tracing, and checks that each run exits 0 and that its last
line reports correct outputs and every metric BENCHMARK.json names for
that mode, with its unit. Then checks that the benchmark fails, without a
result, in a directory holding only BENCHMARK.json and the benchmark.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path


def run(cmd, cwd) -> tuple:
    res = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = res.stdout.strip().splitlines()
    return res.returncode, lines[-1] if lines else "", res.stderr


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    command = [sys.executable, *spec["command"][1:]]
    failures = []
    for workload in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload['name']} --trace {trace}"
            code, last, err = run(command + ["--workload", workload["name"], "--seed", "7",
                                             "--seconds", "1", "--trace", str(trace),
                                             "--tiny"], root)
            if code != 0:
                failures.append(f"{label}: exit {code}\n{err[-2000:]}")
                continue
            result = json.loads(last)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                failures.append(f"{label}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, units "
                                f"{ {k: got[k] for k in got if k in want and got[k] != want[k]} }")
            print(f"ok   {label}: {len(got)} metrics", flush=True)

    bare = root / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(root / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        first = spec["workloads"][0]["name"]
        code, last, _err = run(command + ["--workload", first, "--seed", "7", "--seconds",
                                          "1", "--trace", "0"], bare)
        if code == 0 or '"correct"' in last:
            failures.append(f"bare directory: exit {code}, last line {last!r}")
        else:
            print(f"ok   bare directory: exit {code}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass

    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
