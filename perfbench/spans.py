"""Outside-in span tracer for the shamans package.

The program is not edited. ``Tracer.install`` replaces every public
function of each ``shamans.*`` module by a wrapper, and it does so under
every module attribute that is bound to the same function object, so a
``from .stable import shamans_localize`` in ``cli`` is traced too. Each
call records a span (id, parent id, name, start, end) in memory; a layer's
self time is its span's duration minus the durations of its child spans
(calls nest strictly on one thread, so children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

MODULES = ("stable", "signal", "steering", "scenes", "interp", "baselines",
           "evaluate", "cli")


def _levy_counts(args, kwargs):
    spec, svs = args[0], args[1]
    num_dirs, num_mics, num_freqs = svs.values.shape
    frames = spec.bins.shape[2]
    return {"macs": num_dirs * num_mics * num_freqs * frames,
            "temp_mb": num_dirs * num_freqs * frames * 16 / 1e6}


def _mu_counts(args, kwargs):
    config = args[1] if len(args) > 1 else kwargs["config"]
    return {"iterations": config.iterations}


# work counts computed from a call's arguments, keyed by span name
COUNTERS = {
    "stable.levy_estimator": _levy_counts,
    "stable.multiplicative_update": _mu_counts,
}


class Tracer:
    """Spans of the calls made while installed, kept in memory."""

    def __init__(self):
        self.spans: list = []  # [id, parent, name, t0, t1, counts]
        self._stack: list = []
        self._restore: list = []

    def install(self) -> None:
        """Wrap the public functions of every shamans module."""
        mods = {name: sys.modules[f"shamans.{name}"] for name in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("shamans"):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, val))

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._restore):
            setattr(mod, attr, val)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, counter(args, kwargs) if counter else None):
                return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str, counts: dict | None = None):
        """Record one span; also used for benchmark-level spans such as an op."""
        rec = [len(self.spans), self._stack[-1] if self._stack else None, name,
               time.perf_counter(), None, counts]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield rec
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()


def self_times(spans) -> dict:
    """Sum of self time (s) and of counts per span name over a span list.

    ``spans`` holds [id, parent, name, t0, t1, counts] with ids that index
    the list relative to its first element.
    """
    base = spans[0][0] if spans else 0
    child = [0.0] * len(spans)
    for sid, parent, _name, t0, t1, _c in spans:
        if parent is not None and parent - base >= 0:
            child[parent - base] += t1 - t0
    out: dict = {}
    for i, (_sid, _parent, name, t0, t1, counts) in enumerate(spans):
        entry = out.setdefault(name, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += (t1 - t0) - child[i]
        entry["calls"] += 1
        for key, val in (counts or {}).items():
            if key == "temp_mb":
                entry[key] = max(entry.get(key, 0.0), val)
            else:
                entry[key] = entry.get(key, 0) + val
    return out
