"""Span tracer that wraps cmlab's public functions from outside the package.

`install` replaces every public function (no leading underscore) defined in a
layer module, at every module attribute in the package that binds it, by a
wrapper that records one span: name, start, end and parent span.  Public
methods of the classes defined there are wrapped on the class.  Private
helpers are never wrapped, so their time counts as self time of the public
function that called them.

Spans stay in memory (flat arrays) until `summarize` derives, per function,
`calls`, inclusive time `s` (outermost spans of that name only) and `self_s`
(duration minus direct child spans), plus `<layer>.self_s` and the counts that
COUNTERS compute from each call's arguments and return value.  The tracer keeps
one span stack, so it is for single-threaded runs only.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "goldbach", "closeness", "models", "arithfn", "arith", "characters")

# arithfn.convolve's "auto" rule at the seed: direct when len(f)*len(g) <= 2**21
DIRECT_COST_LIMIT = 1 << 21


def _convolve_counts(args, kwargs, out):
    f, g = args[0], args[1]
    method = args[2] if len(args) > 2 else kwargs.get("method", "auto")
    if method == "auto":
        method = "direct" if len(f) * len(g) <= DIRECT_COST_LIMIT else "fft"
    counts = {"out_points": len(out)}
    if method == "direct":
        counts["direct_macs"] = len(f) * len(g)
    else:
        counts["fft_points"] = 1 << max(1, (len(out) - 1).bit_length())
    return counts


def _pipeline_counts(args, kwargs, out):
    config = args[0] if args else kwargs["config"]
    return {"values_read": 5 * (config.h + 1)}  # five convolutions read on [X-H, X]


# computed counts per span; bytes are array sizes, labelled as computed
COUNTERS = {
    "arithfn.convolve": _convolve_counts,
    "arithfn.twist_values": lambda args, kwargs, out: {"points": len(out)},
    "arithfn.power_spectrum": lambda args, kwargs, out: {"points": out[0]},
    "closeness.farey_dissection": lambda args, kwargs, out: {"arcs": len(out)},
    "closeness.closeness_integral": lambda args, kwargs, out: {
        "farey_decided": int(out.farey_bound >= out.spot_estimate)
    },
    "models.lambda_q_window": lambda args, kwargs, out: {"points": len(out)},
    "models.beta_sieve_weights": lambda args, kwargs, out: {"weights": len(out.weights)},
    "arith.prime_flags": lambda args, kwargs, out: {"bytes": out.nbytes},
    "arith.weighted_prime_fn": lambda args, kwargs, out: {"bytes": out.values.nbytes},
    "goldbach.run_pipeline": _pipeline_counts,
}


class Tracer:
    """In-memory span store: parallel arrays indexed by span number."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.nested = array("b")  # a span of the same name was already open
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[int, dict] = {}
        self._stack: list[int] = []
        self._depth: dict[int, int] = {}

    def call(self, name, fn, counter, args, kwargs):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        depth = self._depth.get(nid, 0)
        self.nested.append(depth > 0)
        self.start.append(0.0)
        self.end.append(0.0)
        self._depth[nid] = depth + 1
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._depth[nid] = depth
            self.start[idx] = t0
            self.end[idx] = t1
        if counter is not None:
            self.counts[idx] = counter(args, kwargs, out)
        return out

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, counter, args, kwargs)

        return traced

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "nested": np.frombuffer(self.nested, dtype=np.int8).astype(bool),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


def install(tracer: Tracer, package: str = "cmlab"):
    """Wrap the package's public functions and methods; return a function that undoes it."""
    wrappers: dict[int, object] = {}
    undo: list[tuple[object, str, object]] = []
    for layer in LAYERS:
        module = sys.modules[f"{package}.{layer}"]
        for attr, value in vars(module).items():
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(value):
                _wrap_class(tracer, layer, value, undo)
            elif inspect.isroutine(value):
                wrappers[id(value)] = tracer.wrap(f"{layer}.{value.__qualname__}", value)
    for name, module in list(sys.modules.items()):
        if name != package and not name.startswith(package + "."):
            continue
        for attr, value in list(vars(module).items()):
            wrapped = wrappers.get(id(value))
            if wrapped is not None:
                undo.append((module, attr, value))
                setattr(module, attr, wrapped)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def _wrap_class(tracer: Tracer, layer: str, cls: type, undo: list) -> None:
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(tracer.wrap(name, raw.__func__))
        elif inspect.isfunction(raw):
            wrapped = tracer.wrap(name, raw)
        else:
            continue  # properties and data
        undo.append((cls, attr, raw))
        setattr(cls, attr, wrapped)


def summarize(tracer: Tracer) -> dict:
    """Per-function and per-layer statistics derived from the recorded spans."""
    a = tracer.arrays()
    k = len(tracer.names)
    n = len(a["start"])
    dur = a["end"] - a["start"]
    nid, parent, nested = a["name_id"], a["parent"], a["nested"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child_time
    calls = np.bincount(nid, minlength=k)
    inclusive = np.bincount(nid[~nested], weights=dur[~nested], minlength=k)
    own = np.bincount(nid, weights=self_time, minlength=k)

    out: dict[str, float] = {"trace.spans": n, "trace.root_s": float(dur[~has_parent].sum())}
    for i, name in enumerate(tracer.names):
        out[f"{name}.calls"] = int(calls[i])
        out[f"{name}.s"] = float(inclusive[i])
        out[f"{name}.self_s"] = float(own[i])
        layer = name.split(".", 1)[0] + ".self_s"
        out[layer] = out.get(layer, 0.0) + float(own[i])
    for idx, counts in tracer.counts.items():
        prefix = tracer.names[nid[idx]]
        for stat, value in counts.items():
            out[f"{prefix}.{stat}"] = out.get(f"{prefix}.{stat}", 0) + value
    out["goldbach.run_pipeline.window_used_frac"] = _window_used_frac(tracer, nid, parent)
    return out


def _window_used_frac(tracer: Tracer, nid: np.ndarray, parent: np.ndarray) -> float:
    """Values run_pipeline reads over the output length of the convolutions it makes."""
    pipeline = tracer._ids.get("goldbach.run_pipeline")
    convolve = tracer._ids.get("arithfn.convolve")
    if pipeline is None or convolve is None:
        return 0.0
    read = made = 0
    for idx, counts in tracer.counts.items():
        if nid[idx] == pipeline:
            read += counts["values_read"]
        elif nid[idx] == convolve:
            up = parent[idx]
            while up >= 0 and nid[up] != pipeline:
                up = parent[up]
            if up >= 0:
                made += counts["out_points"]
    return read / made if made else 0.0
