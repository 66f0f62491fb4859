"""Outside-in layer trace: wraps annact's public functions, records spans.

A layer is one annact module: cli, harness, action, rotation, quadrature,
orbits and maps. ``LayerTrace.install`` replaces every public function
defined in a layer module by a wrapper, in every annact module that binds it
(``find_periodic_orbits`` is bound in annact.orbits, annact.harness,
annact.cli and annact itself), and wraps ``apply_lift`` and ``jacobian`` on
each map class. ``restore`` puts every original back.

A wrapper records a span (name, start, end, parent span) in memory; the
trace also adds up calls, time and self time per span name and self time per
layer. A span's self time is its duration minus the time of its child spans.
Calls from maps into maps (Compose and Iterate recurse, map_from_config
recurses) run unwrapped, so a map call counts once, when it comes from
another layer. Map-kernel calls are too many to keep one by one; they are
only added up.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("cli", "harness", "action", "rotation", "quadrature", "orbits", "maps")
KERNELS = ("apply_lift", "jacobian")


def _is_entry(span: str) -> bool:
    """Entry points whose own time is dispatch, not a named stage."""
    return span == "cli.main" or span.startswith("cli.cmd_")


class LayerTrace:
    def __init__(self):
        self.stack: list[list] = []
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.layer_self: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[list] = []
        self._patches: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _push(self, name: str, layer: str):
        span_id = None
        if layer != "maps":
            span_id = len(self.spans)
            parent = self.stack[-1][4] if self.stack else None
            self.spans.append([name, parent, 0.0, 0.0])
        self.stack.append([name, layer, time.perf_counter(), 0.0, span_id])

    def _pop(self):
        name, layer, t0, child, span_id = self.stack.pop()
        t1 = time.perf_counter()
        dur = t1 - t0
        st = self.stats[name]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        self.layer_self[layer] += dur - child
        if self.stack:
            self.stack[-1][3] += dur
        if span_id is not None:
            self.spans[span_id][2:] = [t0, t1]

    def reset(self):
        """Forget the numbers of the previous instance (spans are kept)."""
        self.stats.clear()
        self.layer_self.clear()
        self.counts.clear()

    # -- wrappers -----------------------------------------------------------

    def _wrap_function(self, f, layer: str):
        trace = self
        span = f"{layer}.{f.__name__}"
        rename = _RENAMERS.get(span)
        count = _COUNTERS.get(span)

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            if layer == "maps" and trace.stack and trace.stack[-1][1] == "maps":
                return f(*args, **kwargs)
            trace._push(span if rename is None else rename(span, args, kwargs), layer)
            try:
                result = f(*args, **kwargs)
            finally:
                trace._pop()
            if count is not None:
                count(trace, args, kwargs, result)
            return result

        return wrapper

    def _wrap_kernel(self, f, kernel: str):
        trace = self
        scalar = (f"maps.{kernel}.scalar", f"maps.{kernel}.scalar.points")
        batch = (f"maps.{kernel}.batch", f"maps.{kernel}.batch.points")

        @functools.wraps(f)
        def wrapper(obj, xt, y):
            stack = trace.stack
            if stack and stack[-1][1] == "maps":
                return f(obj, xt, y)
            if (type(xt) is float and type(y) is float) or (np.ndim(xt) == 0 and np.ndim(y) == 0):
                span, points, n = scalar[0], scalar[1], 1
            else:
                span, points, n = batch[0], batch[1], max(np.size(xt), np.size(y))
            trace.counts[points] += n
            trace._push(span, "maps")
            try:
                return f(obj, xt, y)
            finally:
                trace._pop()

        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("layer trace is already installed")
        layer_modules = {layer: importlib.import_module(f"annact.{layer}") for layer in LAYERS}
        bound_in = [m for n, m in sorted(sys.modules.items())
                    if (n == "annact" or n.startswith("annact.")) and m is not None]
        for layer, mod in layer_modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap_function(obj, layer)
                for holder in bound_in:
                    for name, value in list(vars(holder).items()):
                        if value is obj:
                            self._patch(holder, name, wrapper)
        maps = layer_modules["maps"]
        for cls in vars(maps).values():
            if inspect.isclass(cls) and issubclass(cls, maps.MapExpr):
                for kernel in KERNELS:
                    if kernel in vars(cls):
                        self._patch(cls, kernel, self._wrap_kernel(vars(cls)[kernel], kernel))

    def _patch(self, holder, name: str, value):
        self._patches.append((holder, name, getattr(holder, name)))
        setattr(holder, name, value)

    def restore(self):
        while self._patches:
            holder, name, original = self._patches.pop()
            setattr(holder, name, original)

    # -- results ------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, as (value, unit), of the instance traced since
        the last reset, which took wall_s seconds."""
        out: dict[str, tuple[float, str]] = {}

        def stat(span, field):
            return self.stats.get(span, (0, 0.0, 0.0))[field]

        for span, fields in REPORTED.items():
            for field in fields:
                out[f"{span}.{field}"] = (stat(span, _FIELDS[field][0]), _FIELDS[field][1])
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.layer_self.get(layer, 0.0), "s")
        for kernel in KERNELS:
            points = sum(self.counts.get(f"maps.{kernel}.{kind}.points", 0) for kind in ("scalar", "batch"))
            out[f"maps.{kernel}.points"] = (points, "count")
        batch_points = self.counts.get("maps.apply_lift.batch.points", 0)
        ns = 1e9 * stat("maps.apply_lift.batch", 1) / batch_points if batch_points else 0.0
        out["maps.apply_lift.batch.ns_per_point"] = (ns, "ns/point")
        seeds = self.counts.get("orbits.seeds", 0)
        found = self.counts.get("orbits.orbits_returned", 0)
        out["orbits.seeds"] = (seeds, "count")
        out["orbits.orbits_returned"] = (found, "count")
        out["orbits.seeds_per_orbit"] = (seeds / found if found else 0.0, "seeds/orbit")
        covered = sum(st[2] for span, st in self.stats.items() if not _is_entry(span))
        out["trace.coverage"] = (covered / wall_s if wall_s > 0 else 0.0, "fraction")
        return out

    def write_spans(self, path: Path):
        """Write the spans kept in memory, one JSON object a line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span_id, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")


def _measure_span(span: str, args, kwargs) -> str:
    # measure_action(m, ctx, mu, ...) and measure_rotation(m, mu, ...);
    # boundary_lower and boundary_upper share the span "<span>.boundary"
    mu = kwargs["mu"] if "mu" in kwargs else args[2 if span.startswith("action.") else 1]
    return f"{span}.{mu.variant.split('_')[0]}"


def _count_census(trace: LayerTrace, args, kwargs, result):
    cfg = kwargs.get("cfg", args[3] if len(args) > 3 else None)
    if cfg is None:
        cfg = sys.modules["annact.orbits"].SearchConfig()
    trace.counts["orbits.seeds"] += cfg.grid ** 2
    trace.counts["orbits.orbits_returned"] += len(result)


# spans named after the measure kind, and spans that count their work
_RENAMERS = {"action.measure_action": _measure_span, "rotation.measure_rotation": _measure_span}
_COUNTERS = {"orbits.find_periodic_orbits": _count_census}

_FIELDS = {"calls": (0, "count"), "s": (1, "s"), "self_s": (2, "s")}

# spans whose calls / time / self time are reported as per-layer metrics
REPORTED = {
    "cli.load_config": ("s",),
    "cli.write_verification_outputs": ("s",),
    "cli.phase_portrait_csv": ("s",),
    "harness.verify_theorem": ("self_s",),
    "harness.candidate_windings": ("calls",),
    "action.measure_action.boundary": ("s",),
    "action.measure_action.area": ("s",),
    "action.measure_action.empirical": ("s",),
    "action.calabi": ("calls", "s"),
    "action.path_independence_defect": ("s",),
    "rotation.measure_rotation.area": ("s",),
    "rotation.measure_rotation.empirical": ("s",),
    "quadrature.tree_field_integral": ("calls", "s"),
    "orbits.find_periodic_orbits": ("calls", "s", "self_s"),
    "orbits.orbit_distance": ("calls", "s"),
    "maps.apply_lift.scalar": ("calls", "s"),
    "maps.apply_lift.batch": ("calls", "s"),
    "maps.jacobian.scalar": ("calls", "s"),
    "maps.jacobian.batch": ("calls", "s"),
}
