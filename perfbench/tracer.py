"""Layer spans for apspectra, recorded from outside the package.

`Tracer.install` wraps the public functions of the ``points``,
``config``, ``folner``, ``almost``, ``spectral`` and ``diffraction``
modules, the ``codes`` method of every point class,
``WeightedComb.values``, ``OutputDir.write_text`` and the CLI command
handlers.  It patches every namespace of the package that binds one of
them (``spectral.observable_track`` as well as
``points.observable_track``), and `uninstall` puts the originals back.
Each call records a span (id, parent id, name, layer, start, end,
counts) in memory; `write` dumps them as JSON lines.

`summarize` turns spans into per-layer metrics.  A layer's time is the
self time of its spans: span duration minus the part covered by child
spans.  Self times of all spans under one ``cli.main`` root add up to
that root's duration.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from workloads import ARTIFACTS

MODULES = ("points", "config", "folner", "almost", "spectral", "diffraction")

# Functions whose layer is not "<module>.other" (config is all parsing).
LAYERS = {
    "points.observable_track": "points.track",
    "folner.partial_means": "folner.partial_means",
    "almost.orbit_profile": "almost.orbit_profile",
    "almost.classify_point": "almost.classify",
    "spectral.fourier_bohr_grid": "spectral.grid",
    "spectral.detect_frequencies": "spectral.detect",
    "spectral.fourier_bohr": "spectral.trajectory",
    "spectral.fourier_bohr_from_track": "spectral.trajectory",
    "spectral.parseval_defect": "spectral.parseval",
    "spectral.eigenfunction_sample": "spectral.eigen",
    "spectral.spectral_report": "spectral.report",
    "diffraction.autocorrelation": "diffraction.autocorr",
    "diffraction.bombieri_taylor_atom": "diffraction.atom",
    "diffraction.diffraction_density": "diffraction.density",
    "diffraction.WeightedComb.values": "diffraction.values",
    "cli.OutputDir.write_text": "cli.write",
}

# Every layer that self time can land in; together they cover cli.main.
ALL_LAYERS = (
    "points.codes", "points.track", "points.other", "config.parse",
    "folner.partial_means", "folner.other", "almost.orbit_profile",
    "almost.classify", "almost.other", "spectral.grid", "spectral.detect",
    "spectral.trajectory", "spectral.parseval", "spectral.eigen",
    "spectral.report", "spectral.other", "diffraction.autocorr",
    "diffraction.atom", "diffraction.density", "diffraction.values",
    "diffraction.other", "cli.self", "cli.write",
)

COMMANDS = tuple(ARTIFACTS)


def _layer(qualname: str) -> str:
    if qualname in LAYERS:
        return LAYERS[qualname]
    module = qualname.split(".", 1)[0]
    return "config.parse" if module == "config" else f"{module}.other"


def _bound(fn):
    """Maps a call's (args, kwargs) to its arguments by parameter name."""
    signature = inspect.signature(fn)

    def arguments(args, kwargs):
        return signature.bind(*args, **kwargs).arguments
    return arguments


def _counters(qualname: str, fn):
    """Function (args, kwargs, result) -> counts, for the spans that need them."""
    if qualname == "almost.orbit_profile":
        bind = _bound(fn)
        return lambda a, k, r: {"translates": len(bind(a, k)["t_values"])}
    if qualname == "spectral.fourier_bohr_grid":
        bind = _bound(fn)
        return lambda a, k, r: {"grid_points": int(bind(a, k)["n"])}
    if qualname == "spectral.detect_frequencies":
        return lambda a, k, r: {"detected": len(r)}
    if qualname == "diffraction.autocorrelation":
        bind = _bound(fn)

        def lag_samples(a, k, r):
            args = bind(a, k)
            lo, hi = args["schedule"].span()
            return {"lag_samples": (int(args["k_max"]) + 1) * (hi - lo)}
        return lag_samples
    if qualname == "cli.OutputDir.write_text":
        bind = _bound(fn)

        def size(a, k, r):
            content = bind(a, k)["content"]
            return {"bytes": len(content) if content.isascii()
                    else len(content.encode("utf-8"))}
        return size
    return None


class Tracer:
    """Records spans for one process; install wraps, uninstall restores."""

    def __init__(self, command_id: str = ""):
        self.command_id = command_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple] = []
        self._points: dict[int, object] = {}

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, sid, parent, name, layer, start, end, counts):
        self.spans.append({"id": sid, "parent": parent,
                           "command": self.command_id, "name": name,
                           "layer": layer, "start": start, "end": end,
                           "counts": counts})

    @contextmanager
    def span(self, name: str, layer: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._record(sid, parent, name, layer, start, end, None)

    def wrap(self, fn, name: str, layer: str, counters=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            done = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = (counters(args, kwargs, result)
                          if done and counters is not None else None)
                tracer._record(sid, parent, name, layer, start, end, counts)
            return result
        return traced

    def _wrap_codes(self, cls, name, delegates):
        """Leaf ``codes`` calls count samples per point; delegating ones do not."""
        if delegates:
            return self.wrap(cls.__dict__["codes"], name, "points.codes")
        points = self._points

        def counters(args, kwargs, result):
            point = args[0]
            points[id(point)] = point  # keep ids unique for the process
            return {"point": id(point), "samples": len(result),
                    "start": int(args[1])}
        return self.wrap(cls.__dict__["codes"], name, "points.codes", counters)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        from apspectra import cli, diffraction, points

        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"apspectra.{short}"]
            for name, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    qualname = f"{short}.{name}"
                    wrappers[id(obj)] = (obj, self.wrap(
                        obj, qualname, _layer(qualname),
                        _counters(qualname, obj)))

        modules = [m for n, m in sys.modules.items()
                   if n == "apspectra" or n.startswith("apspectra.")]
        for module in modules:
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((setattr, module, name, obj))
                    setattr(module, name, hit[1])

        # A shifted point forwards to its base point's codes.
        shifted = getattr(points, "_Shifted", None)
        methods = [(cls, "codes", self._wrap_codes(
                        cls, f"points.{cls.__name__}.codes", cls is shifted))
                   for cls in vars(points).values()
                   if isinstance(cls, type) and issubclass(cls, points.PointGen)
                   and "codes" in cls.__dict__ and cls is not points.PointGen]
        for cls, attr, qualname in (
                (diffraction.WeightedComb, "values", "diffraction.WeightedComb.values"),
                (cli.OutputDir, "write_text", "cli.OutputDir.write_text")):
            fn = cls.__dict__[attr]
            methods.append((cls, attr, self.wrap(fn, qualname, _layer(qualname),
                                                 _counters(qualname, fn))))
        for cls, attr, wrapper in methods:
            self._restore.append((setattr, cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapper)

        handlers = cli._HANDLERS
        for command, fn in list(handlers.items()):
            self._restore.append((dict.__setitem__, handlers, command, fn))
            handlers[command] = self.wrap(fn, f"cli.command.{command}",
                                          "cli.self")

    def uninstall(self) -> None:
        while self._restore:
            put, target, name, original = self._restore.pop()
            put(target, name, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# -- analysis ---------------------------------------------------------------


def self_times(spans: list[dict]) -> dict[tuple, float]:
    """(command, span id) -> duration minus the union of its children."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[(s["command"], s["parent"])].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        start, end = s["start"], s["end"]
        covered, reach = 0.0, start
        for a, b in sorted(children.get((s["command"], s["id"]), ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out[(s["command"], s["id"])] = (end - start) - covered
    return out


def _union_length(intervals) -> int:
    total, reach = 0, None
    for a, b in sorted(intervals):
        if reach is None or a > reach:
            total += b - a
            reach = b
        elif b > reach:
            total += b - reach
            reach = b
    return total


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass: self times, counts and ratios."""
    own = self_times(spans)
    self_s = dict.fromkeys(ALL_LAYERS, 0.0)
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    counts = defaultdict(int)
    command_s = dict.fromkeys(COMMANDS, 0.0)
    coords = defaultdict(list)
    roots = 0.0
    for s in spans:
        layer = s["layer"]
        self_s[layer] += own[(s["command"], s["id"])]
        inclusive[layer] += s["end"] - s["start"]
        c = s["counts"] or {}
        if s["name"] == "cli.main":
            roots += s["end"] - s["start"]
        elif s["name"].startswith("cli.command."):
            command_s[s["name"][len("cli.command."):]] += s["end"] - s["start"]
        if layer != "points.codes":
            calls[layer] += 1
            for key, value in c.items():
                counts[key] += value
        elif c:  # a leaf call, which generated the samples
            calls[layer] += 1
            counts["samples"] += c["samples"]
            coords[(s["command"], c["point"])].append(
                (c["start"], c["start"] + c["samples"]))

    distinct = sum(_union_length(v) for v in coords.values())
    metrics = {f"{layer}_s": t for layer, t in self_s.items()}
    metrics.update({
        "points.codes_calls": calls["points.codes"],
        "points.samples": counts["samples"],
        "points.resample_ratio": counts["samples"] / distinct if distinct else 0.0,
        "folner.partial_means_calls": calls["folner.partial_means"],
        "almost.translates": counts["translates"],
        "almost.translates_per_s": (
            counts["translates"] / inclusive["almost.orbit_profile"]
            if inclusive["almost.orbit_profile"] else 0.0),
        "spectral.grid_points": counts["grid_points"],
        "spectral.detected": counts["detected"],
        "spectral.detect_s_per_frequency": (
            self_s["spectral.detect"] / counts["detected"]
            if counts["detected"] else 0.0),
        "spectral.trajectory_calls": calls["spectral.trajectory"],
        "diffraction.autocorr_lag_samples": counts["lag_samples"],
        "cli.bytes_written": counts["bytes"],
        "trace.spans": len(spans),
        "trace.root_s": roots,
        # 1 up to rounding: layer self times partition the cli.main spans.
        "trace.attributed_share": sum(self_s.values()) / roots if roots else 0.0,
    })
    metrics.update({f"cli.command_s.{k}": v for k, v in command_s.items()})
    return metrics
