"""Experiment configuration: one table of accepted keys per command.

Configs are JSON documents.  ``COMMANDS`` lists every key a command
accepts, nested blocks included, with its type, bounds and default.
``validate`` checks a config against that table once: an unknown key,
a value of the wrong type or out of bounds, or a missing required key
raises ``ConfigError`` naming the key's path.  What it returns is the
expanded config (presets read as the objects they stand for, every
default filled in), which is what gets hashed and echoed into every
output, so artifacts are self-describing and two runs of one config
are byte-identical.  Validating an expanded config changes nothing.
"""

from __future__ import annotations

import copy
import json
import math

try:    # the builtin SHA-256: hashlib loads OpenSSL's libcrypto, ~3.5 MiB
    from _sha2 import sha256                # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256          # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256

from .almost import KINDS, ScanBudget
from .errors import ConfigError
from .folner import Character, EstimatorConfig, FolnerSchedule
from .points import (FIBONACCI_RULES, MAX_RADIUS, PERIOD_DOUBLING_RULES,
                     THUE_MORSE_RULES, BernoulliPoint, BlockPoint, Observable,
                     PeriodicPoint, PointGen, StepPoint, SturmianPoint,
                     SubstitutionPoint)

__all__ = ["COMMANDS", "SAMPLE_BUDGET", "MAX_MAGNITUDE", "validate",
           "build_point", "build_budget", "build_observable", "build_schedule",
           "build_weights", "canonical_json", "config_hash", "load_config"]

REQUIRED = object()     # the default of a key that must be given

# The most samples one key may ask for: a schedule span, a range, a grid
# size, a lag count, a shift span or a horizon, and the most one orbit
# run of a scan may read.  The largest of the determinism configs, a
# diffract span of 10^6, is a quarter of it.
SAMPLE_BUDGET = 2 ** 22

# The largest magnitude of a part of a weight or an observable value.
# Squared sums over SAMPLE_BUDGET samples, and the frequency refinement's
# moments, which weigh a value by s^2 for |s| < SAMPLE_BUDGET, stay finite.
MAX_MAGNITUDE = 1e100


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


class Spec:
    """One config value: the JSON it takes, its bounds and its default.

    ``check(value, path)`` returns the value in expanded form or raises
    ``ConfigError`` naming ``path``.  A key left out takes its default,
    which is checked like a given value; a key whose default is
    ``REQUIRED`` must be given, and one whose default is None may be null.
    """

    def __init__(self, default=REQUIRED):
        self.default = default

    def with_default(self, default) -> "Spec":
        spec = copy.copy(self)
        spec.default = default
        return spec


class Int(Spec):
    def __init__(self, default=REQUIRED, least=-2 ** 63, most=2 ** 63 - 1):
        super().__init__(default)
        self.least, self.most = least, most

    def check(self, value, path):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(path, f"expected an integer, got {value!r}")
        if value < self.least:
            raise ConfigError(path, f"must be at least {self.least}, got {value}")
        if value > self.most:
            raise ConfigError(path, f"must be at most {self.most}, got {value}")
        return value


class Num(Spec):
    """A finite number, read as a float; ``positive`` excludes zero too."""

    def __init__(self, default=REQUIRED, positive=False):
        super().__init__(default)
        self.positive = positive

    def check(self, value, path):
        if not isinstance(value, bool) and isinstance(value, (int, float)):
            try:
                number = float(value)
            except OverflowError:       # an int beyond the float range
                number = float("inf")
            if math.isfinite(number):
                if self.positive and number <= 0:
                    raise ConfigError(path, f"must be positive, got {value!r}")
                return number
        raise ConfigError(path, f"expected a finite number, got {value!r}")


class Complex(Spec):
    """A number or [re, im], expanded to [re, im]; no part may exceed
    ``MAX_MAGNITUDE`` in magnitude."""

    def check(self, value, path):
        parts = value if isinstance(value, list) and len(value) == 2 else [value, 0]
        parts = [Num().check(v, path) for v in parts]
        if max(map(abs, parts)) > MAX_MAGNITUDE:
            raise ConfigError(path, f"parts must be at most {MAX_MAGNITUDE:g} "
                                    f"in magnitude, got {value!r}")
        return parts


class Str(Spec):
    def __init__(self, default=REQUIRED, choices=()):
        super().__init__(default)
        self.choices = choices

    def check(self, value, path):
        if not isinstance(value, str):
            raise ConfigError(path, f"expected a string, got {value!r}")
        if self.choices and value not in self.choices:
            raise ConfigError(path, f"must be one of {list(self.choices)}, "
                                    f"got {value!r}")
        return value


class List(Spec):
    def __init__(self, item: Spec, default=REQUIRED, least=0, most=None):
        super().__init__(default)
        self.item, self.least, self.most = item, least, most

    def check(self, value, path):
        if not isinstance(value, list):
            raise ConfigError(path, f"expected a list, got {value!r}")
        if not self.least <= len(value) <= (self.most or len(value)):
            at = "at least " if self.most is None else ""  # pairs: least == most
            raise ConfigError(path, f"expected {at}{self.least} entries, "
                                    f"got {len(value)}")
        return [self.item.check(v, f"{path}[{i}]") for i, v in enumerate(value)]


class Map(Spec):
    """An object whose keys are data (letters, patterns), not settings."""

    def __init__(self, item: Spec, default=REQUIRED):
        super().__init__(default)
        self.item = item

    def check(self, value, path):
        if not isinstance(value, dict):
            raise ConfigError(path, f"expected an object, got {value!r}")
        return {k: self.item.check(v, f"{path}.{k}") for k, v in value.items()}


class Block(Spec):
    """An object with a fixed set of keys; any other key is an error."""

    def __init__(self, keys: dict, default=REQUIRED):
        super().__init__(default)
        self.keys = keys

    def check(self, value, path):
        if not isinstance(value, dict):
            raise ConfigError(path, f"expected an object, got {value!r}")
        for key in value:
            if key not in self.keys:
                raise ConfigError(_join(path, key), "unknown key")
        out = {}
        for key, spec in self.keys.items():
            field = _join(path, key)
            given = value.get(key, spec.default)
            if given is REQUIRED:
                raise ConfigError(field, "missing")
            out[key] = None if given is None and spec.default is None \
                else spec.check(given, field)
        return out


class Kinds(Spec):
    """An object whose ``kind`` picks its keys; ``preset`` reads strings."""

    def __init__(self, kinds: dict, preset=None, default=REQUIRED):
        super().__init__(default)
        self.kinds = {kind: Block({"kind": Str(), **keys})
                      for kind, keys in kinds.items()}
        self.preset = preset

    def check(self, value, path):
        if self.preset is not None:
            value = self.preset(value, path)
        if not isinstance(value, dict):
            what = "a preset string or an object" if self.preset else "an object"
            raise ConfigError(path, f"expected {what}, got {value!r}")
        kind = value.get("kind")
        if kind is None:
            raise ConfigError(f"{path}.kind", "missing")
        if not isinstance(kind, str) or kind not in self.kinds:
            raise ConfigError(f"{path}.kind", f"unknown {path} kind {kind!r}")
        return self.kinds[kind].check(value, path)


_SUBSTITUTIONS = {"fibonacci": FIBONACCI_RULES, "thue-morse": THUE_MORSE_RULES,
                  "period-doubling": PERIOD_DOUBLING_RULES}


def _scalar(text: str, field: str):
    """A preset parameter: an integer if it reads as one, else a float."""
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    raise ConfigError(field, f"expected a number, got {text!r}")


def _point_preset(value, path: str):
    """The object form of ``bernoulli:0.5:7`` or ``{"preset": ...}``."""
    if isinstance(value, dict) and "preset" in value:
        value = Block({"preset": Str()}).check(value, path)["preset"]
    if not isinstance(value, str):
        return value
    head, _, rest = value.partition(":")
    if head in _SUBSTITUTIONS:
        return {"kind": "substitution", "rules": _SUBSTITUTIONS[head],
                "name": head}
    if head == "step":
        return {"kind": head}
    if head in ("periodic", "block"):
        key = "pattern" if head == "periodic" else "fill"
        return {"kind": head, key: rest} if rest else {"kind": head}
    if head in ("sturmian", "bernoulli"):
        names = ("alpha", "rho") if head == "sturmian" else ("p", "seed")
        parts = rest.split(":") if rest else []
        if len(parts) > 2:
            raise ConfigError(path, f"{head} preset takes at most two values")
        return {"kind": head, **{name: _scalar(text, f"{path}.{name}")
                                 for name, text in zip(names, parts)}}
    raise ConfigError(path, f"unknown point preset {value!r}")


def _observable_preset(value, path: str):
    """The object form of ``indicator:<letter>[@<offset>]``."""
    if not isinstance(value, str):
        return value
    head, _, rest = value.partition(":")
    if head != "indicator":
        raise ConfigError(path, f"unknown observable preset {value!r}")
    letter, _, offset = rest.partition("@")
    return {"kind": "indicator", "letter": letter,
            "offset": _scalar(offset or "0", f"{path}.offset")}


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

SEED = Int(least=0, most=2 ** 64 - 1)
# an input cap: coordinates (and offsets, shifts and window starts) stay in
# the budget, far inside what the generators' float arithmetic resolves
COORD = Int(least=-SAMPLE_BUDGET, most=SAMPLE_BUDGET)

POINT = Kinds({
    "periodic": {"pattern": Str()},
    "substitution": {"rules": Map(Str()),
                     "seed": List(Str(), ["0", "0"], 2, 2),
                     "name": Str("")},
    "sturmian": {"alpha": Num(), "rho": Num(0.0)},
    "bernoulli": {"p": Num(), "seed": SEED},
    "step": {},
    "block": {"fill": Str("0")},
}, _point_preset)

OBSERVABLE = Kinds({
    "indicator": {"letter": Str(), "offset": COORD.with_default(0)},
    "letter_values": {"map": Map(Complex()), "offset": COORD.with_default(0)},
    "table": {"window": List(COORD, least=1), "table": Map(Complex()),
              "name": Str("")},
}, _observable_preset)

# each kind is the FolnerSchedule constructor of that name; validate
# bounds the spans of intervals and custom schedules
SCHEDULE = Kinds({
    "intervals": {"base": Int(100, least=1, most=SAMPLE_BUDGET),
                  "n_max": Int(10, least=1, most=SAMPLE_BUDGET)},
    "dyadic": {"n_max": Int(16, least=1, most=SAMPLE_BUDGET.bit_length() - 1)},
    "alternating": {"n_max": Int(16, least=1, most=SAMPLE_BUDGET // 2)},
    "custom": {"windows": List(List(COORD, least=2, most=2), least=1)},
})

ESTIMATOR = Block({
    "tail": Int(5, least=1),
    "convergence_tol": Num(1e-3, positive=True),
    "oscillation_threshold": Num(0.1, positive=True),
}, default={})

GRID_SIZES = List(Int(least=2, most=SAMPLE_BUDGET), least=2)
THETAS = List(Num(), None)

DETECT = Block({
    "grid_sizes": GRID_SIZES.with_default([16384, 65536]),
    "threshold": Num(None, positive=True),
    "refine_steps": Int(48, least=1),
    "top": Int(None, least=0),
}, default={})

_POINT = {"point": POINT, "seed": SEED.with_default(None)}
_AVERAGED = {**_POINT, "schedule": SCHEDULE, "estimator": ESTIMATOR}
_SCAN = {
    **_AVERAGED,
    "metric_radius": Int(16, least=1, most=MAX_RADIUS),
    "weyl_index": Int(None, least=1),
    "weyl_shift_span": Int(None, least=0, most=SAMPLE_BUDGET),
    "bohr_horizon": Int(512, least=0, most=SAMPLE_BUDGET),
    "range": List(COORD, [-256, 256], 2, 2),
}

COMMANDS = {
    "generate": Block({**_POINT, "range": List(COORD, [0, 99], 2, 2),
                       "observable": OBSERVABLE.with_default(None)}),
    "scan": Block({**_SCAN, "epsilon": Num(0.1, positive=True),
                   "kinds": List(Str(choices=KINDS), list(KINDS), least=1)}),
    "classify": Block({
        **_SCAN,
        "eps_grid": List(Num(positive=True), [0.01, 0.05, 0.1, 0.2], least=1),
        "gap_threshold": Num(0.2, positive=True)}),
    "spectrum": Block({
        **_AVERAGED, "observable": OBSERVABLE,
        "grid_sizes": GRID_SIZES.with_default([4096, 16384, 65536]),
        "threshold": Num(None, positive=True),
        "refine_steps": Int(48, least=1),
        "max_frequencies": Int(32, least=0)}),
    "parseval": Block({**_AVERAGED, "observable": OBSERVABLE,
                       "thetas": THETAS, "detect": DETECT}),
    "eigen": Block({**_AVERAGED, "observable": OBSERVABLE, "theta": Num(),
                    "point_shifts": List(COORD, [0, 1, 2, 3, 5], least=1),
                    "shift_probes": List(COORD, [1, 2, 3, 5, 8])}),
    "diffract": Block({
        **_AVERAGED, "weights": Map(Complex()),
        "k_max": Int(32, least=0, most=SAMPLE_BUDGET),
        "taper": Str("triangular", choices=("none", "triangular")),
        "grid_size": Int(None, least=1, most=SAMPLE_BUDGET),
        "atom_thetas": THETAS, "thetas": THETAS, "detect": DETECT}),
}


def validate(command: str, cfg: dict, seed_override: int | None = None) -> dict:
    """The expanded config of ``command``: every key it accepts, filled in.

    ``seed_override`` replaces the top-level ``seed`` and a Bernoulli
    point's seed, and is checked like them.
    """
    if seed_override is not None:
        cfg = dict(cfg, seed=seed_override)
    out = {"command": command, **COMMANDS[command].check(cfg, "")}
    if seed_override is not None and out["point"]["kind"] == "bernoulli":
        out["point"]["seed"] = out["seed"]
    if out.get("weyl_index") is not None:
        n = _stages(out["schedule"])
        if out["weyl_index"] > n:
            raise ConfigError("weyl_index", f"must lie in 1..{n}")
    if out.get("grid_size") is not None and out["grid_size"] < 2 * out["k_max"]:
        raise ConfigError("grid_size", "must be at least 2 * k_max")
    lo, hi = out.get("range", (0, 0))
    if hi < lo:
        raise ConfigError("range", f"range is empty: {lo} > {hi}")
    if command == "classify" and hi == lo:  # its gap rule holds at width 0
        raise ConfigError("range", "classify needs at least two translates")
    _check_budget("range", hi - lo + 1)
    schedule = out.get("schedule", {})
    if schedule.get("kind") == "intervals":
        _check_budget("schedule.n_max", schedule["base"] * schedule["n_max"])
    if schedule.get("kind") == "custom":
        starts = [s for s, _ in schedule["windows"]]
        ends = [s + l for s, l in schedule["windows"]]
        _check_budget("schedule.windows", max(ends) - min(starts))
    if command == "diffract":       # the lag table: one row per window
        _check_budget("k_max", _stages(schedule) * (out["k_max"] + 1))
        m = out["grid_size"] or max(2 * out["k_max"], 16)   # the density
        _check_budget("grid_size" if out["grid_size"] else "k_max",
                      m * (2 * out["k_max"] + 1))
    # every stage holds its grid: a halving ladder up to the budget sums
    # to under twice it
    grids = (("grid_sizes", out.get("grid_sizes")),
             ("detect.grid_sizes", out.get("detect", {}).get("grid_sizes")))
    for path, sizes in grids:
        if sizes and sum(sizes) > 2 * SAMPLE_BUDGET:
            raise ConfigError(path, f"sizes sum to {sum(sizes)}, more than "
                                    f"twice the budget of {SAMPLE_BUDGET}")
    # a kind scanned twice writes its column twice, a theta met twice
    # modulo 1 counts its mass twice, and a grid size met twice checks
    # persistence against the same grid, so it filters nothing
    for key, values, same in (("kinds", out.get("kinds"), str),
                              ("thetas", out.get("thetas"), _turn),
                              ("atom_thetas", out.get("atom_thetas"), _turn),
                              *((path, sizes, int) for path, sizes in grids)):
        seen = set()
        for i, value in enumerate(map(same, values or ())):
            if value in seen:
                raise ConfigError(f"{key}[{i}]", f"repeats {value!r}")
            seen.add(value)
    if command in ("scan", "classify"):
        (lo, hi), ranges = build_budget(out).ranges(out.get("kinds", KINDS))
        if hi - lo > SAMPLE_BUDGET:     # blame the key of the widest range
            widest = max(ranges, key=lambda k: ranges[k][1] - ranges[k][0])
            _check_budget(_RUN_KEYS[widest], hi - lo)
    return out


def _turn(theta: float) -> float:
    """theta reduced mod 1 as a character reduces it."""
    return Character(theta).theta


def _stages(schedule: dict) -> int:
    """The number of windows of a validated schedule."""
    return len(schedule.get("windows", ())) or schedule["n_max"]


# the key that sets the coordinates each kind of scan reads
_RUN_KEYS = {"mean": "schedule", "weyl": "weyl_shift_span",
             "bohr": "bohr_horizon"}


def _check_budget(path: str, samples: int) -> None:
    if samples > SAMPLE_BUDGET:
        raise ConfigError(path, f"asks for {samples} samples, more than the "
                                f"budget of {SAMPLE_BUDGET}")


# ---------------------------------------------------------------------------
# objects from validated values
# ---------------------------------------------------------------------------

_POINTS = {"periodic": PeriodicPoint, "substitution": SubstitutionPoint,
           "sturmian": SturmianPoint, "bernoulli": BernoulliPoint,
           "step": StepPoint, "block": BlockPoint}
# the field a generator's own ValueError is reported against
_BLAME = {"sturmian": "point.alpha", "bernoulli": "point.p",
          "block": "point.fill"}


def _construct(ctor, spec: dict, field: str):
    try:
        return ctor(**{k: v for k, v in spec.items() if k != "kind"})
    except ValueError as exc:
        raise ConfigError(field, str(exc)) from None


def build_point(spec: dict) -> PointGen:
    kind = spec["kind"]
    return _construct(_POINTS[kind], spec, _BLAME.get(kind, "point"))


def build_schedule(spec: dict) -> FolnerSchedule:
    # validated bounds leave a custom schedule's windows the one thing to blame
    return _construct(getattr(FolnerSchedule, spec["kind"]), spec,
                      "schedule.windows" if spec["kind"] == "custom" else "schedule")


def build_budget(cfg: dict) -> ScanBudget:
    """The truncations of a validated scan or classify config."""
    knobs = ("metric_radius", "weyl_index", "weyl_shift_span", "bohr_horizon")
    return ScanBudget(build_schedule(cfg["schedule"]),
                      estimator=EstimatorConfig(**cfg["estimator"]),
                      **{k: cfg[k] for k in knobs})


def build_weights(spec: dict, point: PointGen, field: str = "weights") -> dict:
    """Letter -> complex, one value for every letter of the point."""
    weights = {k: complex(*v) for k, v in spec.items()}
    missing = set(point.alphabet) - set(weights)
    if missing:
        raise ConfigError(field, f"missing letters {sorted(missing)}")
    return weights


def build_observable(spec: dict, point: PointGen) -> Observable:
    kind = spec["kind"]
    if kind == "indicator":
        if spec["letter"] not in point.alphabet:
            raise ConfigError("observable.letter",
                              f"{spec['letter']!r} is not a letter of the point")
        return Observable.indicator(spec["letter"], point.alphabet,
                                    spec["offset"])
    if kind == "letter_values":
        return Observable.letter_values(
            build_weights(spec["map"], point, "observable.map"), spec["offset"])
    table = {k: complex(*v) for k, v in spec["table"].items()}
    try:
        obs = Observable(tuple(spec["window"]), table, spec["name"])
        obs.lookup_array(point.alphabet)    # every pattern has a value
    except (ValueError, KeyError) as exc:
        raise ConfigError("observable.table", exc.args[0]) from None
    return obs


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)


def config_hash(expanded: dict) -> str:
    return sha256(canonical_json(expanded).encode("utf-8")).hexdigest()


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level must be an object")
    return cfg
