"""Experiment configuration: parsing, validation, presets, canonical form.

Configs are JSON documents.  Presets expand to explicit parameters
before anything runs, and the expanded form is what gets hashed and
echoed into every output, so artifacts are self-describing and two
runs of one config are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math

from .errors import ConfigError
from .folner import EstimatorConfig, FolnerSchedule
from .points import (FIBONACCI_RULES, PERIOD_DOUBLING_RULES, THUE_MORSE_RULES,
                     BernoulliPoint, BlockPoint, Observable, PeriodicPoint,
                     PointGen, StepPoint, SturmianPoint, SubstitutionPoint)

__all__ = [
    "build_point",
    "build_observable",
    "build_schedule",
    "build_estimator",
    "build_weights",
    "parse_complex",
    "canonical_json",
    "config_hash",
    "load_config",
]

_SUBSTITUTIONS = {
    "fibonacci": FIBONACCI_RULES,
    "thue-morse": THUE_MORSE_RULES,
    "period-doubling": PERIOD_DOUBLING_RULES,
}


def _require(spec: dict, key: str, field: str):
    if key not in spec:
        raise ConfigError(f"{field}.{key}", "missing")
    return spec[key]


def _typed(spec: dict, key: str, field: str, kind: type = dict):
    value = _require(spec, key, field)
    if not isinstance(value, kind):
        raise ConfigError(f"{field}.{key}",
                          f"expected a {kind.__name__}, got {value!r}")
    return value


def _number(value, field: str) -> float:
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:      # an int beyond the float range
            pass
    raise ConfigError(field, f"expected a finite number, got {value!r}")


def _integer(value, field: str, least: int | None = None,
             most: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(field, f"expected an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(field, f"must be at least {least}, got {value}")
    if most is not None and value > most:
        raise ConfigError(field, f"must be at most {most}, got {value}")
    return value


def parse_complex(value, field: str) -> complex:
    """A number, or [re, im]."""
    if isinstance(value, list) and len(value) == 2:
        return complex(_number(value[0], field), _number(value[1], field))
    return complex(_number(value, field), 0.0)


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------


def _parse(text: str, convert, field: str):
    try:
        return convert(text)
    except ValueError as exc:
        raise ConfigError(field, str(exc)) from None


def _preset_spec(preset: str, field: str) -> dict:
    """The object form of a point preset string such as ``bernoulli:0.5:7``."""
    head, _, rest = preset.partition(":")
    parts = rest.split(":") if rest else []
    if head in _SUBSTITUTIONS:
        return {"kind": "substitution", "rules": _SUBSTITUTIONS[head],
                "name": head}
    if head == "periodic":
        return {"kind": "periodic", "pattern": rest} if rest else {"kind": head}
    if head in ("step", "block"):
        return {"kind": head, "fill": rest or "0"}
    if head == "sturmian":
        if not parts or not parts[0]:
            raise ConfigError(f"{field}.alpha", "sturmian preset needs an alpha")
        return {"kind": head, "alpha": _parse(parts[0], float, f"{field}.alpha"),
                "rho": _parse(parts[1], float, f"{field}.rho")
                if len(parts) > 1 else 0.0}
    if head == "bernoulli":
        if len(parts) != 2:
            raise ConfigError(f"{field}.seed",
                              "bernoulli preset is bernoulli:<p>:<seed>")
        return {"kind": head, "p": _parse(parts[0], float, f"{field}.p"),
                "seed": _parse(parts[1], int, f"{field}.seed")}
    raise ConfigError(field, f"unknown point preset {preset!r}")


def build_point(spec, field: str = "point") -> PointGen:
    """A point generator from a preset string or an explicit dict."""
    if isinstance(spec, dict) and "preset" in spec:
        spec = str(spec["preset"])
    if isinstance(spec, str):
        spec = _preset_spec(spec, field)
    if not isinstance(spec, dict):
        raise ConfigError(field, "expected a preset string or an object")
    kind = _require(spec, "kind", field)
    # the field a generator's own ValueError is reported against
    blame = {"sturmian": ".alpha", "bernoulli": ".p", "block": ".fill"}
    try:
        if kind == "periodic":
            return PeriodicPoint(str(_require(spec, "pattern", field)))
        if kind == "substitution":
            rules = _typed(spec, "rules", field)
            seed = spec.get("seed", ["0", "0"])
            return SubstitutionPoint({str(k): str(v) for k, v in rules.items()},
                                     (str(seed[0]), str(seed[1])),
                                     str(spec.get("name", "")))
        if kind == "sturmian":
            return SturmianPoint(
                _number(_require(spec, "alpha", field), f"{field}.alpha"),
                _number(spec.get("rho", 0.0), f"{field}.rho"))
        if kind == "bernoulli":
            return BernoulliPoint(
                _number(_require(spec, "p", field), f"{field}.p"),
                _integer(_require(spec, "seed", field), f"{field}.seed"))
        if kind == "step":
            return StepPoint()
        if kind == "block":
            return BlockPoint(str(spec.get("fill", "0")))
    except ConfigError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(field + blame.get(kind, ""), str(exc)) from None
    raise ConfigError(f"{field}.kind", f"unknown point kind {kind!r}")


# ---------------------------------------------------------------------------
# observables, weights
# ---------------------------------------------------------------------------


def build_observable(spec, point: PointGen, field: str = "observable") -> Observable:
    if isinstance(spec, str):
        head, _, rest = spec.partition(":")
        if head == "indicator":
            letter, _, off = rest.partition("@")
            spec = {"kind": "indicator", "letter": letter,
                    "offset": _parse(off or "0", int, f"{field}.offset")}
        else:
            raise ConfigError(field, f"unknown observable preset {spec!r}")
    if not isinstance(spec, dict):
        raise ConfigError(field, "expected a preset string or an object")
    kind = _require(spec, "kind", field)
    if kind == "indicator":
        letter = str(_require(spec, "letter", field))
        if letter not in point.alphabet:
            raise ConfigError(f"{field}.letter",
                              f"{letter!r} is not a letter of the point")
        offset = _integer(spec.get("offset", 0), f"{field}.offset")
        return Observable.indicator(letter, point.alphabet, offset)
    if kind == "letter_values":
        values = {str(k): parse_complex(v, f"{field}.map.{k}")
                  for k, v in _typed(spec, "map", field).items()}
        missing = set(point.alphabet) - set(values)
        if missing:
            raise ConfigError(f"{field}.map",
                              f"missing letters {sorted(missing)}")
        offset = _integer(spec.get("offset", 0), f"{field}.offset")
        return Observable.letter_values(values, offset)
    if kind == "table":
        window = tuple(_integer(v, f"{field}.window")
                       for v in _typed(spec, "window", field, list))
        table = {str(k): parse_complex(v, f"{field}.table.{k}")
                 for k, v in _typed(spec, "table", field).items()}
        try:
            return Observable(window, table, str(spec.get("name", "")))
        except ValueError as exc:
            raise ConfigError(f"{field}.table", str(exc)) from None
    raise ConfigError(f"{field}.kind", f"unknown observable kind {kind!r}")


def build_weights(spec, point: PointGen, field: str = "weights") -> dict:
    if not isinstance(spec, dict):
        raise ConfigError(field, "expected an object letter -> weight")
    weights = {str(k): parse_complex(v, f"{field}.{k}") for k, v in spec.items()}
    missing = set(point.alphabet) - set(weights)
    if missing:
        raise ConfigError(field, f"missing letters {sorted(missing)}")
    return weights


# ---------------------------------------------------------------------------
# schedules, estimator knobs
# ---------------------------------------------------------------------------


def build_schedule(spec, field: str = "schedule") -> FolnerSchedule:
    if not isinstance(spec, dict):
        raise ConfigError(field, "expected an object")
    kind = _require(spec, "kind", field)
    try:
        if kind == "intervals":
            return FolnerSchedule.intervals(
                _integer(spec.get("base", 100), f"{field}.base"),
                _integer(spec.get("n_max", 10), f"{field}.n_max"))
        if kind == "dyadic":
            return FolnerSchedule.dyadic(
                _integer(spec.get("n_max", 16), f"{field}.n_max"))
        if kind == "alternating":
            return FolnerSchedule.alternating(
                _integer(spec.get("n_max", 16), f"{field}.n_max"))
        if kind == "custom":
            return FolnerSchedule.custom(_require(spec, "windows", field))
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(field, str(exc)) from None
    raise ConfigError(f"{field}.kind", f"unknown schedule kind {kind!r}")


def build_estimator(spec, field: str = "estimator") -> EstimatorConfig:
    if spec is None:
        return EstimatorConfig()
    if not isinstance(spec, dict):
        raise ConfigError(field, "expected an object")
    return EstimatorConfig(
        tail=_integer(spec.get("tail", 5), f"{field}.tail", least=1),
        convergence_tol=_number(spec.get("convergence_tol", 1e-3),
                                f"{field}.convergence_tol"),
        oscillation_threshold=_number(spec.get("oscillation_threshold", 0.1),
                                      f"{field}.oscillation_threshold"),
    )


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)


def config_hash(expanded: dict) -> str:
    return hashlib.sha256(canonical_json(expanded).encode("utf-8")).hexdigest()


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
