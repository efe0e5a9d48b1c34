"""The config table: invalid leaves exit 2 naming their path, every
accepted key reaches the config hash, and expanded configs round-trip."""

import hashlib
import importlib.util
import json
import math
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apspectra import config
from cli_runner import run_cli as invoke
from test_acceptance import DETERMINISM_CONFIGS


def run_cli(command, cfg, directory):
    Path(directory).mkdir(parents=True, exist_ok=True)
    path = Path(directory) / "c.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return invoke([command, "--config", str(path), "--out",
                   str(Path(directory) / "o")])


def field_name(path) -> str:
    """A key path as validation messages write it: ``a.b[0]``."""
    name = ""
    for key in path:
        name += f"[{key}]" if isinstance(key, int) else \
            (f".{key}" if name else key)
    return name


def nodes(value, path=()):
    """(path, value) of every dict entry and list item, depth first."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,), child
        yield from nodes(child, path + (key,))


def table_specs(command, cfg, path):
    """The table's spec of the object holding ``path`` and of ``path``."""
    spec, node, holder = config.COMMANDS[command], cfg, None
    for key in path:
        if isinstance(spec, config.Kinds):
            spec = spec.kinds[node["kind"]]
        holder = spec
        spec = spec.keys[key] if isinstance(spec, config.Block) else spec.item
        node = node[key]
    return holder, spec


def set_at(cfg, path, value=None, delete=False):
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    if delete:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return cfg


def mutations():
    """(command, mutated config, the path its message must name)."""
    found = []
    for command, cfg in DETERMINISM_CONFIGS:
        for path, value in nodes(cfg):
            holder, spec = table_specs(command, cfg, path)
            if not isinstance(value, (dict, list)):
                wrong = [7, [], True] if isinstance(value, str) else \
                    ["x", [], {}, True]
                for bad in wrong + [math.nan, math.inf, -math.inf, 10 ** 400]:
                    found.append((command, set_at(cfg, path, bad), path))
            if not isinstance(holder, config.Block):
                continue        # list items, letters of a map
            if spec.default is config.REQUIRED:
                found.append((command, set_at(cfg, path, delete=True), path))
            sibling = path[:-1] + ("zz_unknown",)
            found.append((command, set_at(cfg, sibling, 1), sibling))
    return found


MUTATIONS = mutations()


def test_mutations_cover_every_kind_of_fault():
    assert len(MUTATIONS) > 400
    assert {p for _, _, p in MUTATIONS} >= {
        ("point",), ("point", "alpha"), ("schedule", "kind"),
        ("observable", "map", "0"), ("weights", "1"), ("eps_grid", 3),
        ("estimator", "zz_unknown"), ("zz_unknown",), ("theta",)}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(MUTATIONS))
def test_every_invalid_leaf_exits_two_naming_it(mutation):
    command, cfg, path = mutation
    with tempfile.TemporaryDirectory() as tmp:
        res = run_cli(command, cfg, tmp)
    assert res.exit_code == 2, (cfg, res.output)
    assert res.output.startswith(f"config error: {field_name(path)}"), \
        res.output


BASE = {"point": "periodic:AB",
        "schedule": {"kind": "intervals", "base": 10, "n_max": 3}}
BASES = {
    "generate": {"point": "periodic:AB"},
    "scan": BASE,
    "classify": BASE,
    "spectrum": {**BASE, "observable": "indicator:A",
                 "grid_sizes": [64, 128]},
    "parseval": {**BASE, "observable": "indicator:A",
                 "detect": {"grid_sizes": [64, 128]}},
    "eigen": {**BASE, "observable": "indicator:A", "theta": 0.5},
    "diffract": {**BASE, "weights": {"A": 1, "B": 0},
                 "detect": {"grid_sizes": [64, 128]}},
}

# another valid value for every key any command accepts
OTHER = {
    "point": "periodic:AAB", "seed": 11, "range": [-3, 3],
    "schedule": {"kind": "dyadic", "n_max": 4}, "estimator": {"tail": 2},
    "observable": "indicator:B", "metric_radius": 8, "weyl_index": 1,
    "weyl_shift_span": 4, "bohr_horizon": 8, "epsilon": 0.3,
    "kinds": ["weyl"], "eps_grid": [0.5], "gap_threshold": 0.5,
    "grid_sizes": [32, 64], "threshold": 0.5, "refine_steps": 3,
    "max_frequencies": 2, "thetas": [0.25], "detect": {"top": 1},
    "theta": 0.25, "point_shifts": [4], "shift_probes": [4],
    "weights": {"A": 0.5, "B": 1}, "k_max": 2, "taper": "none",
    "grid_size": 64, "atom_thetas": [0.25],
    "estimator.tail": 2, "estimator.convergence_tol": 0.5,
    "estimator.oscillation_threshold": 0.5, "detect.grid_sizes": [32, 64],
    "detect.threshold": 0.5, "detect.refine_steps": 3, "detect.top": 1,
}


def accepted_keys(command):
    """Top-level keys, and the keys of the fixed blocks, as dotted paths."""
    for key, spec in config.COMMANDS[command].keys.items():
        yield (key,)
        if isinstance(spec, config.Block):
            yield from ((key, sub) for sub in spec.keys)


@pytest.mark.parametrize("command", sorted(config.COMMANDS))
def test_every_accepted_key_changes_the_hash(command):
    base = BASES[command]
    digest = config.config_hash(config.validate(command, base))
    for path in accepted_keys(command):
        key, *sub = path
        value = OTHER[".".join(path)]
        if sub:
            value = {**base.get(key, {}), sub[0]: value}
        changed = config.validate(command, {**base, key: value})
        assert config.config_hash(changed) != digest, path


@pytest.mark.parametrize("command", sorted(config.COMMANDS))
def test_artifacts_echo_the_validated_config(tmp_path, command):
    res = run_cli(command, BASES[command], tmp_path)
    assert res.exit_code == 0, res.output
    expanded = config.validate(command, BASES[command])
    for doc in (tmp_path / "o").glob("*.json"):
        doc = json.loads(doc.read_text())
        assert doc["config"] == expanded
        assert doc["config_hash"] == config.config_hash(expanded)
    for csv in (tmp_path / "o").glob("*.csv"):
        assert csv.read_text().startswith(
            f"# config_hash={config.config_hash(expanded)}\n")


@pytest.mark.parametrize("command,change", [
    ("parseval", {"estimator": {"tail": 2}}),
    ("diffract", {"grid_size": 64}),
])
def test_settings_that_shape_an_artifact_reach_its_hash(tmp_path, command,
                                                        change):
    hashes = []
    for i, cfg in enumerate((BASES[command], {**BASES[command], **change})):
        assert run_cli(command, cfg, tmp_path / str(i)).exit_code == 0
        docs = sorted((tmp_path / str(i) / "o").glob("*.json"))
        hashes.append(json.loads(docs[0].read_text())["config_hash"])
    assert hashes[0] != hashes[1]


@pytest.mark.parametrize("command,cfg", DETERMINISM_CONFIGS)
def test_expanded_config_round_trips(command, cfg):
    expanded = config.validate(command, cfg)
    again = config.validate(command, {k: v for k, v in expanded.items()
                                      if k != "command"})
    assert again == expanded
    assert config.config_hash(again) == config.config_hash(expanded)
    # the builtin SHA-256 gives hashlib's digest
    assert config.config_hash(expanded) == hashlib.sha256(
        config.canonical_json(expanded).encode()).hexdigest()


def test_config_hash_falls_back_to_hashlib():
    # a fresh copy of the module, loaded where neither builtin SHA-256
    # module imports, hashes with hashlib, to the same digests
    spec = importlib.util.spec_from_file_location("apspectra._config_copy",
                                                  config.__file__)
    fallback = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {"_sha2": None, "_sha256": None}):
        spec.loader.exec_module(fallback)
    assert fallback.sha256 is hashlib.sha256
    for command, cfg in DETERMINISM_CONFIGS:
        expanded = config.validate(command, cfg)
        assert fallback.config_hash(expanded) == config.config_hash(expanded)
