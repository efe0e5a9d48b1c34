"""Benchmark inputs: the twelve determinism configs, split into workloads.

Seed 0 reproduces the configs of ``tests/test_acceptance.py`` exactly.
Any other seed draws a new Bernoulli seed (configs 3, 4, 5) and a new
Sturmian phase ``rho`` (configs 6, 7) and leaves the rest unchanged, so
the cost of every command stays the same while its inputs move.
"""

from __future__ import annotations

import copy
import json
import math
import random
from pathlib import Path

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

DEFAULT_SEED = 0
# Kept out of tuning: a later claim of a gain is checked on this seed too.
HELD_OUT_SEED = 7919

# Copied from tests/test_acceptance.py so that a change to the test suite
# cannot silently change what the benchmark measures; a self-test keeps
# the two in step.
DETERMINISM_CONFIGS = [
    ("classify", {
        "point": "periodic:AB",
        "schedule": {"kind": "intervals", "base": 50, "n_max": 5},
        "eps_grid": [0.01, 0.05, 0.1, 0.2], "range": [-64, 64],
        "bohr_horizon": 64}),
    ("parseval", {
        "point": "periodic:AB",
        "observable": {"kind": "indicator", "letter": "A"},
        "schedule": {"kind": "intervals", "base": 100, "n_max": 6},
        "thetas": [0.0, 0.5]}),
    ("diffract", {
        "point": "periodic:AB", "weights": {"A": 1.0, "B": 0.0},
        "schedule": {"kind": "intervals", "base": 100, "n_max": 6},
        "k_max": 8, "grid_size": 32, "atom_thetas": [0.0, 0.5]}),
    ("scan", {
        "point": "bernoulli:0.5:42", "kinds": ["mean"],
        "schedule": {"kind": "intervals", "base": 1000, "n_max": 10},
        "estimator": {"convergence_tol": 0.05},
        "epsilon": 0.2, "range": [-500, 500]}),
    ("classify", {
        "point": "bernoulli:0.5:42",
        "schedule": {"kind": "intervals", "base": 1000, "n_max": 10},
        "estimator": {"convergence_tol": 0.05},
        "eps_grid": [0.01, 0.05, 0.1, 0.2], "range": [-500, 500]}),
    ("diffract", {
        "point": "bernoulli:0.5:42", "weights": {"0": 0.0, "1": 1.0},
        "schedule": {"kind": "intervals", "base": 100000, "n_max": 10},
        "k_max": 96, "grid_size": 512, "atom_thetas": [0.0]}),
    ("spectrum", {
        "point": {"kind": "sturmian", "alpha": GOLDEN},
        "observable": {"kind": "indicator", "letter": "0"},
        "schedule": {"kind": "intervals", "base": 10000, "n_max": 10},
        "grid_sizes": [32768, 65536, 131072], "max_frequencies": 9}),
    ("eigen", {
        "point": {"kind": "sturmian", "alpha": GOLDEN},
        "observable": {"kind": "indicator", "letter": "0"},
        "schedule": {"kind": "intervals", "base": 10000, "n_max": 10},
        "theta": GOLDEN, "point_shifts": [0, 13, 34, 89, 233],
        "shift_probes": [1, 2, 3]}),
    ("spectrum", {
        "point": "thue-morse",
        "observable": {"kind": "letter_values", "map": {"0": 1.0, "1": -1.0}},
        "schedule": {"kind": "intervals", "base": 5000, "n_max": 10},
        "grid_sizes": [16384, 32768, 65536], "max_frequencies": 9}),
    ("scan", {
        "point": "block", "kinds": ["mean"],
        "schedule": {"kind": "dyadic", "n_max": 16},
        "epsilon": 0.1, "range": [-32, 32]}),
    ("scan", {
        "point": "step", "kinds": ["mean"],
        "schedule": {"kind": "alternating", "n_max": 64},
        "epsilon": 0.1, "range": [-16, 16]}),
    ("generate", {
        "point": "fibonacci", "range": [-64, 64],
        "observable": "indicator:0"}),
]

# Each config belongs to exactly one workload; a pass runs them in order.
WORKLOADS = {
    "spectrum": (6, 8),
    "orbit": (0, 3, 4, 9, 10),
    "averages": (1, 2, 5, 7, 11),
}

BERNOULLI_CONFIGS = (3, 4, 5)
STURMIAN_CONFIGS = (6, 7)
SEEDED_CONFIGS = BERNOULLI_CONFIGS + STURMIAN_CONFIGS

# Verdict fields of the seeded configs that no seed may change: a Bernoulli
# point has only the trivial almost period, no almost-periodicity of any
# kind and a comb with positive density; a Sturmian point's frequencies,
# purity and eigenfunction flags do not depend on rho.  The Bernoulli atom
# verdict is a finite-scale estimate and does vary (seed 19: undecided).
SEED_INVARIANT_FIELDS = {
    3: ("periods",),
    4: ("verdicts", "raw_verdicts"),
    5: ("negative_density",),
    6: ("detected", "purity", "thetas"),
    7: ("flags",),
}

# Files every command must leave in its output directory, and nothing else.
ARTIFACTS = {
    "generate": ("generate.json", "sequence.csv"),
    "scan": ("scan.json", "scan.csv"),
    "classify": ("classify.json",),
    "spectrum": ("spectrum.json", "spectrum.csv"),
    "parseval": ("parseval.json", "parseval.csv"),
    "eigen": ("eigen.json",),
    "diffract": ("atoms.json", "autocorrelation.csv", "density.csv"),
}


def expected_artifacts(command: str, cfg: dict) -> set[str]:
    names = set(ARTIFACTS[command])
    if command == "generate" and "observable" in cfg:
        names.add("track.csv")
    return names


def configs_for_seed(seed: int) -> list[tuple[str, dict]]:
    """All twelve (command, config) pairs for one workload seed."""
    configs = copy.deepcopy(DETERMINISM_CONFIGS)
    if seed == DEFAULT_SEED:
        return configs
    rng = random.Random(seed)
    bernoulli_seed = rng.randrange(1, 2 ** 32)
    rho = rng.random()
    for i in BERNOULLI_CONFIGS:
        configs[i][1]["point"] = f"bernoulli:0.5:{bernoulli_seed}"
    for i in STURMIAN_CONFIGS:
        configs[i][1]["point"]["rho"] = rho
    return configs


def write_configs(seed: int, directory: Path) -> list[tuple[str, dict, Path]]:
    """Write cfg<i>.json files as the acceptance test does."""
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for i, (command, cfg) in enumerate(configs_for_seed(seed)):
        path = directory / f"cfg{i}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        written.append((command, cfg, path))
    return written
