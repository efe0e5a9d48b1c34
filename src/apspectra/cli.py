"""Batch front door: config in, deterministic JSON/CSV artifacts out.

Every command reads one JSON config, expands presets, and writes its
outputs atomically (temp file + rename) into the chosen directory,
guarded by a lock file against concurrent runs.  Exit codes: 0 success,
2 config/validation problem (the message names the offending field),
1 internal error.
"""

from __future__ import annotations

import fcntl
import json
import os
import sys
import traceback
from pathlib import Path

import click
import numpy as np

from . import almost, diffraction, spectral
from .config import (_integer, _number, _preset_spec, build_estimator,
                     build_observable, build_point, build_schedule,
                     build_weights, canonical_json, config_hash, load_config)
from .errors import ApspectraError, ConfigError
from .folner import FolnerSchedule
from .points import MAX_RADIUS, eval_window, observable_track, shift

__all__ = ["main"]


def _resolve_threads(threads: int | None) -> int:
    if threads is not None:
        return max(1, threads)
    env = os.environ.get("APSPECTRA_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError("threads",
                              f"APSPECTRA_THREADS is not an integer: {env!r}")
    return 1


def _apply_seed_override(cfg: dict, seed_override: int | None) -> dict:
    if seed_override is None:
        return cfg
    cfg = dict(cfg, seed=seed_override)
    point = cfg.get("point")
    if isinstance(point, str) and point.startswith("bernoulli:"):
        point = _preset_spec(point, "point")
    if isinstance(point, dict) and point.get("kind") == "bernoulli":
        cfg["point"] = dict(point, seed=seed_override)
    return cfg


class OutputDir:
    """Lock-guarded output directory with atomic writes.

    The lock is an ``flock`` on ``.lock``, which the kernel drops when
    its holder dies, so a file left behind by a crashed run never
    blocks the directory.
    """

    def __init__(self, path: str):
        self.path = Path(path)
        self.lock = self.path / ".lock"
        self._fd = None

    def __enter__(self):
        self.path.mkdir(parents=True, exist_ok=True)
        while True:
            fd = os.open(self.lock, os.O_CREAT | os.O_WRONLY, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                os.close(fd)
                raise ConfigError(
                    "out", f"another run holds the lock {self.lock}") from None
            # a holder that exits unlinks the file it locked; a lock on
            # that unlinked file guards nothing, so take the new file's
            try:
                current = os.stat(self.lock).st_ino
            except FileNotFoundError:
                current = None
            if current == os.fstat(fd).st_ino:
                break
            os.close(fd)
        os.ftruncate(fd, 0)
        os.write(fd, str(os.getpid()).encode())
        self._fd = fd
        return self

    def __exit__(self, *exc):
        if self._fd is not None:
            # unlink while still locked: once unlocked, the file may be
            # another run's lock
            try:
                self.lock.unlink()
            except FileNotFoundError:
                pass
            os.close(self._fd)
            self._fd = None
        return False

    def write_text(self, name: str, content: str) -> None:
        target = self.path / name
        tmp = self.path / f"{name}.tmp-{os.getpid()}"
        try:
            tmp.write_text(content, encoding="utf-8", newline="\n")
            os.replace(tmp, target)
        finally:
            tmp.unlink(missing_ok=True)


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _json_doc(payload: dict, expanded: dict) -> str:
    doc = {"config_hash": config_hash(expanded), "config": expanded}
    doc.update(payload)
    return json.dumps(doc, sort_keys=True, indent=1, ensure_ascii=False,
                      default=_json_default) + "\n"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _grid_lines(grid: spectral.FourierBohrGrid) -> list[str]:
    """theta,re,im,|c| lines with the digits ``_fmt`` writes; the scalar
    ``abs`` rounds |c| as numpy scalars do, ``np.abs`` of the array may not."""
    return [f"{t!r},{a.real!r},{a.imag!r},{abs(a)!r}"
            for t, a in zip(grid.thetas.tolist(), grid.amplitudes.tolist())]


def _csv_doc(header: list[str], rows, expanded: dict, budget: dict | None) -> str:
    """A row is a list of cells or an already joined line."""
    lines = [f"# config_hash={config_hash(expanded)}"]
    if budget is not None:
        lines.append(f"# budget={canonical_json(budget)}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(row if isinstance(row, str) else ",".join(
            _fmt(v) if not isinstance(v, str) else v for v in row))
    return "\n".join(lines) + "\n"


def _scan_budget(cfg: dict, schedule: FolnerSchedule) -> almost.ScanBudget:
    weyl_index = cfg.get("weyl_index")
    weyl_span = cfg.get("weyl_shift_span")
    budget = almost.ScanBudget(
        schedule=schedule,
        metric_radius=_integer(cfg.get("metric_radius", 16), "metric_radius",
                               least=1, most=MAX_RADIUS),
        estimator=build_estimator(cfg.get("estimator")),
        weyl_index=None if weyl_index is None else _integer(weyl_index,
                                                            "weyl_index"),
        weyl_shift_span=None if weyl_span is None else _integer(
            weyl_span, "weyl_shift_span", least=0),
        bohr_horizon=_integer(cfg.get("bohr_horizon", 512), "bohr_horizon",
                              least=0),
    )
    if not 1 <= budget.resolved_weyl_index() <= len(schedule):
        raise ConfigError("weyl_index",
                          f"must lie in 1..{len(schedule)}")
    return budget


def _list(cfg: dict, key: str, default: list) -> list:
    raw = cfg.get(key, default)
    if not isinstance(raw, list):
        raise ConfigError(key, f"expected a list, got {raw!r}")
    return raw


def _grid_sizes(raw, field: str) -> list[int]:
    if not isinstance(raw, list) or len(raw) < 2:
        raise ConfigError(field, "expected at least two grid lengths >= 2")
    return [_integer(n, field, least=2) for n in raw]


def _threshold(raw, field: str):
    if raw is not None and _number(raw, field) <= 0:
        raise ConfigError(field, "must be positive")
    return raw


def _range(cfg: dict, key: str = "range", default=(-256, 256)) -> tuple[int, int]:
    raw = cfg.get(key, list(default))
    if (not isinstance(raw, list) or len(raw) != 2
            or any(isinstance(v, bool) or not isinstance(v, int) for v in raw)):
        raise ConfigError(key, f"expected [lo, hi], got {raw!r}")
    lo, hi = raw
    if hi < lo:
        raise ConfigError(key, "range is empty")
    return lo, hi


# ---------------------------------------------------------------------------
# command handlers: take the raw config, return {filename: text}
# ---------------------------------------------------------------------------


def _expanded_common(cfg, point, schedule=None, observable=None, extra=None):
    out = {"point": point.describe(), "seed": cfg.get("seed")}
    if schedule is not None:
        out["schedule"] = schedule.describe()
    if observable is not None:
        out["observable"] = observable.describe()
    if extra:
        out.update(extra)
    return out


def _cmd_generate(cfg: dict, threads: int) -> dict:
    point = build_point(cfg.get("point", ""))
    lo, hi = _range(cfg, "range", (0, 99))
    obs = build_observable(cfg["observable"], point) if "observable" in cfg \
        else None
    expanded = _expanded_common(cfg, point, observable=obs,
                                extra={"range": [lo, hi],
                                       "command": "generate"})
    letters = eval_window(point, lo, hi)
    rows = [[str(t), letters[i]] for i, t in enumerate(range(lo, hi + 1))]
    files = {
        "generate.json": _json_doc({"length": len(letters)}, expanded),
        "sequence.csv": _csv_doc(["t", "letter"], rows, expanded, None),
    }
    if obs is not None:
        track = observable_track(obs, point, lo, hi)
        rows = [[str(t), complex(v).real, complex(v).imag]
                for t, v in track.items()]
        files["track.csv"] = _csv_doc(["t", "re", "im"], rows, expanded, None)
    return files


def _cmd_scan(cfg: dict, threads: int) -> dict:
    point = build_point(cfg.get("point", ""))
    schedule = build_schedule(cfg.get("schedule", {}))
    budget = _scan_budget(cfg, schedule)
    epsilon = _number(cfg.get("epsilon", 0.1), "epsilon")
    if epsilon <= 0:
        raise ConfigError("epsilon", "must be positive")
    kinds = _list(cfg, "kinds", list(almost.KINDS))
    for kind in kinds:
        if kind not in almost.KINDS:
            raise ConfigError("kinds", f"unknown kind {kind!r}")
    lo, hi = _range(cfg)
    expanded = _expanded_common(cfg, point, schedule,
                                extra={"command": "scan", "epsilon": epsilon,
                                       "kinds": kinds, "range": [lo, hi],
                                       "budget": budget.fingerprint()})
    profile = almost.orbit_profile(point, range(lo, hi + 1), budget,
                                   threads=threads, kinds=tuple(kinds))
    scans = {kind: almost._scan_from_profile(profile, epsilon, kind, (lo, hi))
             for kind in kinds}
    header = ["t", "mean_tail_max", "mean_converged", "weyl_value",
              "bohr_value"] + [f"period_{k}" for k in kinds]
    rows = []
    for i, t in enumerate(profile.t_values):
        row = [str(int(t)), profile.mean_tail_max[i],
               bool(profile.mean_converged[i]), profile.weyl_value[i],
               profile.bohr_value[i]]
        row += [int(t) in scans[k].periods for k in kinds]
        rows.append(row)
    return {
        "scan.json": _json_doc(
            {"scans": {k: s.describe() for k, s in scans.items()}}, expanded),
        "scan.csv": _csv_doc(header, rows, expanded, budget.fingerprint()),
    }


def _cmd_classify(cfg: dict, threads: int) -> dict:
    point = build_point(cfg.get("point", ""))
    schedule = build_schedule(cfg.get("schedule", {}))
    budget = _scan_budget(cfg, schedule)
    eps_grid = cfg.get("eps_grid", [0.01, 0.05, 0.1, 0.2])
    if not isinstance(eps_grid, list) or not eps_grid:
        raise ConfigError("eps_grid", "expected a nonempty list")
    for e in eps_grid:
        if _number(e, "eps_grid") <= 0:
            raise ConfigError("eps_grid", "entries must be positive")
    lo, hi = _range(cfg)
    gap_threshold = _number(cfg.get("gap_threshold", 0.2), "gap_threshold")
    expanded = _expanded_common(cfg, point, schedule,
                                extra={"command": "classify",
                                       "eps_grid": eps_grid,
                                       "range": [lo, hi],
                                       "gap_threshold": gap_threshold,
                                       "budget": budget.fingerprint()})
    report = almost.classify_point(point, eps_grid, budget, (lo, hi),
                                   gap_threshold, threads=threads)
    return {"classify.json": _json_doc({"report": report.describe()}, expanded)}


def _cmd_spectrum(cfg: dict, threads: int) -> dict:
    point = build_point(cfg.get("point", ""))
    obs = build_observable(cfg.get("observable", {}), point)
    schedule = build_schedule(cfg.get("schedule", {}))
    grid_sizes = _grid_sizes(cfg.get("grid_sizes", [4096, 16384, 65536]),
                             "grid_sizes")
    estimator = build_estimator(cfg.get("estimator"))
    report = spectral.spectral_report(
        obs, point, schedule, grid_sizes,
        threshold=_threshold(cfg.get("threshold"), "threshold"),
        refine_steps=_integer(cfg.get("refine_steps", 48), "refine_steps",
                              least=1),
        max_frequencies=_integer(cfg.get("max_frequencies", 32),
                                 "max_frequencies", least=0),
        config=estimator)
    expanded = _expanded_common(cfg, point, schedule, obs,
                                extra={"command": "spectrum",
                                       "grid_sizes": list(grid_sizes),
                                       "budget": report.budget_fingerprint})
    return {
        "spectrum.json": _json_doc({"report": report.describe()}, expanded),
        "spectrum.csv": _csv_doc(["theta", "amp_re", "amp_im", "amp_abs"],
                                 _grid_lines(report.grids[-1]), expanded,
                                 report.budget_fingerprint),
    }


def _detect_thetas(cfg: dict, point, obs) -> list[float]:
    if "thetas" in cfg:
        if not isinstance(cfg["thetas"], list):
            raise ConfigError("thetas", "expected a list")
        return [_number(t, "thetas") for t in cfg["thetas"]]
    det = cfg.get("detect", {})
    if not isinstance(det, dict):
        raise ConfigError("detect", "expected an object")
    grid_sizes = _grid_sizes(det.get("grid_sizes", [16384, 65536]),
                             "detect.grid_sizes")
    threshold = _threshold(det.get("threshold"), "detect.threshold")
    steps = _integer(det.get("refine_steps", 48), "detect.refine_steps",
                     least=1)
    top = det.get("top")
    top = None if top is None else _integer(top, "detect.top", least=0)
    track = observable_track(obs, point, 0, max(grid_sizes) - 1)
    freqs = spectral.detect_frequencies(
        spectral.fourier_bohr_grids(track, grid_sizes), threshold, steps)
    return [fr.theta for fr in freqs[:top]]


def _cmd_parseval(cfg: dict, threads: int) -> dict:
    point = build_point(cfg.get("point", ""))
    obs = build_observable(cfg.get("observable", {}), point)
    schedule = build_schedule(cfg.get("schedule", {}))
    estimator = build_estimator(cfg.get("estimator"))
    thetas = _detect_thetas(cfg, point, obs)
    traj = spectral.parseval_defect(obs, point, thetas, schedule, estimator)
    expanded = _expanded_common(cfg, point, schedule, obs,
                                extra={"command": "parseval",
                                       "thetas": thetas})
    rows = [[n + 1, schedule.windows[n][0], schedule.windows[n][1],
             traj.energy.partials[n][1].real, traj.captured[n],
             traj.defects[n]]
            for n in range(len(schedule))]
    return {
        "parseval.json": _json_doc({"parseval": traj.describe()}, expanded),
        "parseval.csv": _csv_doc(
            ["stage", "window_start", "window_length", "energy", "captured",
             "defect"], rows, expanded, {"schedule": schedule.describe()}),
    }


def _cmd_eigen(cfg: dict, threads: int) -> dict:
    point = build_point(cfg.get("point", ""))
    obs = build_observable(cfg.get("observable", {}), point)
    schedule = build_schedule(cfg.get("schedule", {}))
    estimator = build_estimator(cfg.get("estimator"))
    if "theta" not in cfg:
        raise ConfigError("theta", "missing")
    theta = _number(cfg["theta"], "theta")
    shifts = [_integer(s, "point_shifts")
              for s in _list(cfg, "point_shifts", [0, 1, 2, 3, 5])]
    probes = [_integer(p, "shift_probes")
              for p in _list(cfg, "shift_probes", [1, 2, 3, 5, 8])]
    points = [shift(point, s) for s in shifts]
    sample = spectral.eigenfunction_sample(obs, theta, points, schedule,
                                           tuple(probes), estimator)
    expanded = _expanded_common(cfg, point, schedule, obs,
                                extra={"command": "eigen", "theta": theta,
                                       "point_shifts": list(shifts),
                                       "shift_probes": list(probes)})
    return {"eigen.json": _json_doc({"eigen": sample.describe()}, expanded)}


def _cmd_diffract(cfg: dict, threads: int) -> dict:
    point = build_point(cfg.get("point", ""))
    weights = build_weights(cfg.get("weights", {}), point)
    schedule = build_schedule(cfg.get("schedule", {}))
    estimator = build_estimator(cfg.get("estimator"))
    comb = diffraction.WeightedComb(point, weights)
    k_max = _integer(cfg.get("k_max", 32), "k_max", least=0)
    taper = cfg.get("taper", "triangular")
    if taper not in ("none", "triangular"):
        raise ConfigError("taper", "must be 'none' or 'triangular'")
    grid_size = cfg.get("grid_size")
    if grid_size is not None:
        grid_size = _integer(grid_size, "grid_size")
        if grid_size < 2 * k_max:
            raise ConfigError("grid_size", "must be at least 2 * k_max")
    eta = diffraction.autocorrelation(comb, k_max, schedule, estimator)
    density = diffraction.diffraction_density(eta, taper, grid_size)
    atom_thetas = cfg.get("atom_thetas")
    if atom_thetas is None:
        obs = comb.as_observable()
        atom_thetas = _detect_thetas(cfg, point, obs)
    atoms = {float(t): diffraction.bombieri_taylor_atom(comb, float(t),
                                                        schedule, estimator)
             for t in atom_thetas}
    masses = [(t, est.tail_max()) for t, est in atoms.items()]
    fraction = diffraction.pure_point_fraction(masses, eta.eta0) \
        if masses and eta.eta0 > 0 else 0.0
    expanded = _expanded_common(
        cfg, point, schedule,
        extra={"command": "diffract",
               "weights": {a: [complex(v).real, complex(v).imag]
                           for a, v in sorted(weights.items())},
               "k_max": k_max, "taper": taper,
               "atom_thetas": [float(t) for t in atom_thetas]})
    eta_rows = [[int(k), eta.eta(int(k)).real, eta.eta(int(k)).imag]
                for k in eta.lags()]
    dens_rows = [[t, v] for t, v in zip(density.thetas, density.values)]
    atoms_doc = {
        "atoms": [{"theta": t, "mass": m,
                   "trajectory": atoms[t].describe()} for t, m in masses],
        "eta0": eta.eta0,
        "pure_point_fraction": fraction,
        "negative_density": density.negative_density,
        "autocorrelation": eta.describe(),
    }
    return {
        "autocorrelation.csv": _csv_doc(["lag", "eta_re", "eta_im"], eta_rows,
                                        expanded,
                                        {"schedule": schedule.describe()}),
        "density.csv": _csv_doc(["theta", "density"], dens_rows, expanded,
                                {"taper": taper, "k_max": k_max}),
        "atoms.json": _json_doc(atoms_doc, expanded),
    }


_HANDLERS = {
    "generate": _cmd_generate,
    "scan": _cmd_scan,
    "classify": _cmd_classify,
    "spectrum": _cmd_spectrum,
    "parseval": _cmd_parseval,
    "eigen": _cmd_eigen,
    "diffract": _cmd_diffract,
}


def _run(command: str, config_path: str, out: str, threads: int | None,
         seed_override: int | None) -> int:
    try:
        cfg = load_config(config_path)
        cfg = _apply_seed_override(cfg, seed_override)
        nthreads = _resolve_threads(threads)
        files = _HANDLERS[command](cfg, nthreads)
        with OutputDir(out) as sink:
            for name, content in sorted(files.items()):
                sink.write_text(name, content)
        click.echo(f"{command}: wrote {', '.join(sorted(files))} to {out}")
        return 0
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return 2
    except ApspectraError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except Exception:
        traceback.print_exc()
        return 1


def _common_options(fn):
    fn = click.option("--config", "config_path", required=True,
                      type=click.Path(), help="JSON experiment config")(fn)
    fn = click.option("--out", default="out", show_default=True,
                      help="output directory")(fn)
    fn = click.option("--threads", type=int, default=None,
                      help="worker threads (falls back to APSPECTRA_THREADS)")(fn)
    fn = click.option("--seed-override", type=int, default=None,
                      help="replace the configured generator seed")(fn)
    return fn


@click.group()
def main():
    """Almost-periodicity and diffraction laboratory for integer sequences."""


def _make_command(name: str):
    @_common_options
    def cmd(config_path, out, threads, seed_override):
        sys.exit(_run(name, config_path, out, threads, seed_override))

    cmd.__name__ = name
    return main.command(name=name)(cmd)


for _name in _HANDLERS:
    _make_command(_name)


if __name__ == "__main__":
    main()
