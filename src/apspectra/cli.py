"""Batch front door: config in, deterministic JSON/CSV artifacts out.

Every command reads one JSON config, validates it against the command's
table in ``config``, and writes its outputs atomically (temp file +
rename) into the chosen directory, guarded by a lock file against
concurrent runs.  Exit codes: 0 success, 2 config/validation problem
(the message names the offending field), 1 internal error.
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
from .config import (build_observable, build_point, build_schedule,
                     build_weights, canonical_json, config_hash, load_config,
                     validate)
from .errors import ApspectraError, ConfigError
from .folner import EstimatorConfig
from .points import eval_window, observable_track, shift

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
        try:
            self.path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError("out", f"{self.path} is not a usable directory "
                                     f"({exc.strerror})") from None
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


def _scan_budget(cfg: dict) -> almost.ScanBudget:
    knobs = ("metric_radius", "weyl_index", "weyl_shift_span", "bohr_horizon")
    return almost.ScanBudget(build_schedule(cfg["schedule"]),
                             estimator=EstimatorConfig(**cfg["estimator"]),
                             **{k: cfg[k] for k in knobs})


# ---------------------------------------------------------------------------
# command handlers: take the validated config, return {filename: text}
# ---------------------------------------------------------------------------


def _cmd_generate(cfg: dict, threads: int) -> dict:
    point = build_point(cfg["point"])
    obs = None if cfg["observable"] is None else \
        build_observable(cfg["observable"], point)
    lo, hi = cfg["range"]
    letters = eval_window(point, lo, hi)
    rows = [[str(t), letters[i]] for i, t in enumerate(range(lo, hi + 1))]
    files = {
        "generate.json": _json_doc({"length": len(letters)}, cfg),
        "sequence.csv": _csv_doc(["t", "letter"], rows, cfg, None),
    }
    if obs is not None:
        track = observable_track(obs, point, lo, hi)
        rows = [[str(t), complex(v).real, complex(v).imag]
                for t, v in track.items()]
        files["track.csv"] = _csv_doc(["t", "re", "im"], rows, cfg, None)
    return files


def _cmd_scan(cfg: dict, threads: int) -> dict:
    point = build_point(cfg["point"])
    budget = _scan_budget(cfg)
    kinds = cfg["kinds"]
    lo, hi = cfg["range"]
    profile = almost.orbit_profile(point, range(lo, hi + 1), budget,
                                   threads=threads, kinds=tuple(kinds))
    scans = {kind: almost._scan_from_profile(profile, cfg["epsilon"], kind,
                                             (lo, hi))
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
            {"scans": {k: s.describe() for k, s in scans.items()}}, cfg),
        "scan.csv": _csv_doc(header, rows, cfg, budget.fingerprint()),
    }


def _cmd_classify(cfg: dict, threads: int) -> dict:
    report = almost.classify_point(
        build_point(cfg["point"]), cfg["eps_grid"], _scan_budget(cfg),
        tuple(cfg["range"]), cfg["gap_threshold"], threads=threads)
    return {"classify.json": _json_doc({"report": report.describe()}, cfg)}


def _cmd_spectrum(cfg: dict, threads: int) -> dict:
    point = build_point(cfg["point"])
    report = spectral.spectral_report(
        build_observable(cfg["observable"], point), point,
        build_schedule(cfg["schedule"]), cfg["grid_sizes"],
        threshold=cfg["threshold"], refine_steps=cfg["refine_steps"],
        max_frequencies=cfg["max_frequencies"],
        config=EstimatorConfig(**cfg["estimator"]))
    return {
        "spectrum.json": _json_doc({"report": report.describe()}, cfg),
        "spectrum.csv": _csv_doc(["theta", "amp_re", "amp_im", "amp_abs"],
                                 _grid_lines(report.grids[-1]), cfg,
                                 report.budget_fingerprint),
    }


def _detect_thetas(cfg: dict, point, obs) -> list[float]:
    if cfg["thetas"] is not None:
        return cfg["thetas"]
    det = cfg["detect"]
    track = observable_track(obs, point, 0, max(det["grid_sizes"]) - 1)
    freqs = spectral.detect_frequencies(
        spectral.fourier_bohr_grids(track, det["grid_sizes"]),
        det["threshold"], det["refine_steps"])
    return [fr.theta for fr in freqs[:det["top"]]]


def _cmd_parseval(cfg: dict, threads: int) -> dict:
    point = build_point(cfg["point"])
    obs = build_observable(cfg["observable"], point)
    schedule = build_schedule(cfg["schedule"])
    traj = spectral.parseval_defect(obs, point, _detect_thetas(cfg, point, obs),
                                    schedule, EstimatorConfig(**cfg["estimator"]))
    rows = [[n + 1, schedule.windows[n][0], schedule.windows[n][1],
             traj.energy.partials[n][1].real, traj.captured[n],
             traj.defects[n]]
            for n in range(len(schedule))]
    return {
        "parseval.json": _json_doc({"parseval": traj.describe()}, cfg),
        "parseval.csv": _csv_doc(
            ["stage", "window_start", "window_length", "energy", "captured",
             "defect"], rows, cfg, {"schedule": schedule.describe()}),
    }


def _cmd_eigen(cfg: dict, threads: int) -> dict:
    point = build_point(cfg["point"])
    sample = spectral.eigenfunction_sample(
        build_observable(cfg["observable"], point), cfg["theta"],
        [shift(point, s) for s in cfg["point_shifts"]],
        build_schedule(cfg["schedule"]), tuple(cfg["shift_probes"]),
        EstimatorConfig(**cfg["estimator"]))
    return {"eigen.json": _json_doc({"eigen": sample.describe()}, cfg)}


def _cmd_diffract(cfg: dict, threads: int) -> dict:
    point = build_point(cfg["point"])
    schedule = build_schedule(cfg["schedule"])
    estimator = EstimatorConfig(**cfg["estimator"])
    comb = diffraction.WeightedComb(point, build_weights(cfg["weights"], point))
    k_max, taper = cfg["k_max"], cfg["taper"]
    eta = diffraction.autocorrelation(comb, k_max, schedule, estimator)
    density = diffraction.diffraction_density(eta, taper, cfg["grid_size"])
    atom_thetas = cfg["atom_thetas"]
    if atom_thetas is None:
        atom_thetas = _detect_thetas(cfg, point, comb.as_observable())
    atoms = {float(t): diffraction.bombieri_taylor_atom(comb, float(t),
                                                        schedule, estimator)
             for t in atom_thetas}
    masses = [(t, est.tail_max()) for t, est in atoms.items()]
    fraction = diffraction.pure_point_fraction(masses, eta.eta0) \
        if masses and eta.eta0 > 0 else 0.0
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
                                        cfg, {"schedule": schedule.describe()}),
        "density.csv": _csv_doc(["theta", "density"], dens_rows, cfg,
                                {"taper": taper, "k_max": k_max}),
        "atoms.json": _json_doc(atoms_doc, cfg),
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
        cfg = validate(command, load_config(config_path), seed_override)
        files = _HANDLERS[command](cfg, _resolve_threads(threads))
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
