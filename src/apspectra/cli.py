"""Batch front door: config in, deterministic JSON/CSV artifacts out.

Every command reads one JSON config, validates it against the command's
table in ``config``, and writes its outputs atomically (temp file +
rename) into the chosen directory, guarded by a lock file against
concurrent runs.  Exit codes: 0 success, 2 config/validation problem
(the message names the offending field), 1 internal error.
"""

from __future__ import annotations

import argparse
import fcntl
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

# every layer loads with the CLI: perfbench's tracer looks each one up
# in sys.modules, and its self-test snapshots them after importing cli
from . import almost, diffraction, spectral
from .config import (build_budget, build_observable, build_point,
                     build_schedule, build_weights, canonical_json,
                     config_hash, load_config, validate)
from .errors import ApspectraError, ConfigError, FractionExceedsOne
from .folner import EstimatorConfig
from .points import observable_keys, observable_track

__all__ = ["main"]


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
        self.write_blocks(name, (content,))

    def write_blocks(self, name: str, blocks) -> None:
        """Write ``blocks``, strings, as they come; then rename onto ``name``."""
        tmp = self.path / f"{name}.tmp-{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(blocks)
            os.replace(tmp, self.path / name)
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


# spectrum.csv's body is formatted and written in blocks of at most this
# many lines, so neither a string per line nor the whole body is held
_BLOCK = 8192


def _block(thetas: np.ndarray, re: list, im: list, mod: list) -> str:
    return "".join([f"{t!r},{r},{i},{m}\n"
                    for t, r, i, m in zip(thetas.tolist(), re, im, mod)])


def _grid_lines(grid: spectral.FourierBohrGrid):
    """spectrum.csv's theta,re,im,|c| lines with the digits ``_fmt`` writes,
    yielded in blocks of at most ``_BLOCK`` lines that each end in a newline.

    The scalar ``abs`` rounds |c| as numpy scalars do; ``np.abs`` of the
    array may not.  When bin n - j is the conjugate of bin j bit for bit,
    as a real track's grid is, rows 0 .. n // 2 are formatted and row
    n - j reuses row j's cells with the sign of ``im`` toggled, which is
    exact since repr(-x) is "-" + repr(x) for every float but nan.  Only
    the mirrored blocks, the body's second half, are held until the end.
    """
    n = grid.n
    thetas = grid.thetas
    amps = np.ascontiguousarray(grid.amplitudes, dtype=complex)
    half = n // 2 + 1
    hermitian = (
        np.array_equal(amps[half:].view(np.uint64),
                       amps[n - half:0:-1].conj().view(np.uint64))
        and not np.isnan(amps.imag).any())
    top = half if hermitian else n
    mirrors = []
    for lo in range(0, top, _BLOCK):
        rows = amps[lo:min(lo + _BLOCK, top)]
        re = list(map(repr, rows.real.tolist()))
        im = list(map(repr, rows.imag.tolist()))
        mod = list(map(repr, map(abs, rows.tolist())))
        yield _block(thetas[lo:lo + len(rows)], re, im, mod)
        # rows n - j for the rows j = lo + i of this block in 1 .. n - half
        a, b = max(lo, 1) - lo, min(lo + len(rows), n - half + 1) - lo
        if hermitian and a < b:
            mirrors.append(_block(
                thetas[n - lo - b + 1:n - lo - a + 1], re[a:b][::-1],
                [s[1:] if s[0] == "-" else "-" + s for s in im[a:b][::-1]],
                mod[a:b][::-1]))
    yield from reversed(mirrors)


def _csv_head(header: list[str], expanded: dict, budget: dict | None) -> str:
    head = [f"# config_hash={config_hash(expanded)}"]
    if budget is not None:
        head.append(f"# budget={canonical_json(budget)}")
    head.append(",".join(header))
    return "\n".join(head) + "\n"


def _csv_doc(header: list[str], rows, expanded: dict, budget: dict | None) -> str:
    text = [_csv_head(header, expanded, budget)]
    text.extend(",".join(_fmt(v) if not isinstance(v, str) else v
                         for v in row) + "\n" for row in rows)
    return "".join(text)


# ---------------------------------------------------------------------------
# command handlers: take the validated config, return {filename: text},
# where a text may also be an iterable of strings, written as they come
# ---------------------------------------------------------------------------


def _cmd_generate(cfg: dict) -> dict:
    """The letters of a point over a range, and an observable's track."""
    point = build_point(cfg["point"])
    obs = None if cfg["observable"] is None else \
        build_observable(cfg["observable"], point)
    lo, hi = cfg["range"]
    files = {
        "generate.json": _json_doc({"length": hi - lo + 1}, cfg),
        "sequence.csv": itertools.chain(
            [_csv_head(["t", "letter"], cfg, None)],
            _range_lines(lo, hi, lambda a, b: (point.codes(a, b),
                                               point.alphabet))),
    }
    if obs is not None:
        table = obs.lookup_array(point.alphabet)
        cells = [f"{z.real!r},{z.imag!r}" for z in table.tolist()]

        def track(a, b):
            return observable_keys(obs, point, a, b - 1, table)[0], cells
        files["track.csv"] = itertools.chain(
            [_csv_head(["t", "re", "im"], cfg, None)],
            _range_lines(lo, hi, track))
    return files


def _range_lines(lo: int, hi: int, read):
    """CSV lines t,cell for t in [lo, hi], _BLOCK at a time, where
    ``read(a, b)`` gives ``(key, cells)`` and t's cell is cells[key[t - a]],
    formatted with the digits ``_fmt`` writes."""
    for a in range(lo, hi + 1, _BLOCK):
        b = min(a + _BLOCK, hi + 1)
        key, cells = read(a, b)
        yield "".join(f"{t},{cells[k]}\n"
                      for t, k in zip(range(a, b), key.tolist()))


def _cmd_scan(cfg: dict) -> dict:
    """Almost periods of each requested kind over the translate range."""
    point = build_point(cfg["point"])
    budget = build_budget(cfg)
    kinds = cfg["kinds"]
    lo, hi = cfg["range"]
    profile = almost.orbit_profile(point, range(lo, hi + 1), budget,
                                   kinds=tuple(kinds))
    scans = {kind: almost._scan_from_profile(profile, cfg["epsilon"], kind,
                                             (lo, hi))
             for kind in kinds}
    # the columns of the requested kinds only: the others are all NaN
    columns = [(name, column.tolist()) for name, kind, column in (
        ("mean_tail_max", "mean", profile.mean_tail_max),
        ("mean_converged", "mean", profile.mean_converged),
        ("weyl_value", "weyl", profile.weyl_value),
        ("bohr_value", "bohr", profile.bohr_value)) if kind in kinds]
    header = ["t"] + [name for name, _ in columns] + \
        [f"period_{k}" for k in kinds]
    rows = []
    for i, t in enumerate(profile.t_values.tolist()):
        row = [str(t)] + [values[i] for _, values in columns]
        row += [t in scans[k].periods for k in kinds]
        rows.append(row)
    return {
        "scan.json": _json_doc(
            {"scans": {k: s.describe() for k, s in scans.items()}}, cfg),
        "scan.csv": _csv_doc(header, rows, cfg, budget.fingerprint()),
    }


def _cmd_classify(cfg: dict) -> dict:
    """Mean, Weyl and Bohr almost-periodicity evidence for a point."""
    report = almost.classify_point(
        build_point(cfg["point"]), cfg["eps_grid"], build_budget(cfg),
        tuple(cfg["range"]), cfg["gap_threshold"])
    return {"classify.json": _json_doc({"report": report.describe()}, cfg)}


def _cmd_spectrum(cfg: dict) -> dict:
    """Fourier-Bohr grids and the frequencies detected on them."""
    point = build_point(cfg["point"])
    report = spectral.spectral_report(
        build_observable(cfg["observable"], point), point,
        build_schedule(cfg["schedule"]), cfg["grid_sizes"],
        threshold=cfg["threshold"], refine_steps=cfg["refine_steps"],
        max_frequencies=cfg["max_frequencies"],
        config=EstimatorConfig(**cfg["estimator"]))
    return {
        "spectrum.json": _json_doc({"report": report.describe()}, cfg),
        "spectrum.csv": itertools.chain(
            [_csv_head(["theta", "amp_re", "amp_im", "amp_abs"], cfg,
                       report.budget_fingerprint)],
            _grid_lines(report.grids[-1])),
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


def _cmd_parseval(cfg: dict) -> dict:
    """The Parseval defect of an observable along the schedule."""
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


def _cmd_eigen(cfg: dict) -> dict:
    """A Besicovitch eigenfunction sample at one frequency."""
    point = build_point(cfg["point"])
    sample = spectral.eigenfunction_sample(
        build_observable(cfg["observable"], point), cfg["theta"], point,
        cfg["point_shifts"], build_schedule(cfg["schedule"]),
        tuple(cfg["shift_probes"]),
        EstimatorConfig(**cfg["estimator"]))
    return {"eigen.json": _json_doc({"eigen": sample.describe()}, cfg)}


def _cmd_diffract(cfg: dict) -> dict:
    """Autocorrelation, diffraction density and atoms of a comb."""
    point = build_point(cfg["point"])
    schedule = build_schedule(cfg["schedule"])
    estimator = EstimatorConfig(**cfg["estimator"])
    comb = diffraction.WeightedComb(point, build_weights(cfg["weights"], point))
    k_max, taper = cfg["k_max"], cfg["taper"]
    atom_thetas = cfg["atom_thetas"]
    if atom_thetas is None:
        atom_thetas = _detect_thetas(cfg, point, comb.as_observable())
    atom_thetas = [float(t) for t in atom_thetas]
    # one read of the weights gives the lag sums and the atoms
    eta = diffraction.autocorrelation(comb, k_max, schedule, estimator,
                                      atom_thetas)
    density = diffraction.diffraction_density(eta, taper, cfg["grid_size"])
    atoms = dict(zip(atom_thetas, eta.atoms))
    masses = [(t, est.tail_max()) for t, est in atoms.items()]
    try:
        fraction = diffraction.pure_point_fraction(masses, eta.eta0) \
            if masses and eta.eta0 > 0 else 0.0
    except FractionExceedsOne as exc:
        # on a short schedule, near thetas each pick up their neighbours' mass
        raise ConfigError("atom_thetas", f"{exc}: list fewer thetas or "
                                         "lengthen the schedule") from None
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


def _run(command: str, config_path: str, out: str,
         seed_override: int | None) -> int:
    try:
        cfg = validate(command, load_config(config_path), seed_override)
        files = _HANDLERS[command](cfg)
        with OutputDir(out) as sink:
            for name, content in sorted(files.items()):
                write = sink.write_text if isinstance(content, str) \
                    else sink.write_blocks
                write(name, content)
        print(f"{command}: wrote {', '.join(sorted(files))} to {out}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ApspectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        import traceback

        traceback.print_exc()
        return 1


def main(args=None, prog_name=None):
    """Almost-periodicity and diffraction laboratory for integer sequences."""
    # args None reads sys.argv; ends in SystemExit, code 2 on a usage error
    parser = argparse.ArgumentParser(prog=prog_name or "apspectra",
                                     description=main.__doc__,
                                     allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="COMMAND")
    for name, handler in _HANDLERS.items():
        cmd = commands.add_parser(name, help=handler.__doc__,
                                  description=handler.__doc__,
                                  allow_abbrev=False)
        cmd.add_argument("--config", required=True, metavar="PATH",
                         help="JSON experiment config")
        cmd.add_argument("--out", default="out", metavar="DIR",
                         help="output directory (default: out)")
        cmd.add_argument("--threads", type=int, choices=(1,), metavar="1",
                         help="accepted and ignored: commands run on one thread")
        cmd.add_argument("--seed-override", type=int, metavar="SEED",
                         help="replace the configured generator seed")
    ns = parser.parse_args(args)
    sys.exit(_run(ns.command, ns.config, ns.out, ns.seed_override))


if __name__ == "__main__":
    main()
